import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "slow-exact-arithmetic",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("slow-exact-arithmetic")


def _traced_peak_mb(fn) -> float:
    # numpy reports its data buffers to tracemalloc; if it ever stopped,
    # every memory bound in the tests would hold vacuously, so a fresh
    # 8 MB array must register first
    tracemalloc.start()
    try:
        probe = np.empty(1 << 20)
        seen = tracemalloc.get_traced_memory()[0] / 2**20
        assert 7.9 < seen < 8.5, f"an 8 MB numpy array traced as {seen:.2f} MB"
        del probe
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 2**20


@pytest.fixture
def traced_peak_mb():
    """traced_peak_mb(fn): the peak of memory traced while fn() runs, in
    MB, over what was traced when it started."""
    return _traced_peak_mb


def _splitmix64_words(seed: int, count: int, skip: int = 0) -> list:
    # SplitMix64 as published (Steele, Lea and Flood, OOPSLA 2014): a
    # 64-bit state advanced by the golden gamma, each new state mixed into
    # one output.  After k outputs the state is seed + k * gamma mod 2^64,
    # so the stream starts past `skip` outputs at that state.
    gamma, mask = 0x9E3779B97F4A7C15, (1 << 64) - 1
    state, words = (seed + skip * gamma) & mask, []
    for _ in range(count):
        state = (state + gamma) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        words.append(z ^ (z >> 31))
    return words


def _splitmix64_rows(seed: int, count: int, start: int = 0) -> list:
    # samples start .. start + count - 1 of prop-sep's stream: sample i is
    # outputs 2i + 1 and 2i + 2, read as (turn, reflect, t1, t2)
    words = _splitmix64_words(seed, 2 * count, skip=2 * start)
    return [
        ((rot >> 11) / 2**53, bool(rot & 1), (trans >> 32) / 2**32, (trans & 0xFFFFFFFF) / 2**32)
        for rot, trans in zip(words[::2], words[1::2])
    ]


@pytest.fixture
def splitmix64_words():
    """splitmix64_words(seed, count, skip=0): outputs skip + 1 ..
    skip + count of the SplitMix64 stream seeded with seed, computed in
    pure Python by the published state-stepping form, apart from the
    package's counter-based hashes."""
    return _splitmix64_words


@pytest.fixture
def splitmix64_rows():
    """splitmix64_rows(seed, count, start=0): the (turn, reflect, t1, t2)
    rows of prop-sep samples start .. start + count - 1, from the
    reference stream of splitmix64_words."""
    return _splitmix64_rows
