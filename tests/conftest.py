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
