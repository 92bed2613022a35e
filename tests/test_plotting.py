from lattice_rotor.plotting import cell_svg, curve_svg


class TestCurveSvg:
    def test_byte_deterministic(self):
        args = ([1.0, 2.0, 3.0], [0.2, 0.1, 0.05], [True, True, False], 0.1, "demo")
        assert curve_svg(*args) == curve_svg(*args)

    def test_single_point_has_marker_but_no_polyline(self):
        svg = curve_svg([2.0], [0.08], [True], 0.1, "one point")
        assert "<circle" in svg
        assert "<polyline" not in svg

    def test_missed_points_use_distinct_glyph(self):
        svg = curve_svg([1.0, 2.0], [0.3, 0.05], [False, True], 0.1, "mixed")
        assert "#cc0000" in svg  # miss glyph
        assert "#3465a4" in svg  # achieved marker

    def test_tolerance_rule_present(self):
        svg = curve_svg([1.0, 2.0], [0.3, 0.05], [True, True], 0.1, "rule")
        assert "stroke-dasharray" in svg

    def test_title_is_escaped(self):
        svg = curve_svg([1.0], [0.1], [True], 0.1, "<&>")
        assert "<&>" not in svg
        assert "&lt;&amp;&gt;" in svg

    def test_is_valid_svg_document(self):
        svg = curve_svg([1.0, 2.0], [0.2, 0.1], [True, True], 0.1, "doc")
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")


class TestCellSvg:
    def test_byte_deterministic(self):
        residues = [(0.02, -0.03), (-0.4, 0.1)]
        assert cell_svg(residues, 0.1, "cell") == cell_svg(residues, 0.1, "cell")

    def test_empty_residues_still_render(self):
        svg = cell_svg([], 0.1, "empty")
        assert svg.startswith("<svg")
