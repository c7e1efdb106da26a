"""Command-line contract: JSON shapes, exit codes, determinism, SVG."""
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import pytest

import inconic
from inconic.cli import main
from inconic.fmt import fmt_number

QUAD = "0,0 1,0 3,2 0,1"
WIDE = "0,0 1,0 4,2 0,1"
SQUARE = "0,0 1,0 1,1 0,1"
NONCONVEX = "0,0 1,0 0.4,0.4 0,1"
SHIFTED = "-4,-3 -3,-3 -1,-1 -4,-2"  # QUAD moved by (-4, -3)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInspect:
    def test_worked_quad(self, capsys):
        code, out, _ = run_cli(capsys, "inspect", "--vertices", QUAD)
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "trapezium"
        assert doc["M1"] == [0.5, 0.5]
        assert doc["M2"] == [1.5, 1.0]
        assert doc["s"] == 3 and doc["t"] == 2
        assert doc["normal_form"] == {"s": 3, "t": 2}
        assert doc["locus_param_range"] == [0.5, 1.5]
        assert doc["chord_x"][0] == [0, 0.25]
        assert doc["chord_x"][1] == [2.5, 1.5]

    def test_unit_square(self, capsys):
        code, out, _ = run_cli(capsys, "inspect", "--vertices", SQUARE)
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "parallelogram"
        assert doc["M1"] == doc["M2"] == [0.5, 0.5]
        assert doc["normal_form"] is None

    def test_nonconvex_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "inspect", "--vertices", NONCONVEX)
        assert code == 2
        assert not out
        assert err

    def test_keys_sorted(self, capsys):
        _, out, _ = run_cli(capsys, "inspect", "--vertices", QUAD)
        keys = list(json.loads(out).keys())
        assert keys == sorted(keys)


# how each printed number of an ellipse record scales with the quad
_POWERS = {"angle_rad": 0, "area": 2, "center": 1, "foci": 1, "h0": 0,
           "semi_major": 1, "semi_minor": 1}


def _scaled_numbers(got, want, scale):
    """(printed, unscaled × scale^power) for every number of the ellipse
    record(s) but the conic; a contact's x and y scale unless it is at
    infinity (w = 0), and its w does not."""
    if isinstance(want, list):
        for g, w in zip(got, want, strict=True):
            yield from _scaled_numbers(g, w, scale)
        return
    assert sorted(got) == sorted(want)
    for key, power in _POWERS.items():
        if key in want:
            flat_got, flat_want = _flat(got[key]), _flat(want[key])
            yield from zip(flat_got, [x * scale ** power for x in flat_want], strict=True)
    for (x, y, w), (wx, wy, ww) in zip(got["tangencies"], want["tangencies"], strict=True):
        f = scale if ww else 1.0
        yield from ((x, wx * f), (y, wy * f), (w, ww))


def _flat(value):
    return [x for item in value for x in _flat(item)] if isinstance(value, list) else [value]


class TestInscribe:
    @pytest.mark.parametrize("exponent", ["e81", "e-77"])
    def test_det_squared_past_the_float_range_exits_0(self, capsys, exponent):
        # det(T)^2 used to leave the float range here (exit 5); the library
        # result is pinned within 4 ulps in test_inscribed.py, and every
        # number prints at its own size
        scale = float("1" + exponent)
        vertices = f"0,0 1{exponent},0 3{exponent},2{exponent} 0,1{exponent}"
        want = json.loads(run_cli(capsys, "inscribe", "--vertices", QUAD, "--u", "0.37")[1])
        code, out, err = run_cli(capsys, "inscribe", "--vertices", vertices, "--u", "0.37")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["classification"] == "ellipse"
        assert doc["angle_rad"] == pytest.approx(want["angle_rad"], rel=1e-14)
        for key, power in (("semi_major", 1), ("semi_minor", 1), ("area", 2)):
            assert doc[key] == pytest.approx(want[key] * scale ** power, rel=1e-14, abs=0)

    @pytest.mark.parametrize("k", [-43, -498])
    @pytest.mark.parametrize("argv", [("inscribe", "--u", "0.37"), ("maxarea",),
                                      ("sample", "--n", "3")],
                             ids=["inscribe", "maxarea", "sample"])
    def test_scaled_by_a_power_of_two_prints_the_scaled_numbers(self, capsys, argv, k):
        # every printed number but the conic's (whose canonical scale mixes
        # powers of the scale) is the unscaled one times 2^k to its power,
        # and none prints as 0 where the unscaled one is not 0
        scale = 2.0 ** k
        vertices = " ".join(f"{x * scale!r},{y * scale!r}"
                            for x, y in [(0, 0), (1, 0), (3, 2), (0, 1)])
        want = json.loads(run_cli(capsys, argv[0], "--vertices", QUAD, *argv[1:])[1])
        code, out, err = run_cli(capsys, argv[0], "--vertices", vertices, *argv[1:])
        assert code == 0, err
        got = json.loads(out)
        pairs = list(_scaled_numbers(got, want, scale))
        assert len(pairs) == 22 * (3 if argv[0] == "sample" else 1) + (argv[0] == "maxarea")
        for value, expected in pairs:
            assert value == pytest.approx(expected, rel=1e-14, abs=0)
            assert (value == 0) == (expected == 0)

    def test_center_flag(self, capsys):
        code, out, _ = run_cli(capsys, "inscribe", "--vertices", QUAD,
                               "--center", "1,0.75")
        assert code == 0
        doc = json.loads(out)
        assert doc["classification"] == "ellipse"
        assert doc["area"] == pytest.approx(1.7562036827601816, rel=1e-9)
        assert doc["center"] == pytest.approx([1.0, 0.75], abs=1e-9)
        tangencies = doc["tangencies"]
        assert len(tangencies) == 4
        expected = [(1 / 3, 0.0), (5 / 3, 2 / 3), (9 / 7, 10 / 7), (0.0, 0.25)]
        for (x, y, w), (ex, ey) in zip(tangencies, expected):
            assert w == 1
            assert (x, y) == pytest.approx((ex, ey), abs=1e-9)
        assert len(doc["conic"]) == 6
        assert len(doc["foci"]) == 2

    def test_u_flag_matches_center(self, capsys):
        _, out_u, _ = run_cli(capsys, "inscribe", "--vertices", QUAD, "--u", "0.5")
        _, out_c, _ = run_cli(capsys, "inscribe", "--vertices", QUAD,
                              "--center", "1,0.75")
        assert out_u == out_c

    def test_off_line_center_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, "inscribe", "--vertices", QUAD,
                             "--center", "0.7,0.7")
        assert code == 3

    def test_parallelogram_exits_4(self, capsys):
        code, _, _ = run_cli(capsys, "inscribe", "--vertices", SQUARE,
                             "--u", "0.5")
        assert code == 4

    def test_json_input_file(self, capsys, tmp_path):
        path = tmp_path / "quad.json"
        path.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [3, 2], [0, 1]]}))
        code, out, _ = run_cli(capsys, "inscribe", "--input", str(path),
                               "--u", "0.5")
        assert code == 0
        assert json.loads(out)["center"] == pytest.approx([1.0, 0.75], abs=1e-9)

    @pytest.mark.parametrize("coordinate", [None, True, [1], {"x": 1}],
                             ids=["null", "bool", "list", "object"])
    def test_non_number_coordinate_exits_2(self, capsys, tmp_path, coordinate):
        path = tmp_path / "quad.json"
        path.write_text(json.dumps({"vertices": [[0, 0], [1, coordinate], [3, 2], [0, 1]]}))
        code, out, err = run_cli(capsys, "inspect", "--input", str(path))
        assert code == 2
        assert not out
        assert 'input must be {"vertices": [[x,y] x 4]}' in err

    def test_integer_too_large_for_a_float_exits_2(self, capsys, tmp_path):
        path = tmp_path / "quad.json"
        big = "1" + "0" * 400
        path.write_text('{"vertices": [[0, 0], [1, %s], [3, 2], [0, 1]]}' % big)
        code, out, err = run_cli(capsys, "inspect", "--input", str(path))
        assert code == 2
        assert not out
        assert 'input must be {"vertices": [[x,y] x 4]}' in err

    def test_missing_input_file_exits_6(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "inscribe", "--input",
                             str(tmp_path / "nope.json"), "--u", "0.5")
        assert code == 6

    def test_byte_determinism(self, capsys):
        outs = set()
        for _ in range(3):
            _, out, _ = run_cli(capsys, "inscribe", "--vertices", QUAD,
                                "--u", "0.37")
            outs.add(out)
        assert len(outs) == 1


class TestMaxArea:
    def test_wide_quad_center(self, capsys):
        code, out, _ = run_cli(capsys, "maxarea", "--vertices", WIDE)
        assert code == 0
        doc = json.loads(out)
        assert doc["center"] == pytest.approx([4 / 3, 7 / 9], abs=1e-9)

    def test_worked_quad_center(self, capsys):
        code, out, _ = run_cli(capsys, "maxarea", "--vertices", QUAD)
        assert code == 0
        doc = json.loads(out)
        h0 = (8 + math.sqrt(1792)) / 48
        assert doc["center"] == pytest.approx([h0, (1 + 2 * h0) / 4], abs=1e-9)

    def test_square_exits_4(self, capsys):
        code, _, _ = run_cli(capsys, "maxarea", "--vertices", SQUARE)
        assert code == 4


# Quads a tiny tol_par lets through as trapezoids although they are
# parallelograms to within an ulp: s = 1 -+ 2^-52 in the normal frame, and
# diagonal midpoints that coincide in floats.  Nothing on the diagonal
# pencil divides by s - 1, so maxarea and inscribe --u build the square's
# incircle, area pi/4, where the normal frame found no root of its one-ulp
# interval, a degenerate determinant or a vertical center line.
NEAR_PARALLELOGRAMS = [
    pytest.param(["maxarea", "--vertices", "0,0 1,0 0.99999999999999977,1 0,1"],
                 id="maxarea-s-1-minus-ulp"),
    pytest.param(["maxarea", "--vertices", "0,0 1,0 1.00000000000000023,1 0,1"],
                 id="maxarea-s-1-plus-ulp"),
    pytest.param(["inscribe", "--vertices", "0,0 1,0 1.00000000000000023,1 0,1", "--u", "0.5"],
                 id="inscribe-s-1-plus-ulp"),
    pytest.param(["maxarea", "--vertices", "0,0 1,1e-17 1,1 0,1"], id="maxarea-zero-length-locus"),
    pytest.param(["inscribe", "--vertices", "0,0 1,1e-17 1,1 0,1", "--u", "0.5"],
                 id="inscribe-zero-length-locus"),
]


@pytest.mark.parametrize("argv", NEAR_PARALLELOGRAMS)
def test_near_parallelograms_build_the_incircle(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--tol", "tol_par=1e-300")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["area"] == pytest.approx(math.pi / 4, rel=1e-14)
    assert doc["semi_major"] == pytest.approx(0.5, rel=1e-14)
    assert doc["center"] == pytest.approx([0.5, 0.5], abs=1e-15)


@pytest.mark.parametrize("exponent", ["e-154", "e154"])
def test_inscribe_builds_where_the_normal_frame_leaves_the_float_range(capsys, exponent):
    # the worked quad at 1e-154 (the normal frame's form under- and
    # overflowed) and 1e154 (its basis overflows, as inspect still reports)
    vertices = f"0,0 1{exponent},0 3{exponent},2{exponent} 0,1{exponent}"
    code, out, err = run_cli(capsys, "inscribe", "--vertices", vertices, "--u", "0.37")
    assert (code, err) == (0, "")
    _, want, _ = run_cli(capsys, "inscribe", "--vertices", QUAD, "--u", "0.37")
    got, want = json.loads(out), json.loads(want)
    scale = float("1" + exponent)
    assert got["semi_major"] == pytest.approx(want["semi_major"] * scale, rel=1e-14)
    assert got["angle_rad"] == pytest.approx(want["angle_rad"], rel=1e-14)


class TestVerify:
    def test_valid_center_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--vertices", QUAD,
                               "--center", "1,0.75")
        assert code == 0
        doc = json.loads(out)
        assert all(r < 1e-8 for r in doc["tangency_residuals"])
        assert doc["center_error"] < 1e-9
        assert doc["marden_vs_pencil_distance"] < 1e-8
        assert doc["classification"] == "ellipse"

    def test_near_endpoint_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--vertices", QUAD,
                             "--u", "1e-12")
        assert code == 3

    def test_midpoint_center_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--vertices", QUAD,
                                 "--center", "0.5,0.5", "--allow-hyperbola")
        assert code == 3
        assert not out
        assert "diagonal midpoint" in err

    @pytest.mark.parametrize("off", [1e3, 1e6])
    def test_far_from_origin_passes(self, capsys, off):
        # the pencil oracle is built about the quad's first vertex; at the
        # original placement its dual determinant falls like off^-6
        vertices = " ".join(f"{x + off!r},{y + off!r}"
                            for x, y in [(0, 0), (1, 0), (3, 2), (0, 1)])
        for args in (("--u", "0.37"),
                     ("--center", f"{2.3 + off!r},{1.4 + off!r}", "--allow-hyperbola")):
            code, out, err = run_cli(capsys, "verify", "--vertices", vertices, *args)
            assert code == 0, err
            assert json.loads(out)["marden_vs_pencil_distance"] < 1e-8

    @pytest.mark.parametrize("scale", [1e-6, 1e9])
    def test_any_size_passes(self, capsys, scale):
        # the pencil oracle is built on the quad divided by its extent; at
        # the original size its unit-norm dual reads as degenerate
        vertices = " ".join(f"{x * scale!r},{y * scale!r}"
                            for x, y in [(0, 0), (1, 0), (3, 2), (0, 1)])
        for args in (("--u", "0.37"),
                     ("--center", f"{2.3 * scale!r},{1.4 * scale!r}", "--allow-hyperbola")):
            code, out, err = run_cli(capsys, "verify", "--vertices", vertices, *args)
            assert code == 0, err
            assert json.loads(out)["marden_vs_pencil_distance"] < 1e-8

    def test_hyperbola_requires_flag(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--vertices", QUAD,
                             "--center", "2.3,1.4")
        assert code == 3
        code, out, _ = run_cli(capsys, "verify", "--vertices", QUAD,
                               "--center", "2.3,1.4", "--allow-hyperbola")
        assert code == 0
        doc = json.loads(out)
        assert doc["classification"] == "hyperbola"
        assert all(r < 1e-8 for r in doc["tangency_residuals"])
        assert doc["marden_vs_pencil_distance"] < 1e-8

    @pytest.mark.parametrize("args", [("--center", "1,0.75"), ("--u", "0.37")],
                             ids=["center", "u"])
    def test_allow_hyperbola_changes_nothing_on_the_locus(self, capsys, args):
        # the flag only lets a chord center off the locus fall back to the
        # tangent hyperbola; an ellipse's report does not depend on it
        want = run_cli(capsys, "verify", "--vertices", QUAD, *args)
        assert want[0] == 0, want[2]
        assert run_cli(capsys, "verify", "--vertices", QUAD, *args, "--allow-hyperbola") == want

    @pytest.mark.parametrize("args", [("--u", "0.97"),
                                      ("--center", "2.3,1.4", "--allow-hyperbola")],
                             ids=["u", "hyperbola"])
    def test_loose_construction_tolerance_leaves_the_oracles_alone(
            self, capsys, monkeypatch, args):
        # --tol tunes the construction and verify's residual rule; the
        # pencil oracle and Conic.center keep their fixed thresholds
        want = run_cli(capsys, "verify", "--vertices", QUAD, *args)
        got = run_cli(capsys, "verify", "--vertices", QUAD, *args, "--tol", "tol_on=1e-6")
        assert got[0] == 0, got[2]
        assert got == want

    @pytest.mark.parametrize("name, failure, reported", [
        ("conic_distance", "marden_vs_pencil_distance", 1),
        ("tangency_residual", "tangency_residuals", [1, 1, 1, 1]),
    ])
    def test_failed_check_still_prints_the_report(self, capsys, monkeypatch,
                                                  name, failure, reported):
        monkeypatch.setattr(inconic.oracle, name, lambda *args: 1.0)
        code, out, err = run_cli(capsys, "verify", "--vertices", QUAD, "--u", "0.37")
        assert code == 5
        doc = json.loads(out)
        assert sorted(doc) == ["center_error", "classification",
                               "marden_vs_pencil_distance", "tangency_residuals"]
        assert doc[failure] == reported
        assert err == f"verification failed: {failure}\n"

    def test_drifted_center_fails_on_center_error(self, capsys, monkeypatch):
        # a construction whose carried center leaves its conic's center by
        # 3e-9, past 1e-9 (1 + locus length), fails on that check alone
        construct = inconic.cli.inscribe_at_param

        def drifted(*args):
            r = construct(*args)
            e = r.ellipse
            moved = inconic.Point(e.center.x + 3e-9, e.center.y)
            ellipse = inconic.EllipseGeo(moved, e.semi_major, e.semi_minor, e.angle,
                                         e.focus1, e.focus2)
            return inconic.InscribedResult(ellipse, r.conic, r.tangencies)

        monkeypatch.setattr(inconic.cli, "inscribe_at_param", drifted)
        code, out, err = run_cli(capsys, "verify", "--vertices", QUAD, "--u", "0.37")
        assert code == 5
        assert json.loads(out)["center_error"] == pytest.approx(3e-9, rel=1e-6)
        assert err == "verification failed: center_error\n"


class TestSample:
    def test_single_sample_is_midpoint(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--vertices", QUAD, "--n", "1")
        assert code == 0
        docs = json.loads(out)
        assert len(docs) == 1
        assert docs[0]["center"] == pytest.approx([1.0, 0.75], abs=1e-9)

    def test_areas_unimodal(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--vertices", QUAD, "--n", "9")
        assert code == 0
        areas = [d["area"] for d in json.loads(out)]
        assert len(areas) == 9
        peak = areas.index(max(areas))
        assert all(areas[i] < areas[i + 1] for i in range(peak))
        assert all(areas[i] > areas[i + 1] for i in range(peak, 8))

    @pytest.mark.parametrize("vertices", [QUAD, "0,0 2,0 1.5,1 0,1"])
    def test_samples_match_single_inscribes(self, capsys, vertices):
        n = 6
        _, out, _ = run_cli(capsys, "sample", "--vertices", vertices, "--n", str(n))
        singles = []
        for i in range(1, n + 1):
            _, one, _ = run_cli(capsys, "inscribe", "--vertices", vertices, "--u", repr(i / (n + 1)))
            singles.append(json.loads(one))
        assert json.loads(out) == singles

    def test_failed_member_prints_nothing(self, capsys, monkeypatch):
        # the records are written as the members are built, but printed
        # only once all of them are
        import inconic.inscribed
        construct, built = inconic.inscribed._construct, []

        def fifth_fails(*args):
            built.append(args)
            if len(built) == 5:
                raise inconic.errors.NotTangent("side 2 missed")
            return construct(*args)

        monkeypatch.setattr(inconic.inscribed, "_construct", fifth_fails)
        code, out, err = run_cli(capsys, "sample", "--vertices", QUAD, "--n", "9")
        assert code == 5
        assert out == ""
        assert "side 2 missed" in err
        assert len(built) == 5

    @pytest.mark.parametrize("argv", [("inscribe", "--u", "0.37"), ("maxarea",),
                                      ("sample", "--n", "9")],
                             ids=["inscribe", "maxarea", "sample"])
    def test_non_finite_number_exits_2(self, capsys, monkeypatch, argv):
        # a result the number rule cannot print is a numerical failure
        # (exit 5, not 2 as the name, kept from when it was, says) with
        # empty stdout, as when dumps printed the records
        import inconic.area
        import inconic.inscribed
        construct = inconic.inscribed._construct

        def nan_area(*args):
            result = construct(*args)
            return SimpleNamespace(ellipse=SimpleNamespace(
                **{k: getattr(result.ellipse, k) for k in
                   ("center", "semi_major", "semi_minor", "angle", "focus1", "focus2")},
                area=math.nan), conic=result.conic, tangencies=result.tangencies)

        for module in (inconic.inscribed, inconic.area):
            monkeypatch.setattr(module, "_construct", nan_area)
        code, out, err = run_cli(capsys, argv[0], "--vertices", QUAD, *argv[1:])
        assert code == 5
        assert out == ""
        assert "numerical failure" in err and "non-finite" in err

    def test_zero_samples_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--vertices", QUAD, "--n", "0")
        assert code == 1
        assert out == ""
        assert "--n" in err and "at least 1" in err


class TestRender:
    def test_scene_scaled_by_a_power_of_two_scales_its_viewbox(self, capsys, tmp_path):
        # no floor pads a small scene and no number prints as 0: the
        # 2^-43 quad's viewBox and corners are the unscaled ones times 2^-43
        scale = 2.0 ** -43
        small = " ".join(f"{x * scale!r},{y * scale!r}"
                         for x, y in [(0, 0), (1, 0), (3, 2), (0, 1)])
        ns = {"s": "http://www.w3.org/2000/svg"}

        def numbers(vertices):
            path = tmp_path / "scene.svg"
            code, _, err = run_cli(capsys, "render", "--vertices", vertices, "--u", "0.37",
                                   "--out", str(path))
            assert code == 0, err
            root = ET.parse(path).getroot()
            corners = root.find("s:polygon", ns).get("points").replace(",", " ")
            return [float(x) for x in f"{root.get('viewBox')} {corners}".split()]

        want = [x * scale for x in numbers(QUAD)]
        assert numbers(small) == pytest.approx(want, rel=1e-14, abs=0)

    def test_maxarea_scene(self, capsys, tmp_path):
        out_file = tmp_path / "scene.svg"
        code, _, _ = run_cli(capsys, "render", "--vertices", WIDE,
                             "--maxarea", "--out", str(out_file))
        assert code == 0
        root = ET.parse(out_file).getroot()
        assert root.tag.endswith("svg")
        assert root.get("version") == "1.1"
        ns = {"s": "http://www.w3.org/2000/svg"}
        ellipses = root.findall("s:ellipse", ns)
        assert len(ellipses) == 1
        assert float(ellipses[0].get("cx")) == pytest.approx(4 / 3, abs=1e-9)
        assert float(ellipses[0].get("cy")) == pytest.approx(7 / 9, abs=1e-9)
        assert root.findall("s:polygon", ns)

    def test_far_contacts_are_drawn(self, capsys, tmp_path):
        off = 1e10
        vertices = " ".join(f"{x + off!r},{y + off!r}"
                            for x, y in [(0, 0), (1, 0), (3, 2), (0, 1)])
        out_file = tmp_path / "far.svg"
        code, _, _ = run_cli(capsys, "render", "--vertices", vertices,
                             "--u", "0.37", "--out", str(out_file))
        assert code == 0
        root = ET.parse(out_file).getroot()
        ns = {"s": "http://www.w3.org/2000/svg"}
        assert len(root.findall("s:circle", ns)) == 4

    def test_multi_sample_scene(self, capsys, tmp_path):
        out_file = tmp_path / "five.svg"
        code, _, _ = run_cli(capsys, "render", "--vertices", QUAD,
                             "--n", "5", "--out", str(out_file))
        assert code == 0
        root = ET.parse(out_file).getroot()
        ns = {"s": "http://www.w3.org/2000/svg"}
        assert len(root.findall("s:ellipse", ns)) == 5

    @pytest.mark.parametrize("selector, command", [
        (("--center", "1,0.75"), ("inscribe", "--center", "1,0.75")),
        (("--u", "0.37"), ("inscribe", "--u", "0.37")),
        (("--maxarea",), ("maxarea",)),
        (("--n", "5"), ("sample", "--n", "5")),
    ], ids=["center", "u", "maxarea", "n"])
    def test_ellipses_are_the_records_ellipses(self, capsys, tmp_path, selector, command):
        # each <ellipse> carries the center and semi-axes of the JSON record
        # the matching subcommand prints for the same selector, in order
        out_file = tmp_path / "scene.svg"
        code, _, err = run_cli(capsys, "render", "--vertices", QUAD, *selector,
                               "--out", str(out_file))
        assert code == 0, err
        code, out, err = run_cli(capsys, command[0], "--vertices", QUAD, *command[1:])
        assert code == 0, err
        records = json.loads(out)
        records = records if isinstance(records, list) else [records]
        want = [tuple(fmt_number(x) for x in (*r["center"], r["semi_major"], r["semi_minor"]))
                for r in records]
        ns = {"s": "http://www.w3.org/2000/svg"}
        got = [tuple(e.get(k) for k in ("cx", "cy", "rx", "ry"))
               for e in ET.parse(out_file).getroot().findall("s:ellipse", ns)]
        assert got == want

    def test_zero_samples_is_usage_error(self, capsys, tmp_path):
        out_file = tmp_path / "none.svg"
        code, out, err = run_cli(capsys, "render", "--vertices", QUAD,
                                 "--n", "0", "--out", str(out_file))
        assert code == 1
        assert out == ""
        assert "--n" in err and "at least 1" in err
        assert not out_file.exists()

    def test_unwritable_path_exits_6(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "render", "--vertices", QUAD,
                             "--u", "0.5", "--out",
                             str(tmp_path / "missing" / "dir" / "f.svg"))
        assert code == 6


class TestUsageAndTolerances:
    @pytest.mark.parametrize("command", ["inscribe", "verify", "render"])
    def test_negative_center_is_a_value(self, capsys, tmp_path, command):
        # (-3, -2.25) is the middle of SHIFTED's locus; argparse alone would
        # read "-3,-2.25" as an option and "--center" as missing its value
        extra = ["--out", str(tmp_path / "x.svg")] if command == "render" else []
        code, out, err = run_cli(capsys, command, "--vertices", SHIFTED,
                                 "--center", "-3,-2.25", *extra)
        assert code == 0, err
        assert run_cli(capsys, command, "--vertices", SHIFTED,
                       "--center=-3,-2.25", *extra) == (0, out, err)

    @pytest.mark.parametrize("command", ["inscribe", "verify", "render"])
    @pytest.mark.parametrize("vertices", [QUAD, NONCONVEX], ids=["worked", "nonconvex"])
    @pytest.mark.parametrize("u", ["nan", "inf", "-inf"])
    def test_non_finite_u_is_usage_error(self, capsys, tmp_path, command, vertices, u):
        # argparse rejects it before the quadrilateral is read, as it does
        # a non-finite --center; "-inf" needs the "=" form to be a value
        out_file = tmp_path / "x.svg"
        extra = ["--out", str(out_file)] if command == "render" else []
        code, out, err = run_cli(capsys, command, "--vertices", vertices, f"--u={u}", *extra)
        assert (code, out) == (1, "")
        assert err.startswith(f"usage: inconic {command}")
        assert f"inconic {command}: error: argument --u: must be finite" in err
        assert not out_file.exists()

    def test_u_not_a_number_keeps_argparse_wording(self, capsys):
        code, _, err = run_cli(capsys, "inscribe", "--vertices", NONCONVEX, "--u", "abc")
        assert code == 1
        assert "argument --u: invalid float value: 'abc'" in err

    def test_no_command_is_usage_error(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli(capsys, "inspect", "--bogus")[0] == 1

    def test_malformed_center_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "inscribe", "--vertices", QUAD,
                             "--center", "abc")
        assert code == 1

    def test_tol_flag_roundtrip(self, capsys):
        # loosening the parallelism tolerance flips a near-trapezoid's kind
        wonky = "0,0 1,0 3,1.0000001 0,1"
        _, out, _ = run_cli(capsys, "inspect", "--vertices", wonky)
        assert json.loads(out)["kind"] == "trapezium"
        _, out, _ = run_cli(capsys, "inspect", "--vertices", wonky,
                            "--tol", "tol_par=1e-2")
        assert json.loads(out)["kind"] == "trapezoid"

    def test_bad_tol_string_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "inspect", "--vertices", QUAD,
                             "--tol", "nope=1")
        assert code != 0

    # an unknown name, an unparsable value, and values Tolerances rejects:
    # NaN would switch the tangency check off, -1 would fail every build
    BAD_TOL = ["bogus=1", "tol_tan=abc", "tol_tan=nan", "tol_tan=-1", "tol_par=inf"]

    @pytest.mark.parametrize("text", BAD_TOL)
    def test_bad_tol_flag_exits_usage(self, capsys, text):
        code, out, err = run_cli(capsys, "inscribe", "--vertices", QUAD,
                                 "--u", "0.37", "--tol", text)
        assert code == 1
        assert out == ""
        assert err.startswith("bad --tol value: ")

    def test_a_tolerance_set_twice_exits_usage(self, capsys):
        code, out, err = run_cli(capsys, "inscribe", "--vertices", QUAD, "--u", "0.37",
                                 "--tol", "tol_tan=1e-7,tol_tan=1e-3")
        assert (code, out) == (1, "")
        assert err == "bad --tol value: tolerance tol_tan is set twice\n"

    def test_tol_without_a_value_is_reported_missing(self, capsys):
        code, out, err = run_cli(capsys, "inscribe", "--vertices", QUAD,
                                 "--u", "0.37", "--tol", "tol_tan=")
        assert (code, out) == (1, "")
        assert err == "bad --tol value: missing value for tolerance tol_tan\n"


def _run_python(*args):
    # run the package this suite imported, whatever the caller's PYTHONPATH
    src = str(Path(inconic.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_module_entry_point():
    proc = _run_python("-m", "inconic", "inspect", "--vertices", QUAD)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kind"] == "trapezium"


def test_import_leaves_numpy_out():
    proc = _run_python("-c", "import sys, inconic; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


_STARTUP_MODULES = """
import sys
def loaded():
    return [m for m in ("dataclasses", "inspect") if m in sys.modules]
import inconic
print(loaded())
from inconic.cli import main
main(["inspect", "--vertices", sys.argv[1]])
print(loaded())
"""


def test_startup_leaves_dataclasses_and_inspect_out():
    # both cost a CLI process more start-up time than its computation
    proc = _run_python("-c", _STARTUP_MODULES, QUAD)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "[]"
    assert json.loads(lines[1])["kind"] == "trapezium"


# The package runs only the kernel at import and loads the oracles
# (marden, pencil, oracle), area and svg on first use.  Each check runs in
# a fresh interpreter, where an audit hook records every module body that
# runs (the "exec" audit event).
ON_FIRST_USE = {"marden", "pencil", "oracle", "area", "svg"}

# collects in ``ran`` the inconic modules whose code runs
_HOOK = """
import contextlib, importlib, io, json, sys
from pathlib import Path
ran = set()
def hook(event, args):
    if event == "exec" and hasattr(args[0], "co_filename"):
        path = Path(args[0].co_filename)
        if path.parent.name == "inconic":
            ran.add(path.stem)
sys.addaudithook(hook)
"""

# prints, as JSON, the inconic modules whose code ran during the argv's run
_RAN = _HOOK + """
argv = json.loads(sys.argv[1])
if argv is None:
    import inconic
else:
    from inconic.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, code
print(json.dumps(sorted(ran)))
"""


def _modules_run(argv) -> set[str]:
    proc = _run_python("-c", _RAN, json.dumps(argv))
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_import_runs_only_the_kernel():
    assert _modules_run(None) == {"__init__", "errors", "geometry", "inscribed"}


@pytest.mark.parametrize("argv, loaded", [
    (["inspect", "--vertices", QUAD], set()),
    (["inscribe", "--vertices", QUAD, "--u", "0.37"], set()),
    (["sample", "--vertices", QUAD, "--n", "3"], set()),
    (["maxarea", "--vertices", "0,0 2,0 1.5,1 0,1"], {"area"}),
    (["verify", "--vertices", QUAD, "--u", "0.37"], {"pencil", "oracle"}),
    (["verify", "--vertices", QUAD, "--center", "2.3,1.4", "--allow-hyperbola"],
     {"pencil", "oracle"}),
    (["render", "--vertices", QUAD, "--n", "3", "--out", "{dir}/scene.svg"], {"svg"}),
    (["render", "--vertices", QUAD, "--maxarea", "--out", "{dir}/scene.svg"], {"area", "svg"}),
], ids=["inspect", "inscribe", "sample", "maxarea", "verify", "verify-hyperbola",
        "render", "render-maxarea"])
def test_subcommand_runs_only_the_modules_it_uses(tmp_path, argv, loaded):
    ran = _modules_run([a.replace("{dir}", str(tmp_path)) for a in argv])
    # the hook sees module bodies at all: the kernel, fmt and cli ran
    assert {"geometry", "inscribed", "fmt", "cli"} <= ran
    assert ran & ON_FIRST_USE == loaded


# imports the kernel module argv[1], then reads the moved name argv[2] off
# it, and prints whether oracle.py ran before and after that read, and
# whether the name read is the object ``oracle`` defines, now bound there
_FORWARDED = _HOOK + """
module = importlib.import_module(sys.argv[1])
before = "oracle" in ran
obj = getattr(module, sys.argv[2])
home = vars(sys.modules["inconic.oracle"]).get(sys.argv[2])
print(json.dumps({"before": before, "after": "oracle" in ran,
                  "same": obj is home is vars(module).get(sys.argv[2])}))
"""


@pytest.mark.parametrize("module, name", [("inconic.geometry", "classify_conic"),
                                          ("inconic.inscribed", "foci_quadratic")])
def test_a_moved_name_runs_oracle_only_when_read(module, name):
    proc = _run_python("-c", _FORWARDED, module, name)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"before": False, "after": True, "same": True}


_RESOLVE = """
import json, sys
import inconic
before = [name for name in inconic.__all__ if name in vars(inconic)]
wrong = []
for name in inconic.__all__:
    obj = getattr(inconic, name)
    if name == "errors":
        home = sys.modules["inconic.errors"]
        ok = obj is home
    else:
        home = sys.modules[getattr(obj, "__module__", None) or type(obj).__module__]
        ok = vars(home).get(name) is obj
    if not (ok and vars(inconic).get(name) is obj):
        wrong.append(name)
print(json.dumps({"before": before, "wrong": wrong, "dir": dir(inconic)}))
"""


def test_every_public_name_resolves_to_its_defining_modules_object():
    proc = _run_python("-c", _RESOLVE)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["wrong"] == []
    # the names of the modules loaded on first use are bound on first access
    deferred = set(inconic.__all__) - set(doc["before"])
    assert {"max_area", "member_with_center", "pencil_from_lines", "TriangleZ",
            "MaxAreaResult", "stable_quadratic_roots"} <= deferred
    assert set(inconic.__all__) <= set(doc["dir"])
    assert doc["dir"] == sorted(doc["dir"])


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from inconic import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(inconic.__all__)
    assert namespace["max_area"] is inconic.area.max_area
    assert namespace["member_with_center"] is inconic.pencil.member_with_center


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        inconic.no_such_name
    assert not hasattr(inconic, "scene")


def test_modules_keep_their_paths():
    # the benchmark's tracer looks each layer up as sys.modules["inconic.<layer>"]
    for name in ON_FIRST_USE:
        assert sys.modules[f"inconic.{name}"] is getattr(inconic, name)
        assert getattr(inconic, name).__name__ == f"inconic.{name}"


# Loads bench/tracer.py by its path (argv[1]), checks that every function it
# wraps resolves through sys.modules["inconic.<layer>"] to the object its
# defining module holds, then traces one verify run (argv[2], the quad) and
# prints the names that did not resolve, the exit code and the call counts.
_TRACER_PATHS = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import inconic.cli
wrong = []
for layer, names in tracer.WRAPPED.items():
    for name in names:
        obj = getattr(sys.modules[f"inconic.{layer}"], name)
        if vars(sys.modules[obj.__module__]).get(name) is not obj:
            wrong.append(f"{layer}.{name}")
traced = tracer.Tracer()
traced.install()
try:
    with contextlib.redirect_stdout(io.StringIO()):
        code = inconic.cli.main(["verify", "--vertices", sys.argv[2], "--u", "0.37"])
finally:
    traced.uninstall()
print(json.dumps({"wrong": wrong, "code": code, "calls": traced.calls}))
"""


def test_the_tracers_module_paths_resolve():
    # the benchmark's tracer wraps each function by module path, such as
    # sys.modules["inconic.geometry"].classify_conic, so a function that
    # moves must stay readable there (``geometry`` and ``inscribed``
    # forward the names that moved to ``oracle``); the wrappers must then
    # count the calls verify makes through ``oracle``
    tracer = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    proc = _run_python("-c", _TRACER_PATHS, str(tracer), QUAD)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["wrong"] == []
    assert doc["code"] == 0
    calls = doc["calls"]
    assert calls["geometry.tangency_residual"] == 4
    assert calls["geometry.conic_distance"] == calls["geometry.transform_conic"] == 1
    assert calls["inscribed.inscribe_at_param"] == calls["pencil.member_with_center"] == 1
    assert "inscribed.foci_quadratic" not in calls


# runs inspect and both forms of verify (argv[1], the quad) in one process
# and prints whether json was imported
_JSON_LEFT_OUT = """
import contextlib, io, sys
from inconic.cli import main
for argv in (["inspect", "--vertices", sys.argv[1]],
             ["verify", "--vertices", sys.argv[1], "--u", "0.37"],
             ["verify", "--vertices", sys.argv[1], "--center", "2.3,1.4",
              "--allow-hyperbola"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print("json" in sys.modules)
"""


def test_inspect_and_verify_leave_json_out():
    # the strings they print are printable ASCII keys and words, which
    # fmt quotes itself; json is imported only for --input and other strings
    proc = _run_python("-c", _JSON_LEFT_OUT, QUAD)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# README's command-line examples, run through cli.main with numpy unimportable
_NO_NUMPY_RUN = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from inconic.cli import main
report = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    report.append([code, out.getvalue()])
print(json.dumps(report))
"""


def test_all_subcommands_run_without_numpy(tmp_path):
    svg_file = tmp_path / "scene.svg"
    commands = [
        ["inspect", "--vertices", QUAD],
        ["inscribe", "--vertices", QUAD, "--center", "1,0.75"],
        ["inscribe", "--vertices", QUAD, "--u", "0.5"],
        ["maxarea", "--vertices", WIDE],
        ["verify", "--vertices", QUAD, "--u", "0.37"],
        ["verify", "--vertices", QUAD, "--center", "2.3,1.4", "--allow-hyperbola"],
        ["sample", "--vertices", QUAD, "--n", "9"],
        ["render", "--vertices", WIDE, "--maxarea", "--out", str(svg_file)],
    ]
    proc = _run_python("-c", _NO_NUMPY_RUN, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert len(report) == len(commands)
    for argv, (code, out) in zip(commands, report):
        assert code == 0, argv
        if argv[0] == "render":
            assert out == ""
            assert ET.parse(svg_file).getroot().tag.endswith("svg")
        else:
            json.loads(out)


def test_verify_property_run(capsys, rng):
    # CI property: verify succeeds on 100 random trapezia x 10 centers
    from conftest import random_trapezium

    for _ in range(100):
        q = random_trapezium(rng)
        vertices = " ".join(f"{v.x},{v.y}" for v in q.vertices)
        for u in (0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95):
            code, out, err = run_cli(capsys, "verify", "--vertices", vertices,
                                     "--u", str(u))
            assert code == 0, err


# One row per handler in cli.main: argv ({dir} is a scratch directory
# holding bad.json, a file of the wrong schema), exit code, and how stderr
# starts.  Usage errors are found by argparse, so they
# win over a bad quadrilateral.
EXIT_CODE_CONTRACT = [
    pytest.param(["inspect"], 1, "usage: inconic inspect", id="1-no-source"),
    pytest.param(["inscribe", "--vertices", NONCONVEX, "--center", "abc"], 1,
                 "usage: inconic inscribe", id="1-bad-center-beats-bad-quad"),
    pytest.param(["sample", "--vertices", NONCONVEX, "--n", "0"], 1,
                 "usage: inconic sample", id="1-sample-n0-beats-bad-quad"),
    pytest.param(["render", "--vertices", NONCONVEX, "--n", "0", "--out", "{dir}/x.svg"], 1,
                 "usage: inconic render", id="1-render-n0-beats-bad-quad"),
    pytest.param(["inspect", "--vertices", QUAD, "--tol", "nope=1"], 1,
                 "bad --tol value: ", id="1-bad-tol"),
    pytest.param(["inspect", "--vertices", QUAD, "--tol", "tol_center=1e-8"], 1,
                 "bad --tol value: ", id="1-removed-tol-name"),
    pytest.param(["inspect", "--vertices", QUAD, "--tol", "tol_det=1e-12"], 1,
                 "bad --tol value: unknown tolerance setting", id="1-removed-tol-det"),
    pytest.param(["sample", "--vertices", QUAD, "--n", "abc"], 1,
                 "usage: inconic sample", id="1-sample-n-not-a-number"),
    pytest.param(["inspect", "--vertices", NONCONVEX], 2,
                 "invalid quadrilateral: ", id="2-nonconvex"),
    pytest.param(["inspect", "--vertices", ""], 2, "invalid input: ", id="2-empty-vertices"),
    pytest.param(["inspect", "--input", "{dir}/bad.json"], 2,
                 "invalid input: ", id="2-input-schema"),
    pytest.param(["inscribe", "--vertices", QUAD, "--center", "0.7,0.7"], 3,
                 "center not admissible: ", id="3-off-locus"),
    pytest.param(["inscribe", "--vertices", QUAD, "--u", "-1e-3"], 3,
                 "center not admissible: ", id="3-negative-u"),
    # 5e-4 of the extent off the locus line, judged in the normal frame,
    # so alike at the worked quad's scale and at 1e-6 of it
    pytest.param(["inscribe", "--vertices", QUAD, "--center", "1,0.7505"], 3,
                 "center not admissible: center is not on the center line",
                 id="3-off-line-at-scale-1"),
    pytest.param(["inscribe", "--vertices", "0,0 1e-6,0 3e-6,2e-6 0,1e-6",
                  "--center", "1e-6,7.505e-7"], 3,
                 "center not admissible: center is not on the center line",
                 id="3-off-line-at-scale-1e-6"),
    pytest.param(["inscribe", "--vertices", SQUARE, "--u", "0.5"], 4,
                 "parallelogram: ", id="4-parallelogram"),
    pytest.param(["inscribe", "--vertices", QUAD, "--u", "0.37", "--tol", "tol_tan=1e-30"], 5,
                 "numerical failure: ", id="5-not-tangent"),
    # diagonal midpoints that coincide in floats: a center fixes no conic,
    # and there is no chord (the parameter and maxarea build, see
    # test_near_parallelograms_build_the_incircle)
    pytest.param(["inscribe", "--vertices", "0,0 1,1e-17 1,1 0,1", "--center", "0.5,0.5",
                  "--tol", "tol_par=1e-300"], 5,
                 "numerical failure: the diagonal midpoints coincide: there is no center line",
                 id="5-zero-length-locus"),
    pytest.param(["inspect", "--vertices", "0,0 1,1e-17 1,1 0,1", "--tol", "tol_par=1e-300"], 5,
                 "numerical failure: the diagonal midpoints coincide: there is no center line",
                 id="5-inspect-zero-length-locus"),
    # one rotation's basis is singular to 1e-12 of its size, a fixed threshold
    pytest.param(["inspect", "--vertices", "-1,-1 1e-13,-1e-13 1,1 -1,1",
                  "--tol", "tol_par=1e-300"], 5,
                 "numerical failure: normalization basis is singular",
                 id="5-inspect-singular-basis"),
    # the normal frame inspect prints: its basis overflows at 1e154 (the
    # constructions build there, test_inscribe_builds_where_the_normal_...)
    pytest.param(["inspect", "--vertices", "0,0 1e154,0 3e154,2e154 0,1e154"], 5,
                 "numerical failure: normalization basis is out of float range",
                 id="5-scale-1e154"),
    pytest.param(["inspect", "--vertices", "0,0 1e-156,0 3e-156,2e-156 0,1e-156"], 5,
                 "numerical failure: linear part is out of float range", id="5-scale-1e-156"),
    # validate_quad judges the area at unit size, so these quads pass it:
    # inspect's basis products underflow to 0 at 1e-200, and verify's
    # similarity frame overflows at 1e160 (the constructions build there)
    pytest.param(["inspect", "--vertices", "0,0 1e-200,0 3e-200,2e-200 0,1e-200"], 5,
                 "numerical failure: normalization basis is out of float range",
                 id="5-scale-1e-200"),
    pytest.param(["verify", "--vertices", "0,0 1e100,0 3e100,2e100 0,1e100", "--u", "0.37"], 5,
                 "numerical failure: ", id="5-verify-scale-1e100"),
    pytest.param(["verify", "--vertices", "0,0 1e155,0 3e155,2e155 0,1e155", "--u", "0.37"], 5,
                 "numerical failure: ", id="5-verify-scale-1e155"),
    pytest.param(["verify", "--vertices", "0,0 1e160,0 3e160,2e160 0,1e160", "--u", "0.37"], 5,
                 "numerical failure: linear part is out of float range",
                 id="5-verify-scale-1e160"),
    pytest.param(["inspect", "--input", "{dir}/missing.json"], 6,
                 "i/o error: ", id="6-missing-input"),
    pytest.param(["render", "--vertices", QUAD, "--u", "0.5", "--out", "{dir}/no/dir/x.svg"], 6,
                 "i/o error: ", id="6-unwritable-out"),
]


@pytest.mark.parametrize("argv, code, prefix", EXIT_CODE_CONTRACT)
def test_exit_code_contract(capsys, tmp_path, argv, code, prefix):
    (tmp_path / "bad.json").write_text(json.dumps({"vertices": [[0, 0], [1, 0], [3, 2]]}))
    got, out, err = run_cli(capsys, *(a.replace("{dir}", str(tmp_path)) for a in argv))
    assert (got, out) == (code, "")
    assert err.startswith(prefix), err
