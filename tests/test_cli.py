"""Command-line contract: JSON shapes, exit codes, determinism, SVG."""
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import inconic
from inconic.cli import main

QUAD = "0,0 1,0 3,2 0,1"
WIDE = "0,0 1,0 4,2 0,1"
SQUARE = "0,0 1,0 1,1 0,1"
NONCONVEX = "0,0 1,0 0.4,0.4 0,1"


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


class TestInscribe:
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
        assert doc["marden_vs_pencil_distance"] is None


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

    def test_zero_samples_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "sample", "--vertices", QUAD, "--n", "0")
        assert code == 1


class TestRender:
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

    def test_multi_sample_scene(self, capsys, tmp_path):
        out_file = tmp_path / "five.svg"
        code, _, _ = run_cli(capsys, "render", "--vertices", QUAD,
                             "--n", "5", "--out", str(out_file))
        assert code == 0
        root = ET.parse(out_file).getroot()
        ns = {"s": "http://www.w3.org/2000/svg"}
        assert len(root.findall("s:ellipse", ns)) == 5

    def test_unwritable_path_exits_6(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "render", "--vertices", QUAD,
                             "--u", "0.5", "--out",
                             str(tmp_path / "missing" / "dir" / "f.svg"))
        assert code == 6


class TestUsageAndTolerances:
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

    def test_env_tolerance(self, capsys, monkeypatch):
        wonky = "0,0 1,0 3,1.0000001 0,1"
        monkeypatch.setenv("INCONIC_TOL", "tol_par=1e-2")
        _, out, _ = run_cli(capsys, "inspect", "--vertices", wonky)
        assert json.loads(out)["kind"] == "trapezoid"

    def test_bad_tol_string_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "inspect", "--vertices", QUAD,
                             "--tol", "nope=1")
        assert code != 0


def test_module_entry_point():
    # run the package this suite imported, whatever the caller's PYTHONPATH
    src = str(Path(inconic.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "inconic", "inspect", "--vertices", QUAD],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kind"] == "trapezium"


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
