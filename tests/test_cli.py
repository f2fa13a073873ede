import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import gaugesep
from gaugesep import HPolyhedron, OpenBall, build_D, gauge, gauge_from_symmetrized
from gaugesep import cli
from gaugesep._svg import _poly_vertices, render_svg
from gaugesep.cli import dumps, main, parse_problem


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


RESULT_SCHEMA = json.loads((Path(__file__).parents[1] / "docs" / "schema" / "result.v1.json").read_text())

# one invocation per subcommand that writes a result document
SUBCOMMAND_ARGV = [
    ["separate"],
    ["gauge", "--point", "1,0"],
    ["conic", "--point", "1,0"],
    ["extend"],
    ["roundtrip"],
    ["verify"],
    ["render"],
]


def run_subcommand(capsys, tmp_path, argv) -> dict:
    extra = ["--svg", str(tmp_path / "out.svg")] if argv[0] == "render" else []
    code, out, _ = run_cli(capsys, *argv, "--input", "example3_quotient", *extra)
    assert code == 0
    return json.loads(out)


DISK_PROBLEM = {
    "version": 1,
    "dimension": 2,
    "A": {"kind": "ball", "center": [2.0, 0.0], "radius": 1.4142135623730951},
    "S": {"basis": []},
    "x": [1.0, 0.0],
}

# each numeric field of a problem file, set to the JSON boolean true
BOOLEAN_NUMBERS = {
    "version": {"version": True},
    "dimension": {"dimension": True, "A": {"kind": "ball", "center": [2.0], "radius": 1.0}},
    "A.radius": {"A": {"kind": "ball", "center": [2.0, 0.0], "radius": True}},
    "A.rows[0].b": {"A": {"kind": "hpoly", "rows": [{"a": [-1.0, 0.0], "b": True, "strict": True}]}},
    "seminorm.rows[0].b": {"seminorm": {"kind": "polyhedral", "rows": [{"a": [1.0, 0.0], "b": True}]}},
    "options.seed": {"options": {"seed": True}},
}

# a NaN or Infinity (which Python's json reads) in each numeric field
NONFINITE_NUMBERS = {
    "A.center[0]": {"A": {"kind": "ball", "center": [float("nan"), 0.0], "radius": 1.0}},
    "A.radius": {"A": {"kind": "ball", "center": [2.0, 0.0], "radius": float("inf")}},
    "A.rows[0].a[0]": {"A": {"kind": "hpoly", "rows": [{"a": [-float("inf"), 0.0], "b": 0.0, "strict": True}]}},
    "A.rows[0].b": {"A": {"kind": "hpoly", "rows": [{"a": [-1.0, 0.0], "b": float("inf"), "strict": True}]}},
    "S.basis[0][1]": {"S": {"basis": [[0.0, float("nan")]]}},
    "x[0]": {"x": [float("nan"), 0.0]},
    "seminorm.rows[0].b": {"seminorm": {"kind": "polyhedral", "rows": [{"a": [1.0, 0.0], "b": float("inf")}]}},
    "seminorm.rows[0][1]": {"seminorm": {"kind": "explicit", "rows": [[1.0, float("nan")]]}},
    "A.center[1]": {"A": {"kind": "ball", "center": [2.0, 10**400], "radius": 1.0}},  # no float holds it
}

# the box (-1, 3) x (-1, 1), whose Chebyshev center (0, 0) lies in S = span{e2}
CENTER_IN_S = {
    "version": 1,
    "dimension": 2,
    "A": {
        "kind": "hpoly",
        "rows": [
            {"a": a, "b": b, "strict": True}
            for a, b in (([1.0, 0.0], 3.0), ([-1.0, 0.0], 1.0), ([0.0, 1.0], 1.0), ([0.0, -1.0], 1.0))
        ],
    },
    "S": {"basis": [[0.0, 1.0]]},
}


def cube8_problem() -> dict:
    """An 8-D, 16-row hpoly problem: the cube |e_k - 3| < 1, S = span{e1 - e2,
    e3 - e4} (whose coordinates sum to 0, so S misses the cube), anchored at
    the cube's center."""
    rows = [
        {"a": [sign * float(j == k) for j in range(8)], "b": 3.0 * sign + 1.0, "strict": True}
        for k in range(8)
        for sign in (1.0, -1.0)
    ]
    basis = [[1.0, -1.0] + [0.0] * 6, [0.0, 0.0, 1.0, -1.0] + [0.0] * 4]
    return {"version": 1, "dimension": 8, "A": {"kind": "hpoly", "rows": rows}, "S": {"basis": basis}, "x": [3.0] * 8}


# a bad value late in cube8_problem(): (path, value, the whole stderr line)
DEEP_ERRORS = [
    (("A", "rows", 9, "a", 4), "x", "error: schema: A.rows[9].a[4]: expected a finite number\n"),
    (("A", "rows", 12, "b"), True, "error: schema: A.rows[12].b: expected a finite number\n"),
    (("A", "rows", 3, "c"), 1.0, "error: schema: A.rows[3].c: unexpected key\n"),
    (("S", "basis", 1, 2), True, "error: schema: S.basis[1][2]: expected a finite number\n"),
    (("x", 5), 10**400, "error: schema: x[5]: expected a finite number\n"),
]


class TestParseProblem:
    def test_bundled_names(self):
        for name in ("example1", "example2", "example3_quotient"):
            problem = parse_problem(name)
            assert problem.dimension in (2, 3)

    def test_example2_contents(self):
        problem = parse_problem("example2")
        assert problem.dimension == 3
        np.testing.assert_allclose(problem.x, [1.0, -3.0, 0.0])
        assert problem.s.dim == 1

    def test_missing_file_raises(self):
        with pytest.raises(FileNotFoundError):
            parse_problem("/nonexistent/problem.json")


class TestExitCodes:
    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "separate", "--input", "/nonexistent/problem.json")
        assert code == 2
        assert "missing file" in err

    def test_bad_json_exit_3(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"version": 1,,}')
        code, _, err = run_cli(capsys, "separate", "--input", str(path))
        assert code == 3
        assert "line" in err

    def test_dimension_mismatch_exit_3(self, capsys, tmp_path):
        bad = dict(DISK_PROBLEM)
        bad["A"] = {"kind": "ball", "center": [2.0, 0.0, 0.0], "radius": 1.0}
        code, _, err = run_cli(capsys, "separate", "--input", write(tmp_path, "bad.json", bad))
        assert code == 3
        assert "A.center" in err

    def test_nonstrict_rows_exit_3(self, capsys, tmp_path):
        bad = {
            "version": 1,
            "dimension": 2,
            "A": {"kind": "hpoly", "rows": [{"a": [0.0, 1.0], "b": 0.0, "strict": False}]},
            "S": {"basis": []},
        }
        code, _, err = run_cli(capsys, "separate", "--input", write(tmp_path, "bad.json", bad))
        assert code == 3
        assert "strict" in err

    def test_zero_row_exit_3(self, capsys, tmp_path):
        # the first zero row is named by its path, as every other row fault is
        rows = [{"a": a, "b": 1.0, "strict": True} for a in ([1.0, 0.0], [0.0, 0.0], [-0.0, 0.0])]
        bad = {"version": 1, "dimension": 2, "A": {"kind": "hpoly", "rows": rows}, "S": {"basis": []}}
        code, out, err = run_cli(capsys, "separate", "--input", write(tmp_path, "zero.json", bad))
        assert (code, out, err) == (3, "", "error: schema: A.rows[1]: zero rows are not allowed\n")

    def test_row_that_overflows_when_scaled_exit_3(self, capsys, tmp_path):
        # each number is finite, but b / |a| = 1e600 is not: the polyhedron's
        # own InputError comes out as a schema error on A
        rows = [{"a": [1e-300, 0.0], "b": 1e300, "strict": True}]
        bad = {"version": 1, "dimension": 2, "A": {"kind": "hpoly", "rows": rows}, "S": {"basis": []}}
        code, out, err = run_cli(capsys, "separate", "--input", write(tmp_path, "tiny.json", bad))
        message = "error: schema: A: polyhedron data must be finite, also with each row scaled to unit length\n"
        assert (code, out, err) == (3, "", message)

    @pytest.mark.parametrize("path", ["options.gamma-rule", "comment", "A.centre", "S.dim"])
    def test_unexpected_key_exit_3(self, capsys, tmp_path, path):
        # a misspelt option must be rejected, not silently replaced by its default
        bad = json.loads(json.dumps(DISK_PROBLEM))
        *parents, key = path.split(".")
        node = bad
        for parent in parents:
            node = node.setdefault(parent, {})
        node[key] = "lower"
        code, _, err = run_cli(capsys, "separate", "--input", write(tmp_path, "typo.json", bad))
        assert code == 3
        assert f"{path}: unexpected key" in err

    def test_wrong_version_exit_3(self, capsys, tmp_path):
        bad = dict(DISK_PROBLEM)
        bad["version"] = 2
        code, _, err = run_cli(capsys, "separate", "--input", write(tmp_path, "v2.json", bad))
        assert code == 3

    def test_intersecting_inputs_exit_4(self, capsys, tmp_path):
        bad = {
            "version": 1,
            "dimension": 2,
            "A": {"kind": "ball", "center": [0.0, 0.5], "radius": 1.0},
            "S": {"basis": []},
        }
        code, _, err = run_cli(capsys, "separate", "--input", write(tmp_path, "meet.json", bad))
        assert code == 4
        assert "precondition" in err

    def test_rows_near_the_float_range_exit_0(self, capsys, tmp_path):
        # the row's norm would overflow; HPolyhedron takes it after a prescale
        triangle = {
            "version": 1,
            "dimension": 2,
            "A": {
                "kind": "hpoly",
                "rows": [
                    {"a": [1e308, 1e308], "b": 1e308, "strict": True},
                    {"a": [-1.0, 0.0], "b": -1.0, "strict": True},
                    {"a": [0.0, -1.0], "b": 1.0, "strict": True},
                ],
            },
            "S": {"basis": []},
        }
        code, out, err = run_cli(capsys, "separate", "--input", write(tmp_path, "tri.json", triangle))
        assert (code, err) == (0, "")
        np.testing.assert_allclose(json.loads(out)["normal"], np.full(2, np.sqrt(0.5)), rtol=0.0, atol=1e-12)

    def test_solver_failure_exit_5(self, capsys, tmp_path):
        # the override passes the basis precheck but is not balanced, so the
        # extension's terminal domination gate fires
        bad = {
            "version": 1,
            "dimension": 3,
            "A": {"kind": "ball", "center": [9.0, 9.0, 9.0], "radius": 1.0},
            "S": {"basis": [[1.0, -1.0, 0.0]]},
            "x": [1.0, 0.0, 0.0],
            "seminorm": {"kind": "polyhedral", "rows": [{"a": [1.0, 1.0, 0.0], "b": 1.0}]},
        }
        code, _, err = run_cli(capsys, "extend", "--input", write(tmp_path, "solver.json", bad))
        assert code == 5
        assert "solver" in err

    @pytest.mark.parametrize("field", list(BOOLEAN_NUMBERS))
    def test_boolean_number_exit_3(self, capsys, tmp_path, field):
        bad = {**DISK_PROBLEM, **BOOLEAN_NUMBERS[field]}
        code, _, err = run_cli(capsys, "separate", "--input", write(tmp_path, "bool.json", bad))
        assert code == 3
        assert f"schema: {field}: " in err

    @pytest.mark.parametrize("command", ["separate", "extend"])
    @pytest.mark.parametrize("field", list(NONFINITE_NUMBERS))
    def test_nonfinite_number_exit_3(self, capsys, tmp_path, field, command):
        bad = {**DISK_PROBLEM, **NONFINITE_NUMBERS[field]}
        code, _, err = run_cli(capsys, command, "--input", write(tmp_path, "nonfinite.json", bad))
        assert code == 3
        assert f"schema: {field}: " in err

    @pytest.mark.parametrize("command", ["extend", "roundtrip"])
    def test_anchor_in_subspace_exit_4(self, capsys, tmp_path, command):
        code, _, err = run_cli(capsys, command, "--input", write(tmp_path, "center.json", CENTER_IN_S))
        assert code == 4
        assert "anchor lies in the subspace" in err

    def test_gauge_without_point_exit_4(self, capsys):
        code, _, err = run_cli(capsys, "gauge", "--input", "example1")
        assert code == 4

    def test_render_of_a_3d_problem_exit_4(self, capsys, tmp_path):
        ball = {**DISK_PROBLEM, "dimension": 3, "A": {"kind": "ball", "center": [3.0, 0.0, 0.0], "radius": 1.0}}
        del ball["x"]
        code, out, err = run_cli(capsys, "render", "--input", write(tmp_path, "ball3.json", ball))
        assert (code, out) == (4, "")
        assert "render requires a 2-D problem" in err

    def test_vector_flags_name_themselves(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--input", "example1", "--normal", "1,2,3")
        assert code == 4 and "--normal has 3 coordinates" in err
        code, _, err = run_cli(capsys, "verify", "--input", "example1", "--normal=0,0")
        assert code == 4 and "--normal must be nonzero" in err
        code, _, err = run_cli(capsys, "conic", "--input", "example1", "--point", "1,x")
        assert code == 4 and "--point must be a comma-separated number list" in err
        code, _, err = run_cli(capsys, "conic", "--input", "example1")
        assert code == 4 and "conic requires --point" in err

    def test_missing_input_exit_4(self, capsys):
        code, _, err = run_cli(capsys, "separate")
        assert code == 4

    def test_empty_normal_exit_4(self, capsys):
        # an empty --normal is a malformed normal, not a request to compute one
        code, out, err = run_cli(capsys, "verify", "--input", "example1", "--normal=")
        assert code == 4 and out == ""
        assert "--normal must be a comma-separated number list" in err

    def test_negative_seed_in_file_exit_3(self, capsys, tmp_path):
        bad = {**DISK_PROBLEM, "options": {"seed": -1}}
        code, out, err = run_cli(capsys, "separate", "--input", write(tmp_path, "seed.json", bad))
        assert (code, out) == (3, "")
        assert "schema: options.seed: expected a non-negative integer" in err

    @pytest.mark.parametrize("name", ["disk", "example2"])
    def test_negative_seed_flag_exit_4(self, capsys, tmp_path, name):
        # on a ball and on a polyhedron alike, as a bad --normal
        path = write(tmp_path, "disk.json", DISK_PROBLEM) if name == "disk" else name
        code, out, err = run_cli(capsys, "separate", "--input", path, "--seed", "-1")
        assert (code, out) == (4, "")
        assert "--seed must be a non-negative integer" in err

    def test_cube_problem_is_valid(self, capsys, tmp_path):
        path = write(tmp_path, "cube8.json", cube8_problem())
        code, out, _ = run_cli(capsys, "conic", "--input", path, "--point=" + ",".join(["3"] * 8))
        assert code == 0 and json.loads(out)["member"] is True

    @pytest.mark.parametrize("path, value, line", DEEP_ERRORS, ids=[line.split(": ")[2] for *_, line in DEEP_ERRORS])
    def test_error_path_deep_in_file_exit_3(self, capsys, tmp_path, path, value, line):
        bad = cube8_problem()
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        code, out, err = run_cli(capsys, "separate", "--input", write(tmp_path, "deep.json", bad))
        assert (code, out, err) == (3, "", line)


class TestSubcommands:
    def test_separate_example2(self, capsys):
        code, out, _ = run_cli(capsys, "separate", "--input", "example2")
        assert code == 0
        doc = json.loads(out)
        np.testing.assert_allclose(np.abs(doc["normal"]), [1.0, 0.0, 0.0], atol=1e-8)
        assert doc["certificate"]["valid"] is True
        assert doc["gamma_history"][0]["hi"] - doc["gamma_history"][0]["lo"] < 1e-8

    def test_gauge_example1_taxicab_value(self, capsys):
        code, out, _ = run_cli(capsys, "gauge", "--input", "example1", "--point", "3,-4")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(7.0, abs=1e-6)

    def test_conic_example1(self, capsys):
        code, out, _ = run_cli(capsys, "conic", "--input", "example1", "--point", "2,1")
        assert code == 0
        assert json.loads(out)["member"] is True
        code, out, _ = run_cli(capsys, "conic", "--input", "example1", "--point", "1,2")
        assert json.loads(out)["member"] is False

    def test_extend_example2(self, capsys):
        code, out, _ = run_cli(capsys, "extend", "--input", "example2")
        assert code == 0
        doc = json.loads(out)
        np.testing.assert_allclose(doc["g"], [1.0, 0.0, 0.0], atol=1e-8)
        assert doc["domination_violation"] <= 1e-6

    def test_roundtrip_example2(self, capsys):
        code, out, _ = run_cli(capsys, "roundtrip", "--input", "example2")
        assert code == 0
        doc = json.loads(out)
        np.testing.assert_allclose(doc["g_geometric"], [1.0, 0.0, 0.0], atol=1e-8)
        assert doc["domain_agreement"] < 1e-8
        assert doc["domination_violation"] <= 1e-6

    def test_roundtrip_example1(self, capsys):
        # the reverse route separates the oracle set {e : p(y - e) < 1}, whose
        # 2-D conic hull is a sector, so both routes run exact LPs
        code, out, _ = run_cli(capsys, "roundtrip", "--input", "example1")
        assert code == 0
        doc = json.loads(out)
        np.testing.assert_allclose(doc["g_geometric"], doc["g_direct"], rtol=0.0, atol=1e-12)
        assert doc["domain_agreement"] < 1e-12

    def test_verify_with_explicit_normal(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--input", "example1", "--normal", "0,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["certificate"]["valid"] is False  # the x-axis crosses the disk

    def test_verify_default_runs_pipeline(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--input", "example2")
        assert code == 0
        assert json.loads(out)["certificate"]["valid"] is True

    def test_oracle_fixture_problem(self, capsys, tmp_path):
        problem = {
            "version": 1,
            "dimension": 2,
            "A": {"kind": "oracle", "name": "offset-disk"},
            "S": {"basis": []},
            "x": [1.0, 0.0],
        }
        path = write(tmp_path, "oracle.json", problem)
        code, out, _ = run_cli(capsys, "conic", "--input", path, "--point", "2,1")
        assert code == 0
        assert json.loads(out)["member"] is True
        # the same disk in closed form is the reference
        closed = gauge_from_symmetrized(build_D(OpenBall(np.array([2.0, 0.0]), np.sqrt(2.0)), np.array([1.0, 0.0])))
        for point in ("1,0", "0.3,-0.7"):
            code, out, _ = run_cli(capsys, "gauge", "--input", path, "--point", point)
            assert code == 0
            expected = gauge(closed, np.array([float(v) for v in point.split(",")]))
            assert json.loads(out)["value"] == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize(
        "name, closed_set, anchor",
        [
            ("offset-disk", OpenBall(np.array([2.0, 0.0]), np.sqrt(2.0)), [2.0, 0.0]),
            ("offset-disk", OpenBall(np.array([2.0, 0.0]), np.sqrt(2.0)), [0.5, 0.3]),
            ("offset-box", HPolyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.array([4.0, 1.0, -2.0, 1.0])), [3.0, 0.0]),
            ("offset-box", HPolyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.array([4.0, 1.0, -2.0, 1.0])), [1.5, 0.2]),
        ],
        ids=["disk-witness", "disk-outside-set", "box-witness", "box-outside-set"],
    )
    def test_oracle_gauge_matches_closed_form(self, capsys, tmp_path, name, closed_set, anchor):
        problem = {"version": 1, "dimension": 2, "A": {"kind": "oracle", "name": name}, "S": {"basis": []}, "x": anchor}
        path = write(tmp_path, "oracle.json", problem)
        closed = gauge_from_symmetrized(build_D(closed_set, np.array(anchor)))
        for point in ("0.8,-1.3", "-2.1,0.4"):
            code, out, _ = run_cli(capsys, "gauge", "--input", path, f"--point={point}")
            assert code == 0
            expected = gauge(closed, np.array([float(v) for v in point.split(",")]))
            assert json.loads(out)["value"] == pytest.approx(expected, rel=1e-9)

    def test_unknown_oracle_name_exit_3(self, capsys, tmp_path):
        problem = {
            "version": 1,
            "dimension": 2,
            "A": {"kind": "oracle", "name": "no-such-fixture"},
            "S": {"basis": []},
        }
        code, _, err = run_cli(capsys, "conic", "--input", write(tmp_path, "o.json", problem), "--point", "1,0")
        assert code == 3

    def test_render_writes_svg(self, capsys, tmp_path):
        target = tmp_path / "out.svg"
        code, out, _ = run_cli(capsys, "render", "--input", "example1", "--svg", str(target))
        assert code == 0
        text = target.read_text()
        assert text.startswith("<svg")
        assert "circle" in text

    def test_polyhedron_outside_the_frame_draws_no_polygon(self):
        # {e1 > 100} has no vertex in the box [-10, 10]^2 that clips it
        far = HPolyhedron(np.array([[-1.0, 0.0]]), np.array([-100.0]))
        assert _poly_vertices(far.a, far.b, 10.0).shape == (0, 2)
        assert "polygon" not in render_svg(far)

    def test_render_polyhedron_draws_polygon(self, capsys, tmp_path):
        target = tmp_path / "poly.svg"
        code, _, _ = run_cli(capsys, "render", "--input", "example3_quotient", "--svg", str(target))
        assert code == 0
        assert "polygon" in target.read_text()

    def test_render_draws_a_one_dimensional_subspace(self, capsys, tmp_path):
        # the box (1, 3) x (-1, 1) against S = span{e2}: S is drawn dashed,
        # and the only plane that contains S has normal +-e1
        rows = [([1.0, 0.0], 3.0), ([-1.0, 0.0], -1.0), ([0.0, 1.0], 1.0), ([0.0, -1.0], 1.0)]
        problem = {
            "version": 1,
            "dimension": 2,
            "A": {"kind": "hpoly", "rows": [{"a": a, "b": b, "strict": True} for a, b in rows]},
            "S": {"basis": [[0.0, 1.0]]},
        }
        target = tmp_path / "box.svg"
        code, out, _ = run_cli(capsys, "render", "--input", write(tmp_path, "box.json", problem), "--svg", str(target))
        assert code == 0
        assert 'stroke-dasharray="6 4"' in target.read_text()
        assert np.abs(json.loads(out)["normal"]).tolist() == [1.0, 0.0]

    def test_output_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run_cli(capsys, "gauge", "--input", "example1", "--point", "1,1", "--output", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["command"] == "gauge"

    def test_repro_passes(self, capsys):
        code, out, _ = run_cli(capsys, "repro")
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("REPRO")]
        assert len(lines) == 3
        assert all(line.endswith("PASS") for line in lines)

    def test_repro_fails_on_a_changed_golden(self, capsys, tmp_path, monkeypatch):
        # the bundled problems and goldens, copied, with one normal entry of
        # example2's golden changed
        package = Path(gaugesep.__file__).parent
        for part in ("problems", "goldens"):
            shutil.copytree(package / part, tmp_path / part)
        golden_path = tmp_path / "goldens" / "example2.json"
        golden = json.loads(golden_path.read_text())
        golden["normal"][2] = 0.5
        golden_path.write_text(json.dumps(golden))
        monkeypatch.setattr(cli.resources, "files", lambda name: tmp_path)
        code, out, _ = run_cli(capsys, "repro")
        assert code == 1
        assert out.splitlines() == [
            "REPRO example1: PASS",
            "REPRO example2: FAIL at $.normal[2]: golden=0.5 actual=0",
            "REPRO example3_quotient: PASS",
        ]

    @pytest.mark.parametrize("flag", [["--seed", "5"], ["--gamma-rule", "lower"]], ids=["seed", "gamma-rule"])
    def test_repro_rejects_overrides_exit_4(self, capsys, flag):
        # each golden pins its problem's own options, so an override would
        # only turn the goldens into failures
        code, out, err = run_cli(capsys, "repro", *flag)
        assert (code, out) == (4, "")
        assert "repro takes no --seed or --gamma-rule" in err

    def test_gamma_rule_flag(self, capsys):
        code, out, _ = run_cli(capsys, "separate", "--input", "example1", "--gamma-rule", "midpoint")
        assert code == 0
        doc = json.loads(out)
        assert doc["g"][1] == pytest.approx(0.0, abs=1e-6)


class TestTimings:
    @pytest.mark.parametrize("argv", SUBCOMMAND_ARGV, ids=lambda argv: argv[0])
    def test_every_subcommand_reports_its_time(self, capsys, tmp_path, argv):
        assert run_subcommand(capsys, tmp_path, argv)["timings"]["total_s"] > 0.0

    @pytest.mark.parametrize("argv", SUBCOMMAND_ARGV, ids=lambda argv: argv[0])
    def test_header_first_timings_last(self, capsys, tmp_path, argv):
        keys = list(run_subcommand(capsys, tmp_path, argv))
        assert keys[:4] == ["version", "command", "seed", "tool_version"]
        assert keys[-1] == "timings"


def assert_keys_conform(obj: dict, schema: dict, where: str) -> None:
    missing = set(schema.get("required", ())) - set(obj)
    unknown = set(obj) - set(schema["properties"])
    assert not missing, f"{where}: missing required keys {sorted(missing)}"
    assert not unknown, f"{where}: keys outside the schema {sorted(unknown)}"


class TestResultSchema:
    """Every result document keeps to docs/schema/result.v1.json (key sets and
    the nested entry lists; checked with the stdlib only)."""

    @pytest.mark.parametrize("argv", SUBCOMMAND_ARGV, ids=lambda argv: argv[0])
    def test_document_conforms(self, capsys, tmp_path, argv):
        doc = run_subcommand(capsys, tmp_path, argv)
        props = RESULT_SCHEMA["properties"]
        assert_keys_conform(doc, RESULT_SCHEMA, argv[0])
        assert doc["command"] in props["command"]["enum"]
        if "certificate" in doc:
            assert_keys_conform(doc["certificate"], props["certificate"], "certificate")
        for i, step in enumerate(doc.get("gamma_history", [])):
            assert_keys_conform(step, props["gamma_history"]["items"], f"gamma_history[{i}]")
        if argv[0] in ("extend", "roundtrip"):
            violation = doc["domination_violation"]
            assert isinstance(violation, (int, float)) and not isinstance(violation, bool)


PROBLEM_SCHEMA = json.loads((Path(__file__).parents[1] / "docs" / "schema" / "problem.v1.json").read_text())


def assert_conforms(node, schema: dict, where: str) -> None:
    """Key sets of ``node`` and of every object nested in it against ``schema``;
    a ``oneOf`` branch is picked by its ``kind`` constant."""
    if "oneOf" in schema:
        schema = next(b for b in schema["oneOf"] if b["properties"]["kind"]["const"] == node["kind"])
    if schema.get("type") == "object":
        assert_keys_conform(node, schema, where)
        for key, value in node.items():
            assert_conforms(value, schema["properties"][key], f"{where}.{key}")
    elif schema.get("type") == "array":
        for i, item in enumerate(node):
            assert_conforms(item, schema.get("items", {}), f"{where}[{i}]")


class TestProblemSchema:
    """Bundled problems and the test fixture keep to docs/schema/problem.v1.json
    (key sets of every object, stdlib only); with the unexpected-key check of
    the parser this ties the schema and the parser together."""

    @pytest.mark.parametrize("name", ["example1", "example2", "example3_quotient"])
    def test_bundled_problem_conforms(self, name):
        text = resources.files("gaugesep").joinpath(f"problems/{name}.json").read_text()
        assert_conforms(json.loads(text), PROBLEM_SCHEMA, name)

    def test_disk_fixture_conforms(self):
        assert_conforms(DISK_PROBLEM, PROBLEM_SCHEMA, "DISK_PROBLEM")


class TestDeterminism:
    def strip(self, out: str) -> dict:
        doc = json.loads(out)
        doc.pop("timings")
        return doc

    def test_byte_identical_modulo_timings(self, capsys):
        _, first, _ = run_cli(capsys, "separate", "--input", "example1", "--seed", "7")
        _, second, _ = run_cli(capsys, "separate", "--input", "example1", "--seed", "7")
        assert dumps(self.strip(first)) == dumps(self.strip(second))

    def test_seed_field_recorded(self, capsys):
        _, out, _ = run_cli(capsys, "separate", "--input", "example1", "--seed", "11")
        assert json.loads(out)["seed"] == 11


class TestGoldenDiff:
    def test_first_diverging_field_reported(self):
        from gaugesep.cli import _diff_docs

        golden = {"a": 1.0, "b": {"c": [1.0, 2.0]}}
        actual = {"a": 1.0, "b": {"c": [1.0, 2.5]}}
        field, want, got = _diff_docs(golden, actual)
        assert field == "$.b.c[1]"
        assert want == 2.0 and got == 2.5

    def test_tolerant_to_tiny_float_drift(self):
        from gaugesep.cli import _diff_docs

        assert _diff_docs({"x": 1.0}, {"x": 1.0 + 1e-12}) is None

    def test_missing_key_reported(self):
        from gaugesep.cli import _diff_docs

        field, want, got = _diff_docs({"x": 1.0}, {})
        assert field == "$.x" and got == "<absent>"

    def test_length_and_scalar_mismatches_reported(self):
        from gaugesep.cli import _diff_docs

        assert _diff_docs([1.0, 2.0], [1.0, 2.0, 3.0]) == ("$", "length 2", "length 3")
        assert _diff_docs({"a": "x"}, {"a": "y"}) == ("$.a", "x", "y")


class TestFloatSerialization:
    def test_17_digit_roundtrip(self):
        values = [np.pi, 1 / 3, 1e-300, 7.0]
        text = dumps({"v": values})
        back = json.loads(text)["v"]
        assert back == [float(f"{v:.17g}") for v in values]
        assert back[0] == np.pi

    def test_infinity_encoding(self):
        assert '"inf"' in dumps({"a": np.inf})

    def test_document_text_is_pinned(self):
        doc = {
            "nan": float("nan"),
            "inf": [np.inf, -np.inf],
            "neg_zero": -0.0,
            "tiny": 5e-324,
            "numpy": [np.float64(0.1), np.int64(-7), np.bool_(True), np.bool_(False)],
            "none": None,
            "empty": [{}, []],
            "long": [1 / 3, 2 / 3, 1e-300, -1e300, 0.1, 7.0],  # wraps: its items exceed 72 characters
        }
        assert dumps(doc) == (
            '{\n  "nan": "nan",\n  "inf": ["inf", "-inf"],\n  "neg_zero": -0,\n'
            '  "tiny": 4.9406564584124654e-324,\n  "numpy": [0.10000000000000001, -7, true, false],\n'
            '  "none": null,\n  "empty": [{}, []],\n  "long": [\n    0.33333333333333331,\n'
            "    0.66666666666666663,\n    1e-300,\n    -1.0000000000000001e+300,\n"
            "    0.10000000000000001,\n    7\n  ]\n}"
        )


class TestConsoleEntry:
    def test_parser_is_built_once(self, capsys, monkeypatch):
        calls = []
        original = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or original())
        for _ in range(3):
            assert run_cli(capsys, "conic", "--input", "example1", "--point", "1,0")[0] == 0
        assert calls == []

    def test_module_invocation(self):
        # the child imports the same checkout, installed or not
        src = str(Path(gaugesep.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "gaugesep", "conic", "--input", "example2", "--point", "1,0,0"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["member"] is True
