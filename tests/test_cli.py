"""Config validation, report generation, determinism, and exit codes."""
import contextlib
import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracles
from unilab import cli, expressions
from unilab.cli import canonical_json, main, validate_config
from unilab.double_groupoid import (
    MaterialDoubleGroupoid,
    coarse_enumerate,
    core,
    filling_check,
    is_commutative,
    is_compatible,
    is_uniform,
    misalignment,
    normalizer_criterion,
    square_from_dict,
)
from unilab.errors import ConfigError, ExpressionCompileError, NotTriclinicError
from unilab.expressions import ExpressionStack, compile_expr, parse
from unilab.fields import AnalyticFrameField, SampledFrameField
from unilab.groupoid import PointSet, from_frame_field, groupoid_from_dict, is_transitive

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

GOOD = [
    CONFIG_DIR / "uniform_measure.json",
    CONFIG_DIR / "rotation_squares.json",
    CONFIG_DIR / "laminated_foliate.json",
]


def run_report(tmp_path, config, name="report.json"):
    out = tmp_path / name
    code = main(["run", "--config", str(config), "--out", str(out)])
    return code, out


def config_with(path, **keys):
    """The config at path, with the given top-level keys added or replaced."""
    return {**json.loads(path.read_text()), **keys}


IDENTITY_LOOPS = {
    side: {"arrows": [{"id": "e", "source": "W", "target": "W",
                       "map": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]}]}
    for side in ("horizontal", "vertical")
}
ONE_POINT = config_with(
    GOOD[1], points=[{"id": "W", "coords": [0.0, 0.0, 0.0]}], pairs=[["W", "W"]],
    pair_comparisons=[[["W", "W"], ["W", "W"]]],
)


def tallest_tower():
    """Height of the tallest x1^x1^...^x1 that compiles; its derivative does not."""
    height = 2
    while True:
        try:
            compile_expr(parse("^".join(["x1"] * (height + 1))))
        except ExpressionCompileError:
            return height
        height += 1


def rot_z(deg):
    t = np.deg2rad(deg)
    return np.array(
        [[np.cos(t), -np.sin(t), 0.0], [np.sin(t), np.cos(t), 0.0], [0.0, 0.0, 1.0]]
    )


class TestValidation:
    @pytest.mark.parametrize("config", GOOD, ids=lambda p: p.stem)
    def test_bundled_configs_are_clean(self, config):
        assert validate_config(config) == []

    def test_validate_subcommand_ok(self, capsys):
        assert main(["validate", "--config", str(GOOD[0])]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_bad_expression_is_located(self, capsys):
        code = main(["validate", "--config", str(CONFIG_DIR / "bad_expression.json")])
        assert code == 1
        out = capsys.readouterr().out
        assert "composite.component2[0][0]" in out
        assert "offset" in out

    def test_schema_violations_are_reported(self, capsys):
        code = main(["validate", "--config", str(CONFIG_DIR / "bad_schema.json")])
        assert code == 1
        out = capsys.readouterr().out
        assert "resolution" in out
        assert "sing" in out

    def test_dangling_point_id(self, capsys):
        code = main(["validate", "--config", str(CONFIG_DIR / "bad_dangling_point.json")])
        assert code == 1
        assert "pairs[1][1]: unknown point id 'Q'" in capsys.readouterr().out

    def test_missing_file(self):
        diagnostics = validate_config("/no/such/config.json")
        assert len(diagnostics) == 1
        assert diagnostics[0].startswith("config: cannot read")

    def test_unparseable_json(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{")
        diagnostics = validate_config(bad)
        assert len(diagnostics) == 1
        assert diagnostics[0].startswith("config: invalid JSON")

    def test_long_sum_validates_and_runs(self, tmp_path):
        long_sum = " + ".join(["0.001*x1"] * 250)
        config = {
            "schema": 1,
            "domain": {"lower": [0.1, 0.1, 0.1], "upper": [1.0, 1.0, 1.0], "resolution": [3, 3, 3]},
            "composite": {
                "case": "discrete-discrete",
                "component1": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                "component2": [["1", long_sum, "0"], ["0", "1", "0"], ["0", "0", "1"]],
            },
            "tasks": ["measure", "foliate", "infinitesimal"],
        }
        path = tmp_path / "long_sum.json"
        path.write_text(json.dumps(config))
        assert validate_config(path) == []
        code, out = run_report(tmp_path, path)
        assert code == 0
        assert json.loads(out.read_text())["tasks"]["foliate"]["class"] == "Laminated"

    @pytest.mark.parametrize(
        "extra, message",
        [(1, "cannot compile"), (0, "derivative along x1: cannot compile")],
        ids=["expression", "derivative"],
    )
    def test_uncompilable_expression_is_located(self, tmp_path, capsys, extra, message):
        config = json.loads(GOOD[2].read_text())
        config["composite"]["component2"][0][1] = "^".join(["x1"] * (tallest_tower() + extra))
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(config))
        code, out = run_report(tmp_path, path)
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().out.startswith(f"composite.component2[0][1]: {message}")

    def test_square_tasks_skip_derivatives(self, tmp_path, capsys):
        # The square tasks evaluate the frames but never their derivatives.
        config = json.loads(GOOD[1].read_text())
        config["composite"]["component2"][0][1] = "^".join(["x1"] * tallest_tower())
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(config))
        assert validate_config(path) == []
        code, out = run_report(tmp_path, path)
        assert code in (0, 2)
        assert set(json.loads(out.read_text())["tasks"]) == {"squares", "misalign"}
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "base, keys, value, expected",
        [
            (config_with(GOOD[1]), ["points", 0, "coords", 1], 10 ** 400,
             "points[0].coords[1]: integer too large to convert to float"),
            (config_with(GOOD[2]), ["domain", "upper", 0], 10 ** 400,
             "domain.upper[0]: integer too large to convert to float"),
            (config_with(GOOD[2]), ["tolerances", "rank_rel_tol"], 10 ** 400,
             f"tolerances.rank_rel_tol: {10 ** 400} is greater than or equal to the maximum of 1"),
            (config_with(GOOD[1]), ["tolerances", "group_tol"], 10 ** 400,
             "tolerances.group_tol: integer too large to convert to float"),
            # Python's json reads NaN, Infinity and -Infinity; no finite float holds them.
            (config_with(GOOD[2]), ["tolerances", "rank_rel_tol"], math.nan,
             "tolerances.rank_rel_tol: nan is not a finite number"),
            (config_with(GOOD[1]), ["tolerances", "commutation_tol"], math.nan,
             "tolerances.commutation_tol: nan is not a finite number"),
            (config_with(GOOD[1]), ["tolerances", "commutation_tol"], math.inf,
             "tolerances.commutation_tol: inf is not a finite number"),
            (config_with(GOOD[1]), ["tolerances", "group_tol"], math.nan,
             "tolerances.group_tol: nan is not a finite number"),
            (config_with(GOOD[1]), ["points", 0, "coords", 1], math.nan,
             "points[0].coords[1]: nan is not a finite number"),
            (config_with(GOOD[2]), ["domain", "upper", 0], math.inf,
             "domain.upper[0]: inf is not a finite number"),
            (config_with(GOOD[2]), ["domain", "lower", 2], -math.inf,
             "domain.lower[2]: -inf is not a finite number"),
            (config_with(GOOD[1], groupoids=IDENTITY_LOOPS),
             ["groupoids", "vertical", "arrows", 0, "map", 4], math.nan,
             "groupoids.vertical.arrows[0].map[4]: nan is not a finite number"),
        ],
        ids=["point-coordinate", "domain-upper", "rank_rel_tol", "group_tol", "nan-rank_rel_tol",
             "nan-commutation_tol", "inf-commutation_tol", "nan-group_tol",
             "nan-point-coordinate", "inf-domain-upper", "-inf-domain-lower", "nan-arrow-map"],
    )
    def test_integer_beyond_float_range_is_located(self, tmp_path, capsys, base, keys, value,
                                                   expected):
        config = copy.deepcopy(base)
        node = config
        for key in keys[:-1]:
            node = node[key] if isinstance(node, list) else node.setdefault(key, {})
        node[keys[-1]] = value
        path = tmp_path / "number.json"
        path.write_text(json.dumps(config))
        assert validate_config(path) == [expected]
        code, out = run_report(tmp_path, path)
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().out == f"{expected}\n"

    @pytest.mark.parametrize("value, code", [(1.0, 1), (1e308, 1), (0.999, 0)])
    def test_rank_rel_tol_below_one(self, tmp_path, capsys, value, code):
        config = json.loads(GOOD[2].read_text())
        config["tolerances"] = {"rank_rel_tol": value}
        path = tmp_path / "rank_rel_tol.json"
        path.write_text(json.dumps(config))
        assert run_report(tmp_path, path)[0] == code
        out = capsys.readouterr()
        if code == 1:
            assert out.out == f"tolerances.rank_rel_tol: {value!r} is greater than or equal to " \
                              "the maximum of 1\n"
        assert out.err == ""

    @pytest.mark.parametrize("raw", [b"\xff{}", b"[" * 100_000, b"1" * 5000],
                             ids=["not-utf-8", "nested-too-deep", "long-integer"])
    def test_undecodable_json(self, tmp_path, raw):
        bad = tmp_path / "undecodable.json"
        bad.write_bytes(raw)
        diagnostics = validate_config(bad)
        assert len(diagnostics) == 1
        assert diagnostics[0].startswith("config: invalid JSON")

    def test_huge_lattice_is_refused_before_allocation(self, tmp_path):
        config = json.loads(GOOD[2].read_text())
        config["domain"]["resolution"] = [100000, 100000, 100000]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(config))
        assert validate_config(path) == []
        code, out = run_report(tmp_path, path)
        assert code == 2
        error = "a lattice of 1000000000000000 nodes exceeds the cap of 100000 nodes"
        assert json.loads(out.read_text())["tasks"] == {
            "foliate": {"error": error}, "infinitesimal": {"error": error}
        }

    @pytest.mark.parametrize("max_nodes, code", [(7 ** 3, 0), (7 ** 3 - 1, 2)])
    def test_max_nodes(self, tmp_path, monkeypatch, max_nodes, code):
        monkeypatch.setattr(cli, "MAX_LATTICE_NODES", max_nodes)
        assert run_report(tmp_path, GOOD[2])[0] == code

    @pytest.mark.parametrize(
        "expression",
        ["(" * 400 + "x1" + ")" * 400, " + ".join(["0.001*x1"] * 1200), "-" * 1000 + "x1"],
        ids=["400-parentheses", "1200-term-sum", "1000-minus-signs"],
    )
    def test_too_deep_expression_is_located(self, tmp_path, capsys, expression):
        config = json.loads(GOOD[2].read_text())
        config["composite"]["component2"][0][1] = expression
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(config))
        assert main(["validate", "--config", str(path)]) == 1
        assert capsys.readouterr().out.startswith(
            "composite.component2[0][1]: expression nests deeper than"
        )
        code, out = run_report(tmp_path, path)
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["values-shape", "no-spacing", "not-npz"])
    def test_malformed_grid_is_located(self, tmp_path, capsys, fault):
        grid = tmp_path / "component2.npz"
        arrays = {
            "lower": np.zeros(3),
            "spacing": np.full(3, 0.5),
            "values": np.tile(np.eye(3), (3, 3, 3, 1, 1)),
        }
        if fault == "values-shape":
            arrays["values"] = np.zeros((3, 3, 3, 9))
        if fault == "no-spacing":
            del arrays["spacing"]
        if fault == "not-npz":
            grid.write_text("not an archive")
        else:
            np.savez(grid, **arrays)
        with pytest.raises(ConfigError):
            SampledFrameField.from_npz(grid)
        config = json.loads(GOOD[2].read_text())
        config["composite"]["component2"] = {"grid": grid.name}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(config))
        assert main(["validate", "--config", str(path)]) == 1
        assert capsys.readouterr().out.startswith(
            "composite.component2.grid: grid file 'component2.npz': "
        )
        code, out = run_report(tmp_path, path)
        assert code == 1
        assert not out.exists()

    def test_run_loads_each_grid_once(self, tmp_path, monkeypatch):
        np.savez(
            tmp_path / "component2.npz",
            lower=np.zeros(3), spacing=np.full(3, 0.5), values=np.tile(np.eye(3), (3, 3, 3, 1, 1)),
        )
        config = json.loads(GOOD[2].read_text())
        config["composite"]["component2"] = {"grid": "component2.npz"}
        config.pop("domain")
        config["points"] = [{"id": "A", "coords": [0.2, 0.4, 0.6]},
                            {"id": "B", "coords": [0.9, 0.1, 0.5]}]
        config["tasks"] = ["squares"]
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(config))
        loads = []
        from_npz = SampledFrameField.from_npz.__func__

        def counting(cls, grid):
            loads.append(Path(grid).name)
            return from_npz(cls, grid)

        monkeypatch.setattr(SampledFrameField, "from_npz", classmethod(counting))
        code, out = run_report(tmp_path, path)
        assert code == 0
        assert loads == ["component2.npz"]
        assert json.loads(out.read_text())["tasks"]["squares"]["n_coarse"] == 2 ** 4

    @pytest.mark.parametrize(
        "case, directors, expected",
        [("discrete-transiso", {}, "composite: case discrete-transiso requires a director"),
         ("transiso-transiso", {"director1": ["1", "0", "0"]},
          "composite: case transiso-transiso requires director1 and director2")],
        ids=["discrete-transiso", "transiso-transiso"],
    )
    def test_case_requires_its_directors(self, tmp_path, capsys, case, directors, expected):
        config = json.loads(GOOD[2].read_text())
        config["composite"].update(case=case, **directors)
        path = tmp_path / "directors.json"
        path.write_text(json.dumps(config))
        assert validate_config(path) == [expected]
        code, out = run_report(tmp_path, path)
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().out == f"{expected}\n"

    def test_run_refuses_invalid_config(self, tmp_path):
        code, out = run_report(tmp_path, CONFIG_DIR / "bad_schema.json")
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("upper", [0.1, 0.05], ids=["equal", "reversed"])
    def test_domain_bounds_must_increase(self, tmp_path, capsys, upper):
        config = json.loads(GOOD[2].read_text())
        config["domain"]["lower"][0] = 0.1
        config["domain"]["upper"][0] = upper
        path = tmp_path / "flat_box.json"
        path.write_text(json.dumps(config))
        expected = f"domain.upper[0]: {upper!r} does not exceed domain.lower[0] = 0.1"
        assert validate_config(path) == [expected]
        assert main(["validate", "--config", str(path)]) == 1
        code, out = run_report(tmp_path, path)
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().out == f"{expected}\n{expected}\n"

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_domain_extent_must_be_finite(self, tmp_path, command):
        config = json.loads(GOOD[2].read_text())
        config["domain"].update(lower=[-1e308, 0.1, 0.1], upper=[1e308, 1.0, 1e308])
        path = tmp_path / "huge_box.json"
        path.write_text(json.dumps(config))
        expected = ["domain.upper[0]: extent 1e+308 - -1e+308 is not a finite number"]
        assert validate_config(path) == expected
        out = tmp_path / "report.json"
        args = [command, "--config", str(path)] + (["--out", str(out)] if command == "run" else [])
        done = subprocess.run(
            [sys.executable, "-m", "unilab.cli", *args], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert (done.returncode, done.stdout, done.stderr) == (1, f"{expected[0]}\n", "")
        assert not out.exists()


class TestOnePass:
    """`run` reads, parses and compiles the config once, in validation."""

    def test_config_piped_through_stdin(self, tmp_path):
        raw = GOOD[1].read_bytes()
        piped = tmp_path / "piped.json"
        command = ["run", "--config", "/dev/stdin", "--out", str(piped)]
        subprocess.run(
            [sys.executable, "-m", "unilab.cli", *command],
            input=raw, check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        code, out = run_report(tmp_path, GOOD[1])
        assert code == 0
        assert piped.read_bytes() == out.read_bytes()
        provenance = json.loads(piped.read_text())["provenance"]
        assert provenance["config_sha256"] == hashlib.sha256(raw).hexdigest()

    @pytest.mark.parametrize(
        "config, compiles",
        [(config_with(GOOD[1]), 2), (config_with(GOOD[2]), 4), (ONE_POINT, 2)],
        ids=["squares", "lattice", "one-point"],
    )
    def test_run_compiles_only_the_stacks_it_evaluates(self, tmp_path, monkeypatch, config,
                                                       compiles):
        # A squares run evaluates each frame's values, a lattice run its
        # derivatives too: one stack each, on any number of points.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        calls = []
        compile_ = expressions._compile

        def counting(*args):
            calls.append(args[1])
            return compile_(*args)

        monkeypatch.setattr(expressions, "_compile", counting)
        assert run_report(tmp_path, path)[0] == 0
        assert calls == ["<expr-stack>"] * compiles

    def test_stack_failure_with_compiling_cells_is_located(self, tmp_path, monkeypatch, capsys):
        def fail(stack):
            raise ExpressionCompileError("cannot compile expression: injected")

        monkeypatch.setattr(ExpressionStack, "_array_fn", property(fail))
        code, out = run_report(tmp_path, GOOD[1])
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().out == (
            "composite.component1: cannot compile expression: injected\n"
            "composite.component2: cannot compile expression: injected\n"
        )


class TestReports:
    def test_uniform_measure_report(self, tmp_path):
        code, out = run_report(tmp_path, GOOD[0])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == 1
        assert report["provenance"]["tool"] == "unilab"
        expected_sha = hashlib.sha256(GOOD[0].read_bytes()).hexdigest()
        assert report["provenance"]["config_sha256"] == expected_sha
        measure = report["tasks"]["measure"]
        assert measure["n_nodes"] == 729
        assert measure["max_abs_B"] == 0.0
        assert measure["class"] == "UniformBody"
        assert measure["m_counts"] == {"0": 0, "1": 0, "2": 0, "3": 729}
        foliate = report["tasks"]["foliate"]
        assert foliate["class"] == "UniformBody"
        assert foliate["n_failures"] == 0

    def test_rotation_squares_report(self, tmp_path):
        code, out = run_report(tmp_path, GOOD[1])
        assert code == 0
        report = json.loads(out.read_text())
        squares = report["tasks"]["squares"]
        assert squares["n_points"] == 4
        assert squares["n_coarse"] == 256
        assert squares["n_stored"] == 36
        assert squares["n_commutative"] == 36
        assert squares["all_commutative"] is False
        assert squares["core_arrow_count"] == 4
        assert squares["core_transitive"] is False
        assert squares["uniform"] is False
        assert squares["unfillable_pairs"] == 28
        assert squares["opposite_pair_max_deviation"] < 1e-12
        got = np.array(squares["misalignments"]["W->X"]).reshape(3, 3)
        assert np.allclose(got, rot_z(-10), atol=1e-12)
        comparisons = report["tasks"]["misalign"]["comparisons"]
        assert len(comparisons) == 2
        for entry in comparisons:
            assert entry["compatible_1"] is True
            assert entry["compatible_2"] is True
            assert entry["normalizer_commutes"] is True

    def test_laminated_report(self, tmp_path):
        code, out = run_report(tmp_path, GOOD[2])
        assert code == 0
        report = json.loads(out.read_text())
        foliate = report["tasks"]["foliate"]
        assert foliate["class"] == "Laminated"
        assert foliate["n_samples"] == 343
        assert foliate["n_failures"] == 0
        infinitesimal = report["tasks"]["infinitesimal"]
        assert infinitesimal["m_mode"] == 2
        assert infinitesimal["kind_counts"] == {"annihilator": 343}
        assert infinitesimal["m_counts"]["2"] == 343

    def test_reports_are_byte_identical(self, tmp_path):
        _, first = run_report(tmp_path, GOOD[1], "first.json")
        _, second = run_report(tmp_path, GOOD[1], "second.json")
        assert first.read_bytes() == second.read_bytes()

    def test_numerical_failure_exit_code(self, tmp_path):
        config = {
            "schema": 1,
            "domain": {
                "lower": [0.0, 0.0, 0.0],
                "upper": [1.0, 1.0, 1.0],
                "resolution": [3, 3, 3],
            },
            "composite": {
                "case": "iso-iso",
                "component1": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                "component2": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            },
            "tasks": ["foliate"],
        }
        path = tmp_path / "isotropic_foliate.json"
        path.write_text(json.dumps(config))
        code, out = run_report(tmp_path, path)
        assert code == 2
        report = json.loads(out.read_text())
        assert "error" in report["tasks"]["foliate"]


class TestCsv:
    def test_foliation_dump(self, tmp_path):
        out = tmp_path / "nodes.csv"
        code = main(
            ["run", "--config", str(GOOD[2]), "--out", str(out), "--format", "csv"]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x1,x2,x3,m,sigma_min"
        assert len(lines) == 1 + 343
        assert all(line.split(",")[3] == "2" for line in lines[1:])

    def test_csv_requires_foliate_task(self, tmp_path, capsys):
        out = tmp_path / "nodes.csv"
        code = main(
            ["run", "--config", str(GOOD[1]), "--out", str(out), "--format", "csv"]
        )
        assert code == 1
        assert "foliate" in capsys.readouterr().out


class TestCanonicalJson:
    def test_scalars(self):
        assert canonical_json(None) == "null"
        assert canonical_json(True) == "true"
        assert canonical_json(False) == "false"
        assert canonical_json(7) == "7"
        assert canonical_json(np.int64(7)) == "7"
        assert canonical_json(0.5) == "5.000000000000e-01"
        assert canonical_json(np.float64(0.5)) == "5.000000000000e-01"
        assert canonical_json("a\"b") == '"a\\"b"'

    def test_keys_sorted(self):
        assert canonical_json({"b": 1, "a": [2, {"d": 3, "c": 4}]}) == (
            '{"a":[2,{"c":4,"d":3}],"b":1}'
        )

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            canonical_json({"bad": {1, 2}})


KEYS = st.one_of(st.text(), st.sampled_from(["%", "%s", "%%d", '"', 'a"%b', "ключ", "", "m"]))
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.floats(),
    st.text(),
)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.lists(st.floats()),
        st.dictionaries(KEYS, children),
    ),
    max_leaves=25,
)

# Field kinds of a record array, with a strategy for one cell.
FIELD_KINDS = {
    "f8": st.floats(),
    "f4": st.floats(width=32),
    "i8": st.integers(-(2**63), 2**63 - 1),
    "i4": st.integers(-(2**31), 2**31 - 1),
    "u1": st.integers(0, 255),
    "U6": st.text(max_size=6),
    "3f8": st.lists(st.floats(), min_size=3, max_size=3),
}


@st.composite
def record_arrays(draw):
    names = draw(st.lists(st.one_of(st.text(min_size=1), KEYS.filter(bool)),
                          min_size=1, max_size=4, unique=True))
    kinds = [draw(st.sampled_from(sorted(FIELD_KINDS))) for _ in names]
    n = draw(st.integers(0, 50))
    array = np.zeros(n, dtype=[(name, kind) for name, kind in zip(names, kinds)])
    for name, kind in zip(names, kinds):
        array[name] = draw(st.lists(FIELD_KINDS[kind], min_size=n, max_size=n)) if n else 0
    return array


def as_dicts(array):
    """The records of a structured array as dicts of numpy scalars and lists."""
    fields = {name: array[name] for name in array.dtype.names}
    return [
        {name: col[i].tolist() if col.ndim > 1 else col[i] for name, col in fields.items()}
        for i in range(len(array))
    ]


class TestCanonicalJsonAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(VALUES)
    def test_nested_values_match_oracle(self, value):
        assert canonical_json(value) == scalar_oracles.canonical_json(value)

    @settings(max_examples=200, deadline=None)
    @given(record_arrays())
    def test_record_arrays_match_oracle_on_dicts(self, array):
        assert canonical_json(array) == scalar_oracles.canonical_json(as_dicts(array))
        nested = {"nodes": array, "n": len(array)}
        assert canonical_json(nested) == scalar_oracles.canonical_json(
            {"nodes": as_dicts(array), "n": len(array)}
        )

    def test_non_string_keys_are_not_confused(self):
        value = {"a": {1: 0}, "b": {True: 0}, "c": {1.0: 0}, "d": {"1": 0}}
        assert canonical_json(value) == scalar_oracles.canonical_json(value)

    @pytest.mark.parametrize(
        "value",
        [
            np.arange(3.0),
            np.zeros((2, 2), dtype=[("a", "f8")]),
            np.zeros(2, dtype=[("a", "f8", (2, 2))]),
            np.zeros(2, dtype=[("a", "i8", (3,))]),
            np.zeros(2, dtype=[("a", "?")]),
            np.zeros(2, dtype=[("a", "c16")]),
            np.True_,
            {1, 2},
        ],
        ids=["plain", "2-d", "matrix-field", "int-row-field", "bool-field", "complex-field",
             "np-bool", "set"],
    )
    def test_rejects_other_types(self, value):
        with pytest.raises(TypeError):
            canonical_json({"value": [value]})

    def test_one_call_per_run(self, tmp_path, monkeypatch):
        calls = []
        writer = cli.canonical_json

        def counted(value):
            calls.append(1)
            return writer(value)

        monkeypatch.setattr(cli, "canonical_json", counted)
        code, _ = run_report(tmp_path, GOOD[2])
        assert code == 0
        assert len(calls) == 1


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            ["unilab", "validate", "--config", str(GOOD[0])],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "ok"


def with_component1(path, component1, **keys):
    """The config at path with component 1 replaced (and top-level keys, as config_with)."""
    config = config_with(path, **keys)
    config["composite"]["component1"] = component1
    return config


HUGE_DIAGONAL = [["1e200", "0", "0"], ["0", "1e200", "0"], ["0", "0", "1"]]
HUGE_ROW = [["1e308", "1e308", "0"], ["0", "1", "0"], ["0", "0", "1"]]
EXP_DIAGONAL = [["exp(230*x1)", "0", "0"], ["0", "exp(230*x1)", "0"], ["0", "0", "exp(230*x1)"]]
ALONG_X1 = [{"id": pid, "coords": [x1, 0.0, 0.0]} for pid, x1 in (("A", -1.0), ("B", 0.0), ("C", 1.0))]
SINGULAR_AT_W = {task: "frame is singular at [0.0, 0.0, 0.0]" for task in ("squares", "misalign")}
SINGULAR_LATTICE = {
    "foliate": "343 of 343 lattice nodes failed during the foliation scan",
    "infinitesimal": "frame is singular at [0.1, 0.1, 0.1]",
}
QUIET_FAILURES = {
    "huge-diagonal-points": (with_component1(GOOD[1], HUGE_DIAGONAL), SINGULAR_AT_W),
    "huge-diagonal-lattice": (with_component1(GOOD[2], HUGE_DIAGONAL), SINGULAR_LATTICE),
    "huge-row-points": (with_component1(GOOD[1], HUGE_ROW), SINGULAR_AT_W),
    "huge-row-lattice": (with_component1(GOOD[2], HUGE_ROW), SINGULAR_LATTICE),
    "exp-diagonal-points": (
        with_component1(GOOD[1], EXP_DIAGONAL, points=ALONG_X1, pairs=[["A", "C"]],
                        pair_comparisons=[]),
        {task: "arrow 'A->C' has a singular map" for task in ("squares", "misalign")},
    ),
}


class TestQuietFailures:
    """Frames whose determinant, guard or row sum overflows fail in the report, not on stderr."""

    @pytest.mark.parametrize("name", sorted(QUIET_FAILURES))
    def test_report_and_empty_stderr(self, tmp_path, name):
        config, expected = QUIET_FAILURES[name]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "report.json"
        done = subprocess.run(
            [sys.executable, "-m", "unilab.cli", "run", "--config", str(path), "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert (done.returncode, done.stdout, done.stderr) == (2, "", "")
        assert {task: block["error"] for task, block in json.loads(out.read_text())["tasks"].items()} \
            == expected


HOSTILE_NUMBERS = [1e308, -1e308, 1e-300, 0.0, 0.5, 2.0]
HOSTILE_CELLS = [
    "1/(x1-x1)", "exp(exp(x1))", "x2^x1", "1e308*x1", "sqrt(x1-1)", "tan(pi/2)", "exp(710)",
    "x1^-400", *map(repr, HOSTILE_NUMBERS),
]


@st.composite
def hostile_squares_configs(draw):
    """rotation_squares.json on 1-5 drawn points, with hostile cells, tolerances and tasks drawn."""
    config = json.loads(GOOD[1].read_text())
    ids = [f"p{i}" for i in range(draw(st.integers(1, 5)))]
    coords = st.lists(st.sampled_from(HOSTILE_NUMBERS), min_size=3, max_size=3)
    config["points"] = [{"id": pid, "coords": draw(coords)} for pid in ids]
    config["pairs"] = [[a, b] for a, b in zip(ids, ids[1:] + ids[:1])]
    del config["pair_comparisons"]
    cells = st.tuples(st.sampled_from(["component1", "component2"]), st.integers(0, 2),
                      st.integers(0, 2), st.sampled_from(HOSTILE_CELLS))
    for component, row, column, cell in draw(st.lists(cells, max_size=4)):
        config["composite"][component][row][column] = cell
    tolerances = draw(st.dictionaries(st.sampled_from(["commutation_tol", "group_tol"]),
                                      st.floats(1e-300, 1e300)))
    if tolerances:
        config["tolerances"] = tolerances
    config["tasks"] = draw(st.sampled_from([["squares"], ["misalign"], ["squares", "misalign"]]))
    return config


class TestQuietSquaresRuns:
    @settings(max_examples=300, deadline=None)
    @given(hostile_squares_configs())
    def test_validating_configs_run_without_warnings(self, tmp_path_factory, config):
        directory = tmp_path_factory.getbasetemp() / "quiet-squares"
        directory.mkdir(exist_ok=True)
        path, out = directory / "config.json", directory / "report.json"
        path.write_text(json.dumps(config))
        stderr = io.StringIO()
        # numpy warns once per code location and process unless told "always".
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            if validate_config(path):
                return
            code = main(["run", "--config", str(path), "--out", str(out)])
        assert code in (0, 2)
        assert [str(w.message) for w in caught] == []
        assert stderr.getvalue() == ""


def uniform_squares_config(path):
    """A uniform composite on four points: component 2 is component 1 times C."""
    angle = "(pi/180)*(10*x1+30*x2)"
    rotation = [
        [f"cos({angle})", f"-sin({angle})", "0"],
        [f"sin({angle})", f"cos({angle})", "0"],
        ["0", "0", "1"],
    ]
    c = [[1.1, 0.2, 0.0], [-0.1, 0.9, 0.3], [0.25, 0.0, 1.2]]
    component2 = [
        [" + ".join(f"({rotation[i][k]})*({c[k][j]!r})" for k in range(3)) for j in range(3)]
        for i in range(3)
    ]
    points = [[0.1, 0.2, 0.3], [0.7, 0.4, 0.2], [0.3, 0.9, 0.6], [0.8, 0.8, 0.1]]
    config = {
        "schema": 1,
        "composite": {
            "case": "discrete-discrete",
            "component1": rotation,
            "component2": component2,
        },
        "points": [{"id": f"p{i}", "coords": xyz} for i, xyz in enumerate(points)],
        "pairs": [["p0", "p1"], ["p1", "p2"], ["p3", "p0"]],
        "pair_comparisons": [[["p0", "p1"], ["p2", "p3"]]],
        "tasks": ["squares", "misalign"],
    }
    path.write_text(json.dumps(config))
    return path


def rounded(value):
    """A float as the report prints it."""
    return float("%.12e" % value)


def reference_blocks(config_path):
    """The squares and misalign blocks recomputed through the public API."""
    config = json.loads(Path(config_path).read_text())
    composite = config["composite"]
    base = PointSet.from_pairs((p["id"], p["coords"]) for p in config["points"])
    side_h = from_frame_field(AnalyticFrameField.from_strings(composite["component1"]), base)
    side_v = from_frame_field(AnalyticFrameField.from_strings(composite["component2"]), base)
    coarse = coarse_enumerate(side_h, side_v)
    commuting = [sq for sq in coarse if is_commutative(sq)]
    dg = MaterialDoubleGroupoid(side_h, side_v, commuting)
    core_groupoid = core(dg)
    deviation = 0.0
    for sq in dg.squares:
        deviation = max(
            deviation,
            np.max(np.abs(misalignment(dg, sq.W, sq.Y) - misalignment(dg, sq.X, sq.Z))),
            np.max(np.abs(misalignment(dg, sq.W, sq.X) - misalignment(dg, sq.Y, sq.Z))),
        )
    table = {
        f"{a}->{b}": [rounded(v) for v in misalignment(dg, a, b).ravel()]
        for a, b in config["pairs"]
    }
    squares = {
        "n_points": len(base),
        "n_coarse": len(coarse),
        "n_stored": len(dg.squares),
        "n_commutative": len(commuting),
        "all_commutative": len(commuting) == len(coarse),
        "core_arrow_count": len(core_groupoid.arrows),
        "core_transitive": is_transitive(core_groupoid),
        "uniform": is_uniform(dg),
        "unfillable_pairs": len(filling_check(dg)),
        "opposite_pair_max_deviation": rounded(deviation),
        "misalignments": table,
    }
    comparisons = []
    for pair1, pair2 in config["pair_comparisons"]:
        pair1, pair2 = tuple(pair1), tuple(pair2)
        entry = {
            "pair1": "->".join(pair1),
            "pair2": "->".join(pair2),
            "compatible_1": is_compatible(dg, pair1, pair2, 1),
            "compatible_2": is_compatible(dg, pair1, pair2, 2),
        }
        if entry["compatible_1"]:
            entry["normalizer_commutes"] = normalizer_criterion(dg, pair1, pair2)
        comparisons.append(entry)
    return squares, {"pairs": table, "comparisons": comparisons}


class TestSquaresBlocks:
    @pytest.mark.parametrize("composite", ["rotation", "uniform"])
    def test_blocks_match_the_library(self, tmp_path, composite):
        if composite == "rotation":
            config = GOOD[1]
        else:
            config = uniform_squares_config(tmp_path / "uniform_squares.json")
        code, out = run_report(tmp_path, config)
        assert code == 0
        tasks = json.loads(out.read_text())["tasks"]
        squares, misalign = reference_blocks(config)
        assert tasks["squares"] == squares
        assert tasks["misalign"] == misalign
        if composite == "uniform":
            assert squares["n_stored"] == squares["n_coarse"] == 4 ** 4
            assert squares["uniform"] is True

    def test_explicit_groupoids_with_a_vertex_group_of_order_two(self, tmp_path):
        flip = [-1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1.0]
        identity = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]

        def side(prefix):
            # Two arrows join every ordered pair: the identity and the half turn.
            return {"arrows": [
                {"id": f"{prefix}{a}{b}{name}", "source": a, "target": b, "map": m}
                for a in "AB" for b in "AB" for name, m in (("i", identity), ("f", flip))
            ]}

        squares = [
            {"corners": {"W": "A", "X": "B", "Y": "B", "Z": "A"},
             "s": "hABi", "t": "hBAi", "s_hat": "vABi", "t_hat": "vBAi"},
            {"corners": {"W": "A", "X": "A", "Y": "A", "Z": "A"},
             "s": "hAAf", "t": "hAAf", "s_hat": "vAAi", "t_hat": "vAAi"},
            {"corners": {"W": "B", "X": "A", "Y": "B", "Z": "B"},
             "s": "hBBi", "t": "hABf", "s_hat": "vBAf", "t_hat": "vBBi"},
        ]
        config = {
            "schema": 1,
            "composite": {
                "case": "discrete-discrete",
                "component1": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                "component2": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            },
            "points": [{"id": "A", "coords": [0.0, 0.0, 0.0]},
                       {"id": "B", "coords": [1.0, 0.0, 0.0]}],
            "pairs": [["A", "B"]],
            "groupoids": {"horizontal": side("h"), "vertical": side("v")},
            "squares": squares,
            "tasks": ["squares", "misalign"],
        }
        path = tmp_path / "explicit.json"
        path.write_text(json.dumps(config))
        assert validate_config(path) == []
        code, out = run_report(tmp_path, path)
        assert code == 2
        tasks = json.loads(out.read_text())["tasks"]

        side_h, side_v = (
            groupoid_from_dict({"points": config["points"], "arrows": side["arrows"]})
            for side in (config["groupoids"]["horizontal"], config["groupoids"]["vertical"])
        )
        dg = MaterialDoubleGroupoid(
            side_h, side_v, [square_from_dict(sq, side_h, side_v) for sq in squares]
        )
        coarse = coarse_enumerate(side_h, side_v)
        block = tasks["squares"]
        assert block["n_stored"] == len(squares)
        assert block["n_coarse"] == len(coarse) == 2 ** 4 * 2 ** 4
        assert block["n_commutative"] == sum(1 for sq in coarse if is_commutative(sq))
        first = squares[0]["corners"]
        with pytest.raises(NotTriclinicError) as info:
            misalignment(dg, first["W"], first["Y"])
        assert block["misalignment_error"] == str(info.value)
        assert "opposite_pair_max_deviation" not in block
        assert tasks["misalign"] == {"error": str(info.value)}
