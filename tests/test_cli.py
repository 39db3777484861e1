"""Config validation, report generation, determinism, and exit codes."""
import hashlib
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

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
from unilab.expressions import compile_expr, parse
from unilab.fields import AnalyticFrameField, SampledFrameField
from unilab.groupoid import PointSet, from_frame_field, groupoid_from_dict, is_transitive

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

GOOD = [
    CONFIG_DIR / "uniform_measure.json",
    CONFIG_DIR / "rotation_squares.json",
    CONFIG_DIR / "laminated_foliate.json",
]


def run_report(tmp_path, config, name="report.json"):
    out = tmp_path / name
    code = main(["run", "--config", str(config), "--out", str(out)])
    return code, out


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


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            ["unilab", "validate", "--config", str(GOOD[0])],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "ok"


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
