"""Whole-lattice stacks against the per-point routes, failure semantics, golden reports."""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from test_double_groupoid import workloads
from unilab.cli import main
from unilab.errors import EvaluationDomainError, ExpressionCompileError, UnilabError
from unilab.expressions import ExpressionStack, call_compiled, compile_expr, parse
from unilab.fields import (
    AnalyticFrameField,
    AnalyticVectorField,
    BodyDomain,
    SampledFrameField,
    SampledVectorField,
)
from unilab.foliation import lattice_defect, scan_domain
from unilab.geometry import christoffel_first_form, christoffel_stack
from unilab.measures import (
    CompositeSpec,
    SymmetryCase,
    evaluate_measure,
    evaluate_measure_stack,
    measure_case1,
    measure_case1_stack,
    measure_case2,
    measure_case2_stack,
    measure_case3,
    measure_case3_stack,
    measure_case5,
    measure_case5_stack,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

IDENT = AnalyticFrameField.identity()
LAMINATED = AnalyticFrameField.from_strings([["1", "x1^2", "0"], ["0", "1", "0"], ["0", "0", "1"]])
FIBERED = AnalyticFrameField.from_strings([["1", "x1^2", "x2^2"], ["0", "1", "0"], ["0", "0", "1"]])
ROTATION = AnalyticFrameField.from_strings(
    [
        ["cos((pi/180)*(10*x1 + 30*x2))", "-sin((pi/180)*(10*x1 + 30*x2))", "0"],
        ["sin((pi/180)*(10*x1 + 30*x2))", "cos((pi/180)*(10*x1 + 30*x2))", "0"],
        ["0", "0", "1"],
    ]
)
MIXED = AnalyticFrameField.from_strings([["1", "x2", "0"], ["0", "1", "x3"], ["x1/2", "0", "1"]])

DOMAIN = BodyDomain((0.1, 0.1, 0.1), (1.0, 1.0, 1.0), (7, 6, 5))


def sampled(fn, domain=DOMAIN):
    return SampledFrameField.from_function(fn, domain)


SAMPLED_LAMINATED = sampled(lambda p: np.array([[1.0, p[0] ** 2, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
SAMPLED_ROTATION = sampled(lambda p: ROTATION.value(p))

FIELDS = {
    "laminated": LAMINATED,
    "fibered": FIBERED,
    "rotation": ROTATION,
    "sampled": SAMPLED_LAMINATED,
}
COMPOSITES = {
    "laminated": CompositeSpec(IDENT, LAMINATED),
    "fibered": CompositeSpec(IDENT, FIBERED),
    "rotation": CompositeSpec(MIXED, ROTATION),
    "sampled": CompositeSpec(SAMPLED_ROTATION, SAMPLED_LAMINATED),
}


def relative_error(got, want):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) / scale


class TestStacksMatchPerPointRoutes:
    @pytest.mark.parametrize("name", FIELDS)
    def test_connection_against_inverse_derivative_route(self, name):
        field = FIELDS[name]
        lattice = DOMAIN.lattice()
        gamma, failures = christoffel_stack(field, lattice)
        assert failures == {}
        worst = max(
            float(np.max(np.abs(gamma[n] - christoffel_first_form(field, point))))
            for n, point in enumerate(lattice)
        )
        # The sampled field and its inverse are quadratic in x1, where both
        # routes' stencils are exact.
        assert worst < 1e-10

    @pytest.mark.parametrize("name", COMPOSITES)
    def test_all_five_cases_against_per_point_functions(self, name):
        base = COMPOSITES[name]
        director = AnalyticVectorField.from_strings(["1", "x2", "x1^2"])
        director2 = AnalyticVectorField.from_strings(["x3", "1", "sin(x1)"])
        lattice = DOMAIN.lattice()
        a, b = base.component1, base.component2
        specs = {
            1: CompositeSpec(a, b),
            2: CompositeSpec(a, b, SymmetryCase.DISCRETE_ISOTROPIC),
            3: CompositeSpec(a, b, SymmetryCase.DISCRETE_TRANSISO, director=director),
            4: CompositeSpec(a, b, SymmetryCase.ISO_ISO),
            5: CompositeSpec(
                a, b, SymmetryCase.TRANSISO_TRANSISO, director1=director, director2=director2
            ),
        }
        b1, f1 = measure_case1_stack(specs[1], lattice)
        b2, f2 = measure_case2_stack(specs[2], lattice)
        b3, hat3, f3 = measure_case3_stack(specs[3], lattice)
        b5, delta5, f5 = measure_case5_stack(specs[5], lattice)
        assert f1 == f2 == f3 == f5 == {}
        for n, point in enumerate(lattice):
            assert relative_error(b1[n], measure_case1(specs[1], point)) < 1e-12
            assert relative_error(b2[n], measure_case2(specs[2], point)) < 1e-12
            want_b3, want_hat3 = measure_case3(specs[3], point)
            assert relative_error(b3[n], want_b3) < 1e-12
            assert relative_error(hat3[n], want_hat3) < 1e-12
            want_b5, want_delta5 = measure_case5(specs[5], point)
            assert relative_error(b5[n], want_b5) < 1e-12
            assert relative_error(np.array(delta5[n]), np.array(want_delta5)) < 1e-12
        for case, spec in specs.items():
            stacked, failures = evaluate_measure_stack(spec, lattice)
            assert failures == {}
            for n in (0, len(lattice) // 2, len(lattice) - 1):
                single = evaluate_measure(spec, lattice[n])
                assert single.case_number == stacked.case_number == case
                assert relative_error(stacked.B[n], single.B) < 1e-12

    @pytest.mark.parametrize("name", COMPOSITES)
    def test_kernel_dimensions_match_svd_oracle(self, name):
        spec = COMPOSITES[name]
        defect = lattice_defect(spec, DOMAIN.lattice(), 1e-8)
        assert defect.failures == {}
        for n, point in enumerate(defect.points):
            flattened = measure_case1(spec, point).reshape(9, 3)
            sv = np.linalg.svd(flattened, compute_uv=False)
            rank = int(np.sum(sv > 1e-8 * sv[0])) if sv[0] > 0 else 0
            assert defect.m[n] == 3 - rank
        report = scan_domain(spec, DOMAIN)
        assert np.array_equal(report.m, defect.m)


def reference_stencil(values, idx, axis, spacing):
    """The former per-node 2nd-order stencil, kept as the reference."""
    n = values.shape[axis]

    def at(offset):
        probe = list(idx)
        probe[axis] += offset
        return values[tuple(probe)]

    pos = idx[axis]
    if 0 < pos < n - 1:
        return (at(1) - at(-1)) / (2.0 * spacing)
    if pos == 0:
        return (-3.0 * at(0) + 4.0 * at(1) - at(2)) / (2.0 * spacing)
    return (3.0 * at(0) - 4.0 * at(-1) + at(-2)) / (2.0 * spacing)


class TestSampledStencils:
    @pytest.mark.parametrize("kind", [SampledFrameField, SampledVectorField])
    def test_bitwise_equal_to_per_node_stencils(self, kind):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(4, 3, 5) + kind.tail_shape)
        if kind is SampledFrameField:
            values += 4.0 * np.eye(3)
        field = kind((0.0, -1.0, 2.0), (0.25, 0.5, 0.125), values)
        points = np.array(
            [[0.25 * i, -1.0 + 0.5 * j, 2.0 + 0.125 * k]
             for i in range(4) for j in range(3) for k in range(5)]
        )
        value, deriv, failures = field.jet_stack(points)
        assert failures == {}
        for n, idx in enumerate(np.ndindex(4, 3, 5)):
            assert np.array_equal(value[n], values[idx])
            for axis in range(3):
                want = reference_stencil(values, idx, axis, field.spacing[axis])
                assert np.array_equal(deriv[n][..., axis], want)


class TestExpressionStack:
    @pytest.mark.parametrize(
        "text",
        ["exp(-1/x1^2)", "1/(1/x1)", "log(x1) + sqrt(x2)", "x1^0.5", "tan(x1)*1e200*1e200"],
    )
    def test_values_and_errors_match_scalar_route(self, text):
        points = np.array([[x, y, 0.5] for x in (-1.0, -0.5, 0.0, 0.5, 1.0) for y in (-1.0, 1.0)])
        values, failures = ExpressionStack([parse(text)]).evaluate(points)
        fn = compile_expr(parse(text))
        for n, point in enumerate(points):
            try:
                want = call_compiled(fn, point)
            except UnilabError as exc:
                assert type(failures[n]) is type(exc)
                assert str(failures[n]) == str(exc)
                continue
            assert n not in failures
            assert values[n, 0] == pytest.approx(want, rel=1e-15)

    def test_too_deep_nesting_is_a_library_error(self):
        tower = parse("^".join(["x1"] * 250))
        with pytest.raises(ExpressionCompileError):
            compile_expr(tower)
        with pytest.raises(ExpressionCompileError):
            ExpressionStack([tower]).evaluate(np.ones((2, 3)))

    def test_long_sum_compiles_flat(self):
        tree = parse(" + ".join(["0.001*x1"] * 250))
        points = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        values, failures = ExpressionStack([tree]).evaluate(points)
        assert failures == {}
        assert values[:, 0] == pytest.approx([0.25, 0.5])


class TestFailureSemantics:
    def test_singular_plane_failures_keep_nodes_and_messages(self):
        spec = CompositeSpec(
            IDENT, AnalyticFrameField.from_strings([["x1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
        )
        report = scan_domain(spec, BodyDomain((0.0, 0.1, 0.1), (1.0, 1.0, 1.0), (11, 3, 3)))
        expected = [[0.0, y, z] for y in (0.1, 0.55, 1.0) for z in (0.1, 0.55, 1.0)]
        assert [x for x, _ in report.failures] == expected
        assert [msg for _, msg in report.failures] == [f"frame is singular at {x}" for x in expected]
        assert len(report.m) == 99 - 9

    def test_log_across_negative_axis_keeps_error_class(self, tmp_path):
        rows = [["1", "log(x1)", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        config = {
            "schema": 1,
            "domain": {"lower": [-1.0, 0.1, 0.1], "upper": [1.0, 1.0, 1.0], "resolution": [5, 3, 3]},
            "composite": {
                "case": "discrete-discrete",
                "component1": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                "component2": rows,
            },
            "tasks": ["measure", "infinitesimal"],
        }
        path = tmp_path / "log.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "report.json"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        tasks = json.loads(out.read_text())["tasks"]
        spec = CompositeSpec(IDENT, AnalyticFrameField.from_strings(rows))
        with pytest.raises(EvaluationDomainError) as info:
            measure_case1(spec, [-1.0, 0.1, 0.1])  # first lattice node
        assert tasks["measure"] == {"error": str(info.value)}
        assert tasks["infinitesimal"] == {"error": str(info.value)}


# sha256 of the reports as written before the lattice tasks were batched;
# both configs have sigma_min exactly 0 at every node.
GOLDEN = {
    "laminated_foliate.json": "d1474db7daca0838f49af32ac9fb580e88e45c1ef89309bbd1d918d3a970b7d5",
    "uniform_measure.json": "87062ddeb9fd063b48c394f126db15c66e9d0022f090fd474b736fd00494a3fc",
}


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_reports(tmp_path, name):
    out = tmp_path / "report.json"
    assert main(["run", "--config", str(CONFIG_DIR / name), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name]


# sha256 of reports whose sigma_min is not zero everywhere, as written
# before node records went to the report writer as record arrays: the
# lattice workloads at seed 1, and the JSON and CSV reports of
# NON_UNIFORM, whose 120 nodes have 120 distinct sigma_min.
GOLDEN_WORKLOADS = {
    "lattice": "3a17c044d0110ed29cbfcc1fa6207c636d08c88a381917838a3adc343b81304c",
    "lattice-sampled": "11ccbde63d3509aef9376ffdc38fabe78bb638fc33d2eb1214259017e1de2cfb",
}
NON_UNIFORM = {
    "schema": 1,
    "domain": {"lower": [-0.5, -0.5, -0.5], "upper": [1.0, 1.0, 1.0], "resolution": [6, 5, 4]},
    "composite": {
        "case": "discrete-discrete",
        "component1": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "component2": [["1", "x1*x2", "x3^2"], ["x2*x3", "1", "0"], ["0", "x1", "1"]],
    },
    "tolerances": {"rank_rel_tol": 1e-8},
    "tasks": ["measure", "foliate", "infinitesimal"],
}
GOLDEN_NON_UNIFORM = {
    "json": "753133ae101701bfaf24b7d440ac521bedcc83c79c3cf2e35ea1fe6fd8c0f74c",
    "csv": "f1d65a355302c4a9d8ab16895a7ed55de9495f39d364bf174449ebe7a8fde556",
}


@pytest.mark.parametrize("name", GOLDEN_WORKLOADS)
def test_golden_lattice_workload_reports(tmp_path, name):
    config = workloads().WORKLOADS[name].generate(1, tmp_path)
    out = tmp_path / "report.json"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_WORKLOADS[name]


@pytest.mark.parametrize("out_format", GOLDEN_NON_UNIFORM)
def test_golden_non_uniform_reports(tmp_path, out_format):
    config = tmp_path / "non_uniform.json"
    config.write_text(json.dumps(NON_UNIFORM))
    out = tmp_path / f"report.{out_format}"
    args = ["run", "--config", str(config), "--out", str(out), "--format", out_format]
    assert main(args) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_NON_UNIFORM[out_format]
    if out_format == "json":
        foliate = json.loads(out.read_text())["tasks"]["foliate"]
        assert foliate["class"] == "TotallyNonUniform"
        assert len({node["sigma_min"] for node in foliate["nodes"]}) == 120
