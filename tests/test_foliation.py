"""Kernel distribution of the case-1 defect: classes, involutivity, scans."""
import json

import numpy as np
import pytest

from unilab.errors import PreconditionViolatedError, ScanFailedError, UnilabError
from unilab.fields import AnalyticFrameField, AnalyticVectorField, BodyDomain
from unilab.foliation import (
    FoliationClass,
    classify_m_counts,
    involutivity_residual,
    lie_bracket,
    null_space_at,
    report_to_csv,
    report_to_dict,
    scan_domain,
)
from unilab.measures import CompositeSpec, SymmetryCase

IDENT = AnalyticFrameField.identity()


def composite(rows2):
    return CompositeSpec(IDENT, AnalyticFrameField.from_strings(rows2))


LAMINATED = composite([["1", "x1^2", "0"], ["0", "1", "0"], ["0", "0", "1"]])
FIBERED = composite([["1", "x1^2", "x2^2"], ["0", "1", "0"], ["0", "0", "1"]])
UNIFORM = CompositeSpec(IDENT, IDENT)
# leaves of x1 + x2^2/2 = const; the kernel plane tilts with x2
CURVED = composite(
    [["1", "(x1 + x2^2/2)^2", "0"], ["0", "1", "0"], ["0", "0", "1"]]
)

INTERIOR = BodyDomain((0.1, 0.1, 0.1), (1.0, 1.0, 1.0), (5, 5, 5))


class TestNullSpace:
    def test_laminated_kernel_plane(self):
        sample = null_space_at(LAMINATED, [0.5, 0.3, 0.2])
        assert sample.m == 2
        # the kernel is orthogonal to e1
        assert np.max(np.abs(sample.basis @ np.array([1.0, 0.0, 0.0]))) < 1e-12

    def test_uniform_full_kernel(self):
        sample = null_space_at(UNIFORM, [0.5, 0.3, 0.2])
        assert sample.m == 3
        assert sample.sigma_min == 0.0

    def test_gauge_invariance(self):
        # a constant archetype change leaves the defect kernel unchanged
        c = np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.5, 1.0]])
        changed = CompositeSpec(
            LAMINATED.component1.right_multiplied(c),
            LAMINATED.component2.right_multiplied(c),
        )
        p = [0.5, 0.3, 0.2]
        assert null_space_at(changed, p).m == null_space_at(LAMINATED, p).m

    def test_rejects_other_cases(self):
        spec = CompositeSpec(IDENT, IDENT, SymmetryCase.ISO_ISO)
        with pytest.raises(UnilabError):
            null_space_at(spec, [0.0, 0.0, 0.0])


class TestClasses:
    def test_uniform_body(self):
        report = scan_domain(UNIFORM, INTERIOR)
        assert report.foliation_class is FoliationClass.UNIFORM_BODY

    def test_laminated(self):
        report = scan_domain(LAMINATED, INTERIOR)
        assert report.foliation_class is FoliationClass.LAMINATED

    def test_fibered(self):
        report = scan_domain(FIBERED, INTERIOR)
        assert report.foliation_class is FoliationClass.FIBERED

    def test_totally_non_uniform(self):
        # three independent defect directions at every node
        spec = composite(
            [["1", "x1^2", "x2^2"], ["0", "1", "x3^2"], ["0", "0", "1"]]
        )
        report = scan_domain(spec, INTERIOR)
        assert report.foliation_class is FoliationClass.TOTALLY_NON_UNIFORM

    def test_singular_mixture(self):
        # the defect vanishes on the whole x1 = 0.5 node plane
        spec = composite(
            [["1", "(x1 - 0.5)^2", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        )
        dom = BodyDomain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (3, 3, 3))
        report = scan_domain(spec, dom)
        assert report.foliation_class is FoliationClass.SINGULAR

    def test_constant_m_rule_tolerates_one_percent(self):
        # 1 node of 125 off-class stays within the 99 percent rule, 2 do not
        assert classify_m_counts([0, 0, 124, 1]) is FoliationClass.LAMINATED
        assert classify_m_counts([0, 0, 123, 2]) is FoliationClass.SINGULAR
        assert classify_m_counts([0, 0, 0, 0]) is FoliationClass.SINGULAR


class TestScanFailures:
    def test_failures_recorded_when_rare(self):
        # component2 is singular on the x1 = 0 node plane: 1 of 11 slabs
        spec = composite([["x1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
        dom = BodyDomain((0.0, 0.1, 0.1), (1.0, 1.0, 1.0), (11, 3, 3))
        report = scan_domain(spec, dom)
        assert len(report.failures) == 9
        assert all("singular" in msg.lower() for _, msg in report.failures)

    def test_too_many_failures_raise(self):
        spec = composite([["x1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
        dom = BodyDomain((0.0, 0.1, 0.1), (1.0, 1.0, 1.0), (5, 3, 3))
        with pytest.raises(ScanFailedError):
            scan_domain(spec, dom)


class TestLieBracket:
    def test_constant_fields_commute(self):
        v = AnalyticVectorField.constant([1.0, 2.0, 3.0])
        w = AnalyticVectorField.constant([0.0, 1.0, 0.0])
        assert np.array_equal(lie_bracket(v, w, [0.3, 0.4, 0.5]), np.zeros(3))

    def test_known_bracket(self):
        # [x1 e2, e1] = -e2
        v = AnalyticVectorField.from_strings(["0", "x1", "0"])
        w = AnalyticVectorField.constant([1.0, 0.0, 0.0])
        assert np.allclose(lie_bracket(v, w, [0.7, 0.1, 0.2]), [0.0, -1.0, 0.0])

    def test_antisymmetry(self):
        v = AnalyticVectorField.from_strings(["x2", "x3", "x1"])
        w = AnalyticVectorField.from_strings(["x1*x2", "1", "x3^2"])
        p = [0.3, 0.6, 0.9]
        assert np.allclose(lie_bracket(v, w, p), -lie_bracket(w, v, p), atol=1e-13)


class TestInvolutivity:
    def test_flat_leaves_zero_residual(self):
        v = AnalyticVectorField.constant([0.0, 1.0, 0.0])
        w = AnalyticVectorField.constant([0.0, 0.0, 1.0])
        assert involutivity_residual(LAMINATED, v, w, [0.5, 0.3, 0.2]) == 0.0

    def test_curved_leaves_involutive(self):
        # both fields annihilate grad(x1 + x2^2/2); so does their bracket
        v = AnalyticVectorField.from_strings(["-x2", "1", "0"])
        w = AnalyticVectorField.from_strings(["-x1*x2", "x1", "0"])
        p = [0.4, 0.7, 0.2]
        bracket = lie_bracket(v, w, p)
        assert np.allclose(bracket, [0.7**2, -0.7, 0.0], atol=1e-13)
        assert involutivity_residual(CURVED, v, w, p) < 1e-12

    def test_uniform_composite_zero_over_zero(self):
        v = AnalyticVectorField.from_strings(["0", "x1", "0"])
        w = AnalyticVectorField.constant([1.0, 0.0, 0.0])
        assert involutivity_residual(UNIFORM, v, w, [0.2, 0.2, 0.2]) == 0.0

    def test_out_of_kernel_field_rejected(self):
        v = AnalyticVectorField.constant([1.0, 0.0, 0.0])  # not in the kernel
        w = AnalyticVectorField.constant([0.0, 0.0, 1.0])
        with pytest.raises(PreconditionViolatedError):
            involutivity_residual(LAMINATED, v, w, [0.5, 0.3, 0.2])

    def test_scan_records_max_residual(self):
        v = AnalyticVectorField.from_strings(["-x2", "1", "0"])
        w = AnalyticVectorField.from_strings(["-x1*x2", "x1", "0"])
        report = scan_domain(CURVED, INTERIOR, kernel_fields=(v, w))
        assert report.involutivity_max_residual is not None
        assert report.involutivity_max_residual < 1e-10


class TestSerialization:
    def test_dict_shape(self):
        report = scan_domain(LAMINATED, INTERIOR)
        data = report_to_dict(report)
        assert data["class"] == "Laminated"
        assert data["n_samples"] == 125
        assert data["m_counts"]["2"] == 125
        assert len(data["nodes"]) == 125
        assert set(data["nodes"].dtype.names) == {"x", "m", "sigma_min"}

    def test_nodes_back_to_dicts(self):
        # The recipe the README gives for the list of dicts report_to_dict used to return.
        report = scan_domain(LAMINATED, INTERIOR)
        nodes = report_to_dict(report)["nodes"]
        columns = {name: nodes[name].tolist() for name in nodes.dtype.names}
        dicts = [dict(zip(columns, row)) for row in zip(*columns.values())]
        assert dicts == [
            {"x": x, "m": m, "sigma_min": sigma_min}
            for x, m, sigma_min in zip(
                report.points.tolist(), report.m.tolist(), report.sigma_min.tolist()
            )
        ]
        assert json.loads(json.dumps(dicts)) == dicts

    def test_csv_shape(self):
        report = scan_domain(LAMINATED, INTERIOR)
        lines = report_to_csv(report).strip().splitlines()
        assert lines[0] == "x1,x2,x3,m,sigma_min"
        assert len(lines) == 126
        cells = lines[1].split(",")
        assert len(cells) == 5
        assert cells[3] == "2"
