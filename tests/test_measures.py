"""Per-case non-uniformity measures and finite symmetry groups."""
import numpy as np
import pytest

from unilab.errors import MissingDirectorError, NotAGroupError
from unilab.fields import AnalyticFrameField, AnalyticVectorField
from unilab.groupoid import DEFAULT_ARROW_TOL
from unilab.measures import (
    CompositeSpec,
    FiniteMatrixGroup,
    SymmetryCase,
    evaluate_measure,
    intersect_groups,
    measure_case1,
    measure_case1_covariant,
    measure_case2,
    measure_case3,
    measure_case5,
)

IDENT = AnalyticFrameField.identity()
SHEAR = AnalyticFrameField.from_strings(
    [["1", "x1^2", "0"], ["0", "1", "0"], ["0", "0", "1"]]
)
MIXED = AnalyticFrameField.from_strings(
    [["1", "x2", "0"], ["0", "1", "x3"], ["x1/2", "0", "1"]]
)


def rotation_z(theta_text):
    return AnalyticFrameField.from_strings(
        [
            [f"cos({theta_text})", f"-sin({theta_text})", "0"],
            [f"sin({theta_text})", f"cos({theta_text})", "0"],
            ["0", "0", "1"],
        ]
    )


class TestSymmetryCase:
    def test_wire_strings_roundtrip(self):
        for case in SymmetryCase:
            assert SymmetryCase.from_string(case.value) is case

    def test_unknown_string(self):
        with pytest.raises(ValueError):
            SymmetryCase.from_string("cubic-cubic")

    def test_case_numbers(self):
        spec = CompositeSpec(IDENT, IDENT, SymmetryCase.ISO_ISO)
        assert spec.case_number == 4


class TestCompositeSpec:
    def test_case3_requires_director(self):
        with pytest.raises(MissingDirectorError):
            CompositeSpec(IDENT, IDENT, SymmetryCase.DISCRETE_TRANSISO)

    def test_case5_requires_both_directors(self):
        n = AnalyticVectorField.constant([1.0, 0.0, 0.0])
        with pytest.raises(MissingDirectorError):
            CompositeSpec(IDENT, IDENT, SymmetryCase.TRANSISO_TRANSISO, director1=n)


class TestCase1:
    def test_identical_components_zero(self):
        spec = CompositeSpec(MIXED, MIXED)
        assert np.max(np.abs(measure_case1(spec, [0.3, 0.5, 0.7]))) == 0.0

    def test_shear_against_identity(self):
        # Gamma2 has the single entry Gamma^1_21 = -2 x1, so B^1_21 = 2 x1
        spec = CompositeSpec(IDENT, SHEAR)
        x1 = 0.4
        b = measure_case1(spec, [x1, 0.0, 0.0])
        expected = np.zeros((3, 3, 3))
        expected[0, 1, 0] = 2.0 * x1
        assert np.allclose(b, expected, atol=1e-14)

    def test_swap_negates(self):
        spec = CompositeSpec(IDENT, MIXED)
        swapped = CompositeSpec(MIXED, IDENT)
        p = [0.3, 0.5, 0.7]
        assert np.allclose(
            measure_case1(spec, p), -measure_case1(swapped, p), atol=1e-13
        )

    @pytest.mark.parametrize("field2", [SHEAR, MIXED])
    def test_covariant_route_agrees(self, field2):
        spec = CompositeSpec(MIXED, field2)
        p = [0.3, 0.5, 0.7]
        assert np.allclose(
            measure_case1(spec, p), measure_case1_covariant(spec, p), atol=1e-12
        )

    def test_covariant_route_rotation(self):
        spec = CompositeSpec(rotation_z("x1/3"), rotation_z("x1*x2"))
        p = [0.4, 0.8, 0.1]
        assert np.allclose(
            measure_case1(spec, p), measure_case1_covariant(spec, p), atol=1e-12
        )


class TestCase2:
    def test_symmetric(self):
        spec = CompositeSpec(MIXED, SHEAR, SymmetryCase.DISCRETE_ISOTROPIC)
        b = measure_case2(spec, [0.3, 0.5, 0.7])
        assert np.array_equal(b, b.T)

    def test_rotations_have_no_metric_defect(self):
        # both components orthogonal: g1 = g2 = I regardless of the angles
        spec = CompositeSpec(
            rotation_z("x1"), rotation_z("3*x2"), SymmetryCase.DISCRETE_ISOTROPIC
        )
        b = measure_case2(spec, [0.9, 0.2, 0.0])
        assert np.max(np.abs(b)) < 1e-14

    def test_scaling_defect(self):
        # P2 = 2 I gives g2 = I/4
        double = AnalyticFrameField.from_matrix(2.0 * np.eye(3))
        spec = CompositeSpec(IDENT, double, SymmetryCase.DISCRETE_ISOTROPIC)
        b = measure_case2(spec, [0.0, 0.0, 0.0])
        assert np.allclose(b, np.eye(3) * 0.75, atol=1e-14)

    def test_case4_dispatch(self):
        spec = CompositeSpec(IDENT, MIXED, SymmetryCase.ISO_ISO)
        res = evaluate_measure(spec, [0.3, 0.5, 0.7])
        assert res.case_number == 4
        assert np.allclose(res.B, measure_case2(spec, [0.3, 0.5, 0.7]))


class TestCase3:
    def test_constant_director_identity_frame(self):
        n = AnalyticVectorField.constant([1.0, 0.0, 0.0])
        spec = CompositeSpec(IDENT, IDENT, SymmetryCase.DISCRETE_TRANSISO, director=n)
        b, b_hat = measure_case3(spec, [0.3, 0.5, 0.7])
        assert np.max(np.abs(b)) == 0.0
        assert np.max(np.abs(b_hat)) == 0.0

    def test_varying_director_detected(self):
        n = AnalyticVectorField.from_strings(["cos(x1)", "sin(x1)", "0"])
        spec = CompositeSpec(IDENT, IDENT, SymmetryCase.DISCRETE_TRANSISO, director=n)
        _, b_hat = measure_case3(spec, [0.0, 0.0, 0.0])
        expected = np.zeros((3, 3))
        expected[1, 0] = 1.0
        assert np.allclose(b_hat, expected, atol=1e-14)

    def test_vanishing_director_rejected(self):
        n = AnalyticVectorField.from_strings(["x1", "0", "0"])
        spec = CompositeSpec(IDENT, IDENT, SymmetryCase.DISCRETE_TRANSISO, director=n)
        with pytest.raises(MissingDirectorError):
            measure_case3(spec, [0.0, 0.5, 0.5])

    def test_dispatch_carries_bhat(self):
        n = AnalyticVectorField.constant([0.0, 1.0, 0.0])
        spec = CompositeSpec(IDENT, SHEAR, SymmetryCase.DISCRETE_TRANSISO, director=n)
        res = evaluate_measure(spec, [0.3, 0.0, 0.0])
        assert res.case_number == 3
        assert res.b_hat is not None


class TestCase5:
    @pytest.mark.parametrize("deg", [10.0, 30.0, 90.0])
    def test_rotation_angle_defect(self, deg):
        # P1 = I, P2 = Rz(theta), directors both e1: delta = cos(theta) - 1
        n1 = AnalyticVectorField.constant([1.0, 0.0, 0.0])
        n2 = AnalyticVectorField.constant([1.0, 0.0, 0.0])
        theta = float(np.deg2rad(deg))
        spec = CompositeSpec(
            IDENT,
            rotation_z(f"{theta!r}"),
            SymmetryCase.TRANSISO_TRANSISO,
            director1=n1,
            director2=n2,
        )
        _, delta = measure_case5(spec, [0.0, 0.0, 0.0])
        assert delta == pytest.approx(np.cos(theta) - 1.0, abs=1e-12)

    def test_aligned_transport_zero_defect(self):
        n1 = AnalyticVectorField.constant([1.0, 0.0, 0.0])
        spec = CompositeSpec(
            IDENT,
            IDENT,
            SymmetryCase.TRANSISO_TRANSISO,
            director1=n1,
            director2=n1,
        )
        b, delta = measure_case5(spec, [0.1, 0.2, 0.3])
        assert np.max(np.abs(b)) == 0.0
        assert delta == 0.0

    def test_directors_normalized_before_comparison(self):
        # scaling a director must not change the defect
        n1 = AnalyticVectorField.constant([1.0, 0.0, 0.0])
        n2a = AnalyticVectorField.constant([1.0, 0.0, 0.0])
        n2b = AnalyticVectorField.constant([5.0, 0.0, 0.0])
        theta = float(np.deg2rad(20.0))
        base = dict(symmetry_case=SymmetryCase.TRANSISO_TRANSISO, director1=n1)
        rot = rotation_z(f"{theta!r}")
        _, d_a = measure_case5(CompositeSpec(IDENT, rot, director2=n2a, **base), [0, 0, 0])
        _, d_b = measure_case5(CompositeSpec(IDENT, rot, director2=n2b, **base), [0, 0, 0])
        assert d_a == pytest.approx(d_b, abs=1e-14)


class TestFiniteMatrixGroup:
    def four_group(self):
        r = np.diag([-1.0, -1.0, 1.0])
        s = np.diag([1.0, -1.0, -1.0])
        return [np.eye(3), r, s, r @ s]

    def test_valid_group(self):
        g = FiniteMatrixGroup(self.four_group())
        assert len(g) == 4

    def test_missing_identity(self):
        with pytest.raises(NotAGroupError):
            FiniteMatrixGroup([np.diag([-1.0, -1.0, 1.0])])

    def test_not_closed(self):
        r = np.diag([-1.0, -1.0, 1.0])
        s = np.diag([1.0, -1.0, -1.0])
        with pytest.raises(NotAGroupError):
            FiniteMatrixGroup([np.eye(3), r, s])

    def test_intersection(self):
        r = np.diag([-1.0, -1.0, 1.0])
        s = np.diag([1.0, -1.0, -1.0])
        g1 = FiniteMatrixGroup(self.four_group())
        g2 = FiniteMatrixGroup([np.eye(3), r])
        inter = intersect_groups(g1, g2)
        assert len(inter) == 2
        assert inter.contains(np.eye(3)) and inter.contains(r)

    def test_intersection_trivial(self):
        r = np.diag([-1.0, -1.0, 1.0])
        s = np.diag([1.0, -1.0, -1.0])
        g1 = FiniteMatrixGroup([np.eye(3), r])
        g2 = FiniteMatrixGroup([np.eye(3), s])
        inter = intersect_groups(g1, g2)
        assert len(inter) == 1

    def test_default_tolerance_is_the_arrow_tolerance(self):
        g = FiniteMatrixGroup(self.four_group())
        assert g.tolerance == intersect_groups(g, g).tolerance == DEFAULT_ARROW_TOL
