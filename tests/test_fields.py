"""Analytic and sampled frame fields: values, jets, domains, persistence."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_expressions import eval_oracle
from unilab.errors import NonFiniteError, OutOfDomainError, SingularFrameError
from unilab.fields import (
    AnalyticFrameField,
    AnalyticVectorField,
    BodyDomain,
    SampledFrameField,
    SampledVectorField,
)

ROTATION = [
    ["cos(x1)", "-sin(x1)", "0"],
    ["sin(x1)", "cos(x1)", "0"],
    ["0", "0", "1"],
]


def rotation_value(x1):
    c, s = np.cos(x1), np.sin(x1)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_derivative(x1):
    c, s = np.cos(x1), np.sin(x1)
    return np.array([[-s, -c, 0.0], [c, -s, 0.0], [0.0, 0.0, 0.0]])


class TestBodyDomain:
    def test_lattice_shape(self):
        dom = BodyDomain((0, 0, 0), (1, 2, 3), (3, 5, 4))
        lattice = dom.lattice()
        assert lattice.shape == (60, 3)
        assert np.allclose(lattice[0], [0, 0, 0])
        assert np.allclose(lattice[-1], [1, 2, 3])

    def test_contains(self):
        dom = BodyDomain((0, 0, 0), (1, 1, 1), (3, 3, 3))
        assert dom.contains((0.5, 0.5, 0.5))
        assert not dom.contains((1.5, 0.5, 0.5))

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            BodyDomain((0, 0, 0), (0, 1, 1), (3, 3, 3))
        with pytest.raises(ValueError):
            BodyDomain((0, 0, 0), (1, 1, 1), (1, 3, 3))


class TestAnalyticFrameField:
    def test_identity_constant_jet(self):
        field = AnalyticFrameField.identity()
        value, deriv = field.jet(np.array([0.3, -0.2, 0.9]))
        assert np.array_equal(value, np.eye(3))
        assert np.array_equal(deriv, np.zeros((3, 3, 3)))

    def test_rotation_value_and_derivative(self):
        field = AnalyticFrameField.from_strings(ROTATION)
        x1 = 0.7
        value, deriv = field.jet(np.array([x1, 0.0, 0.0]))
        assert np.allclose(value, rotation_value(x1), atol=1e-14)
        assert np.allclose(deriv[:, :, 0], rotation_derivative(x1), atol=1e-14)
        assert np.allclose(deriv[:, :, 1], 0.0)
        assert np.allclose(deriv[:, :, 2], 0.0)

    def test_symbolic_inverse_matches_numeric(self):
        field = AnalyticFrameField.from_strings(
            [["1", "x2", "0"], ["0", "1", "x3"], ["x1/2", "0", "1"]]
        )
        p = np.array([0.4, 0.3, 0.2])
        inv = np.array(
            [[eval_oracle(field.inverse_entries[a][j], p) for j in range(3)] for a in range(3)]
        )
        assert np.allclose(inv, np.linalg.inv(field.value(p)), atol=1e-13)

    def test_singular_value_raises(self):
        field = AnalyticFrameField.from_strings(
            [["x1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        )
        with pytest.raises(SingularFrameError):
            field.value(np.array([0.0, 0.0, 0.0]))

    def test_right_multiplied(self):
        field = AnalyticFrameField.from_strings(ROTATION)
        c = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        changed = field.right_multiplied(c)
        p = np.array([0.5, 0.0, 0.0])
        assert np.allclose(changed.value(p), field.value(p) @ c, atol=1e-13)


class TestAnalyticVectorField:
    def test_jet(self):
        vf = AnalyticVectorField.from_strings(["x1^2", "sin(x2)", "1"])
        p = np.array([0.5, 0.3, 0.0])
        n, dn = vf.jet(p)
        assert np.allclose(n, [0.25, np.sin(0.3), 1.0])
        assert dn[0, 0] == pytest.approx(1.0)
        assert dn[1, 1] == pytest.approx(np.cos(0.3))
        assert dn[2, :] == pytest.approx([0.0, 0.0, 0.0])


class TestSampledFrameField:
    def test_snaps_to_nearest_node(self):
        dom = BodyDomain((0, 0, 0), (1, 1, 1), (5, 5, 5))
        field = SampledFrameField.from_function(
            lambda p: np.eye(3) * (1.0 + p[0]), dom
        )
        # 0.3 snaps to node x1 = 0.25
        assert np.allclose(field.value(np.array([0.3, 0.0, 0.0])), np.eye(3) * 1.25)

    def test_out_of_domain(self):
        dom = BodyDomain((0, 0, 0), (1, 1, 1), (5, 5, 5))
        field = SampledFrameField.from_function(lambda p: np.eye(3), dom)
        with pytest.raises(OutOfDomainError):
            field.value(np.array([1.2, 0.0, 0.0]))

    def test_interior_derivative_second_order(self):
        field_fn = lambda p: rotation_value(p[0])
        errors = []
        for n in (11, 21, 41):
            dom = BodyDomain((0, 0, 0), (1, 1, 1), (n, n, n))
            field = SampledFrameField.from_function(field_fn, dom)
            p = np.array([0.5, 0.5, 0.5])
            _, deriv = field.jet(p)
            errors.append(np.max(np.abs(deriv[:, :, 0] - rotation_derivative(0.5))))
        # halving h divides the error by about 4
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.2)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.2)

    def test_boundary_derivative_second_order(self):
        field_fn = lambda p: rotation_value(p[0])
        errors = []
        for n in (11, 21, 41):
            dom = BodyDomain((0, 0, 0), (1, 1, 1), (n, n, n))
            field = SampledFrameField.from_function(field_fn, dom)
            p = np.array([0.0, 0.5, 0.5])
            _, deriv = field.jet(p)
            errors.append(np.max(np.abs(deriv[:, :, 0] - rotation_derivative(0.0))))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.3)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.3)

    def test_npz_roundtrip(self, tmp_path):
        dom = BodyDomain((0, 0, 0), (1, 1, 1), (5, 5, 5))
        field = SampledFrameField.from_function(
            lambda p: rotation_value(p[0] + p[1]), dom
        )
        path = tmp_path / "frames.npz"
        field.to_npz(path)
        loaded = SampledFrameField.from_npz(path)
        p = np.array([0.5, 0.25, 0.75])
        assert np.array_equal(loaded.value(p), field.value(p))
        assert np.array_equal(loaded.jet(p)[1], field.jet(p)[1])

    def test_too_few_nodes(self):
        dom = BodyDomain((0, 0, 0), (1, 1, 1), (2, 5, 5))
        with pytest.raises(ValueError):
            SampledFrameField.from_function(lambda p: np.eye(3), dom)

    def test_singular_sample_raises(self):
        values = np.tile(np.eye(3), (3, 3, 3, 1, 1))
        values[1, 1, 1] = 0.0
        field = SampledFrameField((0, 0, 0), (0.5, 0.5, 0.5), values)
        with pytest.raises(SingularFrameError):
            field.value(np.array([0.5, 0.5, 0.5]))

    def test_nan_sample_rejected(self):
        values = np.tile(np.eye(3), (3, 3, 3, 1, 1))
        values[0, 0, 0, 0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            SampledFrameField((0, 0, 0), (0.5, 0.5, 0.5), values)


class TestSampledVectorField:
    def test_value_and_derivative(self):
        dom = BodyDomain((0, 0, 0), (1, 1, 1), (21, 21, 21))
        field = SampledVectorField.from_function(
            lambda p: np.array([p[0] ** 2, p[1], 1.0]), dom
        )
        p = np.array([0.5, 0.5, 0.5])
        n, dn = field.jet(p)
        assert np.allclose(n, [0.25, 0.5, 1.0], atol=1e-12)
        # x1^2 is quadratic: central differences are exact for it
        assert dn[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert dn[1, 1] == pytest.approx(1.0, abs=1e-10)


class TestFrameJet:
    def test_dispatches_both_kinds(self):
        dom = BodyDomain((0, 0, 0), (1, 1, 1), (5, 5, 5))
        analytic = AnalyticFrameField.identity()
        sampled = SampledFrameField.from_function(lambda p: np.eye(3), dom)
        p = np.array([0.5, 0.5, 0.5])
        for field in (analytic, sampled):
            value, deriv = field.jet(p)
            assert np.allclose(value, np.eye(3))
            assert np.allclose(deriv, 0.0)


# Cells using exp, log, tan and ^, whose numpy and math values can differ
# in the last bit. They and their derivatives are finite on [0.1, 2]^3.
CELLS = ["exp(x1*x2)", "log(x1 + x3)", "tan(x2/4)", "x1^x3", "sqrt(x2)*x3^2.5",
         "exp(-x3)/sqrt(x1)", "log(x2)^3", "x2^x1 - tan(x3/3)", "1"]
COORD = st.floats(0.1, 2.0)


class TestPointIsARowOfAnyBatch:
    @settings(max_examples=60, deadline=None)
    @given(
        cells=st.lists(st.sampled_from(CELLS), min_size=9, max_size=9),
        points=st.lists(st.tuples(COORD, COORD, COORD), min_size=1, max_size=6),
    )
    # x2^x1 at x2 = 0.1, x1 = 2 rounds differently when numpy sees a
    # zero-stride (broadcast) column, as a lone point's stack has.
    @example(
        cells=["x2^x1 - tan(x3/3)", "1", "1", "1", "exp(x1*x2)", "1", "1", "1", "log(x1 + x3)"],
        points=[(2.0, 0.1, 1.0)],
    )
    def test_value_and_jet_are_rows_of_the_stacks(self, cells, points):
        points = np.array(points)
        frame = AnalyticFrameField.from_strings([cells[0:3], cells[3:6], cells[6:9]])
        for field in (frame, AnalyticVectorField.from_strings(cells[:3])):
            values, value_failures = field.value_stack(points)
            jet_values, derivs, jet_failures = field.jet_stack(points)
            for i, p in enumerate(points):
                if i in value_failures:  # a singular frame
                    with pytest.raises(type(value_failures[i])):
                        field.value(p)
                    with pytest.raises(type(jet_failures[i])):
                        field.jet(p)
                    continue
                assert np.array_equal(field.value(p), values[i])
                value, deriv = field.jet(p)
                assert np.array_equal(value, jet_values[i])
                assert np.array_equal(deriv, derivs[i])
