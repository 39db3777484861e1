"""Squares over two side groupoids: products, units, interchange, core,
misalignment, configuration changes, compatibility, complements."""
import functools
import itertools
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracles
from unilab.cli import main
from unilab.errors import (
    InconsistentCornersError,
    NotComposableError,
    NotOneCompatibleError,
    NotTransitiveError,
    NotTriclinicError,
    SingularJacobianError,
    SizeLimitError,
    UnilabError,
)
from unilab.fields import AnalyticFrameField
from unilab.groupoid import (
    Arrow,
    FiniteGroupoid,
    PointSet,
    arrows_match,
    from_frame_field,
    from_point_frames,
    groupoid_from_dict,
    is_transitive as groupoid_is_transitive,
    unit_arrow,
)
from unilab.double_groupoid import (
    DEFAULT_COMMUTATION_TOL,
    DEFAULT_SQUARE_CAP,
    MaterialDoubleGroupoid,
    Square,
    _squares_at,
    apply_config_change,
    check_square,
    coarse_enumerate,
    commutation_defect,
    commuting_rows,
    complementary_square,
    core,
    filling_check,
    h_unit,
    hcompose,
    interchange_check,
    is_commutative,
    is_compatible,
    is_uniform,
    misalignment,
    normalizer_criterion,
    opposite_pair_max_deviation,
    square_from_dict,
    square_to_dict,
    squares_match,
    transpose,
    v_unit,
    vcompose,
)


def rot_z(deg):
    t = np.deg2rad(deg)
    return np.array(
        [[np.cos(t), -np.sin(t), 0.0], [np.sin(t), np.cos(t), 0.0], [0.0, 0.0, 1.0]]
    )


def rot_x(deg):
    t = np.deg2rad(deg)
    return np.array(
        [[1.0, 0.0, 0.0], [0.0, np.cos(t), -np.sin(t)], [0.0, np.sin(t), np.cos(t)]]
    )


def rot_y(deg):
    t = np.deg2rad(deg)
    return np.array(
        [[np.cos(t), 0.0, np.sin(t)], [0.0, 1.0, 0.0], [-np.sin(t), 0.0, np.cos(t)]]
    )


def rotation_field(text):
    return AnalyticFrameField.from_strings(
        [
            [f"cos({text})", f"-sin({text})", "0"],
            [f"sin({text})", f"cos({text})", "0"],
            ["0", "0", "1"],
        ]
    )


FOUR_POINTS = PointSet.from_pairs(
    [
        ("W", [0.0, 0.0, 0.0]),
        ("X", [1.0, 0.0, 0.0]),
        ("Y", [0.0, 1.0, 0.0]),
        ("Z", [1.0, 1.0, 0.0]),
    ]
)


@functools.lru_cache(maxsize=None)
def rotation_instance():
    """Identity component against Rz((pi/180)(10 x1 + 30 x2)) on four points."""
    side_h = from_frame_field(AnalyticFrameField.identity(), FOUR_POINTS)
    side_v = from_frame_field(rotation_field("(pi/180)*(10*x1 + 30*x2)"), FOUR_POINTS)
    return MaterialDoubleGroupoid.from_sides(side_h, side_v)


@functools.lru_cache(maxsize=None)
def uniform_instance():
    field = rotation_field("(pi/180)*(10*x1 + 30*x2)")
    side_h = from_frame_field(field, FOUR_POINTS)
    side_v = from_frame_field(field, FOUR_POINTS)
    return MaterialDoubleGroupoid.from_sides(side_h, side_v)


@functools.lru_cache(maxsize=None)
def grid_sides():
    """4x3 grid with two linear-angle rotation components."""
    points = PointSet.from_pairs(
        [
            (f"p{i}{j}", [float(i), float(j), 0.0])
            for i in range(4)
            for j in range(3)
        ]
    )
    side_h = from_frame_field(rotation_field("0.2*x1 + 0.1*x2"), points)
    side_v = from_frame_field(rotation_field("0.3*x1 - 0.05*x2"), points)
    return side_h, side_v


def grid_square(i, j):
    """The square with W = p(i, j), X up one step, Y left one step."""
    side_h, side_v = grid_sides()
    w, x = f"p{i}{j}", f"p{i}{j + 1}"
    y, z = f"p{i + 1}{j}", f"p{i + 1}{j + 1}"
    return Square(
        W=w, X=x, Y=y, Z=z,
        s=side_h.between(w, y)[0],
        t=side_h.between(x, z)[0],
        s_hat=side_v.between(w, x)[0],
        t_hat=side_v.between(y, z)[0],
    )


class TestSquareBasics:
    def test_corner_consistency_enforced(self):
        bad = Square(
            W="W", X="X", Y="Y", Z="Z",
            s=Arrow("s", "W", "Z", np.eye(3)),   # should run W -> Y
            t=Arrow("t", "X", "Z", np.eye(3)),
            s_hat=Arrow("sh", "W", "X", np.eye(3)),
            t_hat=Arrow("th", "Y", "Z", np.eye(3)),
        )
        with pytest.raises(InconsistentCornersError):
            check_square(bad)

    def test_commutation_defect_zero_for_matching_maps(self):
        sq = Square(
            W="W", X="X", Y="Y", Z="Z",
            s=Arrow("s", "W", "Y", rot_z(5)),
            t=Arrow("t", "X", "Z", rot_z(5)),
            s_hat=Arrow("sh", "W", "X", rot_z(20)),
            t_hat=Arrow("th", "Y", "Z", rot_z(20)),
        )
        assert commutation_defect(sq) < 1e-15
        assert is_commutative(sq)

    def test_commutation_defect_detects_mismatch(self):
        sq = Square(
            W="W", X="X", Y="Y", Z="Z",
            s=Arrow("s", "W", "Y", np.eye(3)),
            t=Arrow("t", "X", "Z", np.eye(3)),
            s_hat=Arrow("sh", "W", "X", rot_z(10)),
            t_hat=Arrow("th", "Y", "Z", rot_z(20)),
        )
        assert not is_commutative(sq)

    def test_transpose_is_involution(self):
        sq = grid_square(0, 0)
        assert squares_match(transpose(transpose(sq)), sq, 0.0)

    def test_transpose_preserves_commutativity(self):
        sq = grid_square(1, 1)
        assert is_commutative(sq)
        assert is_commutative(transpose(sq))


class TestComposition:
    def test_hcompose_corners_and_maps(self):
        a = grid_square(1, 0)
        b = grid_square(0, 0)
        res = hcompose(a, b)
        assert (res.W, res.X, res.Y, res.Z) == ("p00", "p01", "p20", "p21")
        assert np.allclose(res.s.map, a.s.map @ b.s.map, atol=1e-14)
        assert arrows_match(res.s_hat, b.s_hat, 0.0)
        assert arrows_match(res.t_hat, a.t_hat, 0.0)

    def test_vcompose_corners_and_maps(self):
        a = grid_square(0, 1)
        b = grid_square(0, 0)
        res = vcompose(a, b)
        assert (res.W, res.X, res.Y, res.Z) == ("p00", "p02", "p10", "p12")
        assert np.allclose(res.s_hat.map, a.s_hat.map @ b.s_hat.map, atol=1e-14)
        assert arrows_match(res.s, b.s, 0.0)
        assert arrows_match(res.t, a.t, 0.0)

    def test_hcompose_rejects_mismatched_edges(self):
        with pytest.raises(NotComposableError):
            hcompose(grid_square(0, 0), grid_square(0, 1))

    def test_vcompose_rejects_mismatched_edges(self):
        with pytest.raises(NotComposableError):
            vcompose(grid_square(0, 0), grid_square(1, 0))

    def test_h_unit_laws(self):
        a = grid_square(0, 0)
        assert squares_match(hcompose(a, h_unit(a.s_hat)), a, 1e-15)
        assert squares_match(hcompose(h_unit(a.t_hat), a), a, 1e-15)

    def test_v_unit_laws(self):
        a = grid_square(0, 0)
        assert squares_match(vcompose(a, v_unit(a.s)), a, 1e-15)
        assert squares_match(vcompose(v_unit(a.t), a), a, 1e-15)

    def test_v_unit_respects_arrow_products(self):
        side_h, _ = grid_sides()
        u = side_h.between("p10", "p20")[0]
        v = side_h.between("p00", "p10")[0]
        uv = side_h.compose(u, v)
        composite = hcompose(v_unit(u), v_unit(v))
        assert squares_match(composite, v_unit(uv), 1e-12)

    def test_hcompose_associative(self):
        a = grid_square(2, 0)
        b = grid_square(1, 0)
        c = grid_square(0, 0)
        first = hcompose(a, hcompose(b, c))
        second = hcompose(hcompose(a, b), c)
        assert squares_match(first, second, 1e-12)

    def test_compositions_preserve_commutativity(self):
        a = grid_square(1, 0)
        b = grid_square(0, 0)
        assert is_commutative(a) and is_commutative(b)
        assert is_commutative(hcompose(a, b), 1e-12)
        c = grid_square(0, 1)
        assert is_commutative(vcompose(c, b), 1e-12)

    def test_interchange_on_two_by_two_block(self):
        a = grid_square(1, 1)
        b = grid_square(0, 1)
        c = grid_square(1, 0)
        d = grid_square(0, 0)
        assert interchange_check(a, b, c, d, 1e-12)


class TestCoarseEnumeration:
    def test_rotation_instance_count(self):
        dg = rotation_instance()
        coarse = coarse_enumerate(dg.side_h, dg.side_v)
        assert len(coarse) == 256
        assert len(dg.squares) == 36

    def test_size_cap(self):
        dg = rotation_instance()
        with pytest.raises(SizeLimitError):
            coarse_enumerate(dg.side_h, dg.side_v, max_squares=100)

    def test_stored_squares_must_commute(self):
        dg = rotation_instance()
        coarse = coarse_enumerate(dg.side_h, dg.side_v)
        bad = next(sq for sq in coarse if not is_commutative(sq))
        with pytest.raises(UnilabError):
            MaterialDoubleGroupoid(dg.side_h, dg.side_v, [bad])

    def test_sides_must_share_base(self):
        other = PointSet.from_pairs([("A", [0, 0, 0])])
        side_h = rotation_instance().side_h
        side_v = from_frame_field(AnalyticFrameField.identity(), other)
        with pytest.raises(UnilabError):
            MaterialDoubleGroupoid(side_h, side_v, [])


class TestFillingAndCore:
    def test_uniform_instance_fills_everything(self):
        dg = uniform_instance()
        assert len(dg.squares) == 256
        assert filling_check(dg) == []
        assert is_uniform(dg)

    def test_rotation_instance_unfillable_pairs(self):
        dg = rotation_instance()
        assert len(filling_check(dg)) == 28

    def test_core_of_uniform_instance_transitive(self):
        dg = uniform_instance()
        c = core(dg)
        assert len(c.arrows) == 16
        assert groupoid_is_transitive(c)
        for a in c.arrows:
            assert a.map2 is not None
            assert np.allclose(a.map, a.map2, atol=1e-9)

    def test_core_of_rotation_instance_intransitive(self):
        dg = rotation_instance()
        c = core(dg)
        assert len(c.arrows) == 4
        assert all(a.source == a.target for a in c.arrows)
        assert not is_uniform(dg)


class TestMisalignment:
    def test_rotation_instance_values(self):
        dg = rotation_instance()
        assert np.allclose(misalignment(dg, "W", "X"), rot_z(-10), atol=1e-13)
        assert np.allclose(misalignment(dg, "W", "Y"), rot_z(-30), atol=1e-13)
        assert np.allclose(misalignment(dg, "Y", "Z"), rot_z(-10), atol=1e-13)
        assert np.allclose(misalignment(dg, "X", "Z"), rot_z(-30), atol=1e-13)

    def test_uniform_instance_identity(self):
        dg = uniform_instance()
        for x, y in (("W", "X"), ("W", "Z"), ("Y", "X")):
            assert np.allclose(misalignment(dg, x, y), np.eye(3), atol=1e-13)

    def test_opposite_edges_agree_on_commutative_squares(self):
        dg = rotation_instance()
        for sq in dg.squares:
            m1 = misalignment(dg, sq.W, sq.X)
            m2 = misalignment(dg, sq.Y, sq.Z)
            assert np.allclose(m1, m2, atol=1e-12)

    def test_requires_connecting_arrows(self):
        base = PointSet.from_pairs([("A", [0, 0, 0]), ("B", [1, 0, 0])])
        units = FiniteGroupoid(base, [unit_arrow("A"), unit_arrow("B")])
        dg = MaterialDoubleGroupoid(units, units, [])
        with pytest.raises(NotTransitiveError):
            misalignment(dg, "A", "B")

    def test_requires_unique_connecting_arrow(self):
        base = PointSet.from_pairs([("A", [0, 0, 0]), ("B", [1, 0, 0])])
        flip = np.diag([1.0, -1.0, -1.0])
        arrows = [
            unit_arrow("A"),
            unit_arrow("B"),
            Arrow("rA", "A", "A", flip),
            Arrow("rB", "B", "B", flip),
            Arrow("f", "A", "B", np.eye(3)),
            Arrow("g", "A", "B", flip),
            Arrow("finv", "B", "A", np.eye(3)),
            Arrow("ginv", "B", "A", flip),
        ]
        side = FiniteGroupoid(base, arrows)
        dg = MaterialDoubleGroupoid(side, side, [])
        with pytest.raises(NotTriclinicError):
            misalignment(dg, "A", "B")


class TestConfigChange:
    def jacobians(self):
        return {
            "W": rot_x(15),
            "X": rot_y(40) @ rot_x(5),
            "Y": np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]),
            "Z": rot_z(75),
        }

    def test_misalignment_conjugates(self):
        dg = rotation_instance()
        jac = self.jacobians()
        changed = apply_config_change(dg, jac)
        for x, y in (("W", "X"), ("W", "Y"), ("X", "Z")):
            m = misalignment(dg, x, y)
            m_changed = misalignment(changed, x, y)
            expected = jac[x] @ m @ np.linalg.inv(jac[x])
            assert np.allclose(m_changed, expected, atol=1e-12)

    def test_commutation_preserved(self):
        dg = rotation_instance()
        changed = apply_config_change(dg, self.jacobians())
        assert len(changed.squares) == len(dg.squares)
        for sq in changed.squares:
            assert is_commutative(sq, 1e-10)

    def test_missing_jacobian(self):
        dg = rotation_instance()
        jac = self.jacobians()
        del jac["Z"]
        with pytest.raises(SingularJacobianError):
            apply_config_change(dg, jac)

    def test_singular_jacobian(self):
        dg = rotation_instance()
        jac = self.jacobians()
        jac["Z"] = np.zeros((3, 3))
        with pytest.raises(SingularJacobianError):
            apply_config_change(dg, jac)


class TestCompatibility:
    def test_vertical_pairs_always_two_compatible(self):
        dg = rotation_instance()
        assert is_compatible(dg, ("W", "Y"), ("X", "Z"), component=2)

    def test_horizontal_pairs_always_one_compatible(self):
        dg = rotation_instance()
        assert is_compatible(dg, ("W", "X"), ("Y", "Z"), component=1)

    def test_mismatched_pairs_incompatible(self):
        dg = rotation_instance()
        # Rz(-10) and Rz(-30) cannot be conjugate through Rz arrows
        assert not is_compatible(dg, ("W", "X"), ("W", "Y"), component=1)
        assert not is_compatible(dg, ("W", "X"), ("W", "Y"), component=2)

    def test_normalizer_true_for_commuting_rotations(self):
        dg = rotation_instance()
        assert normalizer_criterion(dg, ("W", "X"), ("Y", "Z"))

    def test_normalizer_gate(self):
        dg = rotation_instance()
        with pytest.raises(NotOneCompatibleError):
            normalizer_criterion(dg, ("W", "X"), ("W", "Y"))

    def skew_instance(self):
        # vertical frames rotate about different axes: 1-compatible pairs
        # whose misalignment fails to commute with the connecting loop
        frames_h = {pid: np.eye(3) for pid in FOUR_POINTS.ids}
        frames_v = {
            "W": np.eye(3),
            "X": rot_x(10),
            "Y": rot_y(30),
            "Z": rot_x(10) @ rot_y(30),
        }
        side_h = from_point_frames(FOUR_POINTS, frames_h)
        side_v = from_point_frames(FOUR_POINTS, frames_v)
        return MaterialDoubleGroupoid.from_sides(side_h, side_v)

    def test_normalizer_false_for_skew_rotations(self):
        dg = self.skew_instance()
        assert is_compatible(dg, ("W", "X"), ("Y", "Z"), component=1)
        assert not is_compatible(dg, ("W", "X"), ("Y", "Z"), component=2)
        assert not normalizer_criterion(dg, ("W", "X"), ("Y", "Z"))


class TestComplementarySquare:
    def designated(self, dg):
        return next(
            sq
            for sq in dg.squares
            if (sq.W, sq.X, sq.Y, sq.Z) == ("W", "X", "Y", "Z")
        )

    def test_rotation_instance_complement_commutes(self):
        dg = rotation_instance()
        result = complementary_square(dg, self.designated(dg))
        assert result.commutative
        assert max(result.condition_residuals) < 1e-12
        # complement pulls its arrows from the opposite side groupoid
        assert np.allclose(result.square.s.map, rot_z(30), atol=1e-13)
        assert np.allclose(result.square.s_hat.map, np.eye(3), atol=1e-13)

    def test_skew_instance_complement_fails_commutativity(self):
        dg = TestCompatibility().skew_instance()
        result = complementary_square(dg, self.designated(dg))
        # the two mixed identities still hold even though the complement
        # itself does not commute
        assert result.condition_residuals[0] < 1e-12
        assert result.condition_residuals[1] < 1e-12
        assert result.condition_residuals[2] < 1e-12
        assert not result.commutative


class TestSquarePersistence:
    def test_roundtrip(self):
        dg = rotation_instance()
        sq = dg.squares[0]
        data = square_to_dict(sq)
        loaded = square_from_dict(data, dg.side_h, dg.side_v)
        assert squares_match(loaded, sq, 0.0)

    def test_unknown_arrow_id(self):
        dg = rotation_instance()
        data = square_to_dict(dg.squares[0])
        data["s"] = "nope"
        with pytest.raises(UnilabError):
            square_from_dict(data, dg.side_h, dg.side_v)


# ---------------------------------------------------------------------------
# Index enumeration and the stacked commutation filter
# ---------------------------------------------------------------------------

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@functools.lru_cache(maxsize=None)
def workloads():
    """The benchmark's seeded config generators."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclass() looks its module up by name
    spec.loader.exec_module(module)
    return module


def workload_sides(name, seed, directory):
    """The two side groupoids `unilab run` builds for a generated squares config."""
    config = json.loads(workloads().WORKLOADS[name].generate(seed, Path(directory)).read_text())
    points = PointSet.from_pairs((p["id"], p["coords"]) for p in config["points"])
    composite = config["composite"]
    return tuple(
        from_frame_field(AnalyticFrameField.from_strings(composite[key]), points)
        for key in ("component1", "component2")
    )


def order_two_sides():
    """Two points, and two arrows per ordered pair on each side: the identity and a half turn."""
    points = [{"id": "A", "coords": [0.0, 0.0, 0.0]}, {"id": "B", "coords": [1.0, 0.0, 0.0]}]
    flip = [-1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1.0]
    identity = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
    return tuple(
        groupoid_from_dict({"points": points, "arrows": [
            {"id": f"{prefix}{a}{b}{name}", "source": a, "target": b, "map": m}
            for a in "AB" for b in "AB" for name, m in (("i", identity), ("f", flip))
        ]})
        for prefix in "hv"
    )


def irregular_sides():
    """Arrow sets that are no groupoids: one-way arrows, repeated and missing pairs."""
    rng = np.random.default_rng(5)
    base = PointSet.from_pairs([(pid, [float(i), 0.0, 0.0]) for i, pid in enumerate("ABC")])
    maps = [np.eye(3), rot_z(30), rot_x(45)]

    def side(prefix, n_arrows):
        arrows = []
        for k in range(n_arrows):
            source, target = rng.choice(list("ABC"), 2)
            arrows.append(Arrow(f"{prefix}{k}", str(source), str(target), maps[rng.integers(3)]))
        return FiniteGroupoid(base, arrows, check=False)

    return side("h", 9), side("v", 7)


def reference_coarse(side_h, side_v):
    """(s, t, s_hat, t_hat) of every coarse square, as a plain nested loop over the arrows."""
    rows = []
    for s_hat in side_v.arrows:
        for s in side_h.arrows:
            if s.source != s_hat.source:
                continue
            for t in side_h.arrows:
                if t.source != s_hat.target:
                    continue
                for t_hat in side_v.arrows:
                    if (t_hat.source, t_hat.target) == (s.target, t.target):
                        rows.append((s, t, s_hat, t_hat))
    return rows


def assert_same_squares(got, expected):
    """Same corners, and the very same arrow objects, square by square in order."""
    assert [(sq.W, sq.X, sq.Y, sq.Z) for sq in got] == [(sq.W, sq.X, sq.Y, sq.Z) for sq in expected]
    for a, b in zip(got, expected):
        assert a.s is b.s and a.t is b.t and a.s_hat is b.s_hat and a.t_hat is b.t_hat


SIDE_CASES = [
    ("squares-sparse", 1),
    ("squares-sparse", 7),
    ("squares-uniform", 1),
    ("squares-uniform", 7),
    ("order-two", None),
    ("irregular", None),
]


def commuting_squares(side_h, side_v, tolerance=DEFAULT_COMMUTATION_TOL,
                      max_squares=DEFAULT_SQUARE_CAP):
    """The number of coarse squares, and commuting_rows' squares as objects in coarse order."""
    total, rows = commuting_rows(side_h, side_v, tolerance, max_squares)
    return total, _squares_at(side_h.arrows, side_v.arrows, rows)


def case_id(case):
    return "-".join(str(part) for part in case if part is not None)


@pytest.fixture
def sides(request, tmp_path_factory):
    name, seed = request.param
    if name == "order-two":
        return order_two_sides()
    if name == "irregular":
        return irregular_sides()
    return workload_sides(name, seed, str(tmp_path_factory.mktemp(f"{name}-{seed}")))


class TestCommutingSquares:
    @pytest.mark.parametrize("sides", SIDE_CASES, indirect=True, ids=case_id)
    def test_matches_the_scalar_filter(self, sides):
        side_h, side_v = sides
        coarse = coarse_enumerate(side_h, side_v)
        expected = [sq for sq in coarse if is_commutative(sq, DEFAULT_COMMUTATION_TOL)]
        n_coarse, got = commuting_squares(
            side_h, side_v, DEFAULT_COMMUTATION_TOL, DEFAULT_SQUARE_CAP
        )
        assert n_coarse == len(coarse)
        assert_same_squares(got, expected)

    @pytest.mark.parametrize("sides", SIDE_CASES, indirect=True, ids=case_id)
    def test_enumeration_order_is_the_nested_loop(self, sides):
        side_h, side_v = sides
        coarse = coarse_enumerate(side_h, side_v)
        reference = reference_coarse(side_h, side_v)
        assert len(coarse) == len(reference)
        for sq, (s, t, s_hat, t_hat) in zip(coarse, reference):
            assert sq.s is s and sq.t is t and sq.s_hat is s_hat and sq.t_hat is t_hat
            assert (sq.W, sq.X, sq.Y, sq.Z) == (s_hat.source, s_hat.target, s.target, t.target)
            check_square(sq)

    def test_workload_counts(self, tmp_path):
        n = workloads().SPARSE_POINTS
        n_coarse, kept = commuting_squares(*workload_sides("squares-sparse", 1, str(tmp_path)))
        assert (n_coarse, len(kept)) == (n ** 4, 2 * n ** 2 - n)
        n = workloads().UNIFORM_POINTS
        n_coarse, kept = commuting_squares(*workload_sides("squares-uniform", 1, str(tmp_path)))
        assert n_coarse == len(kept) == n ** 4

    def test_defect_at_the_tolerance_edge(self):
        base = PointSet.from_pairs([("A", [0.0, 0.0, 0.0])])
        nudge = np.eye(3) + 1e-9 * np.array([[0.3, -0.7, 0.1], [0.2, 0.5, -0.4], [0.9, 0.1, 0.6]])
        side_h = FiniteGroupoid(base, [unit_arrow("A"), Arrow("a", "A", "A", nudge)], check=False)
        side_v = FiniteGroupoid(base, [unit_arrow("A")], check=False)
        coarse = coarse_enumerate(side_h, side_v)
        defects = [commutation_defect(sq) for sq in coarse]
        # (s, t) = (unit, a) and (a, unit) miss commuting by different amounts.
        assert defects[0] == defects[3] == 0.0 and 0.0 < defects[1] < defects[2]
        cases = [
            (defects[1], [0, 1, 3]),                    # a defect exactly the tolerance
            (np.nextafter(defects[1], 0.0), [0, 3]),    # a defect one step above it
            (defects[2], [0, 1, 2, 3]),
            (np.nextafter(defects[2], 0.0), [0, 1, 3]),
        ]
        for tolerance, kept in cases:
            expected = [sq for sq in coarse if is_commutative(sq, tolerance)]
            assert_same_squares(expected, [coarse[i] for i in kept])
            n_coarse, got = commuting_squares(side_h, side_v, tolerance)
            assert n_coarse == 4
            assert_same_squares(got, expected)

    @pytest.mark.parametrize("sides", SIDE_CASES[2:], indirect=True, ids=case_id)
    def test_size_cap(self, sides):
        side_h, side_v = sides
        n_coarse = len(coarse_enumerate(side_h, side_v))
        message = f"coarse enumeration exceeds the cap of {n_coarse - 1} squares"
        for enumerate_ in (coarse_enumerate, MaterialDoubleGroupoid.from_sides):
            with pytest.raises(SizeLimitError) as info:
                enumerate_(side_h, side_v, max_squares=n_coarse - 1)
            assert str(info.value) == message
        with pytest.raises(SizeLimitError) as info:
            commuting_squares(side_h, side_v, DEFAULT_COMMUTATION_TOL, n_coarse - 1)
        assert str(info.value) == message
        assert len(coarse_enumerate(side_h, side_v, n_coarse)) == n_coarse
        assert commuting_squares(side_h, side_v, DEFAULT_COMMUTATION_TOL, n_coarse)[0] == n_coarse

    def test_empty_sides(self):
        base = PointSet.from_pairs([("A", [0.0, 0.0, 0.0])])
        empty = FiniteGroupoid(base, [])
        side = FiniteGroupoid(base, [unit_arrow("A")])
        for pair in ((empty, empty), (empty, side), (side, empty)):
            assert coarse_enumerate(*pair) == []
            assert commuting_squares(*pair) == (0, [])


# Angles from a small pool, so that z-rotation frames often give squares
# that commute up to rounding, next to ones that do not.
ANGLES = st.sampled_from([0.0, 30.0, 45.0, 90.0, 135.0])
TOLERANCE_EDGE = st.sampled_from(["default", "at", "below"])


@st.composite
def shuffled_frame_sides(draw):
    """Frame-built sides on 1-4 points, each with its arrows in a drawn order."""
    n = draw(st.integers(1, 4))
    base = PointSet.from_pairs([(f"p{i}", [float(i), 0.0, 0.0]) for i in range(n)])
    frames_h = {pid: rot_z(draw(ANGLES)) @ rot_x(draw(ANGLES)) for pid in base.ids}
    if draw(st.booleans()):
        constant = rot_y(draw(ANGLES)) + np.diag([0.0, 0.5, 0.0])
        frames_v = {pid: frame @ constant for pid, frame in frames_h.items()}
    else:
        frames_v = {pid: rot_z(draw(ANGLES)) @ rot_x(draw(ANGLES)) for pid in base.ids}

    def side(frames):
        arrows = draw(st.permutations(from_point_frames(base, frames).arrows))
        return FiniteGroupoid(base, arrows, check=False)

    return side(frames_h), side(frames_v)


@st.composite
def explicit_sides(draw):
    """Arrow sets on 1-3 points with repeated and missing endpoint pairs."""
    ids = ["A", "B", "C"][:draw(st.integers(1, 3))]
    base = PointSet.from_pairs([(pid, [float(i), 0.0, 0.0]) for i, pid in enumerate(ids)])
    maps = [np.eye(3), rot_z(90), rot_z(45), rot_x(30), np.diag([1.0, 2.0, 0.5])]

    def side(prefix):
        specs = draw(st.lists(
            st.tuples(st.sampled_from(ids), st.sampled_from(ids), st.integers(0, len(maps) - 1)),
            max_size=10,
        ))
        arrows = [Arrow(f"{prefix}{k}", a, b, maps[m]) for k, (a, b, m) in enumerate(specs)]
        return FiniteGroupoid(base, arrows, check=False)

    return side("h"), side("v")


class TestCommutingRowsProperty:
    """commuting_rows keeps what the enumerate-all filter keeps, row for row and in order."""

    @staticmethod
    def check(side_h, side_v, edge, pick):
        coarse = coarse_enumerate(side_h, side_v)
        tolerance = DEFAULT_COMMUTATION_TOL
        if edge != "default" and coarse:
            # A tolerance exactly at some square's defect, or one step below it.
            tolerance = commutation_defect(coarse[pick % len(coarse)])
            if edge == "below":
                tolerance = np.nextafter(tolerance, 0.0)
        expected = [sq for sq in coarse if is_commutative(sq, tolerance)]
        n_coarse, got = commuting_squares(side_h, side_v, tolerance)
        assert n_coarse == len(coarse)
        assert_same_squares(got, expected)

    @settings(max_examples=150, deadline=None)
    @given(shuffled_frame_sides(), TOLERANCE_EDGE, st.integers(0, 10 ** 6))
    def test_frame_built_sides_in_any_arrow_order(self, sides, edge, pick):
        self.check(*sides, edge, pick)

    @settings(max_examples=150, deadline=None)
    @given(explicit_sides(), TOLERANCE_EDGE, st.integers(0, 10 ** 6))
    def test_explicit_arrow_sets(self, sides, edge, pick):
        self.check(*sides, edge, pick)


# ---------------------------------------------------------------------------
# Core, filling and misalignment on the index rows, against scalar oracles
# ---------------------------------------------------------------------------

ORDER_TWO_SQUARES = [
    {"corners": {"W": "A", "X": "B", "Y": "B", "Z": "A"},
     "s": "hABi", "t": "hBAi", "s_hat": "vABi", "t_hat": "vBAi"},
    {"corners": {"W": "A", "X": "A", "Y": "A", "Z": "A"},
     "s": "hAAf", "t": "hAAf", "s_hat": "vAAi", "t_hat": "vAAi"},
    {"corners": {"W": "B", "X": "A", "Y": "B", "Z": "B"},
     "s": "hBBi", "t": "hABf", "s_hat": "vBAf", "t_hat": "vBBi"},
]


def grid_products():
    """Grid squares, their products and unit squares: arrows the sides do not hold."""
    side_h, side_v = grid_sides()
    a, b, c = grid_square(1, 0), grid_square(0, 0), grid_square(0, 1)
    squares = [
        a, b, hcompose(a, b), vcompose(c, b), a,
        h_unit(side_v.between("p00", "p00")[0]),
        v_unit(side_h.between("p00", "p10")[0]),
        h_unit(unit_arrow("p00")),
    ]
    return MaterialDoubleGroupoid(side_h, side_v, squares)


def faulty_sides():
    """Sides that are no groupoids: h lacks C->A and doubles B->C, v lacks A->C and doubles C->A."""
    base = PointSet.from_pairs([(pid, [float(i), 0.0, 0.0]) for i, pid in enumerate("ABC")])

    def side(prefix, missing, doubled):
        arrows = [Arrow(f"{prefix}{a}{b}", a, b, np.eye(3))
                  for a in "ABC" for b in "ABC" if (a, b) != missing]
        arrows.append(Arrow(f"{prefix}{doubled[0]}{doubled[1]}2", *doubled, rot_z(90)))
        return FiniteGroupoid(base, arrows, check=False)

    return side("h", ("C", "A"), ("B", "C")), side("v", ("A", "C"), ("C", "A"))


def bare_square(k, w, x, y, z):
    """A square of fresh identity arrows with the given corners."""
    return Square(
        W=w, X=x, Y=y, Z=z,
        s=Arrow(f"s{k}", w, y, np.eye(3)), t=Arrow(f"t{k}", x, z, np.eye(3)),
        s_hat=Arrow(f"sh{k}", w, x, np.eye(3)), t_hat=Arrow(f"th{k}", y, z, np.eye(3)),
    )


def faulty_instance(corners):
    side_h, side_v = faulty_sides()
    squares = [bare_square(k, *c) for k, c in enumerate(corners)]
    return MaterialDoubleGroupoid(side_h, side_v, squares, check=False)


ROW_CASES = [
    ("squares-sparse", 1),
    ("squares-sparse", 7),
    ("squares-uniform", 1),
    ("squares-uniform", 7),
    ("order-two", None),
    ("grid-products", None),
    ("faulty-v-first", None),
    ("faulty-h-first", None),
]


@pytest.fixture
def dg(request, tmp_path_factory):
    name, seed = request.param
    if name == "order-two":
        side_h, side_v = order_two_sides()
        return MaterialDoubleGroupoid(
            side_h, side_v, [square_from_dict(sq, side_h, side_v) for sq in ORDER_TWO_SQUARES]
        )
    if name == "grid-products":
        return grid_products()
    if name == "faulty-v-first":
        # Square 2 asks for m(A, C) (no vertical arrow) before m(B, C) (two horizontal ones).
        return faulty_instance([("A", "A", "A", "A"), ("A", "B", "A", "B"), ("A", "C", "B", "C")])
    if name == "faulty-h-first":
        # m(C, A) has no horizontal arrow and two vertical ones: side h is asked first.
        return faulty_instance([("A", "A", "A", "A"), ("C", "C", "A", "A")])
    side_h, side_v = workload_sides(name, seed, str(tmp_path_factory.mktemp(f"{name}-{seed}")))
    return MaterialDoubleGroupoid.from_sides(side_h, side_v)


def result(fn):
    """fn()'s value, or the type and text of what it raised."""
    try:
        return "value", fn()
    except UnilabError as exc:
        return type(exc), str(exc)


def assert_same_arrows(got, expected):
    ends = [(a.id, a.source, a.target) for a in got]
    assert ends == [(a.id, a.source, a.target) for a in expected]
    for a, b in zip(got, expected):
        assert np.array_equal(a.map, b.map)
        assert (a.map2 is None) == (b.map2 is None)
        assert a.map2 is None or np.array_equal(a.map2, b.map2)


class TestRowFacts:
    @pytest.mark.parametrize("dg", ROW_CASES, indirect=True, ids=case_id)
    def test_core(self, dg):
        got, expected = result(lambda: core(dg)), result(lambda: scalar_oracles.core(dg))
        assert got[0] == expected[0]
        if got[0] == "value":
            assert_same_arrows(got[1].arrows, expected[1].arrows)
        else:
            assert got == expected

    @pytest.mark.parametrize("dg", ROW_CASES, indirect=True, ids=case_id)
    def test_filling(self, dg):
        got, expected = filling_check(dg), scalar_oracles.filling_check(dg)
        assert len(got) == len(expected)
        for (s, s_hat), (s2, s_hat2) in zip(got, expected):
            assert s is s2 and s_hat is s_hat2

    @pytest.mark.parametrize("dg", ROW_CASES, indirect=True, ids=case_id)
    def test_opposite_pair_deviation(self, dg):
        got = result(lambda: opposite_pair_max_deviation(dg))
        assert got == result(lambda: scalar_oracles.opposite_pair_max_deviation(dg))

    @pytest.mark.parametrize("dg", ROW_CASES, indirect=True, ids=case_id)
    def test_misalignment_table(self, dg):
        for x, y in itertools.product(dg.side_h.base.ids, repeat=2):
            got = result(lambda: misalignment(dg, x, y))
            expected = result(lambda: scalar_oracles.misalignment(dg, x, y))
            assert got[0] == expected[0]
            if got[0] == "value":
                assert np.array_equal(got[1], expected[1])
            else:
                assert got == expected

    def test_faulty_instances_fail_where_the_loop_did(self):
        errors = {
            ("A", "C", "B", "C"): (NotTransitiveError, "no arrow 'A' -> 'C'"),
            ("C", "C", "A", "A"): (NotTransitiveError, "no arrow 'C' -> 'A'"),
        }
        for corners, expected in errors.items():
            dg = faulty_instance([("A", "A", "A", "A"), ("A", "B", "A", "B"), corners])
            assert result(lambda: opposite_pair_max_deviation(dg)) == expected

    @pytest.mark.parametrize("dg", ROW_CASES[:5], indirect=True, ids=case_id)
    def test_stored_rows_and_squares(self, dg):
        assert len(dg.rows) == len(dg.squares)
        for sq, (i, j, k, m) in zip(dg.squares, dg.rows.tolist()):
            assert sq.s is dg.tables[0][i] and sq.t is dg.tables[0][j]
            assert sq.s_hat is dg.tables[1][k] and sq.t_hat is dg.tables[1][m]
            check_square(sq)

    def test_squares_are_built_when_read(self):
        side_h, side_v = grid_sides()
        dg = MaterialDoubleGroupoid.from_sides(side_h, side_v)
        assert dg._squares is None
        n_coarse, rows = commuting_rows(side_h, side_v)
        assert np.array_equal(dg.rows, rows)
        assert_same_squares(dg.squares, commuting_squares(side_h, side_v)[1])

    def test_products_extend_the_arrow_tables(self):
        dg = grid_products()
        side_h, side_v = dg.side_h, dg.side_v
        assert len(dg.tables[0]) > len(side_h.arrows) and len(dg.tables[1]) > len(side_v.arrows)
        assert dg.tables[0][:len(side_h.arrows)] == side_h.arrows
        assert len(core(dg).arrows) == 1  # the two unit squares at p00 give one arrow


FIVE_IDS = ("A", "B", "C", "D", "E")
FIVE_FRAMES_H = {pid: rot_z(30 * i) for i, pid in enumerate(FIVE_IDS)}
FIVE_FRAMES_V = {pid: rot_z(90 * (i % 2)) @ rot_x(30 * (i // 2)) for i, pid in enumerate(FIVE_IDS)}


def five_point_facts(order_h, order_v):
    """A squares run's results on frame-built sides whose bases list the points in the given orders.

    Squares, pairs and misalignments are named by point and arrow ids,
    so the facts do not depend on how either side numbers its points.
    """
    def side(order, frames):
        base = PointSet.from_pairs((pid, [float(FIVE_IDS.index(pid)), 0.0, 0.0]) for pid in order)
        return from_point_frames(base, frames)

    side_h, side_v = side(order_h, FIVE_FRAMES_H), side(order_v, FIVE_FRAMES_V)
    n_coarse, rows = commuting_rows(side_h, side_v)
    dg = MaterialDoubleGroupoid.from_sides(side_h, side_v)
    return {
        "n_coarse": n_coarse,
        "n_kept": len(rows),
        "squares": {(sq.W, sq.X, sq.Y, sq.Z, sq.s.id, sq.t.id, sq.s_hat.id, sq.t_hat.id)
                    for sq in dg.squares},
        "core": len(core(dg).arrows),
        "unfillable": {(s.id, s_hat.id) for s, s_hat in filling_check(dg)},
        "deviation": opposite_pair_max_deviation(dg),
        "misalignments": {(x, y): misalignment(dg, x, y).tolist()
                          for x, y in itertools.product(FIVE_IDS, repeat=2)},
    }


class TestPointNumbering:
    """Sides that list their base points in different orders give the results of one order."""

    @pytest.mark.parametrize(
        "order_h, order_v",
        [(FIVE_IDS[::-1], FIVE_IDS[::-1]), (FIVE_IDS, "CAEBD"), (FIVE_IDS[::-1], "CAEBD")],
        ids=["both-reversed", "vertical-shuffled", "reversed-and-shuffled"],
    )
    def test_results_do_not_depend_on_base_order(self, order_h, order_v):
        expected = five_point_facts(FIVE_IDS, FIVE_IDS)
        assert (expected["n_coarse"], expected["n_kept"], expected["core"]) == (625, 51, 5)
        assert len(expected["squares"]) == 51 and len(expected["unfillable"]) == 74
        assert five_point_facts(tuple(order_h), tuple(order_v)) == expected


# sha256 of the squares workload reports at seed 1, as written before the
# commutation filter ran on stacked arrow maps.
GOLDEN = {
    "squares-sparse": "a9aea73a950159ed33fdb0f14513c67b5a34a0c86ad405ae43417fdd3ebe377d",
    "squares-uniform": "74e017c221d948c9c8634f5759cb94f4f56aa6e7139b34e6da33091b06f34fb8",
}


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_squares_reports(tmp_path, name):
    config = workloads().WORKLOADS[name].generate(1, tmp_path)
    out = tmp_path / "report.json"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name]
