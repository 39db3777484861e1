"""Finite groupoids over point sets: axioms, construction, persistence."""
import numpy as np
import pytest

from unilab.errors import NotComposableError, UnilabError
from unilab.fields import AnalyticFrameField
from unilab.groupoid import (
    Arrow,
    FiniteGroupoid,
    PointSet,
    arrows_match,
    compose_arrows,
    from_frame_field,
    from_point_frames,
    groupoid_from_dict,
    groupoid_to_dict,
    invert_arrow,
    is_transitive,
    pair_groupoid,
    unit_arrow,
    vertex_group,
)

POINTS = PointSet.from_pairs(
    [("A", [0.0, 0.0, 0.0]), ("B", [1.0, 0.0, 0.0]), ("C", [0.0, 1.0, 0.0])]
)


def rot_z(deg):
    t = np.deg2rad(deg)
    return np.array(
        [[np.cos(t), -np.sin(t), 0.0], [np.sin(t), np.cos(t), 0.0], [0.0, 0.0, 1.0]]
    )


class TestPointSet:
    def test_ids_and_coords(self):
        assert POINTS.ids == ("A", "B", "C")
        assert np.allclose(POINTS.coords("B"), [1.0, 0.0, 0.0])
        assert "A" in POINTS and "Q" not in POINTS

    def test_duplicate_ids_rejected(self):
        with pytest.raises(UnilabError):
            PointSet.from_pairs([("A", [0, 0, 0]), ("A", [1, 0, 0])])


class TestArrowAlgebra:
    def test_compose_order(self):
        # composite applies the second factor first: (B->C) after (A->B)
        u = Arrow("u", "B", "C", rot_z(30))
        v = Arrow("v", "A", "B", rot_z(10))
        w = compose_arrows(u, v)
        assert w.source == "A" and w.target == "C"
        assert np.allclose(w.map, rot_z(40), atol=1e-14)

    def test_compose_endpoint_mismatch(self):
        u = Arrow("u", "B", "C", np.eye(3))
        v = Arrow("v", "A", "C", np.eye(3))
        with pytest.raises(NotComposableError):
            compose_arrows(u, v)

    def test_invert(self):
        u = Arrow("u", "A", "B", rot_z(25))
        w = invert_arrow(u)
        assert w.source == "B" and w.target == "A"
        assert np.allclose(w.map @ u.map, np.eye(3), atol=1e-14)

    def test_match_tolerance(self):
        u = Arrow("u", "A", "B", np.eye(3))
        v = Arrow("v", "A", "B", np.eye(3) + 1e-12)
        assert arrows_match(u, v)
        assert not arrows_match(u, Arrow("w", "A", "C", np.eye(3)))


class TestAxiomValidation:
    def test_missing_unit(self):
        arrows = [Arrow("u", "A", "B", np.eye(3)), Arrow("v", "B", "A", np.eye(3))]
        with pytest.raises(UnilabError):
            FiniteGroupoid(POINTS, arrows)

    def test_missing_inverse(self):
        arrows = [
            unit_arrow("A"),
            unit_arrow("B"),
            Arrow("u", "A", "B", rot_z(10)),
        ]
        with pytest.raises(UnilabError):
            FiniteGroupoid(POINTS, arrows)

    def test_composition_escape(self):
        # loops {I, R(120)} at one point without R(240)
        arrows = [unit_arrow("A"), Arrow("u", "A", "A", rot_z(120)),
                  Arrow("v", "A", "A", rot_z(-120) @ rot_z(-120))]
        with pytest.raises(UnilabError):
            FiniteGroupoid(POINTS, arrows)

    def test_valid_two_point_groupoid(self):
        r = rot_z(35)
        arrows = [
            unit_arrow("A"),
            unit_arrow("B"),
            Arrow("u", "A", "B", r),
            Arrow("uinv", "B", "A", r.T),
        ]
        g = FiniteGroupoid(POINTS, arrows)
        u = g.by_id("u")
        assert g.compose(g.by_id("uinv"), u).id == "unit:A"
        assert g.invert(u).id == "uinv"

    def test_base_membership(self):
        arrows = [unit_arrow("Q")]
        with pytest.raises(UnilabError):
            FiniteGroupoid(POINTS, arrows)

    def test_singular_map_rejected(self):
        arrows = [unit_arrow("A"), Arrow("u", "A", "A", np.zeros((3, 3)))]
        with pytest.raises(UnilabError):
            FiniteGroupoid(POINTS, arrows)


class TestPairGroupoid:
    def test_full_arrow_count(self):
        g = pair_groupoid(POINTS)
        assert len(g.arrows) == 9
        assert is_transitive(g)

    def test_all_maps_identity(self):
        g = pair_groupoid(POINTS)
        for a in g.arrows:
            assert np.array_equal(a.map, np.eye(3))


class TestFromFrames:
    def frames(self):
        return {"A": rot_z(0), "B": rot_z(10), "C": rot_z(30)}

    def test_arrow_maps(self):
        g = from_point_frames(POINTS, self.frames())
        a = g.between("A", "B")
        assert len(a) == 1
        assert np.allclose(a[0].map, rot_z(10), atol=1e-14)
        b = g.between("B", "C")
        assert np.allclose(b[0].map, rot_z(20), atol=1e-14)

    def test_transitive_with_trivial_vertex_groups(self):
        g = from_point_frames(POINTS, self.frames())
        assert is_transitive(g)
        for pid in POINTS.ids:
            assert len(vertex_group(g, pid)) == 1

    def test_from_frame_field_matches(self):
        field = AnalyticFrameField.from_strings(
            [
                ["cos(x1/2)", "-sin(x1/2)", "0"],
                ["sin(x1/2)", "cos(x1/2)", "0"],
                ["0", "0", "1"],
            ]
        )
        g = from_frame_field(field, POINTS)
        a = g.between("A", "B")[0]
        p_b = field.value(POINTS.coords("B"))
        p_a = field.value(POINTS.coords("A"))
        assert np.allclose(a.map, p_b @ np.linalg.inv(p_a), atol=1e-13)

    def test_from_frame_field_evaluates_the_field_once(self):
        field = AnalyticFrameField.from_strings(
            [["cos(x1/2)", "-sin(x1/2)", "0"], ["sin(x1/2)", "cos(x1/2)", "0"], ["0", "0", "1"]]
        )
        calls = []

        class Counting:
            def value_stack(self, points):
                calls.append(len(points))
                return field.value_stack(points)

        g = from_frame_field(Counting(), POINTS)
        assert calls == [len(POINTS)]
        frames = {pid: field.value(POINTS.coords(pid)) for pid in POINTS.ids}
        for a, b in zip(g.arrows, from_point_frames(POINTS, frames).arrows):
            assert (a.id, a.source, a.target) == (b.id, b.source, b.target)
            assert np.array_equal(a.map, b.map)

    @pytest.mark.parametrize("entry", ["x1", "1/x1", "log(x1)", "log(x1 + 1)"])
    def test_from_frame_field_raises_the_first_points_error(self, entry):
        field = AnalyticFrameField.from_strings([[entry, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
        base = PointSet.from_pairs(
            [("A", [2.0, 0.0, 0.0]), ("B", [-1.0, 0.0, 0.0]), ("C", [0.0, 0.0, 0.0]),
             ("D", [1.0, 0.0, 0.0])]
        )
        expected = None
        for pid in base.ids:
            try:
                field.value(base.coords(pid))
            except UnilabError as exc:
                expected = exc
                break
        assert expected is not None
        with pytest.raises(type(expected)) as info:
            from_frame_field(field, base)
        assert str(info.value) == str(expected)

    def test_composition_is_closed(self):
        g = from_point_frames(POINTS, self.frames())
        ab = g.between("A", "B")[0]
        bc = g.between("B", "C")[0]
        ac = g.compose(bc, ab)
        assert ac.source == "A" and ac.target == "C"


class TestVertexGroups:
    def test_conjugate_vertex_groups(self):
        # vertex groups at different points of a transitive groupoid are conjugate
        r = np.diag([-1.0, -1.0, 1.0])
        h = rot_z(40)
        arrows = [
            unit_arrow("A"),
            unit_arrow("B"),
            Arrow("la", "A", "A", r),
            Arrow("lb", "B", "B", h @ r @ np.linalg.inv(h)),
            Arrow("u", "A", "B", h),
            Arrow("ui", "B", "A", np.linalg.inv(h)),
            Arrow("ur", "A", "B", h @ r),
            Arrow("uri", "B", "A", np.linalg.inv(h @ r)),
        ]
        base = PointSet.from_pairs([("A", [0, 0, 0]), ("B", [1, 0, 0])])
        g = FiniteGroupoid(base, arrows)
        ga = vertex_group(g, "A")
        gb = vertex_group(g, "B")
        assert len(ga) == len(gb) == 2
        for m in ga.elements:
            assert gb.contains(h @ m @ np.linalg.inv(h))


class TestTransitivity:
    def test_disconnected_not_transitive(self):
        arrows = [unit_arrow("A"), unit_arrow("B"), unit_arrow("C")]
        g = FiniteGroupoid(POINTS, arrows)
        assert not is_transitive(g)


class TestPersistence:
    def test_roundtrip(self):
        g = from_point_frames(
            POINTS, {"A": rot_z(0), "B": rot_z(10), "C": rot_z(30)}
        )
        data = groupoid_to_dict(g)
        loaded = groupoid_from_dict(data)
        assert len(loaded.arrows) == len(g.arrows)
        for a in g.arrows:
            b = loaded.by_id(a.id)
            assert arrows_match(a, b, 1e-15)

    def test_bad_map_length(self):
        data = {
            "points": [{"id": "A", "coords": [0, 0, 0]}],
            "arrows": [
                {"id": "unit:A", "source": "A", "target": "A", "map": [1.0, 0.0]}
            ],
        }
        with pytest.raises(UnilabError):
            groupoid_from_dict(data)
