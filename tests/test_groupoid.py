"""Finite groupoids over point sets: axioms, construction, persistence."""
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracles

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
    unit_pair_arrow,
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


# ---------------------------------------------------------------------------
# The stacked axiom check against the arrow-by-arrow oracle
# ---------------------------------------------------------------------------


def outcome(check):
    """None if check() passes, else the type and text of what it raised."""
    try:
        check()
    except Exception as exc:  # noqa: BLE001 - the oracle's exception is the expectation
        return type(exc), str(exc)
    return None


def frame_arrows(ids, frames, frames2=None):
    """One arrow x -> y per ordered pair with map P(y) P(x)^-1, paired when frames2 is given."""
    arrows = []
    for x, y in itertools.product(ids, repeat=2):
        map2 = None if frames2 is None else frames2[y] @ np.linalg.inv(frames2[x])
        arrows.append(Arrow(f"{x}->{y}", x, y, frames[y] @ np.linalg.inv(frames[x]), map2))
    return arrows


MUTATIONS = ("none", "perturb", "drop", "drop_inverse", "second_arrow", "mixed")


@st.composite
def arrow_sets(draw):
    """A frame-built groupoid, single or paired, with at most one fault put in."""
    n = draw(st.integers(1, 3))
    ids = [f"p{i}" for i in range(n)]
    base = PointSet.from_pairs((pid, [float(i), 0.0, 0.0]) for i, pid in enumerate(ids))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def frames():
        return {pid: np.eye(3) + 0.3 * rng.uniform(-1.0, 1.0, (3, 3)) for pid in ids}

    paired = draw(st.booleans())
    arrows = frame_arrows(ids, frames(), frames() if paired else None)
    mutation = draw(st.sampled_from(MUTATIONS))
    k = draw(st.integers(0, len(arrows) - 1))
    a = arrows[k]
    if mutation == "perturb":
        step = draw(st.sampled_from([1e-12, 5e-10, 1e-9, 2e-9, 1e-6, 0.1]))
        bumped = a.map.copy()
        bumped[draw(st.integers(0, 2)), draw(st.integers(0, 2))] += step
        if a.map2 is not None and draw(st.booleans()):
            arrows[k] = Arrow(a.id, a.source, a.target, a.map, a.map2 + step)
        else:
            arrows[k] = Arrow(a.id, a.source, a.target, bumped, a.map2)
    elif mutation == "drop":
        del arrows[k]
    elif mutation == "drop_inverse":
        arrows = [b for b in arrows if (b.source, b.target) != (a.target, a.source)]
    elif mutation == "second_arrow":
        turn = np.diag([-1.0, -1.0, 1.0]) if draw(st.booleans()) else np.eye(3) + 1e-10
        extra = [Arrow("extra", a.source, a.target, a.map @ turn,
                       None if a.map2 is None else a.map2 @ turn)]
        if draw(st.booleans()):  # with its inverse, so that closure is what fails
            extra.append(invert_arrow(extra[0]))
        for b in extra:
            arrows.insert(draw(st.integers(0, len(arrows))), b)
    elif mutation == "mixed":
        if draw(st.booleans()):  # one arrow of the other payload kind
            map2 = a.map.copy() if a.map2 is None else None
            arrows[k] = Arrow(a.id, a.source, a.target, a.map, map2)
        else:  # a unit loop of the other kind
            other = unit_arrow(a.source) if a.map2 is not None else unit_pair_arrow(a.source)
            arrows.insert(draw(st.integers(0, len(arrows))), other)
    tolerance = draw(st.sampled_from([1e-9, 1e-6]))
    return base, arrows, tolerance


class TestStackedValidation:
    @settings(max_examples=300, deadline=None)
    @given(arrow_sets())
    def test_matches_the_oracle(self, case):
        base, arrows, tolerance = case
        g = FiniteGroupoid(base, arrows, tolerance, check=False)
        assert outcome(g.validate) == outcome(lambda: scalar_oracles.validate(g))

    @pytest.mark.filterwarnings("ignore:invalid value encountered in det:RuntimeWarning")
    @pytest.mark.parametrize("mutation,message", [
        ("dropped unit", "missing unit loop at point 'B'"),
        ("dropped inverse", "missing inverse of arrow 'A->C'"),
        ("second arrow", "missing inverse of arrow 'extra'"),
        ("perturbed", "missing inverse of arrow 'B->C'"),
        ("mixed payloads", "cannot mix single and paired arrow payloads"),
        ("singular", "arrow 'C->A' has a singular map"),
        ("outside", "arrow 'A->Q' references a point outside the base"),
        ("non-finite", "mat3 has non-finite entries"),
    ])
    def test_first_failure(self, mutation, message):
        ids = POINTS.ids
        frames = {"A": rot_z(0), "B": rot_z(10), "C": rot_z(30)}
        arrows = frame_arrows(ids, frames, frames if mutation == "mixed payloads" else None)
        by_pair = {(a.source, a.target): i for i, a in enumerate(arrows)}
        if mutation == "dropped unit":
            del arrows[by_pair["B", "B"]]
        elif mutation == "dropped inverse":
            del arrows[by_pair["C", "A"]]
        elif mutation == "second arrow":
            arrows.append(Arrow("extra", "A", "B", rot_z(45)))
        elif mutation == "perturbed":
            arrows[by_pair["B", "C"]] = Arrow("B->C", "B", "C", rot_z(21))
        elif mutation == "mixed payloads":
            arrows.append(Arrow("single", "A", "A", np.eye(3)))
        elif mutation == "singular":
            arrows[by_pair["C", "A"]] = Arrow("C->A", "C", "A", np.zeros((3, 3)))
        elif mutation == "outside":
            arrows.append(Arrow("A->Q", "A", "Q", np.eye(3)))
        elif mutation == "non-finite":
            arrows.append(Arrow("nan", "A", "A", np.full((3, 3), np.nan)))
        g = FiniteGroupoid(POINTS, arrows, check=False)
        expected = outcome(lambda: scalar_oracles.validate(g))
        assert expected is not None and expected[1] == message
        assert outcome(g.validate) == expected

    def test_paired_groupoid_passes(self):
        frames = {"A": rot_z(0), "B": rot_z(10), "C": rot_z(30)}
        g = FiniteGroupoid(POINTS, frame_arrows(POINTS.ids, frames, frames), check=False)
        assert outcome(g.validate) is None
        assert g.find(unit_pair_arrow("A")) is g.by_id("A->A")

    def test_mixed_payloads_before_an_escape(self):
        # (i, i2) mixes payloads before (f, f) escapes; the composite i i2
        # would match i, so only the payload test catches it.
        base = PointSet.from_pairs([("A", [0.0, 0.0, 0.0])])
        arrows = [Arrow("i", "A", "A", np.eye(3)), Arrow("f", "A", "A", rot_z(90)),
                  Arrow("g", "A", "A", rot_z(270)), unit_pair_arrow("A")]
        g = FiniteGroupoid(base, arrows, check=False)
        expected = outcome(lambda: scalar_oracles.validate(g))
        assert expected == (NotComposableError, "cannot mix single and paired arrow payloads")
        assert outcome(g.validate) == expected

    def test_payload_kinds_stay_apart_at_a_wide_tolerance(self):
        # Within 1.2, the paired unit matches the inverse 0.5 I of s on both
        # payloads (a single arrow's second payload counts as zero), but a
        # single arrow's inverse must be a single arrow.
        base = PointSet.from_pairs([("A", [0.0, 0.0, 0.0])])
        g = FiniteGroupoid(base, [unit_pair_arrow("A"), Arrow("s", "A", "A", 2.0 * np.eye(3))],
                           tolerance=1.2, check=False)
        expected = outcome(lambda: scalar_oracles.validate(g))
        assert expected == (UnilabError, "missing inverse of arrow 's'")
        assert outcome(g.validate) == expected

    def test_closure_in_blocks(self, monkeypatch):
        # 5 points and two more arrows give 150 composable pairs; the first
        # escaping one lies past the first blocks of 1 and of 7 pairs.
        import unilab.groupoid as groupoid

        base = PointSet.from_pairs((f"q{i}", [float(i), 0.0, 0.0]) for i in range(5))
        rng = np.random.default_rng(3)
        frames = {pid: np.eye(3) + 0.3 * rng.uniform(-1, 1, (3, 3)) for pid in base.ids}
        arrows = frame_arrows(base.ids, frames)
        a = next(b for b in arrows if (b.source, b.target) == ("q3", "q4"))
        extra = Arrow("extra", "q3", "q4", a.map @ np.diag([-1.0, -1.0, 1.0]))
        arrows += [extra, invert_arrow(extra)]
        g = FiniteGroupoid(base, arrows, check=False)
        expected = outcome(lambda: scalar_oracles.validate(g))
        assert expected[1].startswith("composite of 'q3->q0' after")
        for block in (1, 7, groupoid.PAIR_BLOCK):
            monkeypatch.setattr(groupoid, "PAIR_BLOCK", block)
            assert outcome(g.validate) == expected

    def test_missing_unit_names_the_same_point_under_any_hash_seed(self):
        # Six points whose loops are 2 I: no point has a unit loop.
        script = (
            "import numpy as np\n"
            "from unilab.groupoid import Arrow, FiniteGroupoid, PointSet\n"
            "base = PointSet.from_pairs((f'p{i}', [float(i), 0.0, 0.0]) for i in range(6))\n"
            "arrows = [Arrow(f'loop{i}', f'p{i}', f'p{i}', 2.0 * np.eye(3)) for i in range(6)]\n"
            "try:\n"
            "    FiniteGroupoid(base, arrows)\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        printed = set()
        for seed in ("0", "1", "4"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
            )
            printed.add(proc.stdout)
        assert printed == {"UnilabError missing unit loop at point 'p0'\n"}
