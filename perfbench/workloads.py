"""Workload definitions: seeded generators for the configs `unilab run` receives.

Each workload turns a seed into one config (plus, for `lattice-sampled`,
the `.npz` grid it names) in a directory of its own. The same seed gives
byte-identical files. The program sees only those files; the seed stays
with the benchmark.
"""
from __future__ import annotations

import json
import random
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Seed kept out of every tuning run; use it to confirm a claimed gain
# on inputs the change was not written against.
HELD_OUT_SEED = 90210

# Lattice nodes per axis (lattice workloads) and point counts (square
# workloads). One `unilab run` takes 0.8-1.2 reference seconds (see
# README.md) on a 2-CPU x86 host with Python 3.11 and numpy 2.4, so a
# 25 s run holds 12-20 operations and its medians are steady.
LATTICE_RES = 10
SPARSE_POINTS = 12
UNIFORM_POINTS = 9

IDENTITY = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
LAMINATED = [["1", "x1^2", "0"], ["0", "1", "0"], ["0", "0", "1"]]
ANGLE = "(pi/180)*(10*x1+30*x2)"
ROTATION = [
    [f"cos({ANGLE})", f"-sin({ANGLE})", "0"],
    [f"sin({ANGLE})", f"cos({ANGLE})", "0"],
    ["0", "0", "1"],
]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str          # "lattice" or "squares": which output checks apply
    size: int          # lattice nodes per axis, or number of points
    write: Callable[[random.Random, Path, int], dict]

    @property
    def work(self) -> int:
        """Work units per operation: lattice nodes, or coarse squares n^4."""
        return self.size ** 3 if self.kind == "lattice" else self.size ** 4

    @property
    def work_unit(self) -> str:
        return "nodes" if self.kind == "lattice" else "squares"

    def generate(self, seed: int, directory: Path) -> Path:
        """Write the workload's inputs for `seed` into `directory`; return the config path."""
        directory.mkdir(parents=True, exist_ok=True)
        config = self.write(random.Random(f"{self.name}:{seed}"), directory, self.size)
        path = directory / "config.json"
        path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")
        return path


def _box(rng: random.Random) -> tuple[list[float], list[float]]:
    """The bundled laminated box [0.1, 1]^3 with each corner jittered by the seed."""
    lower = [round(0.1 + rng.uniform(-0.05, 0.05), 6) for _ in range(3)]
    upper = [round(1.0 + rng.uniform(-0.1, 0.1), 6) for _ in range(3)]
    return lower, upper


def _lattice_config(lower, upper, res: int, component2) -> dict:
    return {
        "schema": 1,
        "domain": {"lower": lower, "upper": upper, "resolution": [res] * 3},
        "composite": {
            "case": "discrete-discrete",
            "component1": IDENTITY,
            "component2": component2,
        },
        "tolerances": {"rank_rel_tol": 1e-8},
        "tasks": ["measure", "foliate", "infinitesimal"],
    }


def _write_lattice(rng: random.Random, directory: Path, res: int) -> dict:
    lower, upper = _box(rng)
    return _lattice_config(lower, upper, res, LAMINATED)


def _write_lattice_sampled(rng: random.Random, directory: Path, res: int) -> dict:
    import numpy as np

    lower, upper = _box(rng)
    axes = [np.linspace(lower[i], upper[i], res) for i in range(3)]
    spacing = [(upper[i] - lower[i]) / (res - 1) for i in range(3)]
    values = np.zeros((res,) * 3 + (3, 3))
    values[..., 0, 0] = values[..., 1, 1] = values[..., 2, 2] = 1.0
    values[..., 0, 1] = (axes[0] ** 2)[:, None, None]
    arrays = {"lower": np.array(lower), "spacing": np.array(spacing), "values": values}
    # np.savez stamps each member with the current time; fixed member
    # dates keep the file a pure function of the seed.
    with zipfile.ZipFile(directory / "component2.npz", "w") as archive:
        for key, array in arrays.items():
            member = zipfile.ZipInfo(f"{key}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            with archive.open(member, "w") as fh:
                np.lib.format.write_array(fh, array)
    return _lattice_config(lower, upper, res, {"grid": "component2.npz"})


def _points(rng: random.Random, n: int) -> list[dict]:
    return [
        {"id": f"p{i:02d}", "coords": [round(rng.uniform(0.0, 1.0), 6) for _ in range(3)]}
        for i in range(n)
    ]


def _squares_config(points, component1, component2) -> dict:
    ids = [p["id"] for p in points]
    return {
        "schema": 1,
        "composite": {
            "case": "discrete-discrete",
            "component1": component1,
            "component2": component2,
        },
        "points": points,
        # One cyclic list p00->p01->...->p00.
        "pairs": [[a, b] for a, b in zip(ids, ids[1:] + ids[:1])],
        "tasks": ["squares", "misalign"],
    }


def _write_squares_sparse(rng: random.Random, directory: Path, n: int) -> dict:
    return _squares_config(_points(rng, n), IDENTITY, ROTATION)


def _constant_matrix(rng: random.Random) -> list[list[float]]:
    """I + a seeded perturbation, kept well away from singular."""
    while True:
        c = [[(1.0 if i == j else 0.0) + round(rng.uniform(-0.4, 0.4), 6) for j in range(3)]
             for i in range(3)]
        det = (c[0][0] * (c[1][1] * c[2][2] - c[1][2] * c[2][1])
               - c[0][1] * (c[1][0] * c[2][2] - c[1][2] * c[2][0])
               + c[0][2] * (c[1][0] * c[2][1] - c[1][1] * c[2][0]))
        if abs(det) > 0.3:
            return c


def _times_constant(rows: list[list[str]], c: list[list[float]]) -> list[list[str]]:
    """Expression strings for the matrix product rows @ c."""
    return [
        [
            " + ".join(f"({rows[i][k]})*({c[k][j]!r})" for k in range(3) if rows[i][k] != "0")
            for j in range(3)
        ]
        for i in range(3)
    ]


def _write_squares_uniform(rng: random.Random, directory: Path, n: int) -> dict:
    points = _points(rng, n)
    return _squares_config(points, ROTATION, _times_constant(ROTATION, _constant_matrix(rng)))


WORKLOADS = {
    w.name: w
    for w in (
        # Nearly all the time goes to compiled-expression calls, frame jets,
        # Christoffel symbols (6 per node today) and the kernel SVD. The
        # groupoid layers do no work here.
        Workload(
            "lattice",
            "analytic laminated composite on a seeded box: expression calls, frame jets, "
            "Christoffel symbols and kernel SVD per lattice node",
            "lattice", LATTICE_RES, _write_lattice,
        ),
        # Same composite and tasks, but component 2 is a grid, so the same
        # downstream layers run through the `fields` grid-stencil path with no
        # expression evaluation. An `expressions` gain should show on
        # `lattice` and not here; a grid-derivative change should show here
        # and not on `lattice`.
        Workload(
            "lattice-sampled",
            "same lattice tasks with component 2 read from an .npz grid: the sampled-field "
            "stencil path, no expression evaluation for component 2",
            "lattice", LATTICE_RES, _write_lattice_sampled,
        ),
        # Dominated by coarse_enumerate and the commutation filter, which runs
        # twice over n^4 squares. Only 2n^2-n squares are stored, so the
        # stored-square stages do little.
        Workload(
            "squares-sparse",
            "rotation composite on seeded random points: coarse n^4 enumeration and the "
            "commutation filter dominate, few squares stored",
            "squares", SPARSE_POINTS, _write_squares_sparse,
        ),
        # The same double_groupoid layer the other way round: every square is
        # stored, so stored-square traversal dominates (misalignment, 4 calls
        # per stored square; core; filling_check). A gain for filtering that
        # costs traversal shows here.
        Workload(
            "squares-uniform",
            "uniform composite (component 2 = component 1 times a constant): all n^4 squares "
            "stored, misalignment, core and filling traversal dominate",
            "squares", UNIFORM_POINTS, _write_squares_uniform,
        ),
    )
}
