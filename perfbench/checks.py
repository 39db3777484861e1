"""Output checks for one `unilab run` report.

Every expected value follows from how the workload is built, not from a
stored reference run:

- lattice workloads: `measure`, `foliate` and `infinitesimal` agree on
  m_counts, all nodes at m=2; the class is Laminated; no node fails;
  every node count equals the lattice size.
- squares-sparse (identity and rotation on generic points): n^4 coarse
  squares, of which exactly 2n^2-n commute and are stored; not uniform;
  opposite misalignments agree to 1e-9.
- squares-uniform (component 2 = component 1 times a constant): all n^4
  squares stored, the core is transitive with n^2 arrows, every pair
  fills, and every misalignment is the identity to 1e-9.
"""
from __future__ import annotations

import json

from workloads import Workload

TOL = 1e-9
IDENTITY_FLAT = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]


def _expect(problems: list[str], label: str, actual, expected) -> None:
    if actual != expected:
        problems.append(f"{label}: expected {expected!r}, got {actual!r}")


def _tasks(report: dict, names: tuple[str, ...], problems: list[str]) -> dict:
    tasks = report.get("tasks", {})
    for name in names:
        block = tasks.get(name)
        if not isinstance(block, dict):
            problems.append(f"{name}: task block missing")
        elif "error" in block:
            problems.append(f"{name}: task error {block['error']!r}")
    return tasks


def _check_lattice(w: Workload, report: dict, problems: list[str]) -> None:
    tasks = _tasks(report, ("measure", "foliate", "infinitesimal"), problems)
    if problems:
        return
    n = w.work
    expected_counts = {"0": 0, "1": 0, "2": n, "3": 0}
    for name in ("measure", "foliate", "infinitesimal"):
        _expect(problems, f"{name}.m_counts", tasks[name].get("m_counts"), expected_counts)
    for name in ("measure", "foliate"):
        _expect(problems, f"{name}.class", tasks[name].get("class"), "Laminated")
    _expect(problems, "foliate.n_failures", tasks["foliate"].get("n_failures"), 0)
    _expect(problems, "foliate.n_samples", tasks["foliate"].get("n_samples"), n)
    for name in ("measure", "infinitesimal"):
        _expect(problems, f"{name}.n_nodes", tasks[name].get("n_nodes"), n)


def _identity_tables(label: str, table, n_pairs: int, problems: list[str]) -> None:
    if not isinstance(table, dict) or len(table) != n_pairs:
        problems.append(f"{label}: expected {n_pairs} pairs")
        return
    for pair, flat in table.items():
        if len(flat) != 9 or max(abs(a - b) for a, b in zip(flat, IDENTITY_FLAT)) > TOL:
            problems.append(f"{label}[{pair}]: misalignment is not the identity")


def _check_squares(w: Workload, report: dict, problems: list[str]) -> None:
    tasks = _tasks(report, ("squares", "misalign"), problems)
    if problems:
        return
    sq = tasks["squares"]
    n = w.size
    if "misalignment_error" in sq:
        problems.append(f"squares.misalignment_error: {sq['misalignment_error']!r}")
    _expect(problems, "squares.n_coarse", sq.get("n_coarse"), n ** 4)
    if w.name == "squares-sparse":
        # Horizontal arrows are identities, so a square commutes exactly when
        # its vertical rotations agree: W = Y or W = X on generic points.
        stored = 2 * n * n - n
        _expect(problems, "squares.n_stored", sq.get("n_stored"), stored)
        _expect(problems, "squares.n_commutative", sq.get("n_commutative"), stored)
        _expect(problems, "squares.uniform", sq.get("uniform"), False)
        deviation = sq.get("opposite_pair_max_deviation")
        if not isinstance(deviation, float) or not deviation <= TOL:
            problems.append(f"squares.opposite_pair_max_deviation: {deviation!r} > {TOL}")
    else:
        _expect(problems, "squares.n_stored", sq.get("n_stored"), n ** 4)
        for key in ("all_commutative", "uniform", "core_transitive"):
            _expect(problems, f"squares.{key}", sq.get(key), True)
        _expect(problems, "squares.core_arrow_count", sq.get("core_arrow_count"), n * n)
        _expect(problems, "squares.unfillable_pairs", sq.get("unfillable_pairs"), 0)
        _identity_tables("squares.misalignments", sq.get("misalignments"), n, problems)
        _identity_tables("misalign.pairs", tasks["misalign"].get("pairs"), n, problems)


def check_report(w: Workload, report: dict) -> list[str]:
    """Problems found in a parsed report; empty means correct."""
    problems: list[str] = []
    _expect(problems, "schema", report.get("schema"), 1)
    if w.kind == "lattice":
        _check_lattice(w, report, problems)
    else:
        _check_squares(w, report, problems)
    return problems


def judge(w: Workload, report_bytes: bytes, reference: bytes | None) -> list[str]:
    """All problems of one operation's report.

    `reference` is the report of the run's first operation on the same
    config; reports must be byte-identical across reruns.
    """
    problems = []
    if reference is not None and report_bytes != reference:
        problems.append("report differs from the first run of the same config")
    try:
        report = json.loads(report_bytes)
    except ValueError as exc:
        return problems + [f"report is not JSON: {exc}"]
    return problems + check_report(w, report)
