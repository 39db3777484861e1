"""Tests of the benchmark's output checker, its tracer and BENCHMARK.json.

    python3 -m pytest -q perfbench

Each workload runs once, shrunk, through `unilab.cli.run`; the checker
must pass the real report and record a failure for every corruption.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import check_report, judge  # noqa: E402
from layertrace import ACCEPT_COUNTED, Tracer  # noqa: E402
import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import unilab.cli  # noqa: E402

SMALL = {"lattice": 4, "lattice-sampled": 4, "squares-sparse": 4, "squares-uniform": 3}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """name -> (shrunk workload, report bytes) for seed 5."""
    out = {}
    for name, size in SMALL.items():
        w = dataclasses.replace(WORKLOADS[name], size=size)
        directory = tmp_path_factory.mktemp(name)
        config = w.generate(5, directory)
        assert unilab.cli.run(config, directory / "report.json") == 0
        out[name] = (w, (directory / "report.json").read_bytes())
    return out


def _corrupt(report: bytes, edit) -> dict:
    data = json.loads(report)
    edit(data["tasks"])
    return data


@pytest.mark.parametrize("name", SMALL)
def test_real_reports_pass(reports, name):
    w, data = reports[name]
    assert judge(w, data, None) == []
    assert judge(w, data, data) == []


CORRUPTIONS = {
    "lattice": [
        lambda t: t["foliate"].update({"class": "Fibered"}),
        lambda t: t["measure"]["m_counts"].update({"1": 1}),
        lambda t: t["infinitesimal"].update({"n_nodes": t["infinitesimal"]["n_nodes"] - 1}),
        lambda t: t["foliate"].update({"n_failures": 1}),
        lambda t: t.update({"infinitesimal": {"error": "boom"}}),
    ],
    "lattice-sampled": [
        lambda t: t["measure"].update({"class": "Singular"}),
        lambda t: t["foliate"].update({"n_samples": 1}),
    ],
    "squares-sparse": [
        lambda t: t["squares"].update({"n_stored": t["squares"]["n_stored"] + 1}),
        lambda t: t["squares"].update({"n_commutative": t["squares"]["n_commutative"] - 1}),
        lambda t: t["squares"].update({"uniform": True}),
        lambda t: t["squares"].update({"opposite_pair_max_deviation": 1e-6}),
        lambda t: t["squares"].update({"n_coarse": 1}),
        lambda t: t.pop("misalign"),
    ],
    "squares-uniform": [
        lambda t: t["squares"].update({"n_stored": t["squares"]["n_stored"] - 1}),
        lambda t: t["squares"].update({"core_transitive": False}),
        lambda t: t["squares"].update({"core_arrow_count": 1}),
        lambda t: t["squares"].update({"unfillable_pairs": 2}),
        lambda t: t["squares"].update({"all_commutative": False}),
        lambda t: next(iter(t["misalign"]["pairs"].values())).__setitem__(1, 1e-6),
        lambda t: next(iter(t["squares"]["misalignments"].values())).__setitem__(0, 2.0),
    ],
}


@pytest.mark.parametrize(
    "name,index", [(n, i) for n, edits in CORRUPTIONS.items() for i in range(len(edits))]
)
def test_corrupted_report_fails(reports, name, index):
    w, data = reports[name]
    corrupted = _corrupt(data, CORRUPTIONS[name][index])
    assert check_report(w, corrupted)
    assert judge(w, json.dumps(corrupted).encode(), None)


def test_rerun_mismatch_fails(reports):
    w, data = reports["lattice"]
    changed = data.replace(b'"tool":"unilab"', b'"tool":"unilab "')
    assert changed != data
    assert judge(w, changed, data) == ["report differs from the first run of the same config"]


def test_inputs_depend_only_on_seed(tmp_path):
    w = dataclasses.replace(WORKLOADS["lattice-sampled"], size=4)
    a = w.generate(7, tmp_path / "a").parent
    b = w.generate(7, tmp_path / "b").parent
    c = w.generate(8, tmp_path / "c").parent
    for name in ("config.json", "component2.npz"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / "config.json").read_bytes() != (c / "config.json").read_bytes()


def test_benchmark_json_matches_run_py():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench.per_layer_metrics()


def test_failed_check_counts_as_failed_operation(reports, tmp_path, monkeypatch):
    w, data = reports["squares-sparse"]
    corrupted = json.dumps(_corrupt(data, CORRUPTIONS["squares-sparse"][0])).encode()
    run = bench.Run(w, 5, tmp_path)

    def fake_child(args):
        out = Path(args[args.index("--out") + 1])
        out.write_bytes(data if run.attempted == 1 else corrupted)
        return {"exit_code": 0, "run_s": 1.0, "probe_s": 0.1, "peak_rss_mb": 40.0,
                "rss_growth_mb": 2.0}

    monkeypatch.setattr(bench, "_child", fake_child)
    assert run.operation(trace=False) is not None
    assert run.operation(trace=False) is None
    assert (run.attempted, run.failed) == (2, 1)


def test_tracer_counts_accepted_and_charges_wrapper_cost():
    tracer = Tracer()
    leaf = tracer.wrap_leaf(ACCEPT_COUNTED, lambda i: i % 3 == 0)
    parent = tracer.wrap_span("parent", lambda: [leaf(i) for i in range(9)])
    tracer.leaf_cost = 0.5
    parent()
    totals = tracer.totals()
    assert (totals[ACCEPT_COUNTED]["calls"], totals[ACCEPT_COUNTED]["accepted"]) == (9, 3)
    assert "accepted" not in totals["parent"]
    expected_self = totals["parent"]["total_s"] - totals[ACCEPT_COUNTED]["total_s"] - 9 * 0.5
    assert totals["parent"]["self_s"] == pytest.approx(expected_self, abs=1e-9)
