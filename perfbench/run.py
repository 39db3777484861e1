"""unilab benchmark: times `unilab run` on generated configs and checks every report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

One operation is one `unilab.cli.main(["run", ...])` of the workload's
config in a fresh interpreter (perfbench/op.py), run one at a time as a
closed loop from this one process, for S seconds and at least
MIN_OPS operations. Every operation's report is checked (checks.py) and
compared byte for byte with the first report of the run; an operation
that exits non-zero, raises, or fails a check counts as failed.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced operations and reports the per-layer metrics (layertrace.py).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --workload all, every
workload runs in turn and the full statistics also go to
perfbench/.work/results-seed<N>-trace<T>.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from checks import judge
from layertrace import LEAF_FUNCTIONS, SPAN_FUNCTIONS
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

MIN_OPS = 3            # per run, so every run executes its config at least twice
SETUP_REPEATS = 5      # timed set-ups per run, after one untimed warm-up
OP_TIMEOUT_S = 60
# Every reported time is in reference seconds: wall seconds scaled by
# PROBE_REF_S / probe_s, where probe_s is the time of op.probe() in the
# same process right around the timed span. op.probe() takes about
# PROBE_REF_S on a quiet 2-CPU x86 host (Python 3.11, numpy 2.4). The
# scaling cancels the host-wide speed drift that other tenants cause;
# raw wall times are printed in the summary next to the reported ones.
PROBE_REF_S = 0.1

# (name, unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = (
    ("run_s", "s", "lower"),
    ("work_per_s", "work/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("rss_growth_mb", "MB", "lower"),
)

TASKS = ("measure", "foliate", "infinitesimal", "squares", "misalign")
# Functions whose inclusive time is reported next to their self time.
TOTAL_S = {"measures.measure_case1", "foliation.scan_domain",
           "groupoid.from_frame_field", "double_groupoid.filling_check"}


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for module, qualname in SPAN_FUNCTIONS + LEAF_FUNCTIONS:
        name = f"{module}.{qualname}"
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        if name in TOTAL_S:
            out.append((f"{name}.total_s", "s"))
    out += [(f"cli.task.{task}.total_s", "s") for task in TASKS]
    out += [
        ("bench.lattice_nodes", "count"),
        ("geometry.christoffel.calls_per_node", "calls/node"),
        ("double_groupoid.is_commutative.accepted", "count"),
        ("double_groupoid.is_commutative.accept_ratio", "ratio"),
        ("tracing_overhead_s", "s"),
    ]
    return out


class OperationError(Exception):
    pass


def _child(args: list[str]) -> dict:
    """Run op.py in a fresh interpreter and return its JSON result line."""
    cmd = [sys.executable, str(HERE / "op.py"), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise OperationError(f"timed out after {OP_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise OperationError(f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        raise OperationError(f"no result line in {proc.stdout[-400:]!r}") from None


def _ref_s(result: dict, key: str) -> float:
    return result[key] * PROBE_REF_S / result["probe_s"]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Run:
    """One run of one workload: its inputs, operations and tallies."""

    def __init__(self, workload: Workload, seed: int, directory: Path):
        self.workload = workload
        self.directory = directory
        self.config = workload.generate(seed, directory / "input")
        self.reference: bytes | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def setups(self) -> list[dict]:
        results = []
        for i in range(SETUP_REPEATS + 1):
            result = _child(["setup", "--config", str(self.config)])
            if result["diagnostics"]:
                raise OperationError(f"config does not validate: {result['diagnostics']}")
            if i:  # the first one compiles bytecode and fills the file cache
                results.append(result)
        return results

    def operation(self, trace: bool) -> dict | None:
        """One checked `unilab run`; None if it failed."""
        self.attempted += 1
        report = self.directory / f"report-{self.attempted}.json"
        args = ["run", "--config", str(self.config), "--out", str(report)]
        if trace:
            args += ["--trace", str(self.directory / "spans.json")]
        try:
            result = _child(args)
            if result["exit_code"] != 0:
                raise OperationError(f"unilab run exited {result['exit_code']}")
            data = report.read_bytes()
        except (OperationError, OSError) as exc:
            problems = [str(exc)]
            result = None
        else:
            problems = judge(self.workload, data, self.reference)
            if self.reference is None:
                self.reference = data
            report.unlink()
        if problems:
            self.failed += 1
            self.problems += [f"operation {self.attempted}: {p}" for p in problems]
            return None
        return result

    def loop(self, seconds: float, traced_too: bool) -> tuple[list[dict], list[dict]]:
        """Closed loop for `seconds`; with traced_too, alternate untraced and traced."""
        plain, traced = [], []
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline or len(plain) < MIN_OPS or (
            traced_too and len(traced) < MIN_OPS
        ):
            trace = traced_too and self.attempted % 2 == 1
            result = self.operation(trace)
            if result is not None:
                (traced if trace else plain).append(result)
            if self.failed > self.attempted // 2 + 1:
                break  # mostly failing: stop early, the run is incorrect anyway
        return plain, traced


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    setups = run.setups()
    plain, _ = run.loop(seconds, traced_too=False)
    if not plain:
        raise OperationError("no operation succeeded")
    run_s = [_ref_s(r, "run_s") for r in plain]
    q1, median_run, q3 = _quartiles(run_s)
    values = {
        "run_s": median_run,
        "work_per_s": run.workload.work / median_run,
        "setup_s": statistics.median(_ref_s(r, "setup_s") for r in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "rss_growth_mb": statistics.median(r["rss_growth_mb"] for r in plain),
    }
    detail = {
        "run_s": {"median": median_run, "q1": q1, "q3": q3, "n": len(run_s)},
        "setup_s": {"median": values["setup_s"], "n": len(setups)},
        "wall": {
            "run_s": statistics.median(r["run_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "probe_s": statistics.median(r["probe_s"] for r in plain),
        },
        "work": {"per_op": run.workload.work, "unit": run.workload.work_unit},
    }
    return values, detail


def per_layer(run: Run, seconds: float) -> tuple[dict, dict]:
    plain, traced = run.loop(seconds, traced_too=True)
    if not plain or not traced:
        raise OperationError("no operation succeeded")
    layers = [r["layers"] for r in traced]
    values = {}
    for name in layers[0]:
        values[f"{name}.calls"] = statistics.median(op[name]["calls"] for op in layers)
        for field in ("self_s", "total_s"):
            values[f"{name}.{field}"] = statistics.median(
                r["layers"][name][field] * PROBE_REF_S / r["probe_s"] for r in traced
            )
    christoffel_calls = values["geometry.christoffel.calls"]
    commutative = layers[0]["double_groupoid.is_commutative"]
    nodes = run.workload.work if run.workload.kind == "lattice" else 0
    values.update({
        "bench.lattice_nodes": nodes,
        "geometry.christoffel.calls_per_node": christoffel_calls / nodes if nodes else 0.0,
        "double_groupoid.is_commutative.accepted": commutative["accepted"],
        "double_groupoid.is_commutative.accept_ratio":
            commutative["accepted"] / commutative["calls"] if commutative["calls"] else 0.0,
        "tracing_overhead_s": statistics.median(_ref_s(r, "run_s") for r in traced)
        - statistics.median(_ref_s(r, "run_s") for r in plain),
    })
    shutil.copyfile(run.directory / "spans.json", WORK / f"spans-{run.workload.name}.json")
    detail = {"traced_ops": len(traced), "untraced_ops": len(plain)}
    return values, detail


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        run = Run(workload, seed, directory)
        values, detail = (per_layer if trace else end_to_end)(run, seconds)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    units = dict(per_layer_metrics()) if trace else {n: u for n, u, _ in END_TO_END}
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "detail": detail,
        "problems": run.problems,
    }


def host_info() -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "machine": platform.machine(),
    }


def _summary(name: str, seed: int, result: dict) -> str:
    rate = result["failed"] / result["attempted"]
    lines = [f"{name} seed={seed}: failure_rate {rate:.3f} "
             f"({result['failed']} of {result['attempted']} operations failed)"]
    detail = result["detail"]
    for metric, entry in result["metrics"].items():
        line = f"  {metric} = {entry['value']:.6g} {entry['unit']}"
        if metric == "run_s":
            d = detail["run_s"]
            line += (f" (median; q1 {d['q1']:.4g}, q3 {d['q3']:.4g}, n={d['n']});"
                     f" wall {detail['wall']['run_s']:.4g} s")
        elif metric == "setup_s":
            line += (f" (median of {detail['setup_s']['n']});"
                     f" wall {detail['wall']['setup_s']:.4g} s")
        elif metric == "work_per_s":
            line += f" ({detail['work']['per_op']} {detail['work']['unit']} per operation)"
        lines.append(line)
    lines += [f"  problem: {p}" for p in result["problems"][:10]]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="unilab benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "unilab" / "cli.py").is_file():
        print(f"unilab sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    host = host_info()
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    print(f"times in reference seconds: wall seconds x {PROBE_REF_S} s / probe seconds")
    results = {}
    try:
        for name in names:
            results[name] = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            print(_summary(name, args.seed, results[name]), flush=True)
    except OperationError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        path = WORK / f"results-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({"host": host, "seed": args.seed, "results": results},
                                   indent=1) + "\n")
        print(f"full results: {path.relative_to(ROOT)}")
        metrics = {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
