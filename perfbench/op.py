"""One benchmark operation, run in a fresh interpreter and reported as one JSON line.

    python3 perfbench/op.py setup --config CFG
        Time `import unilab.cli` plus `unilab.cli.validate_config(CFG)`,
        then the calibration probe.
    python3 perfbench/op.py run --config CFG --out REPORT [--trace SPANS]
        Time `unilab.cli.main(["run", "--config", CFG, "--out", REPORT])`
        after the imports are done, between two runs of the calibration
        probe, and report how far the process's peak RSS grows during it.
        With --trace, every layer function is wrapped first (see
        layertrace.py), the spans are written to SPANS and the
        per-function totals come back in the JSON line.

The unilab package is imported from the `src` directory next to
`perfbench`.

The last line of standard output is the result; anything the program
prints comes before it.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PROBE_ITERATIONS = 6000
PROBE_WARMUP = 50


def probe(iterations: int = PROBE_ITERATIONS) -> float:
    """Seconds for a fixed piece of work that never changes with unilab.

    Interpreted arithmetic plus small numpy calls, the same mix as the
    program's hot loops. The host's speed drifts by tens of percent over
    tens of seconds when other tenants load it; the ratio of an
    operation's time to this probe's time, taken in the same process
    right around it, drifts far less.
    """
    import numpy as np

    m = np.array([[2.0, 0.1, 0.0], [0.1, 1.5, 0.2], [0.0, 0.2, 1.0]])
    start = time.perf_counter()
    acc = 0.0
    for i in range(iterations):
        x = (i % 7) * 0.01
        acc += math.cos(x) * math.sin(x) + x * x
        acc += float(np.max(np.abs(np.linalg.inv(m + x) @ m)))
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise ArithmeticError("probe result is not finite")
    return elapsed


def _setup(args) -> dict:
    start = time.perf_counter()
    import unilab.cli

    diagnostics = unilab.cli.validate_config(args.config)
    setup_s = time.perf_counter() - start
    probe(PROBE_WARMUP)
    return {"setup_s": setup_s, "probe_s": probe(), "diagnostics": diagnostics}


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run(args) -> dict:
    import unilab.cli

    probe(PROBE_WARMUP)
    probe_before = probe()

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    # Most of the process's peak is the interpreter, numpy and jsonschema;
    # the growth past the peak reached before the call is what `run` adds.
    peak_before = _peak_rss_mb()
    start = time.perf_counter()
    code = unilab.cli.main(["run", "--config", args.config, "--out", args.out])
    run_s = time.perf_counter() - start
    peak_rss_mb = _peak_rss_mb()
    result = {
        "exit_code": code,
        "run_s": run_s,
        "probe_s": (probe_before + probe()) / 2.0,
        "peak_rss_mb": peak_rss_mb,
        "rss_growth_mb": peak_rss_mb - peak_before,
    }
    if tracer is not None:
        tracer.write_spans(args.trace)
        result["layers"] = tracer.totals()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    result = _setup(args) if args.mode == "setup" else _run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
