"""Per-layer tracing from outside the package.

`Tracer.install()` wraps the public functions of each unilab module,
patching the name in its defining module and in every unilab module
that imported it by name, and wraps each task runner in
`unilab.cli._TASK_RUNNERS`. The program's own code stays untouched.

Every wrapped call except the hot leaves records a span (name, start,
end, parent span) in memory; `write_spans` writes them out when the
operation ends. The hot leaves (`call_compiled`, `arrows_match`,
`is_commutative`) record no span of their own: their calls and time
are added to counters and to the child time of the enclosing span.

A function's self time is its duration minus the time spent in the
traced calls it made. Each wrapper also spends some time outside its
own timing window (the call into the wrapper, the stack push and pop,
the bookkeeping); `install()` measures that cost per call on a no-op
function (`wrapper_cost`) and adds it to the caller's child time, so
that a caller's self time does not grow with the number of traced
calls it makes. Inclusive times (`total_s`) still contain it.
"""
from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

CALIBRATION_CALLS = 20000
CALIBRATION_REPEATS = 3

# (module, function or Class.method) that record one span per call.
SPAN_FUNCTIONS = (
    ("cli", "validate_config"),
    ("cli", "canonical_json"),
    ("expressions", "compile_expr"),
    ("fields", "AnalyticFrameField.jet"),
    ("fields", "SampledFrameField.jet"),
    ("fields", "SampledFrameField.from_npz"),
    ("geometry", "christoffel"),
    ("linalg3", "kernel_of_flattened"),
    ("linalg3", "invert"),
    ("measures", "evaluate_measure"),
    ("measures", "measure_case1"),
    ("foliation", "scan_domain"),
    ("foliation", "null_space_at"),
    ("infinitesimal", "infinitesimal_classification"),
    ("groupoid", "from_frame_field"),
    ("groupoid", "compose_arrows"),
    ("double_groupoid", "coarse_enumerate"),
    ("double_groupoid", "core"),
    ("double_groupoid", "filling_check"),
    ("double_groupoid", "misalignment"),
)

# Hot leaf calls: counted and timed, aggregated into the enclosing span.
LEAF_FUNCTIONS = (
    ("expressions", "call_compiled"),
    ("groupoid", "arrows_match"),
    ("double_groupoid", "is_commutative"),
)
# The leaf whose True results are counted, for its accept ratio.
ACCEPT_COUNTED = "double_groupoid.is_commutative"


def wrapper_cost(kind: str) -> float:
    """Seconds per call that `Tracer.wrap_<kind>` spends outside its timing window.

    The least over a few repeats of: time of CALIBRATION_CALLS calls of a
    wrapped no-op, minus the same calls of the bare no-op, minus the time
    the wrapper recorded inside its window.
    """
    def noop():
        return None

    best = float("inf")
    for _ in range(CALIBRATION_REPEATS):
        tracer = Tracer()
        wrapped = getattr(tracer, f"wrap_{kind}")("noop", noop)
        tracer._stack.append([-1, 0.0])  # a caller, as in a real traced call
        start = perf_counter()
        for _ in range(CALIBRATION_CALLS):
            noop()
        bare = perf_counter() - start
        start = perf_counter()
        for _ in range(CALIBRATION_CALLS):
            wrapped()
        traced = perf_counter() - start
        best = min(best, (traced - bare - tracer.total_s[0]) / CALIBRATION_CALLS)
    return max(best, 0.0)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.accepted = 0
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        # Seconds per call each wrapper spends outside its window; set by install().
        self.span_cost = 0.0
        self.leaf_cost = 0.0
        # Active calls, innermost last: [enclosing span id, child seconds].
        self._stack: list[list] = []
        # Spans as columns, indexed by span id.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    def _index(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        for column in (self.self_s, self.total_s):
            column.append(0.0)
        return len(self.names) - 1

    def _account(self, idx: int, elapsed: float, child: float, cost: float) -> None:
        self.calls[idx] += 1
        self.total_s[idx] += elapsed
        self.self_s[idx] += elapsed - child
        if self._stack:
            self._stack[-1][1] += elapsed + cost

    def wrap_span(self, name: str, fn):
        idx = self._index(name)
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = len(self.span_name)
            self.span_name.append(idx)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.span_start[span_id] = start
                self.span_end[span_id] = end
                self._account(idx, end - start, frame[1], self.span_cost)

        return traced

    def wrap_leaf(self, name: str, fn):
        idx = self._index(name)
        counted = name == ACCEPT_COUNTED
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [stack[-1][0] if stack else -1, 0.0]
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self._account(idx, elapsed, frame[1], self.leaf_cost)
                if counted and result is True:
                    self.accepted += 1

        return traced

    def install(self) -> None:
        """Wrap every traced function of the imported unilab package."""
        import unilab.cli

        self.span_cost = wrapper_cost("span")
        self.leaf_cost = wrapper_cost("leaf")
        package = [m for n, m in sys.modules.items() if n == "unilab" or n.startswith("unilab.")]
        targets = [(t, self.wrap_span) for t in SPAN_FUNCTIONS]
        targets += [(t, self.wrap_leaf) for t in LEAF_FUNCTIONS]
        for (module_name, qualname), wrap in targets:
            module = sys.modules[f"unilab.{module_name}"]
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, wrap(name, raw))
                continue
            original = getattr(module, qualname)
            traced = wrap(name, original)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        runners = unilab.cli._TASK_RUNNERS
        for task, fn in list(runners.items()):
            runners[task] = self.wrap_span(f"cli.task.{task}", fn)

    def totals(self) -> dict:
        """Per-function calls, self and total seconds; accepted calls of ACCEPT_COUNTED."""
        out = {
            name: {"calls": self.calls[i], "self_s": self.self_s[i], "total_s": self.total_s[i]}
            for i, name in enumerate(self.names)
        }
        if ACCEPT_COUNTED in out:
            out[ACCEPT_COUNTED]["accepted"] = self.accepted
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.span_name.tolist(),
                    "parent": self.span_parent.tolist(),
                    "start": self.span_start.tolist(),
                    "end": self.span_end.tolist(),
                },
                fh,
            )
