"""Span tracing of bousslab from outside the package, for the traced run.

`install` wraps every public function of the layer modules, and every public
method (plus a hand-written `__init__`) of their public classes, in a span
recorder.  A function is wrapped wherever its name is looked up: in its own
module, in every bousslab module that imported it and in the package
namespace, so `slow_mode_state` is traced whether `bousslab.cli`, a library
caller or `bousslab.stepping` itself calls it.  A span records its name,
start, end and parent span (the enclosing span on the same thread); the spans
of one traced run share its run id.  They stay in memory until `write` dumps
them as JSON.

Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from array import array

LAYERS = ("params", "config", "operators", "delay_line", "stepping", "energy",
          "certificate", "report", "cli", "mms")

# Per-layer metrics of the traced run, with their units.  `.s` is a total over
# the round, `.ms`/`_ms`/`_us` a mean per call, `self_us` a mean self time
# (span duration minus the time its child spans cover).
PER_LAYER = (
    ("stepping.slow_mode_state.s", "s"),
    ("stepping.slow_mode_state.calls", "count"),
    ("stepping.Stepper.step.self_us", "us"),
    ("stepping.Stepper.step.calls", "count"),
    ("stepping.run.s", "s"),
    ("stepping.solves_per_step", "ratio"),
    ("operators.BandedLU.solve_us", "us"),
    ("operators.BandedLU.solve_calls", "count"),
    ("operators.BandedLU.factor_ms", "ms"),
    ("operators.BandedLU.factor_calls", "count"),
    ("operators.build_operators.ms", "ms"),
    ("operators.build_operators.calls", "count"),
    ("delay_line.HistoryLine.push_us", "us"),
    ("delay_line.HistoryLine.push_calls", "count"),
    ("delay_line.HistoryLine.query_us", "us"),
    ("delay_line.HistoryLine.query_calls", "count"),
    ("delay_line.HistoryLine.query_points", "count"),
    ("delay_line.HistoryLine.samples_max", "count"),
    ("energy.energy_sample.self_us", "us"),
    ("energy.energy_sample.calls", "count"),
    ("energy.dissipation_residual.ms", "ms"),
    ("energy.kato_identity_residual.ms", "ms"),
    ("params.validate_params.ms", "ms"),
    ("params.validate_params.calls", "count"),
    ("certificate.build_certificate.ms", "ms"),
    ("certificate.build_certificate.calls", "count"),
    ("report.RunReport.to_csv.ms", "ms"),
    ("report.csv_bytes", "bytes"),
    ("cli.simulate.s", "s"),
    ("cli.simulate.calls", "count"),
    ("tracing.overhead_s", "s"),
)


def _count_query(counters, args, result):
    counters["query_points"] = counters.get("query_points", 0) + getattr(args[1], "size", 1)


def _count_push(counters, args, result):
    counters["samples_max"] = max(counters.get("samples_max", 0), args[0].size)


def _count_csv(counters, args, result):
    counters["csv_bytes"] = counters.get("csv_bytes", 0) + len(result)


# counts recorded at the same boundaries as the spans
COUNTS = {
    "delay_line.HistoryLine.query": _count_query,
    "delay_line.HistoryLine.push": _count_push,
    "report.RunReport.to_csv": _count_csv,
}


class _ThreadLog:
    """Spans of one thread, in start order; `parent` indexes the same log."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.origin = time.perf_counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []

    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
            return log

    def wrap(self, name: str, fn, count=None):
        nid = len(self.names)
        self.names.append(name)
        get_log, clock = self._log, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = get_log()
            idx = len(log.name)
            log.name.append(nid)
            log.parent.append(log.stack[-1] if log.stack else -1)
            log.start.append(0.0)
            log.end.append(0.0)
            log.stack.append(idx)
            log.start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                log.end[idx] = clock()
                log.stack.pop()
            if count is not None:
                count(log.counters, args, result)
            return result

        return traced

    def aggregate(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds]."""
        agg: dict[str, list] = {}
        for log in self._logs:
            covered = [0.0] * len(log.name)
            for i, parent in enumerate(log.parent):
                if parent >= 0:
                    covered[parent] += log.end[i] - log.start[i]
            for i, nid in enumerate(log.name):
                dur = log.end[i] - log.start[i]
                a = agg.setdefault(self.names[nid], [0, 0.0, 0.0])
                a[0] += 1
                a[1] += dur
                a[2] += dur - covered[i]
        return agg

    def counters(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for log in self._logs:
            for key, v in log.counters.items():
                out[key] = max(out.get(key, 0), v) if key.endswith("_max") else out.get(key, 0) + v
        return out

    def write(self, path: str) -> None:
        """Dump every span as JSON columns; ids are row numbers."""
        cols = {"name": [], "start": [], "end": [], "parent": [], "thread": []}
        offset = 0
        for thread, log in enumerate(self._logs):
            cols["name"] += log.name.tolist()
            cols["start"] += [round(t - self.origin, 9) for t in log.start]
            cols["end"] += [round(t - self.origin, 9) for t in log.end]
            cols["parent"] += [p + offset if p >= 0 else -1 for p in log.parent]
            cols["thread"] += [thread] * len(log.name)
            offset += len(log.name)
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "names": self.names, "spans": cols}, fh)


def install(tracer: Tracer) -> None:
    """Wrap the layer modules' public callables in `tracer` spans."""
    import bousslab

    modules = {layer: importlib.import_module(f"bousslab.{layer}") for layer in LAYERS}
    namespaces = [bousslab, *modules.values()]
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapper = tracer.wrap(f"{layer}.{attr}", obj, COUNTS.get(f"{layer}.{attr}"))
                for ns in namespaces:
                    for key in [k for k, v in vars(ns).items() if v is obj]:
                        setattr(ns, key, wrapper)
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    # dataclass-generated methods have no source file here
                    if (inspect.isfunction(fn) and fn.__code__.co_filename == mod.__file__
                            and (meth == "__init__" or not meth.startswith("_"))):
                        name = f"{layer}.{attr}.{meth}"
                        setattr(obj, meth, tracer.wrap(name, fn, COUNTS.get(name)))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every PER_LAYER metric except tracing.overhead_s, from the spans."""
    agg = tracer.aggregate()
    counters = tracer.counters()

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def mean(name, scale, col=1):
        a = agg.get(name)
        return a[col] / a[0] * scale if a else 0.0

    steps = calls("stepping.Stepper.step")
    queries = calls("delay_line.HistoryLine.query")
    return {
        "stepping.slow_mode_state.s": total("stepping.slow_mode_state"),
        "stepping.slow_mode_state.calls": calls("stepping.slow_mode_state"),
        "stepping.Stepper.step.self_us": mean("stepping.Stepper.step", 1e6, col=2),
        "stepping.Stepper.step.calls": steps,
        "stepping.run.s": total("stepping.run"),
        "stepping.solves_per_step": calls("operators.BandedLU.solve") / steps if steps else 0.0,
        "operators.BandedLU.solve_us": mean("operators.BandedLU.solve", 1e6),
        "operators.BandedLU.solve_calls": calls("operators.BandedLU.solve"),
        "operators.BandedLU.factor_ms": mean("operators.BandedLU.__init__", 1e3),
        "operators.BandedLU.factor_calls": calls("operators.BandedLU.__init__"),
        "operators.build_operators.ms": mean("operators.build_operators", 1e3),
        "operators.build_operators.calls": calls("operators.build_operators"),
        "delay_line.HistoryLine.push_us": mean("delay_line.HistoryLine.push", 1e6),
        "delay_line.HistoryLine.push_calls": calls("delay_line.HistoryLine.push"),
        "delay_line.HistoryLine.query_us": mean("delay_line.HistoryLine.query", 1e6),
        "delay_line.HistoryLine.query_calls": queries,
        "delay_line.HistoryLine.query_points": (
            counters.get("query_points", 0) / queries if queries else 0.0),
        "delay_line.HistoryLine.samples_max": counters.get("samples_max", 0),
        "energy.energy_sample.self_us": mean("energy.energy_sample", 1e6, col=2),
        "energy.energy_sample.calls": calls("energy.energy_sample"),
        "energy.dissipation_residual.ms": mean("energy.dissipation_residual", 1e3),
        "energy.kato_identity_residual.ms": mean("energy.kato_identity_residual", 1e3),
        "params.validate_params.ms": mean("params.validate_params", 1e3),
        "params.validate_params.calls": calls("params.validate_params"),
        "certificate.build_certificate.ms": mean("certificate.build_certificate", 1e3),
        "certificate.build_certificate.calls": calls("certificate.build_certificate"),
        "report.RunReport.to_csv.ms": mean("report.RunReport.to_csv", 1e3),
        "report.csv_bytes": counters.get("csv_bytes", 0),
        "cli.simulate.s": total("cli.simulate"),
        "cli.simulate.calls": calls("cli.simulate"),
    }
