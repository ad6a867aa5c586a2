"""Wrappers the benchmark puts around the package's functions.

A function is wrapped under the name by which its caller looks it up (for
example `orchestrator.optimize_beamformer`, which the AO loop calls, rather
than `beamforming.optimize_beamformer`), so the wrapper sees every call the
solver makes.  Each wrapper registers the original on a
`contextlib.ExitStack`, which puts it back when the stack closes.

`Capture` keeps what each solve returned, for the output checks; it is on in
every run.  `Tracer` records spans and counts for the per-layer metrics; it
is on only in the traced run.
"""

import functools
import importlib
import inspect
import json
import time
import warnings
from collections import Counter

import numpy as np

from aris_emf import channel, harness, orchestrator, ris_phase, trajectory

# (metric prefix, objects holding the name callers look up, attribute)
TARGETS = (
    ("channel.ChannelSet.realize", (channel.ChannelSet,), "realize"),
    ("channel.ChannelRealization.effective", (channel.ChannelRealization,), "effective"),
    ("channel.channel_gain", (orchestrator,), "channel_gain"),
    ("beamforming.optimize_beamformer", (orchestrator,), "optimize_beamformer"),
    ("ris_phase.optimize_phases", (orchestrator,), "optimize_phases"),
    ("ris_phase.gaussian_randomization", (ris_phase,), "gaussian_randomization"),
    ("convex_kernels.solve_sdp", (ris_phase,), "solve_sdp"),
    ("convex_kernels.solve_convex_program", (trajectory,), "solve_convex_program"),
    ("re_alloc.allocate", (orchestrator,), "allocate"),
    ("power_control.allocate_power", (orchestrator,), "allocate_power"),
    ("trajectory.optimize_trajectory", (orchestrator,), "optimize_trajectory"),
    ("trajectory.sca_step", (trajectory,), "sca_step"),
    ("orchestrator.run_ao", (harness, orchestrator), "run_ao"),
    ("orchestrator.initialize_state", (orchestrator,), "initialize_state"),
    ("orchestrator.fixed_position_search", (orchestrator,), "fixed_position_search"),
    ("harness.monte_carlo_sweep", (harness,), "monte_carlo_sweep"),
)

# warning text prefix -> counted event
WARNING_EVENTS = (
    ("path subproblem failed", "trajectory.fallbacks"),
    ("phase relaxation failed", "ris_phase.fallbacks"),
)

TRACE_BLOCKS = ("beams", "phases", "allocation", "power", "trajectory")


def _defined(prefix):
    """The function a metric prefix such as `channel.ChannelSet.realize` names."""
    module, *path = prefix.split(".")
    obj = importlib.import_module("aris_emf." + module)
    for part in path:
        obj = getattr(obj, part)
    return obj


def _wrap(stack, holder, attr, make_wrapper):
    """Replaces `holder.attr` by `make_wrapper(original)` until `stack` closes.

    Not `unittest.mock.patch.object`: importing `unittest.mock` loads asyncio
    and would add about 4 MB to the peak memory the benchmark reports.
    """
    original = vars(holder)[attr]
    setattr(holder, attr, make_wrapper(original))
    stack.callback(setattr, holder, attr, original)


class Capture:
    """Collects the SolutionStates and reports that solves return.

    `take()` hands over what was returned since the last call, so each solve
    gets the outputs it produced.
    """

    def __init__(self):
        self._outputs = []

    def install(self, stack):
        for holder in (harness, orchestrator):
            _wrap(stack, holder, "run_ao", self._wrap_run_ao)
        _wrap(stack, harness, "baseline_fixed_ris", self._wrap_fixed)

    def _wrap_run_ao(self, fn):
        @functools.wraps(fn)
        def run_ao(*args, **kwargs):
            state, report = fn(*args, **kwargs)
            self._outputs.append(("state", state, report))
            return state, report
        return run_ao

    def _wrap_fixed(self, fn):
        @functools.wraps(fn)
        def baseline_fixed_ris(scenario, *args, **kwargs):
            report = fn(scenario, *args, **kwargs)
            self._outputs.append(("report", scenario, report))
            return report
        return baseline_fixed_ris

    def take(self):
        out, self._outputs = self._outputs, []
        return out


def _theta0(args, kwargs):
    theta0 = args[4] if len(args) > 4 else kwargs["theta0"]
    return getattr(theta0, "values", theta0)


def _observe_phases(args, kwargs, result, exc, counts):
    if exc is None and not np.array_equal(result.values, _theta0(args, kwargs)):
        counts["ris_phase.optimize_phases.changed"] += 1


def _observe_beams(args, kwargs, result, exc, counts):
    if exc is None:
        info = result[1]
        counts["beamforming.optimize_beamformer.dinkelbach_iters"] += info.iterations
        counts["beamforming.optimize_beamformer.unconverged"] += not info.converged


def _observe_power(args, kwargs, result, exc, counts):
    if exc is not None:
        counts["power_control.allocate_power.raised"] += 1


def _observe_sca(args, kwargs, result, exc, counts):
    if exc is None and result is args[0]:
        counts["trajectory.sca_step.kept"] += 1


def _observe_run_ao(args, kwargs, result, exc, counts):
    if exc is None:
        for ev in result[0].trace:
            if ev["event"] == "outer":
                counts["orchestrator.outer_iters"] += 1
            elif ev["event"] in TRACE_BLOCKS:
                counts["orchestrator.accepted." + ev["event"]] += 1


OBSERVERS = {
    "ris_phase.optimize_phases": _observe_phases,
    "beamforming.optimize_beamformer": _observe_beams,
    "power_control.allocate_power": _observe_power,
    "trajectory.sca_step": _observe_sca,
    "orchestrator.run_ao": _observe_run_ao,
}


class Tracer:
    """In-memory spans (name, start, end, parent) plus counted events.

    Warnings raised inside traced calls become events; the fallback warnings
    of the phase and path blocks are counted under their own names.
    """

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.events = []     # (name, time, parent index or -1, message)
        self.counts = Counter()
        self._stack = []
        self.t0 = time.perf_counter()

    def install(self, stack):
        """Wraps every target and takes the warnings until `stack` closes;
        raises if a caller no longer looks a target up by the expected name,
        since its metrics would otherwise read 0."""
        for name, holders, attr in TARGETS:
            for holder in holders:
                current = vars(holder).get(attr)
                if current is None or inspect.unwrap(current) is not inspect.unwrap(_defined(name)):
                    raise RuntimeError(f"{holder.__name__}.{attr} is not {name}")
                _wrap(stack, holder, attr,
                      lambda fn, name=name: self._wrap(name, fn, OBSERVERS.get(name)))
        _wrap(stack, warnings, "showwarning", lambda _: self.on_warning)

    def _wrap(self, name, fn, observe):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                if observe is not None:
                    observe(args, kwargs, None, exc, counts)
                raise
            span[2] = clock()
            stack.pop()
            if observe is not None:
                observe(args, kwargs, result, None, counts)
            return result
        return traced

    def on_warning(self, message, category, filename, lineno, file=None, line=None):
        text = str(message)
        name = next((ev for prefix, ev in WARNING_EVENTS if text.startswith(prefix)),
                    "warnings.other")
        self.counts[name] += 1
        self.events.append((name, time.perf_counter(),
                            self._stack[-1] if self._stack else -1, text))

    def totals(self):
        """{prefix: (calls, seconds, self seconds)} over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0, 0.0] for name, _, _ in TARGETS}
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
        return out

    def write(self, path):
        """One JSON object a line: spans first, then warning events."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - self.t0,
                                     "end": end - self.t0, "parent": parent}) + "\n")
            for name, t, parent, text in self.events:
                fh.write(json.dumps({"event": name, "time": t - self.t0,
                                     "parent": parent, "message": text}) + "\n")


def span_cost(calls=20000, repeats=5):
    """Seconds one traced call adds to a plain call: the least of `repeats`
    timings of each, taken in turn, over `calls` calls of a function that
    does nothing."""
    def nothing():
        return None

    traced = Tracer()._wrap("nothing", nothing, None)
    best = {nothing: float("inf"), traced: float("inf")}
    for _ in range(repeats):
        for fn in best:
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            best[fn] = min(best[fn], time.perf_counter() - start)
    return (best[traced] - best[nothing]) / calls
