"""Span recording around the package's public functions.

A ``Tracer`` wraps each function named in ``TRACED`` and records one span
per call: name, start, end and the span that was open when the call began.
Wrapping replaces the function in every ``star_consensus`` module that
holds it, because modules such as ``optimality`` import ``k_max`` by name
and would otherwise call the unwrapped original.

A function missing from the package is skipped, so the benchmark keeps
running when a later version removes it.  Spans stay in memory (four flat
lists) until the benchmark writes them out.  ``layer_metrics`` turns the
spans of one pass into the per-layer metrics listed in README.md.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped by the tracer, grouped by layer.
TRACED = (
    ("cli", "main"),
    ("topology", "build"),
    ("weights", "scheme_matrix"),
    ("spectral", "k_max"),
    ("spectral", "theta_root_kcs"),
    ("spectral", "slem_closed_form"),
    ("optimality", "kcs_slem_curve"),
    ("optimality", "minimize_slem"),
    ("simulate", "monte_carlo"),
    ("simulate", "derive_trial_seed"),
    ("simulate", "quantize"),
    ("simulate", "run_trial"),
)


def _observe_minimize_slem(counters, fn, args, kwargs, result):
    counters["optimality.minimize_slem.iterations"] += result.iterations
    counters["optimality.minimize_slem.converged"] += int(result.converged)


def _observe_monte_carlo(counters, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    cap = bound.arguments["max_iters"]
    reached = round(result.psi * result.trials / 100.0)
    censored = result.trials - reached
    steps = cap * censored
    if reached:
        steps += round(result.eta * reached)
    counters["simulate.trials"] += result.trials
    counters["simulate.censored"] += censored
    counters["simulate.trial_steps"] += steps


OBSERVERS = {
    "optimality.minimize_slem": _observe_minimize_slem,
    "simulate.monte_carlo": _observe_monte_carlo,
}


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        """Drop recorded spans and counters (the wrappers stay installed)."""
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def _wrap(self, fn, name):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if observe is not None:
                observe(self.counters, fn, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every binding of each traced function in the package."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = [mod for key, mod in sys.modules.items()
                   if key == "star_consensus" or key.startswith("star_consensus.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"star_consensus.{mod_name}"], fn_name, None)
            if original is None:  # removed from the package: its metrics read 0
                continue
            wrapper = self._wrap(original, f"{mod_name}.{fn_name}")
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(start, end, parent):
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        pieces = sorted((max(start[k], lo), min(end[k], hi)) for k in kids)
        covered = 0.0
        cur_lo = cur_hi = None
        for s, e in pieces:
            if e <= s:
                continue
            if cur_hi is None or s > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = s, e
            else:
                cur_hi = max(cur_hi, e)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it
    (0 when n <= 10, where no percentile qualifies)."""
    return math.floor(100.0 * (1.0 - 10.0 / n)) if n > 10 else 0


def percentile(values, pct):
    """Linear-interpolation percentile of a non-empty sequence."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans and counters recorded since reset."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    durations = defaultdict(list)
    for nid, s, e, st in zip(tracer.name_id, tracer.start, tracer.end, selfs):
        name = tracer.names[nid]
        calls[name] += 1
        busy[name] += e - s
        self_s[name] += st
        durations[name].append(e - s)
    c = tracer.counters

    k_durs = durations["spectral.k_max"]
    ptail = tail_percentile(len(k_durs))
    mc_busy = busy["simulate.monte_carlo"]
    ms_iters = c["optimality.minimize_slem.iterations"]
    return {
        "spectral.k_max.calls": calls["spectral.k_max"],
        "spectral.k_max.busy_s": busy["spectral.k_max"],
        "spectral.k_max.p50_ms": 1e3 * percentile(k_durs, 50) if k_durs else 0.0,
        "spectral.k_max.ptail_ms": 1e3 * percentile(k_durs, ptail) if ptail else 0.0,
        "spectral.k_max.ptail_pct": ptail,
        "spectral.k_max.samples": len(k_durs),
        "spectral.theta_root_kcs.calls": calls["spectral.theta_root_kcs"],
        "spectral.theta_root_kcs.busy_s": busy["spectral.theta_root_kcs"],
        "spectral.slem_closed_form.calls": calls["spectral.slem_closed_form"],
        "spectral.slem_closed_form.busy_s": busy["spectral.slem_closed_form"],
        "optimality.kcs_slem_curve.busy_s": busy["optimality.kcs_slem_curve"],
        "optimality.minimize_slem.calls": calls["optimality.minimize_slem"],
        "optimality.minimize_slem.busy_s": busy["optimality.minimize_slem"],
        "optimality.minimize_slem.iterations": ms_iters,
        "optimality.minimize_slem.s_per_iter": _ratio(
            busy["optimality.minimize_slem"], ms_iters),
        "optimality.minimize_slem.converged_frac": _ratio(
            c["optimality.minimize_slem.converged"],
            calls["optimality.minimize_slem"]),
        "simulate.monte_carlo.calls": calls["simulate.monte_carlo"],
        "simulate.monte_carlo.busy_s": mc_busy,
        "simulate.monte_carlo.self_s": self_s["simulate.monte_carlo"],
        "simulate.derive_trial_seed.calls": calls["simulate.derive_trial_seed"],
        "simulate.derive_trial_seed.busy_s": busy["simulate.derive_trial_seed"],
        "simulate.quantize.calls": calls["simulate.quantize"],
        "simulate.quantize.busy_s": busy["simulate.quantize"],
        "simulate.run_trial.busy_s": busy["simulate.run_trial"],
        "simulate.trial_steps": c["simulate.trial_steps"],
        "simulate.s_per_trial_step": _ratio(mc_busy, c["simulate.trial_steps"]),
        "simulate.censored_frac": _ratio(c["simulate.censored"],
                                         c["simulate.trials"]),
        "weights.scheme_matrix.calls": calls["weights.scheme_matrix"],
        "weights.scheme_matrix.busy_s": busy["weights.scheme_matrix"],
        "topology.build.calls": calls["topology.build"],
        "topology.build.busy_s": busy["topology.build"],
        "cli.main.busy_s": busy["cli.main"],
        "cli.self_s": self_s["cli.main"],
    }
