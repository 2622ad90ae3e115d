"""Quantized distributed averaging: x(t+1) = Q(W x(t)).

States are quantized onto 2^b levels evenly spaced on [-1, 1] (endpoints
included, resolution delta = 2/(2^b - 1)) by either a deterministic
round-to-nearest rule (ties upward) or an unbiased probabilistic rule
that rounds up with probability equal to the fractional position within
the cell.  Monte Carlo sweeps aggregate per-trial outcomes into the
consensus statistics psi (percentage of trials reaching consensus), eta
(mean iterations over consensus trials), and mu / rho (mean and variance
of the consensus error normalized by delta).

All randomness comes from a counter-based generator keyed by
(master seed, trial index, draw index), so every trial consumes the same
draws under any batching or execution order.  Single-trial runs,
trajectory replays and Monte Carlo sweeps share one stepping loop.  A
trial inside a larger batch can still differ from its single-trial run
in the last bit of the matrix product (BLAS may sum a multi-row product
in another order), which changes its outcome only if that moves a
quantizer decision; exact batch independence needs a fixed-order product.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .topology import Topology
from .weights import scheme_matrix

__all__ = [
    "QuantizerSpec",
    "TrialOutcome",
    "TrialStats",
    "quantize",
    "run_trial",
    "monte_carlo",
    "derive_trial_seed",
    "initial_states",
]

_PHI = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _mix64(z):
    """splitmix64 finalizer (vectorized over uint64 arrays)."""
    z = np.asarray(z, dtype=np.uint64)
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def derive_trial_seed(master_seed: int, trial_index):
    """Deterministic per-trial key; independent of all other trials.

    An int index gives an int; an integer array of indices gives the
    uint64 array of their keys.
    """
    with np.errstate(over="ignore"):
        k = _mix64(np.uint64(master_seed & (2**64 - 1)) * _PHI)
        z = _mix64(k + np.asarray(trial_index, dtype=np.uint64) * _M1)
    return int(z) if z.ndim == 0 else z


def _uniforms(trial_seeds, draw_indices):
    """U(0,1) doubles keyed by (trial seed, draw index); shapes broadcast."""
    with np.errstate(over="ignore"):
        z = _mix64(np.uint64(trial_seeds) + np.uint64(draw_indices) * _PHI)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


@dataclass(frozen=True)
class QuantizerSpec:
    """bits: level count is 2**bits on the fixed range [-1, 1];
    scheme: 'uniform' | 'probabilistic' | None (no quantization)."""

    bits: int
    scheme: str | None

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("bits must be >= 1")
        if self.scheme not in ("uniform", "probabilistic", None):
            raise ValueError(f"unknown quantizer scheme {self.scheme!r}")

    @property
    def level_count(self) -> int:
        return 2**self.bits

    @property
    def delta(self) -> float:
        return 2.0 / (2**self.bits - 1)

    def levels(self) -> np.ndarray:
        return -1.0 + self.delta * np.arange(self.level_count)


def quantize(x, spec: QuantizerSpec, u=None):
    """Map x onto the level grid (values outside [-1, 1] are clipped).

    Uniform: nearest level, the cell midpoint itself rounding up.
    Probabilistic: upper level with probability equal to the fractional
    position inside the cell (unbiased).  ``u`` supplies the uniform
    draws for the probabilistic rule, one per element of x, and is
    required for it.
    """
    scalar = np.isscalar(x)
    x = np.clip(np.asarray(x, dtype=float), -1.0, 1.0)
    if spec.scheme is None:
        return float(x) if scalar else x
    p = (x + 1.0) / spec.delta  # position in level units, in [0, 2^b - 1]
    if spec.scheme == "uniform":
        idx = np.floor(p + 0.5)
    else:
        lo = np.floor(p)
        frac = p - lo
        if u is None:
            raise ValueError("probabilistic quantization needs uniform draws u")
        idx = lo + (np.asarray(u) < frac)
    idx = np.clip(idx, 0, spec.level_count - 1)
    out = -1.0 + spec.delta * idx
    return float(out) if scalar else out


@dataclass(frozen=True)
class TrialOutcome:
    consensus_reached: bool
    iterations: int
    consensus_value: float | None
    normalized_error: float | None


@dataclass(frozen=True)
class TrialStats:
    psi: float
    eta: float
    mu: float
    rho: float
    trials: int
    seed: int


def initial_states(master_seed: int, trial_index: int, n_nodes: int) -> np.ndarray:
    """Initial node values, uniform on [-1, 1] (draw indices 0..N-1)."""
    ts = derive_trial_seed(master_seed, trial_index)
    return 2.0 * _uniforms(np.uint64(ts), np.arange(n_nodes, dtype=np.uint64)) - 1.0


_UNQUANTIZED_TOL = 1e-9


def _batch_run(W, x0_batch, spec, max_iters, trial_seeds, record=None):
    """Run many trials in lockstep.  x0_batch: (trials, N) raw states.

    Returns (reached, iterations, values) arrays.  Draw indices: stage
    s = 1 quantizes x(0), stage s = t+1 supplies the quantization draws
    of update t, always N per stage, so a single trial and any batch
    consume identical random streams.  If ``record`` is a list, it
    receives a copy of trial 0's state after every stage it takes part
    in: x(0) after quantization, then each update.
    """
    W = np.asarray(W, dtype=float)
    n_trials, N = x0_batch.shape
    seeds = np.uint64(trial_seeds)[:, None]
    node_idx = np.arange(N, dtype=np.uint64)[None, :]

    def stage_u(stage, rows):
        draws = np.uint64(stage) * np.uint64(N) + node_idx
        return _uniforms(seeds[rows], draws)

    quantized = spec.scheme is not None
    x = x0_batch.copy()
    rows_all = np.arange(n_trials)
    if quantized:
        u = stage_u(1, rows_all) if spec.scheme == "probabilistic" else None
        x = quantize(x, spec, u=u)
    if record is not None:
        record.append(x[0].copy())

    reached = np.zeros(n_trials, dtype=bool)
    iters = np.full(n_trials, max_iters, dtype=np.int64)
    values = np.full(n_trials, np.nan)

    def check(rows, xs, t):
        if quantized:
            done = np.all(xs == xs[:, :1], axis=1)
        else:
            mean = xs.mean(axis=1, keepdims=True)
            done = np.max(np.abs(xs - mean), axis=1) <= _UNQUANTIZED_TOL
        hit = rows[done]
        reached[hit] = True
        iters[hit] = t
        values[hit] = xs[done, 0] if quantized else xs[done].mean(axis=1)
        return rows[~done], xs[~done]

    active, xa = check(rows_all, x, 0)
    t = 0
    while active.size and t < max_iters:
        t += 1
        xa = xa @ W.T
        if quantized:
            u = stage_u(t + 1, active) if spec.scheme == "probabilistic" else None
            xa = quantize(xa, spec, u=u)
        if record is not None and active[0] == 0:
            record.append(xa[0].copy())
        active, xa = check(active, xa, t)
    return reached, iters, values


def run_trial(W, x0, spec: QuantizerSpec, max_iters: int = 10_000,
              trial_seed: int = 0, return_trajectory: bool = False):
    """Single quantized-consensus trial from raw initial states x0.

    x(0) is quantized before the first update; the iteration stops when
    all components are exactly equal on the level grid (or, without a
    quantizer, within 1e-9 of the mean), or at max_iters (counted as
    non-consensus).  ``iterations`` is the number of update steps taken.
    """
    x0 = np.asarray(x0, dtype=float)
    traj = [] if return_trajectory else None
    reached, iters, values = _batch_run(
        W, x0[None, :], spec, max_iters,
        np.array([trial_seed], dtype=np.uint64), traj)
    outcome = _make_outcome(bool(reached[0]), int(iters[0]), float(values[0]),
                            x0, spec)
    return (outcome, np.array(traj)) if return_trajectory else outcome


def _make_outcome(reached, iters, value, x0_raw, spec):
    if not reached:
        return TrialOutcome(False, iters, None, None)
    if spec.scheme is None:
        return TrialOutcome(True, iters, value, 0.0)
    err = (value - float(np.mean(x0_raw))) / spec.delta
    return TrialOutcome(True, iters, value, err)


def monte_carlo(topology: Topology, weighting: str, spec: QuantizerSpec,
                trials: int, master_seed: int,
                max_iters: int = 10_000) -> TrialStats:
    """Aggregate consensus statistics over independent trials.

    eta, mu, rho are computed only over trials that reached consensus
    (rho is the population variance).  Per-trial randomness is keyed by
    (master_seed, trial index), so every trial draws the same stream
    whatever the trial count.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    graph, W = scheme_matrix(topology, weighting)
    N = graph.node_count
    seeds = derive_trial_seed(master_seed, np.arange(trials))
    x0 = 2.0 * _uniforms(seeds[:, None],
                         np.arange(N, dtype=np.uint64)[None, :]) - 1.0
    reached, iters, values = _batch_run(W, x0, spec, max_iters, seeds)

    n_ok = int(reached.sum())
    psi = 100.0 * n_ok / trials
    if n_ok == 0:
        return TrialStats(psi, float("nan"), float("nan"), float("nan"),
                          trials, master_seed)
    ok_iters = iters[reached]
    if spec.scheme is None:
        errs = np.zeros(n_ok)
    else:
        errs = (values[reached] - x0[reached].mean(axis=1)) / spec.delta
    return TrialStats(psi=psi, eta=float(ok_iters.mean()),
                      mu=float(errs.mean()), rho=float(np.var(errs)),
                      trials=trials, seed=master_seed)


def trajectory_to_csv(traj: np.ndarray) -> str:
    buf = io.StringIO()
    n = traj.shape[1]
    buf.write("t," + ",".join(f"node{i}" for i in range(n)) + "\n")
    for t, row in enumerate(traj):
        buf.write(str(t) + "," + ",".join(f"{v:.17g}" for v in row) + "\n")
    return buf.getvalue()
