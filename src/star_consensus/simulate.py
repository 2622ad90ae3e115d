"""Quantized distributed averaging: x(t+1) = Q(W x(t)).

States are quantized onto 2^b levels evenly spaced on [-1, 1] (endpoints
included, resolution delta = 2/(2^b - 1), 1 <= b <= 21) by either a
deterministic round-to-nearest rule (ties upward) or an unbiased
probabilistic rule that rounds up with probability equal to the
fractional position within the cell.  Monte Carlo sweeps aggregate
per-trial outcomes into the consensus statistics psi (percentage of
trials reaching consensus), eta (mean iterations over consensus trials),
and mu / rho (mean and variance of the consensus error normalized by
delta).

All randomness comes from a counter-based generator (splitmix64) keyed by
(master seed, trial index, draw index), so every trial consumes the same
draws under any batching or execution order.  Initial states take 53
random bits per node.  The probabilistic quantizer only compares a draw
with a fractional position, so its draws are 32-bit: one splitmix64 hash
per pair of nodes, whose low and high halves serve the pair's two nodes.
A node then rounds up with a probability within 2^-32 of its fractional
position.

Single-trial runs, trajectory replays and Monte Carlo sweeps share one
stepping loop.  After the first quantization it holds each trial's state
as exact level indices i (x = -1 + i * delta), so a step is the product
W i, a clip and a rounding, and values are formed only for consensus
values and recorded trajectories.  The product is a sparse sum over each
row's nonzeros in a fixed order and every other step acts on each trial
alone, so a trial's outcome and trajectory are bit-identical whatever the
batch it runs in and whatever the BLAS thread count.

The loop steps a row of cells: the weight matrices of one Monte Carlo
table row, which run the same trials from the same x(0) with the same
quantizer, seed and cap (``monte_carlo_row``; ``monte_carlo`` and
``run_trial`` are its one-cell case).  Draws are keyed by (trial seed,
stage, node) alone, so every cell consumes the same ones: each stage
hashes them once, for the trials that any cell still holds, and a cell
reads them as they are while it holds all of those trials, or gathers
its columns once it has dropped some.  A sweep's x(0) is built from the
trial seeds inside the loop, and quantized, once per row, so only its
per-trial means outlive the first stage.  Each cell keeps its own state,
compaction and outcomes, so its statistics are bit-identical to those of
a row of its own.

Some shortcuts keep the step short, and the record small, without
changing a bit.  The probabilistic rule takes one route, the two
operations ceil(y - u): its draws lie on the 2^-32 grid and every level
position y lies below 2^21, so y - u is exact or keeps its sign, and the
result is floor(y) + [u < y - floor(y)] (``_quantize_into``, the one
rounding entry).  A finished trial's column is only marked dead; the
live columns are gathered once a quarter of them are dead.  The draws
hash a key base, each trial's seed plus its pair keys, built once, so a
stage adds one offset to it.  After the first stage only the rows whose
rounded product can leave [0, 2^b - 1] are clipped: IEEE rounding is
monotone, so a row with nonnegative weights stays between 0 and its
rounded all-top sum (``_clip_rows``).  And a recorded trajectory is
written row by row into one buffer, cut to its rows in place, so it
costs its own size.
"""

from __future__ import annotations

import io
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .topology import Topology, _is_integer
from .weights import scheme_matrix

__all__ = [
    "QuantizerSpec",
    "TrialOutcome",
    "TrialStats",
    "run_trial",
    "monte_carlo",
    "monte_carlo_row",
    "derive_trial_seed",
    "initial_states",
]

_PHI = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_U64 = 2**64
# Master seeds are 64-bit; a larger one would alias the seed it equals
# mod 2^64.
MAX_SEED = _U64 - 1


def _mix64(z, tmp):
    """splitmix64 finalizer, in place on the uint64 array z.

    tmp is uint64 scratch of z's shape; z is returned.
    """
    for shift, mult in ((30, _M1), (27, _M2)):
        np.right_shift(z, shift, out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, mult, out=z)
    np.right_shift(z, 31, out=tmp)
    return np.bitwise_xor(z, tmp, out=z)


def _mixed(z):
    """splitmix64 finalizer of a copy of z."""
    z = np.array(z, dtype=np.uint64)
    return _mix64(z, np.empty_like(z))


def _check_seed(seed, what: str):
    """Refuse a seed that is not an integer (not a bool) in 0..MAX_SEED:
    it would be truncated or wrapped onto another seed's stream."""
    if not _is_integer(seed) or not 0 <= seed <= MAX_SEED:
        raise ValueError(f"{what} must be an integer in 0..{MAX_SEED}, "
                         f"got {seed!r}")


def derive_trial_seed(master_seed: int, trial_index):
    """Deterministic per-trial key; independent of all other trials.

    An int index gives an int; an integer array of indices gives the
    uint64 array of their keys.  master_seed and every trial index must
    be integers (not bools) in 0..MAX_SEED, and an array of indices must
    have an integer dtype; anything else raises ValueError, since it
    would be truncated or wrapped onto another seed or trial.
    """
    _check_seed(master_seed, "master seed")
    idx = np.asarray(trial_index)
    if not (0 <= trial_index <= MAX_SEED if _is_integer(trial_index)
            else idx.dtype.kind in "iu" and (idx >= 0).all()):
        raise ValueError(f"trial index must be an integer in 0..{MAX_SEED}, "
                         f"or an integer array of them, got {trial_index!r}")
    with np.errstate(over="ignore"):
        key = _mixed(np.uint64(master_seed) * _PHI)
        z = _mixed(key + idx.astype(np.uint64) * _M1)
    return int(z) if z.ndim == 0 else z


def _uniforms(trial_seeds, draw_indices):
    """U(0,1) doubles keyed by (trial seed, draw index); shapes broadcast."""
    seeds = np.asarray(trial_seeds, dtype=np.uint64)
    keys = np.asarray(draw_indices, dtype=np.uint64) * _PHI
    z = seeds + keys
    _mix64(z, np.empty_like(z))
    np.right_shift(z, 11, out=z)
    # below 2^53, so exact as int64, which converts to float faster
    return z.view(np.int64) * 2.0**-53


# Position of a uint64's low 32 bits among its two uint32 halves in memory.
_LOW_HALF = 0 if sys.byteorder == "little" else 1


def _pair_keys(n_nodes):
    """2p * PHI (mod 2^64) for the node pairs p of one trial, as (P, 1)."""
    pairs = (n_nodes + 1) // 2
    return (np.arange(0, 2 * pairs, 2, dtype=np.uint64) * _PHI)[:, None]


def _stage_draws_into(keys, stage, n_nodes, z, tmp, out):
    """Quantization draws of one stage: U[0,1) on a 2^-32 grid per node.

    Node pair p of a trial hashes counter stage * n_nodes + 2p under the
    trial's seed (the hash that would feed node 2p's 53-bit draw); node 2p
    takes the low 32 bits, node 2p + 1 the high 32 bits.  For odd n_nodes
    the last high half is unused.  keys is the (P, k) key base, the trial
    seeds (1, k) plus ``_pair_keys(n_nodes)`` mod 2^64, with P =
    ceil(n_nodes / 2); a stage adds one offset to it.  z and tmp are
    uint64 scratch of shape (P, k), and out is float (2P, k), written
    last, so tmp may share its memory; returns out.
    """
    P, k = z.shape
    # seed + (stage * n_nodes + 2p) * PHI, mod 2^64
    offset = np.uint64(stage * n_nodes * int(_PHI) % _U64)
    np.add(keys, offset, out=z)
    _mix64(z, tmp)
    halves = z.view(np.uint32).reshape(P, k, 2)
    if _LOW_HALF:
        halves = halves[:, :, ::-1]
    np.multiply(halves.transpose(0, 2, 1), 2.0**-32, out=out.reshape(P, 2, k))
    return out


# The most bits at which ceil(y - u), the kernel's one probabilistic
# rounding, is the rule floor(y) + [u < y - floor(y)] (see ``QuantizerSpec``).
MAX_BITS = 21


@dataclass(frozen=True)
class QuantizerSpec:
    """bits: level count is 2**bits on the fixed range [-1, 1], an integer
    (not a bool) with 1 <= bits <= MAX_BITS = 21; scheme: 'uniform' |
    'probabilistic'.

    The bound is that of the kernel's one probabilistic rounding,
    ceil(y - u) on draws u on the 2^-32 grid (``_quantize_into``).  At 22
    bits it would fail: y = 2^21 + 1/2 and u = 1/2 - 2^-32 must round up,
    but y - u rounds to 2^21.  The bound holds for both schemes."""

    bits: int
    scheme: str

    def __post_init__(self):
        if not _is_integer(self.bits) or not 1 <= self.bits <= MAX_BITS:
            raise ValueError(f"bits must be an integer in 1..{MAX_BITS}, "
                             f"got {self.bits!r}")
        if self.scheme not in ("uniform", "probabilistic"):
            raise ValueError(f"unknown quantizer scheme {self.scheme!r}")

    @property
    def level_count(self) -> int:
        return 2**self.bits

    @property
    def delta(self) -> float:
        return 2.0 / (2**self.bits - 1)


def _quantize_into(y, spec, u=None, clip=...):
    """Round level positions y = (x + 1)/delta in place to level indices.

    The part of y that the basic index ``clip`` selects (all of y by
    default; none if it is None) is clipped to [0, 2^b - 1] first; the
    caller vouches that the rest lies in that range.  Then y is rounded:
    uniform to floor(y + 1/2), probabilistic to floor(y) + [u < y -
    floor(y)], with draws u that are multiples of 2^-32, as the kernel's
    stage draws are (``_stage_draws_into``).  Returns y.

    The probabilistic rule is the two operations ceil(y - u), its one
    route.  With b <= MAX_BITS = 21, y <= 2^21 - 1, so for y >= 1 both y
    and u are multiples of ulp(y) <= 2^-32 and y - u is exact, and for
    y < 1 the rounded difference keeps the sign of the exact one and lies
    in (-1, 1).  Index 0 may come out as -0.0, which compares equal to
    0.0 and forms the same value.
    """
    top = float(spec.level_count - 1)
    if clip is not None:
        view = y[clip]
        np.clip(view, 0.0, top, out=view)
    if spec.scheme == "uniform":
        np.add(y, 0.5, out=y)
        return np.floor(y, out=y)
    np.subtract(y, u, out=y)
    return np.ceil(y, out=y)


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


def _initial_states(trial_seeds, n_nodes):
    """Initial node values of the trials with these keys, uniform on
    [-1, 1] (draw indices 0..N-1): one row of n_nodes per key."""
    seeds = np.asarray(trial_seeds, dtype=np.uint64)[..., None]
    return 2.0 * _uniforms(seeds, np.arange(n_nodes, dtype=np.uint64)) - 1.0


def initial_states(master_seed: int, trial_index: int, n_nodes: int) -> np.ndarray:
    """Initial node values, uniform on [-1, 1] (draw indices 0..N-1).
    n_nodes must be an integer >= 1 (not a bool); anything else raises
    ValueError."""
    if not _is_integer(n_nodes) or n_nodes < 1:
        raise ValueError(f"n_nodes must be an integer >= 1, got {n_nodes!r}")
    return _initial_states(derive_trial_seed(master_seed, trial_index), n_nodes)


# The kernel gathers its active columns once at least this share of them
# belong to finished trials.
_COMPACT_DEAD_SHARE = 0.25

# A recorded trajectory reserves up to this many bytes at once; the pages
# it never writes are never touched, and a longer one grows in place.
_RECORD_RESERVE_BYTES = 1 << 26


def _clip_rows(Wc, top):
    """The rows that a stage after the first clips: the slice of rows of
    the CSR matrix Wc from the first to the last whose product with level
    indices in [0, top] can leave that range (one contiguous block of
    node-major rows, so a single clip call), or None if no row can.

    IEEE rounding is monotone, so a row with nonnegative weights, summed
    in its stored order, is nondecreasing in every index: its rounded sum
    lies between 0 (at i = 0) and its rounded all-top sum Wc @ full(N,
    top), the same product in the same order.  Such a row can leave the
    range only if that sum exceeds top; a row with a negative weight can
    leave it anyway.
    """
    N = Wc.shape[0]
    leave = Wc @ np.full(N, top) > top
    row_of = np.repeat(np.arange(N), np.diff(Wc.indptr))
    leave[row_of[Wc.data < 0]] = True
    rows = np.flatnonzero(leave)
    return slice(rows[0], rows[-1] + 1) if rows.size else None


class _Cell:
    """One weight matrix of a row: its state, one column per trial it still
    holds (``active``; a finished trial's column is only marked dead in
    ``live`` until the next compaction), where those columns sit among the
    row's (``pos``, None while it holds all of them), its outcomes and its
    recorded trajectory."""

    def __init__(self, Wc, clip, x, n_trials, max_iters):
        self.Wc = Wc
        self.clip = clip
        self.x = x
        self.active = np.arange(n_trials)
        self.live = np.ones(n_trials, dtype=bool)
        self.pos = None
        self.reached = np.zeros(n_trials, dtype=bool)
        self.iters = np.full(n_trials, max_iters, dtype=np.int64)
        self.values = np.full(n_trials, np.nan)
        self.traj = None


def _batch_run(Ws, x0_batch, spec, max_iters, trial_seeds, record=False):
    """Run many trials in lockstep under each weight matrix of Ws, a row of
    cells that share the trials, the quantizer and the cap.  x0_batch:
    (trials, N) raw states, or None for each trial's ``initial_states``,
    which are then built here from trial_seeds, so that no caller holds
    them past stage 1.

    Returns, per cell, (reached, iterations, values, errors) arrays, where
    errors are the consensus errors in level steps, (value - mean x(0)) /
    delta, NaN where not reached (each mean is taken over its trial's row
    of the trial-major x(0), the order of a one-trial mean), and with
    ``record`` also the trajectory of its trial 0: its state after every
    stage it takes part in, x(0) after quantization, then each update, as
    iterations[0] + 1 rows.  Stage s = 1 quantizes x(0), stage s = t+1
    quantizes update t; the draws of stage s use counters s*N .. s*N + N-1
    of the trial (see ``_stage_draws_into``), clear of the initial states'
    0..N-1, so a single trial and any batch consume identical random
    streams.  max_iters must be an integer >= 0 (not a bool).

    The state is held node-major, one column per active trial, as exact
    level indices i, x = -1 + i * delta: x(0) is mapped by (x + 1)/delta,
    each update is W i, consensus is exact equality of a column's indices,
    and values are formed only for consensus values and recorded rows.
    Each update is the CSR product of W, which sums every row's nonzeros
    in stored column order; the draws, the quantizer and the consensus
    check are elementwise or per column.  So no trial's arithmetic depends
    on the other trials, the other cells or the BLAS thread count.

    Stage 1 does not depend on W, so the row quantizes x(0) once and every
    cell starts from that state.  After it, each stage hashes its draws
    once, for the row's columns: the trials that any cell still holds.  A
    cell that holds all of them reads the draws as they are; one that has
    compacted gathers its columns (``np.take`` at ``pos``).  The hash
    scratch, the draw buffer and the check scratch are allocated once,
    for all trials, and shared by the cells, which use their leading
    elements; each cell keeps its own state and outcomes.

    The recorded rows are formed straight into one float64 buffer, with
    the same two operations as a consensus value.  It reserves
    min(max_iters + 1, _RECORD_RESERVE_BYTES worth of) rows, grows in
    place by doubling (up to max_iters + 1) only past that, and is cut in
    place to its rows at the end, so the record costs its own size and a
    huge cap on a short trial allocates no more than the reserve, whose
    unwritten pages are never touched.

    The probabilistic draws hash a (P, columns) key base, seed plus pair
    key, built once and gathered when the row's columns shrink; each
    stage adds one offset.  The probabilistic rule rounds the stage draws,
    which lie on the 2^-32 grid, by ceil(y - u) alone, exact at 1..21 bits
    (see ``_quantize_into``).  Stage 1 clips every row, as x(0) may lie
    anywhere.  After it every index lies in [0, 2^b - 1], so later stages
    clip only the block of rows that ``_clip_rows`` gives, whose rounded
    product can leave that range (on the optimal stars, the hub row
    alone, for its negative self-weight).  A row left unclipped holds the
    value the clip would give, except that an index 0 may stay -0.0,
    which compares and forms values as 0.0 does.

    Compaction is deferred: a finished trial's column is only marked dead
    in ``live``, and a cell gathers its columns once at least a quarter of
    them are dead (``_COMPACT_DEAD_SHARE``).  Dead columns keep stepping,
    but nothing reads them: ``done &= live`` keeps a trial from finishing
    twice, and trial 0's record stops when it finishes.
    """
    if not _is_integer(max_iters) or max_iters < 0:
        raise ValueError(f"max_iters must be an integer >= 0, got {max_iters!r}")
    from scipy.sparse import csr_matrix  # only the simulator needs it

    x0 = (_initial_states(trial_seeds, len(Ws[0])) if x0_batch is None
          else np.asarray(x0_batch, dtype=float))
    n_trials, N = x0.shape
    means = x0.mean(axis=1)  # a node-major mean would sum in another order
    x = x0.T.copy()  # (N, trials)
    del x0  # only its means outlive stage 1
    probabilistic = spec.scheme == "probabilistic"
    delta = spec.delta
    pairs = (N + 1) // 2
    flags = np.empty(N * n_trials, dtype=bool)
    if probabilistic:
        keys = (np.asarray(trial_seeds, dtype=np.uint64)[None, :]
                + _pair_keys(N))
        z = np.empty(pairs * n_trials, np.uint64)
        u = np.empty(2 * pairs * n_trials)
        # the hash's scratch; the draws are written only after the hash
        tmp = u.view(np.uint64)

    def lead(buf, rows, k):
        return buf[:rows * k].reshape(rows, k)

    def stage_draws(stage):
        """The draws of one stage for the row's columns, (N, columns)."""
        k = keys.shape[1]
        draws = lead(u, 2 * pairs, k)
        _stage_draws_into(keys, stage, N, lead(z, pairs, k),
                          lead(tmp, pairs, k), draws)
        return draws[:N]

    def quantize_stage(y, draws, pos, clip):
        if probabilistic and pos is not None:
            draws = np.take(draws, pos, axis=1)
        _quantize_into(y, spec, draws, clip)

    def record_row(c, t):
        if c.traj is None:
            c.traj = np.empty((min(max_iters + 1,
                                   max(1, _RECORD_RESERVE_BYTES // (8 * N))), N))
        elif t == len(c.traj):
            c.traj.resize((min(2 * t, max_iters + 1), N), refcheck=False)
        row = c.traj[t]
        # i * delta - 1.0, as a consensus value is formed
        np.multiply(c.x[:, 0], delta, out=row)
        np.subtract(row, 1.0, out=row)

    def check(c, t):
        """Record the cell's trials that reached consensus at t; returns
        whether the cell compacted."""
        x = c.x
        same = lead(flags, N, x.shape[1])
        np.equal(x, x[:1], out=same)
        done = same.all(axis=0)
        done &= c.live
        if not done.any():
            return False
        finished = c.active[done]
        c.reached[finished] = True
        c.iters[finished] = t
        c.values[finished] = x[0, done] * delta - 1.0
        c.live &= ~done
        n_live = np.count_nonzero(c.live)
        if c.live.size - n_live < _COMPACT_DEAD_SHARE * c.live.size:
            return False
        keep = c.live
        c.active = c.active[keep]
        c.pos = np.flatnonzero(keep) if c.pos is None else c.pos[keep]
        c.x = x[:, keep]
        c.live = np.ones(n_live, dtype=bool)
        return True

    def regroup(running):
        """Shrink the row's columns to the trials the cells still hold,
        once every cell has compacted."""
        nonlocal keys
        if any(c.pos is None for c in running):
            return
        held = np.zeros(keys.shape[1], dtype=bool)
        for c in running:
            held[c.pos] = True
        keys = keys[:, held]
        rank = np.cumsum(held) - 1
        for c in running:
            c.pos = None if c.pos.size == keys.shape[1] else rank[c.pos]

    np.add(x, 1.0, out=x)
    np.divide(x, delta, out=x)  # level units
    quantize_stage(x, stage_draws(1) if probabilistic else None, None, ...)
    top = float(spec.level_count - 1)
    cells = [_Cell(Wc, _clip_rows(Wc, top), x, n_trials, max_iters)
             for Wc in (csr_matrix(np.asarray(W, dtype=float)) for W in Ws)]
    del x  # the cells hold it until their first update
    compacted = False
    for c in cells:
        if record:
            record_row(c, 0)
        compacted |= check(c, 0)
    running, t = cells, 0
    while True:
        if compacted:
            running = [c for c in running if c.active.size]
            if probabilistic:
                regroup(running)
        if not running or t == max_iters:
            break
        t += 1
        draws = stage_draws(t + 1) if probabilistic else None
        compacted = False
        for c in running:
            c.x = c.Wc @ c.x
            quantize_stage(c.x, draws, c.pos, c.clip)
            if record and not c.reached[0]:
                record_row(c, t)
            compacted |= check(c, t)
    if record:
        for c in cells:
            c.traj.resize((int(c.iters[0]) + 1, N), refcheck=False)
    return [(c.reached, c.iters, c.values, (c.values - means) / delta)
            + ((c.traj,) if record else ()) for c in cells]


def run_trial(W, x0, spec: QuantizerSpec, max_iters: int = 10_000,
              trial_seed: int = 0, return_trajectory: bool = False):
    """Single quantized-consensus trial from raw initial states x0.

    x(0) is quantized before the first update; the iteration stops when
    all components are exactly equal on the level grid, or at max_iters
    (counted as non-consensus).  ``iterations`` is the number of update
    steps taken.  max_iters must be an integer >= 0 (not a bool), trial_seed
    a seed under the master-seed rule of ``derive_trial_seed`` and x0 must
    hold one state per node of W; anything else raises ValueError.

    With ``return_trajectory``, the states after every stage come back as
    an (iterations + 1, N) array, written row by row into one buffer that
    is cut to those rows in place: the record costs its own size.  A
    large max_iters on a trial that stops early reserves at most 64 MiB
    of address space, of which only the written rows are touched.
    """
    _check_seed(trial_seed, "trial seed")
    x0 = np.asarray(x0, dtype=float)
    n = np.shape(W)[0]
    if x0.shape != (n,):
        raise ValueError(f"x0 has shape {x0.shape}, but W has order {n}: "
                         f"x0 needs one state per node")
    run = _batch_run([W], x0[None, :], spec, max_iters,
                     np.array([trial_seed], dtype=np.uint64),
                     return_trajectory)[0]
    reached, iters = bool(run[0][0]), int(run[1][0])
    outcome = (TrialOutcome(True, iters, float(run[2][0]), float(run[3][0]))
               if reached else TrialOutcome(False, iters, None, None))
    return (outcome, run[4]) if return_trajectory else outcome


def monte_carlo_row(topology: Topology, weightings: Sequence[str],
                    spec: QuantizerSpec, trials: int, master_seed: int,
                    max_iters: int = 10_000) -> list[TrialStats]:
    """Aggregate consensus statistics over independent trials, one
    ``TrialStats`` per weighting, in the order given.

    The weightings form one row: they run the same trials from the same
    x(0) with the same quantizer, seed and cap, in lockstep, and share
    each stage's draws (see ``_batch_run``).  Each weighting's statistics
    are the same, bit for bit, as from a row of its own.  eta, mu, rho
    are computed only over trials that reached consensus (rho is the
    population variance).  Per-trial randomness is keyed by (master_seed,
    trial index), so every trial draws the same stream whatever the trial
    count.  trials must be an integer >= 1 (not a bool), and at least one
    weighting is needed.
    """
    if not _is_integer(trials) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if not weightings:
        raise ValueError("monte_carlo_row needs at least one weighting")
    matrices = [scheme_matrix(topology, w)[1] for w in weightings]
    runs = _batch_run(matrices, None, spec, max_iters,
                      derive_trial_seed(master_seed, np.arange(trials)))
    return [_trial_stats(reached, iters, errors, trials, master_seed)
            for reached, iters, _, errors in runs]


def _trial_stats(reached, iters, errors, trials, seed):
    n_ok = int(reached.sum())
    psi = 100.0 * n_ok / trials
    if n_ok == 0:
        return TrialStats(psi, float("nan"), float("nan"), float("nan"),
                          trials, seed)
    ok_iters = iters[reached]
    errs = errors[reached]
    return TrialStats(psi=psi, eta=float(ok_iters.mean()),
                      mu=float(errs.mean()), rho=float(np.var(errs)),
                      trials=trials, seed=seed)


def monte_carlo(topology: Topology, weighting: str, spec: QuantizerSpec,
                trials: int, master_seed: int,
                max_iters: int = 10_000) -> TrialStats:
    """``monte_carlo_row`` for one weighting."""
    return monte_carlo_row(topology, [weighting], spec, trials, master_seed,
                           max_iters)[0]


def trajectory_to_csv(traj: np.ndarray) -> str:
    buf = io.StringIO()
    n = traj.shape[1]
    buf.write("t," + ",".join(f"node{i}" for i in range(n)) + "\n")
    for t, row in enumerate(traj):
        buf.write(str(t) + "," + ",".join(f"{v:.17g}" for v in row) + "\n")
    return buf.getvalue()
