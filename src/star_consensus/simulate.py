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
values, by ``QuantizerSpec.values``.  A recorded trajectory holds level
indices too, in the narrowest unsigned dtype that holds 2^b - 1 (uint8 up
to 8 bits, uint16 up to 16, uint32 up to 21), and ``spec.values`` forms
its values with the same two operations.  The product is a sparse sum
over each row's nonzeros in a fixed order and every other step acts on
each trial alone, so a trial's outcome and trajectory are bit-identical
whatever the batch it runs in and whatever the BLAS thread count.

The loop steps a row of cells: the weight matrices of one Monte Carlo
table row, which run the same trials from the same x(0) with the same
quantizer, seed and cap (``monte_carlo_row``; ``monte_carlo`` and
``run_trial`` are its one-cell case).  The row owns one set of trial
columns, and every running cell steps all of them.  Draws are keyed by
(trial seed, stage, node) alone, so every cell consumes the same ones:
each stage hashes them once, for the row's columns, and every cell reads
them as they are.  A sweep's x(0) is built from the trial seeds inside
the loop, once per row, and the loop starts at t = 0: there each cell's
step maps the shared x(0) to level units, rounds it on the row's stage-1
draws and records and checks it as at every other t, so only x(0)'s
per-trial means outlive that stage.  Each cell keeps its own state and
outcomes, and a trial's column leaves the row only once no running cell
holds it, so a cell's statistics are bit-identical to those of a row of
its own.

A Monte Carlo row runs its trials in contiguous blocks, one per CPU the
process may run on (``os.sched_getaffinity``, which ``taskset``
restricts), capped at the trial count: the caller steps the first block
and a forked child each other, which pickles its per-trial outcomes back
through a pipe, and the caller joins each cell's outcomes in trial order
before it forms the statistics (``_run_blocks``).  A trial's outcome does
not depend on its block, so the statistics depend on neither the BLAS
thread count nor the CPU count.  The row runs in-process where os.fork or
os.sched_getaffinity is missing (Windows, macOS), with one usable CPU,
and in a process that holds other threads, a multi-threaded BLAS pool
among them (``_alone``): a child forked from such a process can deadlock,
and Python 3.12 and later warn of it.  So a run forks only at one BLAS
thread (OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS set to
1 before it starts).  The gain is measured at two usable CPUs only; a
fork costs milliseconds, so a row of a few trials is slower split.

Some shortcuts keep the step short, and the record small, without
changing a bit.  The probabilistic rule takes one route, the two
operations ceil(y - u): its draws lie on the 2^-32 grid and every level
position y lies below 2^21, so y - u is exact or keeps its sign, and the
result is floor(y) + [u < y - floor(y)] (``_rounding``, the one
rounding entry, which resolves the level count and the scheme once per
run).  A finished trial's column is only marked dead in its cell, and
a cell that has finished every trial stops stepping; at a stage where
some trial finished, the row drops the columns that no running cell
holds once they are a quarter of its columns.
The check records a stage's finished trials at their indices, from one
nonzero() of its consensus flags, and counts the cell's live columns as
they die, so a stage in which some trials finish costs work on those
trials alone; the flags are masked with the live columns only once the
cell holds a dead one.  The draws hash a key base, each trial's seed
plus its pair keys, built once, so a stage adds one offset to it.  After
the first stage only the rows whose rounded product can leave [0, 2^b - 1]
are clipped: IEEE rounding is monotone, so a row with nonnegative
weights stays between 0 and its rounded all-top sum (``_clip_rows``),
and those rows are clipped by the two ufuncs maximum and minimum,
without ``np.clip``'s Python wrapper.
The consensus check compares adjacent rows, x[1:] == x[:-1], into a
buffer of one row less than the state, and ANDs them down each column:
== is transitive on the NaN-free indices (and -0.0 == 0.0), so that is
the all-equal test without broadcasting the first row.  The views of the
draw buffers are built once per column count.  And a recorded trajectory
is appended row by row to one growable buffer of its index dtype, so it
costs about its own size: one byte per node and stage at 8 bits.

Where a step's time goes, at 151 nodes by 200 columns on one thread of
a 2-core x86-64 host (numpy 2.4, scipy 1.17; the parts timed alone): the
hash, key add plus splitmix64, about 38 us; casting its uint32 halves to
the draws, 27 us; the CSR product, 27 us, of which scipy's csr_matvecs
is 23 us; the rounding, 13 us; the consensus check, 10 us; the clip of
the hub row, 1.3 us.  A whole step takes about 129 us.  The product's
dispatch and the zero-filled result it allocates (about 4 us) stay:
writing into a reused buffer would need scipy's private ``_sparsetools``
module.  A table row runs 7 to 9 nodes by 10,000 columns; at 7 by
10,000 (table 3's star, 8-bit probabilistic, on the same host), the
hash takes about 67 us and the cast 48 us, once per stage for the row's
four cells, and each cell's CSR product 50 us, its rounding 30 us (the
hub clip 7 us of it) and its consensus check 12 us, or 16 us at a stage
where 100 of its trials finish.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from .spectral import _check_weight_matrix, slem
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
# splitmix64's shift counts, as uint64 scalars: a Python int shift count
# would be converted on every call.
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)
_U64 = 2**64
# Master seeds are 64-bit; a larger one would alias the seed it equals
# mod 2^64.
MAX_SEED = _U64 - 1
# The largest iteration cap: the kernel holds each trial's iteration count
# as an int64.
MAX_ITERS = 2**63 - 1


def _mix64(z, tmp):
    """splitmix64 finalizer, in place on the uint64 array z.

    tmp is uint64 scratch of z's shape; z is returned.
    """
    for shift, mult in ((_S30, _M1), (_S27, _M2)):
        np.right_shift(z, shift, out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, mult, out=z)
    np.right_shift(z, _S31, out=tmp)
    return np.bitwise_xor(z, tmp, out=z)


def _mixed(z):
    """splitmix64 finalizer of a copy of z."""
    z = np.array(z, dtype=np.uint64)
    return _mix64(z, np.empty_like(z))


def _check_max_iters(max_iters):
    """Refuse a cap that is not an integer (not a bool) in 0..MAX_ITERS."""
    if not _is_integer(max_iters) or not 0 <= max_iters <= MAX_ITERS:
        raise ValueError(f"max_iters must be an integer in 0..{MAX_ITERS}, "
                         f"got {max_iters!r}")


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
    ceil(y - u) on draws u on the 2^-32 grid (``_rounding``).  At 22
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

    def values(self, levels):
        """The states -1 + i * delta of level indices i (an integer or float
        array, or a scalar), formed as i * delta - 1.0: the one map from
        index to value, so a consensus value and a recorded state formed
        from the same index have the same bits."""
        return levels * self.delta - 1.0


def _rounding(spec):
    """The kernel's rounding under spec, as a function round_into(y, u,
    clip) -> y, with the level count and the scheme resolved once: the
    kernel resolves them once per run.

    round_into rounds level positions y = (x + 1)/delta in place to level
    indices.  The part of y that the basic index ``clip`` selects (all of
    y for ``...``; none if it is None) is clipped to [0, 2^b - 1] first;
    the caller vouches that the rest lies in that range.  Then y is
    rounded: uniform to floor(y + 1/2), probabilistic to floor(y) +
    [u < y - floor(y)], with draws u that are multiples of 2^-32, as the
    kernel's stage draws are (``_stage_draws_into``).  It returns y.

    The probabilistic rule is the two operations ceil(y - u), its one
    route.  With b <= MAX_BITS = 21, y <= 2^21 - 1, so for y >= 1 both y
    and u are multiples of ulp(y) <= 2^-32 and y - u is exact, and for
    y < 1 the rounded difference keeps the sign of the exact one and lies
    in (-1, 1).  Index 0 may come out as -0.0, which compares equal to
    0.0 and forms the same value.
    """
    top = float(spec.level_count - 1)
    uniform = spec.scheme == "uniform"

    def round_into(y, u, clip):
        if clip is not None:
            view = y[clip]
            np.maximum(view, 0.0, out=view)
            np.minimum(view, top, out=view)
        if uniform:
            np.add(y, 0.5, out=y)
            return np.floor(y, out=y)
        np.subtract(y, u, out=y)
        return np.ceil(y, out=y)

    return round_into


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


# The kernel drops the row's columns that no running cell holds once they
# are at least this share of them.
_COMPACT_DEAD_SHARE = 0.25


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
    """One weight matrix of a row: its state over the row's columns, which
    of them hold a trial it has not finished (``live``; ``n_live`` counts
    them), its outcomes and its recorded trajectory."""

    def __init__(self, Wc, clip, x, n_trials, max_iters, typecode):
        self.Wc = Wc
        self.clip = clip
        self.x = x
        self.live = np.ones(n_trials, dtype=bool)
        self.n_live = n_trials
        self.reached = np.zeros(n_trials, dtype=bool)
        self.iters = np.full(n_trials, max_iters, dtype=np.int64)
        self.values = np.full(n_trials, np.nan)
        self.traj = array(typecode)


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
    iterations[0] + 1 rows of level indices in the index dtype (see
    ``run_trial``).  Stage s = 1 quantizes x(0), stage s = t+1
    quantizes update t; the draws of stage s use counters s*N .. s*N + N-1
    of the trial (see ``_stage_draws_into``), clear of the initial states'
    0..N-1, so a single trial and any batch consume identical random
    streams.  The caller has checked max_iters (``_check_max_iters``).

    The state is held node-major, one column per trial of the row, as exact
    level indices i, x = -1 + i * delta: x(0) is mapped by (x + 1)/delta,
    each update is W i, consensus is exact equality of a column's indices,
    tested as equality of each pair of adjacent rows (== is transitive on
    the NaN-free indices; a one-node column compares no pair and is at
    consensus), and values are formed, by ``spec.values``, only for
    consensus values.
    Each update is the CSR product of W, which sums every row's nonzeros
    in stored column order; the draws, the quantizer and the consensus
    check are elementwise or per column.  So no trial's arithmetic depends
    on the other trials, the other cells or the BLAS thread count.

    One loop runs every stage, t = 0 included.  A cell's step at t = 0 is
    (x + 1)/delta on the row's shared raw x(0), which no cell holds after
    it, and at t >= 1 it is W i; either is then rounded, recorded and
    checked alike.  The row owns the trial columns (``active``, the trial
    of each, and the draw keys), and every running cell's state has one
    column per entry of ``active``, so each stage hashes its draws once
    and every cell reads them as they are.  The hash scratch, the draw
    buffer and the check scratch (N - 1 rows) are allocated once, for all
    trials, and shared by the cells, which use their leading elements; the
    views of the first two are shaped once per column count of the row,
    which changes only when the row drops columns.  Each cell keeps its
    own state and outcomes.

    Each recorded row is cast to the index dtype and appended to one
    growable ``array`` of its typecode, which the trajectory then views,
    so the record costs about its own size whatever the cap.

    The probabilistic draws hash a (P, columns) key base, seed plus pair
    key, built once and cut when the row drops columns; each
    stage adds one offset.  The probabilistic rule rounds the stage draws,
    which lie on the 2^-32 grid, by ceil(y - u) alone, exact at 1..21 bits
    (see ``_rounding``).  The step at t = 0 clips every row, as x(0) may
    lie anywhere.  After it every index lies in [0, 2^b - 1], so later
    stages clip only the block of rows that ``_clip_rows`` gives, from the
    first to the last whose rounded product can leave that range, by
    np.maximum and np.minimum into that block.  Such a row has a negative
    weight or a rounded all-top sum above 2^b - 1, and the rows between
    two of them are swept in.  Of the table cells, only table 3's optimal
    and best-constant weights clip the hub row alone.  Negative weights put
    rows 0..2 of table 4's star in the block (optimal and best-constant)
    and rows 2..6 of table 5's (optimal).  Metropolis and max-degree rows
    are nonnegative, but some all-top sums round above the top: rows 2, 4
    and 6 on table 3, whose block is rows 2..6; it is 4..8 on table 4, and
    3..7 on table 5 under max-degree weights alone.  A row left unclipped
    holds the value the clip would give, except that an index 0 may stay
    -0.0, which compares and forms values as 0.0 does.

    A finished trial's column is only marked dead in the cell's ``live``,
    and a cell leaves ``running`` once every trial of its own has
    finished (``n_live`` is 0).  Dead columns keep stepping, but nothing
    reads them: ``done &= live`` keeps a trial from finishing twice, and
    trial 0's record stops when it finishes.  That mask runs only while
    the cell holds a dead column (``n_live`` below the column count);
    before its first finish it would change nothing.  A stage's finished
    trials are found by one nonzero() of ``done`` and recorded at those
    indices, and ``n_live`` drops by their number, so no pass over all
    columns counts ``live``.  Compaction is the row's alone and runs only
    at a stage where some trial finished: the columns dead in every
    running cell are dropped from ``active``, the keys and every running
    cell's state and ``live`` once they are at least a quarter of the
    row's columns (``_COMPACT_DEAD_SHARE``).  A row of one cell, as in
    ``monte_carlo`` and ``run_trial``, thus compacts as that cell alone
    would.
    """
    from scipy.sparse import csr_matrix  # only the simulator needs it

    x0 = (_initial_states(trial_seeds, len(Ws[0])) if x0_batch is None
          else np.asarray(x0_batch, dtype=float))
    n_trials, N = x0.shape
    means = x0.mean(axis=1)  # a node-major mean would sum in another order
    x = x0.T.copy()  # (N, trials), raw
    del x0  # only its means outlive stage 1
    probabilistic = spec.scheme == "probabilistic"
    delta = spec.delta
    index = np.min_scalar_type(spec.level_count - 1)  # a recorded row's dtype
    pairs = (N + 1) // 2
    flags = np.empty((N - 1) * n_trials, dtype=bool)

    def lead(buf, rows, k):
        return buf[:rows * k].reshape(rows, k)

    def draw_views():
        """The hash scratch, the draw buffer and its first N rows, shaped
        for the row's columns; rebuilt only when those change."""
        k = keys.shape[1]
        out = lead(u, 2 * pairs, k)
        return lead(z, pairs, k), lead(tmp, pairs, k), out, out[:N]

    if probabilistic:
        keys = (np.asarray(trial_seeds, dtype=np.uint64)[None, :]
                + _pair_keys(N))
        z = np.empty(pairs * n_trials, np.uint64)
        u = np.empty(2 * pairs * n_trials)
        # the hash's scratch; the draws are written only after the hash
        tmp = u.view(np.uint64)
        views = draw_views()

    round_into = _rounding(spec)
    active = np.arange(n_trials)  # the trial of each of the row's columns

    def check(c, t):
        """Record the cell's trials that reached consensus at t; returns
        whether any did."""
        x = c.x
        # == is transitive on the (NaN-free) indices, so equal adjacent
        # rows mean an equal column; with one node the empty AND is True
        k = x.shape[1]
        same = lead(flags, N - 1, k)
        np.equal(x[1:], x[:-1], out=same)
        done = np.logical_and.reduce(same, axis=0)
        if c.n_live < k:  # a dead column may still be at consensus
            done &= c.live
        (cols,) = done.nonzero()
        if not cols.size:
            return False
        finished = active[cols]
        c.reached[finished] = True
        c.iters[finished] = t
        c.values[finished] = spec.values(x[0, cols])
        c.live[cols] = False
        c.n_live -= cols.size
        return True

    top = float(spec.level_count - 1)
    cells = [_Cell(Wc, _clip_rows(Wc, top), x, n_trials, max_iters, index.char)
             for Wc in (csr_matrix(np.asarray(W, dtype=float)) for W in Ws)]
    del x  # the cells hold it until their step at t = 0
    running, draws = cells, None
    for t in range(max_iters + 1):
        if probabilistic:  # stage t + 1, for the row's columns
            zk, tmpk, out, draws = views
            _stage_draws_into(keys, t + 1, N, zk, tmpk, out)
        any_finished = False
        for c in running:
            # at t = 0 the raw x(0) in level units, and every row clipped
            c.x = c.Wc @ c.x if t else (c.x + 1.0) / delta
            round_into(c.x, draws, c.clip if t else ...)
            if record and not c.reached[0]:
                c.traj.frombytes(c.x[:, 0].astype(index).tobytes())
            any_finished |= check(c, t)
        if not any_finished:
            continue
        running = [c for c in running if c.n_live]
        if not running:
            break
        # drop the columns that no running cell holds, once they are a
        # quarter of the row's
        held = np.logical_or.reduce([c.live for c in running])
        k = active.size
        if k - np.count_nonzero(held) >= _COMPACT_DEAD_SHARE * k:
            active = active[held]
            for c in running:
                c.x, c.live = c.x[:, held], c.live[held]
            if probabilistic:
                keys = keys[:, held]
                views = draw_views()
    return [(c.reached, c.iters, c.values, (c.values - means) / delta)
            + ((np.frombuffer(c.traj, index).reshape(-1, N),) if record
               else ())
            for c in cells]


def run_trial(W, x0, spec: QuantizerSpec, max_iters: int = 10_000,
              trial_seed: int = 0, return_trajectory: bool = False):
    """Single quantized-consensus trial from raw initial states x0.

    x(0) is quantized before the first update; the iteration stops when
    all components are exactly equal on the level grid, or at max_iters
    (counted as non-consensus).  ``iterations`` is the number of update
    steps taken.  max_iters must be an integer (not a bool) in
    0..MAX_ITERS, trial_seed a seed under the master-seed rule of
    ``derive_trial_seed``, W a consensus weight matrix (symmetric, rows
    summing to one, within the tolerances of ``spectral.slem``) and x0 one
    finite state in [-1, 1] per node of W; anything else raises
    ValueError.  Outside the model the run would still give an answer: a W
    whose rows do not sum to one moves the average, and so does the clip
    of x0 to [-1, 1] at the first quantization.

    With ``return_trajectory``, the states after every stage come back as
    an (iterations + 1, N) array of level indices i, not values: its dtype
    is the narrowest unsigned one that holds 2^b - 1 (uint8 up to 8 bits,
    uint16 up to 16, uint32 up to 21), and ``spec.values(trajectory)``
    forms the states -1 + i * delta, by the same map as the consensus
    value.  The rows are appended to one growable buffer: the record costs
    about its own size, 1 to 4 bytes per node and stage, whatever
    max_iters.
    """
    _check_seed(trial_seed, "trial seed")
    _check_max_iters(max_iters)
    W = _check_weight_matrix(W)
    x0 = np.asarray(x0, dtype=float)
    n = W.shape[0]
    if x0.shape != (n,):
        raise ValueError(f"x0 has shape {x0.shape}, but W has order {n}: "
                         f"x0 needs one state per node")
    if not (np.abs(x0) <= 1.0).all():  # NaN fails too
        raise ValueError("x0 entries must be finite and in [-1, 1]")
    run = _batch_run([W], x0[None, :], spec, max_iters,
                     np.array([trial_seed], dtype=np.uint64),
                     return_trajectory)[0]
    reached, iters = bool(run[0][0]), int(run[1][0])
    outcome = (TrialOutcome(True, iters, float(run[2][0]), float(run[3][0]))
               if reached else TrialOutcome(False, iters, None, None))
    return (outcome, run[4]) if return_trajectory else outcome


def _alone():
    """Whether this process runs one thread, as the kernel counts them (a
    BLAS pool's threads too).  A child forked from a process that holds
    other threads can deadlock on a lock one of them held, and Python 3.12
    and later warn of it (DeprecationWarning).  False where the threads
    cannot be counted (no /proc/self/task)."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _block_count(trials):
    """The number of trial blocks a Monte Carlo row runs: one per CPU this
    process may run on (``taskset`` restricts them), capped at trials, or
    1 where os.fork or os.sched_getaffinity is missing (Windows, macOS) or
    the process holds other threads (``_alone``)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and _alone()):
        return 1
    return min(len(os.sched_getaffinity(0)), trials)


def _block_child(w, readers, run, trial_seeds):
    """A forked child's whole life: send run(trial_seeds), or the exception
    it raised, pickled through the pipe end w.  It ends by os._exit, so
    nothing of the parent's runs twice (no atexit handler, no flush of
    inherited stdio, no test runner's teardown), with status 0 only once
    the reply is written.  Never returns."""
    code = 1
    try:
        for fd in readers:  # the read ends are the caller's
            os.close(fd)
        try:
            reply = (True, run(trial_seeds))
        except BaseException as e:  # KeyboardInterrupt too; the caller raises it
            reply = (False, e)
        with open(w, "wb") as f:
            pickle.dump(reply, f, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _run_blocks(run, trial_seeds):
    """run(seeds), a list of per-cell tuples of per-trial arrays, over
    contiguous blocks of trial_seeds, one per usable CPU
    (``_block_count``): block 0 here, each other in a forked child
    (``_block_child``).  Returns each cell's arrays concatenated in trial
    order.  A trial's outcome in ``_batch_run`` is the same in any block,
    so these are the arrays of one block of all trials.

    The caller reaps every child with waitpid, also when its own block
    raises or is interrupted, and then it kills them first: no one would
    read their results.  A child's exception is raised here, and a child
    that ended without a reply raises ChildProcessError.  With one block nothing forks.  A raw fork,
    not a multiprocessing pool: the children inherit the loaded modules,
    and a spawned one would import numpy and scipy again.
    """
    blocks = np.array_split(trial_seeds, _block_count(trial_seeds.size))
    if len(blocks) > 1:
        import scipy.sparse  # the kernel's lazy import: here, not per child
    pids, readers, replies = [], [], []
    try:
        for block in blocks[1:]:
            r, w = os.pipe()
            readers.append(r)
            try:
                pid = os.fork()
                if not pid:
                    _block_child(w, readers, run, block)
            finally:
                os.close(w)  # the child's alone: EOF once it exits
            pids.append(pid)
        runs = [run(blocks[0])]
        for r in readers:
            with open(r, "rb", closefd=False) as f:
                replies.append(f.read())
    finally:
        for fd in readers:
            os.close(fd)
        if len(replies) < len(pids):  # this block failed: stop the others
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for pid, status, reply in zip(pids, statuses, replies):
        code = os.waitstatus_to_exitcode(status)
        if code or not reply:
            raise ChildProcessError(
                f"the trial block in process {pid} ended without a result "
                + (f"(signal {-code})" if code < 0 else f"(exit code {code})"))
        ok, result = pickle.loads(reply)
        if not ok:
            raise result
        runs.append(result)
    return [[np.concatenate(parts) for parts in zip(*cell)]
            for cell in zip(*runs)]


def monte_carlo_row(topology: Topology, weightings: Sequence[str],
                    spec: QuantizerSpec, trials: int, master_seed: int,
                    max_iters: int = 10_000) -> list[TrialStats]:
    """Aggregate consensus statistics over independent trials, one
    ``TrialStats`` per weighting, in the order given.  Each weighting's W
    is ``scheme_matrix``'s, so "optimal" past k_max on a k-cored star runs
    on the certified tied optimum, and a refused one raises SpectralError.

    The weightings form one row: they run the same trials from the same
    x(0) with the same quantizer, seed and cap, in lockstep, and share
    each stage's draws (see ``_batch_run``).  Each weighting's statistics
    are the same, bit for bit, as from a row of its own.  In a process
    that runs no other thread, the trials run in one contiguous block per
    usable CPU, the first in this process and each other in a forked
    child (``_run_blocks``); the statistics are the same, bit for bit, at
    any CPU count.  eta, mu, rho
    are computed only over trials that reached consensus (rho is the
    population variance).  Per-trial randomness is keyed by (master_seed,
    trial index), so every trial draws the same stream whatever the trial
    count.  trials must be an integer >= 1 (not a bool), and at least one
    weighting is needed, in a sequence of names (a single name is refused:
    ``monte_carlo`` takes one).  A numpy integer trial count or seed is
    held as a Python int, so every field of the result is a Python number.
    A weighting that cannot average, its SLEM within 1e-12 of 1 (one
    dense eigensolve per weighting), is refused with ValueError: max-degree
    weights on a regular bipartite star, such as SymmetricStar(1, 1) or
    KcsStar(1, n, n), have the eigenvalue -1 and reach consensus in almost
    no trial.  ``scheme_matrix`` still builds such a W.
    """
    if not _is_integer(trials) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if isinstance(weightings, str):
        raise ValueError(f"weightings must be a sequence of names, got the name "
                         f"{weightings!r}; monte_carlo runs a single weighting")
    if not weightings:
        raise ValueError("monte_carlo_row needs at least one weighting")
    _check_max_iters(max_iters)
    matrices = [scheme_matrix(topology, w)[1] for w in weightings]
    for weighting, W in zip(weightings, matrices):
        if slem(W) >= 1.0 - 1e-12:  # a spectral gap of rounding size is none
            raise ValueError(f"the {weighting} weighting of {topology} cannot average: its "
                             "SLEM is 1 (max-degree weights have the eigenvalue -1 on a "
                             "regular bipartite star: one edge, or K_n,n)")
    runs = _run_blocks(partial(_batch_run, matrices, None, spec, max_iters),
                       derive_trial_seed(master_seed, np.arange(trials)))
    # derive_trial_seed has checked master_seed
    return [_trial_stats(reached, iters, errors, int(trials), int(master_seed))
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
