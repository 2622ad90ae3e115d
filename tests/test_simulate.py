import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from star_consensus.topology import CcsStar, Graph, KcsStar, SymmetricStar
from star_consensus.weights import metropolis_weights, scheme_matrix
from star_consensus.spectral import slem
from star_consensus import simulate
from star_consensus.simulate import (
    QuantizerSpec,
    _batch_run,
    _clip_rows,
    _pair_keys,
    _rounding,
    _stage_draws_into,
    derive_trial_seed,
    initial_states,
    monte_carlo,
    monte_carlo_row,
    run_trial,
)
from star_consensus.cli import SIM_TOPOLOGIES, WEIGHTINGS

# Topologies of every family, with a custom graph that has a cycle and a
# chord, which runs on its Metropolis weights.
KERNEL_TOPOLOGIES = (
    SymmetricStar(2, 3),
    KcsStar(2, 3, 2),
    CcsStar(2, 3),
    Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4))),
)
KERNEL_SCHEMES = ("uniform", "probabilistic")


def _kernel_id(topo):
    return "Custom" if isinstance(topo, Graph) else type(topo).__name__


def _grid_draws(rng, size):
    """Draws on the 2^-32 grid, as the kernel's stage draws are."""
    return rng.integers(0, 2**32, size) * 2.0**-32


def _round(y, spec, u=None):
    """The kernel's rounding of level positions y (a copy), with draws u."""
    return _rounding(spec)(np.array(y, dtype=float), u, ...)


def _levels(spec):
    """The 2^b level values -1 + i * delta, i = 0..2^b - 1."""
    return -1.0 + spec.delta * np.arange(spec.level_count)


def test_quantizer_levels():
    spec = QuantizerSpec(2, "uniform")
    assert spec.level_count == 4
    assert spec.delta == pytest.approx(2 / 3)
    assert np.allclose(_levels(spec), [-1, -1 / 3, 1 / 3, 1])
    for bits in (0, True, np.True_, 2.0, 2.5):
        with pytest.raises(ValueError, match="bits must be an integer"):
            QuantizerSpec(bits, "uniform")
    assert QuantizerSpec(np.int64(2), "uniform").level_count == 4
    with pytest.raises(ValueError):
        QuantizerSpec(4, "stochastic")


def test_quantizer_bits_limit():
    assert simulate.MAX_BITS == 21
    assert QuantizerSpec(21, "uniform").level_count == 2**21
    assert QuantizerSpec(21, "probabilistic").level_count == 2**21
    for bits in (22, 52, 53, 60):
        with pytest.raises(ValueError, match=r"bits must be an integer in 1\.\.21"):
            QuantizerSpec(bits, "probabilistic")


def test_quantizer_refuses_22_bits_for_both_schemes():
    # At 22 bits ceil(y - u), the kernel's one probabilistic rounding, would
    # round y = 2^21 + 1/2 down at u = 1/2 - 2^-32, where the rule rounds up:
    # y - u rounds to 2^21.  So 21 bits is the top of the range, for both
    # schemes.
    y, u = 2.0**21 + 0.5, 0.5 - 2.0**-32
    assert u < y - math.floor(y) and math.ceil(y - u) == 2**21
    for scheme in ("probabilistic", "uniform"):
        with pytest.raises(ValueError, match="bits must be an integer"):
            QuantizerSpec(22, scheme)


def test_quantizer_needs_a_scheme():
    with pytest.raises(ValueError, match="unknown quantizer scheme None"):
        QuantizerSpec(4, None)


def test_level_index_needs_no_clip_up_to_max_bits():
    # 2/delta is exactly 2^b - 1, so x = 1 lands on the top index and the
    # kernel's index clip of (x + 1)/delta is the rule applied to clipped x,
    # at every bit count 1..MAX_BITS
    x = np.concatenate([
        [-1.7, -1.0, np.nextafter(-1.0, 0.0), 0.0, np.nextafter(1.0, 0.0), 1.0, 1.7],
        np.random.default_rng(5).uniform(-1.0, 1.0, 50)])
    for bits in range(1, simulate.MAX_BITS + 1):
        top = 2**bits - 1
        delta = QuantizerSpec(bits, "uniform").delta
        assert 2.0 / delta == top
        p = (np.clip(x, -1.0, 1.0) + 1.0) / delta
        for u in (0.0, 0.5, 1.0 - 2.0**-32):
            ups = np.full(x.size, u)
            for scheme, idx in (("uniform", np.floor(p + 0.5)),
                                ("probabilistic",
                                 np.floor(p) + (ups < p - np.floor(p)))):
                got = _round((x + 1.0) / delta, QuantizerSpec(bits, scheme), ups)
                assert np.array_equal(got, np.clip(idx, 0, top)), (bits, scheme, u)


def test_uniform_midpoint_rounds_up():
    spec = QuantizerSpec(2, "uniform")
    assert _round([1.5], spec)[0] * spec.delta - 1.0 == pytest.approx(1 / 3)
    for bits in (2, 21):
        top = 2**bits - 1
        i = np.array([0.0, 1.0, top // 2, top - 1])
        assert np.array_equal(_round(i + 0.5, QuantizerSpec(bits, "uniform")),
                              i + 1.0)


def test_levels_are_fixed_points():
    rng = np.random.default_rng(0)
    for bits in (3, 21):
        top = 2**bits - 1
        i = (np.arange(8.0) if bits == 3
             else np.array([0.0, 1.0, 2.0, top // 2, top - 1, top]))
        for scheme in ("uniform", "probabilistic"):
            spec = QuantizerSpec(bits, scheme)
            for u in (np.zeros(i.size), np.full(i.size, 1.0 - 2.0**-32),
                      _grid_draws(rng, i.size)):
                assert np.array_equal(_round(i, spec, u), i), (bits, scheme)
    # the levels, mapped to positions as x(0) is, come back as themselves
    for scheme in ("uniform", "probabilistic"):
        spec = QuantizerSpec(3, scheme)
        lv = _levels(spec)
        got = _round((lv + 1.0) / spec.delta, spec, _grid_draws(rng, lv.size))
        assert np.allclose(got * spec.delta - 1.0, lv)


def test_uniform_idempotent_and_clipping():
    x = np.linspace(-1.7, 1.7, 101)
    for bits in (4, 21):
        spec = QuantizerSpec(bits, "uniform")
        i = _round((x + 1.0) / spec.delta, spec)
        assert np.array_equal(_round(i, spec), i)
        assert i.min() == 0.0 and i.max() == spec.level_count - 1


def test_probabilistic_outputs_cell_endpoints():
    rng = np.random.default_rng(0)
    for bits in (3, 21):
        spec = QuantizerSpec(bits, "probabilistic")
        y = (0.1 + 1.0) / spec.delta
        lo = np.floor(y)
        got = _round(np.full(1000, y), spec, _grid_draws(rng, 1000))
        assert set(got.tolist()) == {lo, lo + 1.0}, bits


def test_probabilistic_unbiased():
    rng = np.random.default_rng(3)
    n = 200_000
    for bits in (4, 21):
        spec = QuantizerSpec(bits, "probabilistic")
        for x in (-0.9, -0.31, 0.05, 0.77):
            y = (x + 1.0) / spec.delta
            d = _round(np.full(n, y), spec, _grid_draws(rng, n))
            se = 0.5 / np.sqrt(n)  # in level steps
            assert abs(d.mean() - y) < 4 * se, (bits, x)


def test_iterate_conserves_average_and_contracts():
    # unquantized averaging x <- W x keeps the average, and its asymptotic
    # per-step contraction is the SLEM
    g, W = scheme_matrix(SymmetricStar(2, 3), "optimal")
    rng = np.random.default_rng(0)
    traj = [rng.uniform(-1, 1, g.node_count)]
    for _ in range(60):
        traj.append(W @ traj[-1])
    traj = np.array(traj)
    assert abs(traj[-1].mean() - traj[0].mean()) <= 1e-10
    d = np.linalg.norm(traj - traj.mean(axis=1, keepdims=True), axis=1)
    ratio = (d[60] / d[50]) ** (1 / 10)
    assert ratio == pytest.approx(slem(W), abs=1e-3)


def test_run_trial_immediate_consensus():
    g, W = scheme_matrix(SymmetricStar(2, 3), "optimal")
    spec = QuantizerSpec(4, "probabilistic")
    x0 = np.full(g.node_count, _levels(spec)[3])
    out = run_trial(W, x0, spec, trial_seed=1)
    assert out.consensus_reached and out.iterations == 0
    assert out.normalized_error == pytest.approx(0.0)


def test_consensus_check_takes_minus_zero_for_zero():
    # At 1 bit, x0 = 2u - 1 puts a node exactly on its stage-1 draw u, so
    # ceil(u - u) gives index +0.0, while a node at x0 = -1 gives
    # ceil(0 - u) = -0.0: a column that holds both signs of index 0 in
    # adjacent rows, which the check must take as consensus.
    g, W = scheme_matrix(SymmetricStar(2, 3), "optimal")
    N = g.node_count
    spec = QuantizerSpec(1, "probabilistic")
    seed = derive_trial_seed(3, 0)
    u = np.array(_kernel_stage_draws(seed, 1, N))
    assert (u > 0.0).all()
    x0 = np.full(N, -1.0)
    x0[::3] = 2.0 * u[::3] - 1.0
    index = _round((x0 + 1.0) / spec.delta, spec, u)
    assert not index.any()
    assert np.signbit(index).tolist() == [i % 3 != 0 for i in range(N)]
    out = run_trial(W, x0, spec, trial_seed=seed)
    assert out.consensus_reached and out.iterations == 0
    assert out.consensus_value == -1.0


def test_consensus_check_reads_every_row():
    # columns equal but in their last, first or middle row do not finish
    g, W = scheme_matrix(SymmetricStar(2, 3), "optimal")
    N = g.node_count
    spec = QuantizerSpec(4, "uniform")
    level = _levels(spec)
    x0 = np.full((4, N), level[5])
    for trial, node in ((1, N - 1), (2, 0), (3, N // 2)):
        x0[trial, node] = level[6]
    reached, iters, values, _ = _batch_run(
        [W], x0, spec, 0, derive_trial_seed(1, np.arange(4)))[0]
    assert reached.tolist() == [True, False, False, False]
    assert iters.tolist() == [0, 0, 0, 0]
    assert values[0] == 5 * spec.delta - 1.0 and np.isnan(values[1:]).all()


def test_one_node_reaches_consensus_at_iteration_0():
    # the check compares no adjacent rows, and the empty AND is True
    for scheme in KERNEL_SCHEMES:
        spec = QuantizerSpec(4, scheme)
        out = run_trial(np.eye(1), [0.3], spec, trial_seed=5)
        assert out.consensus_reached and out.iterations == 0, scheme
        assert abs(out.consensus_value - 0.3) < spec.delta, scheme


def test_run_trial_cap_counts_as_failure():
    g, W = scheme_matrix(SymmetricStar(2, 3), "optimal")
    out = run_trial(W, initial_states(9, 0, g.node_count),
                    QuantizerSpec(6, "uniform"), max_iters=50, trial_seed=3)
    if not out.consensus_reached:
        assert out.iterations == 50
        assert out.consensus_value is None and out.normalized_error is None


def test_bad_cap_and_x0_refused():
    topo = SymmetricStar(2, 3)
    g, W = scheme_matrix(topo, "optimal")
    spec = QuantizerSpec(4, "probabilistic")
    x0 = initial_states(1, 0, g.node_count)
    # the kernel counts iterations in int64: 2^63 would overflow it
    for cap in (-1, 2.5, True, False, np.True_, 2**63, np.uint64(2**63)):
        with pytest.raises(ValueError, match="max_iters"):
            run_trial(W, x0, spec, max_iters=cap)
        with pytest.raises(ValueError, match="max_iters"):
            monte_carlo(topo, "optimal", spec, 3, 1, max_iters=cap)
    with pytest.raises(ValueError, match=r"shape \(6,\), but W has order 7"):
        run_trial(W, x0[:-1], spec)
    out, traj = run_trial(W, x0, spec, max_iters=0, return_trajectory=True)
    assert out.iterations == 0 and traj.shape == (1, g.node_count)


def test_run_trial_refuses_inputs_outside_the_model():
    # each would still give an answer: 2W "reaches consensus" with error
    # 9.44, x0 = 5 at iteration 0 with error -30 (the first clip moves the
    # average), and a NaN state runs to the cap
    g, W = scheme_matrix(SymmetricStar(2, 3), "optimal")
    spec = QuantizerSpec(4, "probabilistic")
    x0 = initial_states(1, 0, g.node_count)
    skew = W.copy()
    skew[0, 1] += 1e-3
    skew[0, 0] -= 1e-3  # rows still sum to one
    for bad, match in ((2 * W, "rows must sum to one"),
                       (skew, "symmetric"), (W[:, :-1], "square")):
        with pytest.raises(ValueError, match=match):
            run_trial(bad, x0, spec)
    for value in (5.0, -1.5, np.nan, np.inf):
        bad = x0.copy()
        bad[2] = value
        with pytest.raises(ValueError, match=r"finite and in \[-1, 1\]"):
            run_trial(W, bad, spec)
    # the ends of the range are states of the model
    edge = np.where(np.arange(g.node_count) % 2, 1.0, -1.0)
    assert run_trial(W, edge, spec, trial_seed=1).iterations >= 1


def test_bad_trial_count_refused():
    topo = SymmetricStar(2, 3)
    spec = QuantizerSpec(4, "probabilistic")
    for trials in (0, -1, 2.5, 3.0, True, np.True_, "3"):
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            monte_carlo(topo, "optimal", spec, trials, 1)
    assert monte_carlo(topo, "optimal", spec, np.int64(3), 1) == \
        monte_carlo(topo, "optimal", spec, 3, 1)


def test_trajectory_record_costs_its_own_size():
    # The benchmark's large-star replay: trial 0 runs to the cap.  Holding
    # every row twice, as a list and as its copy, took about 2x.
    g, W = scheme_matrix(SymmetricStar(3, 50), "optimal")
    x0 = initial_states(1, 0, g.node_count)
    tracemalloc.start()
    try:
        out, traj = run_trial(W, x0, QuantizerSpec(8, "probabilistic"),
                              max_iters=10_000, trial_seed=derive_trial_seed(1, 0),
                              return_trajectory=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.shape == (out.iterations + 1, g.node_count)
    assert peak <= 1.25 * traj.nbytes


def test_trajectory_record_holds_level_indices():
    # One byte per node and stage at 8 bits: the run peaks at 0.55 MB, and
    # a record of float64 values would take 2.4 MB alone.  (scipy.sparse
    # is imported above, so the run loads nothing.)
    g, W = scheme_matrix(SymmetricStar(3, 50), "optimal")
    x0 = initial_states(1, 0, g.node_count)
    tracemalloc.start()
    try:
        out, traj = run_trial(W, x0, QuantizerSpec(8, "probabilistic"),
                              max_iters=2000, trial_seed=derive_trial_seed(1, 0),
                              return_trajectory=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.shape == (2001, g.node_count) and traj.dtype == np.uint8
    assert peak <= 1e6


@pytest.mark.parametrize("bits, dtype", [
    (1, np.uint8), (8, np.uint8), (9, np.uint16), (16, np.uint16),
    (17, np.uint32), (21, np.uint32)])
def test_trajectory_dtype_holds_every_level(bits, dtype):
    # the narrowest unsigned dtype that holds 2^b - 1; the values formed
    # from the last row are the consensus value, bit for bit
    g, W = scheme_matrix(SymmetricStar(2, 3), "optimal")
    x0 = np.where(np.arange(g.node_count) % 2, 1.0, -1.0)  # indices 0 and top
    spec = QuantizerSpec(bits, "probabilistic")
    out, traj = run_trial(W, x0, spec, max_iters=10_000, trial_seed=3,
                          return_trajectory=True)
    assert traj.dtype == dtype
    assert traj[0].tolist() == [0, 2**bits - 1] * 3 + [0]
    assert out.consensus_reached
    assert (spec.values(traj[-1]) == out.consensus_value).all()


def test_huge_cap_trajectory_is_the_short_one():
    g, W = scheme_matrix(SymmetricStar(2, 3), "optimal")
    spec = QuantizerSpec(4, "probabilistic")
    x0, seed = initial_states(3, 0, g.node_count), derive_trial_seed(3, 0)
    out, ref = run_trial(W, x0, spec, max_iters=500, trial_seed=seed,
                         return_trajectory=True)
    assert out.consensus_reached and out.iterations > 4
    for cap in (4, 500, 10**12):
        got, traj = run_trial(W, x0, spec, max_iters=cap, trial_seed=seed,
                              return_trajectory=True)
        assert got.iterations == min(cap, out.iterations)
        assert np.array_equal(traj, ref[:cap + 1])


def test_initial_states_deterministic_and_in_range():
    a = initial_states(7, 3, 9)
    b = initial_states(7, 3, 9)
    assert np.array_equal(a, b)
    assert np.all((a >= -1) & (a <= 1))
    assert not np.array_equal(a, initial_states(7, 4, 9))
    assert not np.array_equal(a, initial_states(8, 3, 9))


def test_single_trial_matches_batch():
    topo = SymmetricStar(2, 3)
    g, W = scheme_matrix(topo, "optimal")
    spec = QuantizerSpec(4, "probabilistic")
    seed = 42
    stats = monte_carlo(topo, "optimal", spec, 1, seed)
    out = run_trial(W, initial_states(seed, 0, g.node_count), spec,
                    trial_seed=derive_trial_seed(seed, 0))
    assert stats.psi == (100.0 if out.consensus_reached else 0.0)
    assert stats.eta == out.iterations
    assert stats.mu == out.normalized_error
    assert stats.rho == 0.0


def test_monte_carlo_deterministic():
    topo = SymmetricStar(2, 3)
    spec = QuantizerSpec(4, "probabilistic")
    a = monte_carlo(topo, "optimal", spec, 200, 11)
    b = monte_carlo(topo, "optimal", spec, 200, 11)
    assert a == b


def test_monte_carlo_batch_equals_per_trial_loop():
    # aggregation must not depend on batching: accumulate trials one by
    # one and compare against the vectorized sweep
    topo = SymmetricStar(2, 3)
    g, W = scheme_matrix(topo, "optimal")
    spec = QuantizerSpec(4, "probabilistic")
    seed, trials = 17, 40
    outs = [run_trial(W, initial_states(seed, i, g.node_count), spec,
                      trial_seed=derive_trial_seed(seed, i))
            for i in range(trials)]
    stats = monte_carlo(topo, "optimal", spec, trials, seed)
    ok = [o for o in outs if o.consensus_reached]
    assert stats.psi == pytest.approx(100 * len(ok) / trials)
    assert stats.eta == pytest.approx(np.mean([o.iterations for o in ok]))
    errs = [o.normalized_error for o in ok]
    assert stats.mu == pytest.approx(np.mean(errs), abs=1e-12)
    assert stats.rho == pytest.approx(np.var(errs), abs=1e-12)


def test_trajectory_replay_matches_outcome():
    g, W = scheme_matrix(SymmetricStar(2, 3), "optimal")
    x0 = initial_states(3, 0, g.node_count)
    for scheme in ("probabilistic", "uniform"):
        spec = QuantizerSpec(6, scheme)
        out1 = run_trial(W, x0, spec, trial_seed=99)
        out2, traj = run_trial(W, x0, spec, trial_seed=99,
                               return_trajectory=True)
        assert out1 == out2
        assert traj.shape == (out1.iterations + 1, g.node_count)
        lv = _levels(spec)
        assert np.all(np.isin(np.round(spec.values(traj), 12), np.round(lv, 12)))


def test_trial_seeds_vectorized_match_scalar():
    idx = np.concatenate([np.arange(100), [2**32 + 5]]).astype(np.uint64)
    for s in (0, 7, 914127553, 2**64 - 1):
        got = derive_trial_seed(s, idx)
        assert got.dtype == np.uint64
        assert got.tolist() == [derive_trial_seed(s, int(i)) for i in idx]
        assert isinstance(derive_trial_seed(s, 2**32 + 5), int)
        assert derive_trial_seed(s, np.arange(100)).tolist() == got[:100].tolist()


def test_master_seed_outside_64_bits_refused():
    # 2^64 + s would alias s if the seed were reduced mod 2^64
    g, W = scheme_matrix(SymmetricStar(2, 3), "optimal")
    spec = QuantizerSpec(4, "probabilistic")
    for seed in (-1, 2**64, 2**64 + 7, 1.5, 7.0, True):
        with pytest.raises(ValueError, match="master seed must be an integer in"):
            derive_trial_seed(seed, 0)
        with pytest.raises(ValueError, match="master seed must be an integer in"):
            initial_states(seed, 0, g.node_count)
        with pytest.raises(ValueError, match="master seed must be an integer in"):
            monte_carlo(SymmetricStar(2, 3), "optimal", spec, 3, seed)
    assert simulate.MAX_SEED == 2**64 - 1
    assert isinstance(derive_trial_seed(simulate.MAX_SEED, 0), int)
    assert derive_trial_seed(np.uint64(7), 3) == derive_trial_seed(7, 3)


def test_trial_index_must_be_a_64_bit_integer():
    # a truncated, bool or wrapped index would alias another trial's key
    bad = (1.5, 1.0, True, np.True_, -1, 2**64, np.int64(-1), "1",
           np.array([1.5, 2.0]), np.array([True, False]), np.array([-1, 2]),
           [1, 2.5], [2**64])
    for index in bad:
        with pytest.raises(ValueError, match="trial index must be an integer"):
            derive_trial_seed(0, index)
    with pytest.raises(ValueError, match="trial index must be an integer"):
        initial_states(7, 1.5, 9)
    assert derive_trial_seed(0, 2**64 - 1) == derive_trial_seed(
        0, np.array([2**64 - 1], dtype=np.uint64))[0]
    assert derive_trial_seed(0, np.int64(3)) == derive_trial_seed(0, 3)
    assert derive_trial_seed(0, [1, 2]).tolist() == [derive_trial_seed(0, 1),
                                                     derive_trial_seed(0, 2)]


def test_run_trial_seed_must_be_a_64_bit_integer():
    # a truncated or bool seed would replay another trial's draws, and a
    # negative or 2^64 one would not fit the uint64 key
    g, W = scheme_matrix(SymmetricStar(2, 3), "optimal")
    x0, spec = initial_states(5, 0, g.node_count), QuantizerSpec(8, "probabilistic")
    for seed in (1.5, 1.0, True, np.True_, -1, np.int64(-1), 2**64, "1"):
        with pytest.raises(ValueError, match="trial seed must be an integer in"):
            run_trial(W, x0, spec, trial_seed=seed)
    assert (run_trial(W, x0, spec, trial_seed=np.uint64(1))
            == run_trial(W, x0, spec, trial_seed=np.int64(1))
            == run_trial(W, x0, spec, trial_seed=1))
    assert run_trial(W, x0, spec, trial_seed=2**64 - 1).iterations >= 1


def test_initial_states_node_count_must_be_a_positive_integer():
    for n_nodes in (2.5, 3.0, True, np.True_, 0, -1, np.int64(0), "3"):
        with pytest.raises(ValueError, match="n_nodes must be an integer >= 1"):
            initial_states(7, 1, n_nodes)
    assert np.array_equal(initial_states(7, 1, np.int64(9)), initial_states(7, 1, 9))
    assert initial_states(7, 1, 1).shape == (1,)


def _kernel_inputs(topo, trials, seed):
    if isinstance(topo, Graph):
        g, W = topo, metropolis_weights(topo)
    else:
        g, W = scheme_matrix(topo, "optimal")
    x0 = np.array([initial_states(seed, i, g.node_count) for i in range(trials)])
    return W, x0, derive_trial_seed(seed, np.arange(trials))


def _batched(W, x0, spec, max_iters, seeds, batch):
    parts = [_batch_run([W], x0[i:i + batch], spec, max_iters,
                        seeds[i:i + batch])[0]
             for i in range(0, len(seeds), batch)]
    return tuple(np.concatenate(col) for col in zip(*parts))


def _kernel_digest():
    """Per-trial (reached, iterations, values) of one batch of 15 trials
    per topology and scheme, as exact text."""
    lines = []
    for topo in KERNEL_TOPOLOGIES:
        W, x0, seeds = _kernel_inputs(topo, 15, 3)
        for scheme in KERNEL_SCHEMES:
            reached, iters, values, _ = _batch_run(
                [W], x0, QuantizerSpec(4, scheme), 300, seeds)[0]
            lines.append(repr((reached.tolist(), iters.tolist(),
                               [v.hex() for v in values.tolist()])))
    return "\n".join(lines)


def test_kernel_outcomes_and_initial_states_pinned():
    # The kernel's outcomes, pinned before its unquantized mode was removed,
    # and the initial states' 53-bit draws, pinned before the kernel moved to
    # level indices and 32-bit stage draws.
    kernel = hashlib.sha256(_kernel_digest().encode()).hexdigest()
    assert kernel == "1ae6ea12f11e791f187fe6ef20612021d4122529302c1316c17affde399d0bc5"
    x = [v for s in (0, 7, 914127553) for i in (0, 1, 2**32 + 5)
         for n in (1, 7, 151) for v in initial_states(s, i, n).tolist()]
    states = hashlib.sha256("".join(v.hex() for v in x).encode()).hexdigest()
    assert states == "fc9f57872b54852d38ba035982d5304ce7d5c79ac87d6d739b7e31fb9110903b"


def _large_star_digest():
    """Per-trial (reached, iterations, values) of 4 trials on the 151-node
    SymmetricStar(3, 50) with optimal weights, 8-bit probabilistic, cap
    2,000, master seed 1: the configuration of the large-star Monte Carlo
    run, as exact text.  All four run to the cap, so the sha256 of trial
    0's recorded states follows: it pins every stage's arithmetic."""
    _, W = scheme_matrix(SymmetricStar(3, 50), "optimal")
    spec = QuantizerSpec(8, "probabilistic")
    reached, iters, values, _, record = _batch_run(
        [W], None, spec, 2000, derive_trial_seed(1, np.arange(4)),
        record=True)[0]
    return repr((reached.tolist(), iters.tolist(),
                 [v.hex() for v in values.tolist()],
                 hashlib.sha256(spec.values(record).tobytes()).hexdigest()))


def test_large_star_outcomes_pinned():
    # Pinned before the consensus check moved to adjacent rows, the hub
    # clip to two ufuncs and the draw views to one build per column count.
    digest = hashlib.sha256(_large_star_digest().encode()).hexdigest()
    assert digest == "74969d4270727e574c955d4c4f5f48cdf4e10fd2ca860f75a99518808c46b13f"


@pytest.mark.parametrize("topo", KERNEL_TOPOLOGIES, ids=_kernel_id)
def test_kernel_batch_size_independent(topo):
    W, x0, seeds = _kernel_inputs(topo, 15, 3)
    for scheme in KERNEL_SCHEMES:
        spec = QuantizerSpec(4, scheme)
        whole = _batched(W, x0, spec, 300, seeds, len(seeds))
        if scheme != "uniform":  # uniform runs on the stars often stall at the cap
            assert len(set(whole[1].tolist())) > 1  # trials leave at different steps
        for batch in (1, 7):
            part = _batched(W, x0, spec, 300, seeds, batch)
            assert np.array_equal(part[0], whole[0])
            assert np.array_equal(part[1], whole[1])
            assert np.array_equal(part[2], whole[2], equal_nan=True)


def test_kernel_thread_count_independent():
    here = Path(__file__).resolve().parent
    code = "import star_consensus.cli, test_simulate; print(test_simulate._kernel_digest())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(here.parent / "src"), str(here), env.get("PYTHONPATH", "")])
    expected = _kernel_digest()
    for threads in ("1", "2"):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == expected


def test_fig4_trajectory_is_trial0_of_batch():
    W, x0, seeds = _kernel_inputs(SymmetricStar(3, 5), 20, 7)
    for scheme in ("uniform", "probabilistic"):
        spec = QuantizerSpec(6, scheme)
        out, traj = run_trial(W, x0[0], spec, max_iters=500,
                              trial_seed=int(seeds[0]), return_trajectory=True)
        reached, iters, _, _, record = _batch_run([W], x0, spec, 500, seeds,
                                                  record=True)[0]
        assert np.array_equal(record, traj)
        assert (bool(reached[0]), int(iters[0])) == (out.consensus_reached,
                                                     out.iterations)


@pytest.mark.parametrize("cap", (10_000, 40))
@pytest.mark.parametrize("table_id", sorted(SIM_TOPOLOGIES))
def test_monte_carlo_row_equals_per_weighting(table_id, cap):
    # each cell of a table row is bit-identical to a row of its own; at a
    # cap of 40 some cells are censored
    topo = SIM_TOPOLOGIES[table_id]
    censored = 0
    for bits in (4, 8, 16):
        spec = QuantizerSpec(bits, "probabilistic")
        row = monte_carlo_row(topo, WEIGHTINGS, spec, 1000, 5, max_iters=cap)
        assert len(row) == len(WEIGHTINGS)
        for weighting, stats in zip(WEIGHTINGS, row):
            alone = monte_carlo(topo, weighting, spec, 1000, 5, max_iters=cap)
            assert repr(stats) == repr(alone), (bits, weighting)
            censored += stats.psi < 100.0
    if cap == 40:
        assert censored


def test_monte_carlo_stats_hold_python_numbers():
    # numpy integer trials and seed once came back as np.int64 and
    # np.uint64 (and psi as np.float64), which json.dumps refuses
    import dataclasses
    import json

    topo, spec = SymmetricStar(2, 3), QuantizerSpec(4, "probabilistic")
    stats = monte_carlo(topo, "optimal", spec, np.int64(20), np.uint64(5))
    assert repr(stats) == repr(monte_carlo(topo, "optimal", spec, 20, 5))
    assert type(stats.trials) is int and type(stats.seed) is int
    assert type(stats.psi) is float
    json.dumps(dataclasses.asdict(stats))


def test_monte_carlo_row_needs_a_weighting():
    with pytest.raises(ValueError, match="at least one weighting"):
        monte_carlo_row(SymmetricStar(2, 3), [],
                        QuantizerSpec(4, "probabilistic"), 3, 1)


def test_monte_carlo_row_refuses_a_single_name():
    # a name is a sequence of one-letter strings, which would be run as
    # the scheme 'o'
    with pytest.raises(ValueError, match="monte_carlo runs a single weighting"):
        monte_carlo_row(SymmetricStar(2, 3), "optimal",
                        QuantizerSpec(4, "probabilistic"), 3, 1)


@pytest.mark.parametrize("topo", [KcsStar(1, 2, 2), KcsStar(1, 3, 3),
                                  SymmetricStar(1, 1)], ids=repr)
def test_monte_carlo_row_refuses_a_weighting_that_cannot_average(topo):
    # max-degree weights on a regular bipartite star have the eigenvalue -1,
    # so the SLEM is 1 and consensus is reached in almost no trial; the
    # matrix is still built, and the other weightings still run
    assert slem(scheme_matrix(topo, "max-degree")[1]) >= 1.0 - 1e-12
    spec = QuantizerSpec(8, "probabilistic")
    with pytest.raises(ValueError, match=r"max-degree weighting of .* cannot "
                       r"average: .* regular bipartite"):
        monte_carlo_row(topo, ["optimal", "max-degree"], spec, 10, 1)
    assert monte_carlo_row(topo, ["metropolis"], spec, 10, 1)[0].psi == 100.0


def test_weightings_of_the_tables_average():
    # every weighting of tables 3-5 and of the large benchmark star has a
    # SLEM well below the refusal's 1 - 1e-12
    for topo in [*SIM_TOPOLOGIES.values(), SymmetricStar(3, 50)]:
        for w in WEIGHTINGS:
            assert slem(scheme_matrix(topo, w)[1]) <= 0.997, (topo, w)


def test_row_hashes_each_stage_once(monkeypatch):
    # at 8 bits the cells finish at different steps, so the row outlives
    # some of them and its columns shrink; every cell equals its own row
    W_row = [scheme_matrix(CcsStar(2, 3), w)[1] for w in WEIGHTINGS]
    x0 = np.array([initial_states(2, i, 9) for i in range(300)])
    seeds = derive_trial_seed(2, np.arange(300))
    stages = []
    hash_stage = simulate._stage_draws_into

    def counted(keys, stage, *args):
        stages.append(stage)
        return hash_stage(keys, stage, *args)

    for bits, scheme in ((8, "probabilistic"), (21, "probabilistic"),
                         (4, "uniform")):
        spec = QuantizerSpec(bits, scheme)
        alone = [_batch_run([W], x0, spec, 200, seeds)[0] for W in W_row]
        stages.clear()
        monkeypatch.setattr(simulate, "_stage_draws_into", counted)
        row = _batch_run(W_row, x0, spec, 200, seeds)
        monkeypatch.undo()
        last = max(int(iters.max()) for _, iters, *_ in row)
        assert stages == (list(range(1, last + 2))
                          if scheme == "probabilistic" else [])
        if bits == 8:
            assert len({int(iters.max()) for _, iters, *_ in row}) > 1
        for got, want in zip(row, alone):
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert np.array_equal(got[2], want[2], equal_nan=True)
            assert np.array_equal(got[3], want[3], equal_nan=True)


def _outcomes_match_run_trial(Ws, x0, spec, cap, seeds):
    """Run the row Ws on x0 and check every cell's outcome of every trial
    against ``run_trial``, which holds that trial alone; returns the
    cells' iteration counts."""
    row = _batch_run(Ws, x0, spec, cap, seeds)
    for W, (reached, iters, values, _) in zip(Ws, row):
        for i, seed in enumerate(seeds.tolist()):
            out = run_trial(W, x0[i], spec, max_iters=cap, trial_seed=seed)
            assert (bool(reached[i]), int(iters[i])) == (out.consensus_reached,
                                                         out.iterations), i
            if reached[i]:
                assert values[i] == out.consensus_value, i
            else:
                assert np.isnan(values[i]), i
    return [iters for _, iters, _, _ in row]


def test_finished_trial_keeps_its_first_consensus_stage():
    # Trials 0..2 start on one level, so the uniform rule holds their
    # columns at consensus from stage 0 on.  They are 3 of 20 columns,
    # below the compaction share, so those dead columns keep stepping
    # beside the trials that run on; each keeps iteration 0 and its value.
    g, W = scheme_matrix(SymmetricStar(2, 3), "optimal")
    spec = QuantizerSpec(4, "uniform")
    trials = 20
    x0 = np.array([initial_states(4, i, g.node_count) for i in range(trials)])
    x0[:3] = _levels(spec)[[5, 9, 12]][:, None]
    [iters] = _outcomes_match_run_trial([W], x0, spec, 300,
                                        derive_trial_seed(4, np.arange(trials)))
    assert iters[:3].tolist() == [0, 0, 0]
    # still under a quarter dead after stage 1
    assert np.count_nonzero(iters <= 1) < simulate._COMPACT_DEAD_SHARE * trials


@pytest.mark.parametrize("bits,scheme", [(2, "uniform"), (6, "probabilistic")])
def test_first_finish_after_stage_0_keeps_its_stage(bits, scheme):
    # No trial finishes at stage 0, so the check first runs with every
    # column live; the first finish leaves its columns dead below the
    # compaction share, and the stages after it mask them.  A row of four
    # weightings on one set of columns, so a cell also masks the columns
    # it has finished while another cell still holds them.  (At more bits
    # the uniform rule stalls every trial of some cells at the cap.)
    Ws = [scheme_matrix(CcsStar(2, 3), w)[1] for w in WEIGHTINGS]
    trials = 30
    x0 = np.array([initial_states(6, i, 9) for i in range(trials)])
    for iters in _outcomes_match_run_trial(
            Ws, x0, QuantizerSpec(bits, scheme), 300,
            derive_trial_seed(6, np.arange(trials))):
        first = int(iters.min())
        assert first > 0
        assert (np.count_nonzero(iters == first)
                < simulate._COMPACT_DEAD_SHARE * trials)


def test_row_keeps_a_column_while_a_running_cell_holds_its_trial(monkeypatch):
    # The four cells of a row finish their trials at different stages.
    # Every running cell steps the row's columns, a cell that has finished
    # every trial stops stepping, and at a stage where some trial finished
    # the row drops the columns that no running cell holds, once they are
    # a quarter of its columns; no column leaves at any other stage.
    Ws = [scheme_matrix(CcsStar(2, 3), w)[1] for w in WEIGHTINGS]
    spec, trials, cap = QuantizerSpec(8, "probabilistic"), 40, 200
    x0 = np.array([initial_states(3, i, 9) for i in range(trials)])
    seeds = derive_trial_seed(3, np.arange(trials))
    hashed, steps = [], {}
    hash_stage = simulate._stage_draws_into

    def counted(keys, stage, *args):
        hashed.append(keys.shape[1])
        return hash_stage(keys, stage, *args)

    class Stepped(csr_matrix):
        def __matmul__(self, x):
            if x.ndim == 2:  # a stage's product, not _clip_rows' row sums
                steps.setdefault(id(self), []).append(x.shape[1])
            return super().__matmul__(x)

    monkeypatch.setattr(simulate, "_stage_draws_into", counted)
    monkeypatch.setattr("scipy.sparse.csr_matrix", Stepped)
    row = _batch_run(Ws, x0, spec, cap, seeds)
    monkeypatch.undo()
    checked = _outcomes_match_run_trial(Ws, x0, spec, cap, seeds)
    assert all(np.array_equal(a, b[1]) for a, b in zip(checked, row))
    reached = [r for r, *_ in row]
    # each cell steps at t = 1 .. its last finish, on the row's columns
    assert [len(s) for s in steps.values()] == [int(i.max()) for i in checked]
    assert len({len(s) for s in steps.values()}) > 1
    for s in steps.values():
        assert s == hashed[1:len(s) + 1]
    cols = trials
    for t in range(1, len(hashed)):
        # the trials that some cell has not finished after stage t - 1
        held = np.logical_or.reduce([~(r & (i <= t - 1))
                                     for r, i in zip(reached, checked)])
        finished = any((r & (i == t - 1)).any()
                       for r, i in zip(reached, checked))
        n_held = int(held.sum())
        if finished and cols - n_held >= simulate._COMPACT_DEAD_SHARE * cols:
            cols = n_held
        assert hashed[t] == cols, t
    assert len(set(hashed)) > 2


def test_row_memory_stays_near_three_cell_states():
    # one cell peaks at 3.6 MB here; a row of four shares its draw, hash
    # and check scratch and x(0), so it adds about three cell states.  The
    # row builds x(0) inside the loop, so only its means outlive stage 1:
    # a caller that held the raw x(0) for the whole row peaked at 7.4 MB.
    spec = QuantizerSpec(8, "probabilistic")
    monte_carlo_row(CcsStar(2, 3), WEIGHTINGS, spec, 20, 1)  # lazy imports
    tracemalloc.start()
    try:
        monte_carlo_row(CcsStar(2, 3), WEIGHTINGS, spec, 10_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7e6


_MASK64 = 2**64 - 1
_PHI = 0x9E3779B97F4A7C15


def _py_hash(trial_seed, counter):
    """splitmix64 of (trial seed, draw counter) on Python ints."""
    z = (trial_seed + counter * _PHI) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _py_stage_draw(trial_seed, stage, n_nodes, node):
    """Node's draw at a stage: the low (even node) or high (odd node) 32
    bits of the hash at counter stage * n_nodes + 2 * (node // 2)."""
    h = _py_hash(trial_seed, stage * n_nodes + node - node % 2)
    return (h >> 32 if node % 2 else h & 0xFFFFFFFF) * 2.0**-32


def _kernel_stage_draws(trial_seed, stage, n_nodes):
    pairs = (n_nodes + 1) // 2
    z = np.empty((pairs, 1), np.uint64)
    out = np.empty((2 * pairs, 1))
    keys = np.array([[trial_seed]], np.uint64) + _pair_keys(n_nodes)
    _stage_draws_into(keys, stage, n_nodes, z, np.empty_like(z), out)
    return out[:n_nodes, 0].tolist()


def test_stage_draws_pair_layout():
    for trial_seed in (derive_trial_seed(5, 3), 0, _MASK64):
        for n_nodes in (1, 2, 7, 8, 151):
            # 32-bit halves of the hashes behind the initial states (counters
            # 0..N-1); no stage draw may come from one of them
            initial = {_py_hash(trial_seed, c) >> shift & 0xFFFFFFFF
                       for c in range(n_nodes) for shift in (0, 32)}
            for stage in (1, 2, 9, 10_001):
                got = _kernel_stage_draws(trial_seed, stage, n_nodes)
                assert got == [_py_stage_draw(trial_seed, stage, n_nodes, i)
                               for i in range(n_nodes)], (n_nodes, stage)
                assert all(0.0 <= v < 1.0 for v in got)
                assert not initial & {int(v * 2**32) for v in got}
    # the odd node of a pair is the high half of the even node's hash
    h = _py_hash(17, 3 * 7 + 4)
    assert _kernel_stage_draws(17, 3, 7)[4:6] == [(h & 0xFFFFFFFF) * 2.0**-32,
                                                  (h >> 32) * 2.0**-32]


def _oracle_run(W, x0, spec, max_iters, trial_seed):
    """One trial in Python floats and ints.  The state is held as level
    indices (x = -1 + i * delta) from x(0) mapped by (x + 1)/delta;
    each row's nonzeros are summed in column order; the clip to
    [0, 2^b - 1], the rounding rules and the splitmix64 draws are written
    out.  Returns (reached, iterations, value, trajectory)."""
    N = len(x0)
    rows = [[(j, float(W[i, j])) for j in range(N) if W[i, j] != 0.0]
            for i in range(N)]
    delta, top = spec.delta, float(spec.level_count - 1)

    def q(y, stage):
        out = []
        for node, v in enumerate(y):
            v = min(max(v, 0.0), top)
            if spec.scheme == "uniform":
                out.append(float(math.floor(v + 0.5)))
            else:
                lo = float(math.floor(v))
                up = _py_stage_draw(trial_seed, stage, N, node) < v - lo
                out.append(lo + (1.0 if up else 0.0))
        return out

    def value(v):
        return v * delta - 1.0

    def done(x):
        return all(v == x[0] for v in x), value(x[0])

    x = [(float(v) + 1.0) / delta for v in x0]
    x = q(x, 1)
    traj = [[value(v) for v in x]]
    t = 0
    reached, val = done(x)
    while not reached and t < max_iters:
        t += 1
        new = []
        for row in rows:
            acc = 0.0
            for j, w in row:
                acc += w * x[j]
            new.append(acc)
        x = q(new, t + 1)
        traj.append([value(v) for v in x])
        reached, val = done(x)
    return reached, t, val if reached else float("nan"), traj


# 21 bits is the top of the quantizer's range (MAX_BITS).
@pytest.mark.parametrize("topo, bits", [
    pytest.param(topo, bits, id=_kernel_id(topo) + ("" if bits == 8 else f"-{bits}"))
    for bits in (8, 21) for topo in KERNEL_TOPOLOGIES])
def test_kernel_matches_python_oracle(topo, bits):
    W, x0, seeds = _kernel_inputs(topo, 4, 11)
    steps = sum(_assert_kernel_matches_oracle(W, x0, seeds,
                                              QuantizerSpec(bits, scheme))
                for scheme in KERNEL_SCHEMES)
    assert steps >= 200


def _assert_kernel_matches_oracle(W, x0, seeds, spec, max_iters=200):
    """Every trial's outcome and consensus error and trial 0's trajectory,
    bit for bit; returns the oracle's total step count."""
    reached, iters, values, errors, record = _batch_run(
        [W], x0, spec, max_iters, seeds, record=True)[0]
    steps = 0
    for i in range(len(seeds)):
        ok, t, value, traj = _oracle_run(W, x0[i], spec, max_iters, int(seeds[i]))
        steps += t
        assert (bool(reached[i]), int(iters[i])) == (ok, t)
        assert np.array_equal(values[i], value, equal_nan=True)
        assert np.array_equal(errors[i], (value - np.mean(x0[i])) / spec.delta,
                              equal_nan=True)
        if i == 0:
            assert np.array_equal(spec.values(record), np.array(traj))
    return steps


# Row 1 has a negative weight.  Row 3 is nonnegative, but its all-top sum
# rounds above 2^b - 1 at 4 bits (and at 52, though not at 8..21); it was
# found by a search over rows (a, b, c)/d with d < 30.  The other rows stay
# in range, rows 0 and 4 outside the block 1..3 that the kernel clips.
_CLIP_W = np.array([
    [0.0, 1 / 3, 1 / 3, 1 / 3, 0.0],
    [-0.25, 1.25, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.1, 0.2, 0.7],
    [0.0, 1 / 11, 2 / 11, 8 / 11, 0.0],
    [1 / 7, 0.0, 0.0, 2 / 7, 4 / 7],
])


@pytest.mark.parametrize("bits", (4,))
def test_clip_rule_rows(bits):
    top = float(2**bits - 1)
    Wc = csr_matrix(_CLIP_W)
    assert _clip_rows(Wc, top) == slice(1, 4)
    assert Wc[3] @ np.full(5, top) > top
    # no row of a nonnegative matrix whose all-top sums stay at top leaves
    assert _clip_rows(csr_matrix(np.eye(3)), top) is None
    # the product at every corner of [0, top]^5: only rows 1 and 3 leave
    corners = np.array(list(itertools.product((0.0, top), repeat=5))).T
    y = Wc @ corners
    assert np.flatnonzero(((y < 0) | (y > top)).any(axis=1)).tolist() == [1, 3]


# The block of rows that a stage after the first clips, per table and
# weighting, as (first, last) rows or None: the same at 4, 8 and 16 bits.
_TABLE_CLIP_BLOCKS = {
    3: {"optimal": (0, 0), "best-constant": (0, 0),
        "metropolis": (2, 6), "max-degree": (2, 6)},
    4: {"optimal": (0, 2), "best-constant": (0, 2),
        "metropolis": (4, 8), "max-degree": (4, 8)},
    5: {"optimal": (2, 6), "best-constant": None,
        "metropolis": None, "max-degree": (3, 7)},
}


@pytest.mark.parametrize("table_id", sorted(SIM_TOPOLOGIES))
def test_clip_block_on_the_table_cells(table_id):
    # Every row outside the block is nonnegative with an all-top product
    # at most 2^b - 1, so (IEEE rounding being monotone) it cannot leave
    # [0, 2^b - 1]; every row with a negative weight lies inside it.
    rng = np.random.default_rng(table_id)
    for weighting in WEIGHTINGS:
        _, W = scheme_matrix(SIM_TOPOLOGIES[table_id], weighting)
        Wc = csr_matrix(W)
        N = len(W)
        for bits in (4, 8, 16):
            top = float(2**bits - 1)
            block = _clip_rows(Wc, top)
            expected = _TABLE_CLIP_BLOCKS[table_id][weighting]
            assert block == (None if expected is None
                             else slice(expected[0], expected[1] + 1)), weighting
            inside = np.zeros(N, dtype=bool)
            if block is not None:
                inside[block] = True
            outside = ~inside
            assert (W[outside] >= 0).all()
            assert (Wc @ np.full(N, top) <= top)[outside].all()
            assert inside[(W < 0).any(axis=1)].all()
            # and on level indices: no row outside leaves the range
            x = np.floor(rng.uniform(0.0, top + 1.0, (N, 500)))
            x[:, 0], x[:, 1] = 0.0, top
            y = (Wc @ x)[outside]
            assert ((y >= 0.0) & (y <= top)).all(), (weighting, bits)


@pytest.mark.parametrize("bits", (4, 8, 21))
def test_kernel_clip_rule_matches_python_oracle(bits):
    # states at -1 and 1 start on indices 0 and 2^b - 1
    x0 = np.array([[-1.0, 1.0, 1.0, 1.0, -1.0], [1.0, -1.0, 1.0, 1.0, -1.0],
                   [1.0, 1.0, -1.0, -1.0, 1.0], [-1.0, 1.0, 1.0, 1.0, 1.0]])
    seeds = derive_trial_seed(11, np.arange(len(x0)))
    for scheme in ("uniform", "probabilistic"):
        _assert_kernel_matches_oracle(_CLIP_W, x0, seeds,
                                      QuantizerSpec(bits, scheme))


def test_grid_draw_rounding_is_the_probabilistic_rule():
    # The kernel rounds its 2^-32-grid draws by ceil(y - u) alone; at every
    # bit count 1..MAX_BITS it must give floor(y) + [u < y - floor(y)].
    grid = 2.0**-32
    us = np.array([0.0, grid, 0.25, 0.5 - grid, 0.5, 0.5 + grid, 0.75,
                   1.0 - grid])
    for bits in range(1, simulate.MAX_BITS + 1):
        top = float(2**bits - 1)
        ys = [0.0, -0.0, 1e-300, -1e-300, grid, grid / 2, 1.0 - grid,
              top, np.nextafter(top, 0.0), top - 0.5, top + 0.5]  # y > top clips
        for i in (1.0, 2.0, 3.0, float(2**(bits - 1)), top - 1.0):
            ys += [i, np.nextafter(i, 0.0), np.nextafter(i, np.inf)]
        ys += [i + f for i in (0.0, 1.0, top - 1.0) for f in us[1:]]  # frac(y) == u
        y, u = np.repeat(ys, us.size), np.tile(us, len(ys))
        p = np.clip(y, 0.0, top)
        ref = np.floor(p) + (u < p - np.floor(p))
        got = _round(y, QuantizerSpec(bits, "probabilistic"), u)
        assert np.array_equal(got, ref), bits

