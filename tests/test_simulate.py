import numpy as np
import pytest

from star_consensus.topology import SymmetricStar
from star_consensus.weights import scheme_matrix
from star_consensus.spectral import slem
from star_consensus.simulate import (
    QuantizerSpec,
    derive_trial_seed,
    initial_states,
    monte_carlo,
    quantize,
    run_trial,
    trajectory_to_csv,
)


def test_quantizer_levels():
    spec = QuantizerSpec(2, "uniform")
    assert spec.level_count == 4
    assert spec.delta == pytest.approx(2 / 3)
    assert np.allclose(spec.levels(), [-1, -1 / 3, 1 / 3, 1])
    with pytest.raises(ValueError):
        QuantizerSpec(0, "uniform")
    with pytest.raises(ValueError):
        QuantizerSpec(4, "stochastic")


def test_uniform_midpoint_rounds_up():
    spec = QuantizerSpec(2, "uniform")
    assert quantize(0.0, spec) == pytest.approx(1 / 3)


def test_levels_are_fixed_points():
    rng = np.random.default_rng(0)
    for scheme in ("uniform", "probabilistic"):
        spec = QuantizerSpec(3, scheme)
        lv = spec.levels()
        assert np.allclose(quantize(lv, spec, u=rng.random(lv.size)), lv)


def test_uniform_idempotent_and_clipping():
    spec = QuantizerSpec(4, "uniform")
    x = np.linspace(-1.7, 1.7, 101)
    q = quantize(x, spec)
    assert np.allclose(quantize(q, spec), q)
    assert q.min() == -1.0 and q.max() == 1.0


def test_probabilistic_outputs_cell_endpoints():
    spec = QuantizerSpec(3, "probabilistic")
    x = 0.1
    lo = np.floor((x + 1) / spec.delta) * spec.delta - 1
    hi = lo + spec.delta
    draws = quantize(np.full(1000, x), spec,
                     u=np.random.default_rng(0).random(1000))
    assert set(np.round(draws, 12)) <= {round(lo, 12), round(hi, 12)}


def test_probabilistic_unbiased():
    spec = QuantizerSpec(4, "probabilistic")
    rng = np.random.default_rng(3)
    n = 200_000
    for x in (-0.9, -0.31, 0.05, 0.77):
        d = quantize(np.full(n, x), spec, u=rng.random(n))
        se = spec.delta / 2 / np.sqrt(n)
        assert abs(d.mean() - x) < 4 * se


def test_probabilistic_requires_draws():
    with pytest.raises(ValueError):
        quantize(np.zeros(3), QuantizerSpec(3, "probabilistic"))


def test_iterate_conserves_average_and_contracts():
    g, W = scheme_matrix(SymmetricStar(2, 3), "optimal")
    rng = np.random.default_rng(0)
    x0 = rng.uniform(-1, 1, g.node_count)
    _, traj = run_trial(W, x0, QuantizerSpec(4, None), return_trajectory=True)
    assert abs(traj[-1].mean() - x0.mean()) <= 1e-10
    # asymptotic per-step contraction approaches the SLEM
    d = np.linalg.norm(traj - traj.mean(axis=1, keepdims=True), axis=1)
    ratio = (d[60] / d[50]) ** (1 / 10)
    assert ratio == pytest.approx(slem(W), abs=1e-3)


def test_run_trial_immediate_consensus():
    g, W = scheme_matrix(SymmetricStar(2, 3), "optimal")
    spec = QuantizerSpec(4, "probabilistic")
    x0 = np.full(g.node_count, spec.levels()[3])
    out = run_trial(W, x0, spec, trial_seed=1)
    assert out.consensus_reached and out.iterations == 0
    assert out.normalized_error == pytest.approx(0.0)


def test_run_trial_unquantized():
    g, W = scheme_matrix(SymmetricStar(2, 3), "optimal")
    spec = QuantizerSpec(4, None)
    x0 = initial_states(5, 0, g.node_count)
    out = run_trial(W, x0, spec, trial_seed=derive_trial_seed(5, 0))
    assert out.consensus_reached
    assert out.consensus_value == pytest.approx(x0.mean(), abs=1e-8)


def test_run_trial_cap_counts_as_failure():
    g, W = scheme_matrix(SymmetricStar(2, 3), "optimal")
    out = run_trial(W, initial_states(9, 0, g.node_count),
                    QuantizerSpec(6, "uniform"), max_iters=50, trial_seed=3)
    if not out.consensus_reached:
        assert out.iterations == 50
        assert out.consensus_value is None and out.normalized_error is None


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
    for scheme in ("probabilistic", "uniform", None):
        spec = QuantizerSpec(6, scheme)
        out1 = run_trial(W, x0, spec, trial_seed=99)
        out2, traj = run_trial(W, x0, spec, trial_seed=99,
                               return_trajectory=True)
        assert out1 == out2
        assert traj.shape == (out1.iterations + 1, g.node_count)
        if scheme is None:
            assert np.array_equal(traj[0], x0)
        else:
            lv = spec.levels()
            assert np.all(np.isin(np.round(traj, 12), np.round(lv, 12)))


def test_trial_seeds_vectorized_match_scalar():
    idx = np.concatenate([np.arange(100), [2**32 + 5]]).astype(np.uint64)
    for s in (0, 7, 914127553, 2**64 - 1):
        got = derive_trial_seed(s, idx)
        assert got.dtype == np.uint64
        assert got.tolist() == [derive_trial_seed(s, int(i)) for i in idx]
        assert isinstance(derive_trial_seed(s, 2**32 + 5), int)
        assert derive_trial_seed(s, np.arange(100)).tolist() == got[:100].tolist()


def test_csv_helpers():
    g, W = scheme_matrix(SymmetricStar(2, 3), "optimal")
    _, traj = run_trial(W, initial_states(0, 0, 7),
                        QuantizerSpec(4, "probabilistic"), trial_seed=1,
                        return_trajectory=True)
    tcsv = trajectory_to_csv(traj)
    assert tcsv.splitlines()[0].startswith("t,node0")
