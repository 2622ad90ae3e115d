import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from star_consensus.topology import CcsStar, Custom, Graph, KcsStar, SymmetricStar
from star_consensus.weights import scheme_matrix
from star_consensus.spectral import slem
from star_consensus.simulate import (
    QuantizerSpec,
    _batch_run,
    _uniforms,
    derive_trial_seed,
    initial_states,
    monte_carlo,
    quantize,
    run_trial,
    trajectory_to_csv,
)

# Topologies of every family, with a custom graph that has a cycle and a chord.
KERNEL_TOPOLOGIES = (
    SymmetricStar(2, 3),
    KcsStar(2, 3, 2),
    CcsStar(2, 3),
    Custom(Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)))),
)
KERNEL_SCHEMES = ("uniform", "probabilistic", None)


def test_quantizer_levels():
    spec = QuantizerSpec(2, "uniform")
    assert spec.level_count == 4
    assert spec.delta == pytest.approx(2 / 3)
    assert np.allclose(spec.levels(), [-1, -1 / 3, 1 / 3, 1])
    with pytest.raises(ValueError):
        QuantizerSpec(0, "uniform")
    with pytest.raises(ValueError):
        QuantizerSpec(4, "stochastic")


def test_quantizer_bits_limit():
    assert QuantizerSpec(52, "uniform").level_count == 2**52
    for bits in (53, 60):
        with pytest.raises(ValueError):
            QuantizerSpec(bits, "probabilistic")


def test_level_index_needs_no_clip_up_to_52_bits():
    # 2/delta is exactly 2^b - 1, so x = 1 lands on the top index and no
    # input leaves [0, 2^b - 1]: quantize equals the rule with an index clip
    x = np.concatenate([
        [-1.7, -1.0, np.nextafter(-1.0, 0.0), 0.0, np.nextafter(1.0, 0.0), 1.0, 1.7],
        np.random.default_rng(5).uniform(-1.0, 1.0, 50)])
    for bits in range(1, 53):
        top = 2**bits - 1
        delta = QuantizerSpec(bits, None).delta
        assert 2.0 / delta == top
        p = (np.clip(x, -1.0, 1.0) + 1.0) / delta
        for u in (0.0, 0.5, 1.0 - 2.0**-53):
            ups = np.full(x.size, u)
            for scheme, idx in (("uniform", np.floor(p + 0.5)),
                                ("probabilistic",
                                 np.floor(p) + (ups < p - np.floor(p)))):
                ref = -1.0 + delta * np.clip(idx, 0, top)
                got = quantize(x, QuantizerSpec(bits, scheme), u=ups)
                assert np.array_equal(got, ref), (bits, scheme, u)


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


def _kernel_inputs(topo, trials, seed):
    weighting = "metropolis" if isinstance(topo, Custom) else "optimal"
    g, W = scheme_matrix(topo, weighting)
    x0 = np.array([initial_states(seed, i, g.node_count) for i in range(trials)])
    return W, x0, derive_trial_seed(seed, np.arange(trials))


def _batched(W, x0, spec, max_iters, seeds, batch):
    parts = [_batch_run(W, x0[i:i + batch], spec, max_iters, seeds[i:i + batch])
             for i in range(0, len(seeds), batch)]
    return tuple(np.concatenate(col) for col in zip(*parts))


def _kernel_digest():
    """Per-trial (reached, iterations, values) of one batch of 15 trials
    per topology and scheme, as exact text."""
    lines = []
    for topo in KERNEL_TOPOLOGIES:
        W, x0, seeds = _kernel_inputs(topo, 15, 3)
        for scheme in KERNEL_SCHEMES:
            reached, iters, values = _batch_run(
                W, x0, QuantizerSpec(4, scheme), 300, seeds)
            lines.append(repr((reached.tolist(), iters.tolist(),
                               [v.hex() for v in values.tolist()])))
    return "\n".join(lines)


@pytest.mark.parametrize("topo", KERNEL_TOPOLOGIES, ids=lambda t: type(t).__name__)
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
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)  # the CLI module sets them from STAR_CONSENSUS_THREADS
    expected = _kernel_digest()
    for threads in ("1", "2"):
        env["STAR_CONSENSUS_THREADS"] = threads
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == expected


def test_fig4_trajectory_is_trial0_of_batch():
    W, x0, seeds = _kernel_inputs(SymmetricStar(3, 5), 20, 7)
    for scheme in ("uniform", "probabilistic"):
        spec = QuantizerSpec(6, scheme)
        out, traj = run_trial(W, x0[0], spec, max_iters=500,
                              trial_seed=int(seeds[0]), return_trajectory=True)
        record = []
        reached, iters, values = _batch_run(W, x0, spec, 500, seeds, record)
        assert np.array_equal(np.array(record), traj)
        assert (bool(reached[0]), int(iters[0])) == (out.consensus_reached,
                                                     out.iterations)


def _oracle_run(W, x0, spec, max_iters, trial_seed):
    """One trial in Python floats: each row's nonzeros summed in column
    order, the public quantizer, and the draws of stage s at indices
    s*N .. s*N + N-1.  Returns (reached, iterations, value, trajectory)."""
    N = len(x0)
    rows = [[(j, float(W[i, j])) for j in range(N) if W[i, j] != 0.0]
            for i in range(N)]

    def q(x, stage):
        if spec.scheme is None:
            return x
        u = None
        if spec.scheme == "probabilistic":
            u = _uniforms(trial_seed, stage * N + np.arange(N))
        return quantize(np.array(x), spec, u=u).tolist()

    def done(x):
        if spec.scheme is not None:
            return all(v == x[0] for v in x), x[0]
        total = 0.0
        for v in x:
            total += v
        mean = total / N
        return max(abs(v - mean) for v in x) <= 1e-9, mean

    x = q([float(v) for v in x0], 1)
    traj = [x]
    t = 0
    reached, value = done(x)
    while not reached and t < max_iters:
        t += 1
        new = []
        for row in rows:
            acc = 0.0
            for j, w in row:
                acc += w * x[j]
            new.append(acc)
        x = q(new, t + 1)
        traj.append(x)
        reached, value = done(x)
    return reached, t, value if reached else float("nan"), traj


@pytest.mark.parametrize("topo", KERNEL_TOPOLOGIES, ids=lambda t: type(t).__name__)
def test_kernel_matches_python_oracle(topo):
    W, x0, seeds = _kernel_inputs(topo, 4, 11)
    steps = 0
    for scheme in KERNEL_SCHEMES:
        spec = QuantizerSpec(8, scheme)
        record = []
        reached, iters, values = _batch_run(W, x0, spec, 200, seeds, record)
        for i in range(len(seeds)):
            ok, t, value, traj = _oracle_run(W, x0[i], spec, 200, int(seeds[i]))
            steps += t
            assert (bool(reached[i]), int(iters[i])) == (ok, t)
            assert np.array_equal(values[i], value, equal_nan=True)
            if i == 0:
                assert np.array_equal(np.array(record), np.array(traj))
    assert steps >= 200
