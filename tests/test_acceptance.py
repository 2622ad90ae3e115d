"""Acceptance gate: one test per criterion, tolerances as stated.

Criteria 2 and 8 encode the published k-cored-star reference data
(k_max grid and curve minimum). The model's bound is k_max(m, n) =
floor(n * r*(m)), linear in n, as the optimal SLEM depends on (n, k) only
through k/n. The published grid is ceil(m * r*(n)) instead: the same rule
with m and n swapped and rounded up, and the published curve minimum is
that grid's entry. So the faithful implementation does not match them.
The two criteria assert the published values anyway and fail honestly;
``test_published_k_max_data_is_the_rule_with_m_and_n_swapped`` checks the
explanation.
"""

import math
import time

import numpy as np
import pytest

from star_consensus.topology import (
    CcsStar,
    Graph,
    KcsStar,
    SymmetricStar,
    build,
)
from star_consensus.weights import (
    WeightAssignment,
    per_stratum_from_matrix,
    scheme_matrix,
)
from star_consensus.spectral import (
    eig_symmetric,
    interlacing_check,
    k_max,
    slem,
    slem_closed_form,
    stratify,
)
from star_consensus.optimality import (
    central_weight_invariance,
    kcs_slem_curve,
    minimize_slem,
    slackness_residuals,
)
from star_consensus.simulate import QuantizerSpec, monte_carlo
from star_consensus.cli import REFERENCE_STATS, SIM_TOPOLOGIES, WEIGHTINGS


def test_criterion_01_reference_slem_values():
    """Six reference SLEM values: closed form within 1e-4 and dense
    eigensolve within 1e-8 of the closed form; runtime < 1 s."""
    t0 = time.monotonic()
    cases = [
        (SymmetricStar(3, 3), 0.91294),
        (CcsStar(2, 3), 0.866025),
        (KcsStar(3, 3, 2), 0.893816),
        (SymmetricStar(3, 40), 0.984946),
        (CcsStar(2, 40), 0.866025),
        (KcsStar(3, 40, 2), 0.972613),
    ]
    for topo, ref in cases:
        cf = slem_closed_form(topo)
        assert cf == pytest.approx(ref, abs=1e-4), topo
        g, W = scheme_matrix(topo, "optimal")
        assert slem(W) == pytest.approx(cf, abs=1e-8), topo
    assert time.monotonic() - t0 < 1.0


# published reference grid, rows m = 2..11, columns n = 1..8
REFERENCE_K_MAX = [
    [2, 7, 15, 26, 41, 58, 79, 104],
    [3, 10, 22, 39, 61, 87, 119, 155],
    [4, 13, 29, 52, 81, 116, 158, 207],
    [5, 16, 36, 64, 101, 145, 198, 259],
    [6, 20, 43, 77, 121, 174, 237, 310],
    [7, 23, 50, 90, 141, 203, 277, 362],
    [8, 26, 58, 103, 161, 232, 316, 413],
    [9, 29, 65, 115, 181, 261, 356, 465],
    [10, 32, 72, 128, 201, 290, 395, 517],
    [11, 36, 79, 141, 221, 319, 435, 568],
]


def test_criterion_02_reference_k_max_grid():
    """k_max exact integer match for m in 2..11, n in 1..8; < 30 s.

    KNOWN HONEST FAILURE: the published grid is ceil(m * r*(n)), the
    model's rule floor(n * r*(m)) with m and n swapped and rounded up
    (k_max(n, m) + 1 for n >= 2, m at n = 1; see
    test_published_k_max_data_is_the_rule_with_m_and_n_swapped).  The
    faithful bound is linear in n, as the optimal SLEM depends on (n, k)
    only through k/n, and is verified optimal by an independent
    semidefinite-program oracle.
    """
    t0 = time.monotonic()
    computed = [[k_max(m, n) for n in range(1, 9)] for m in range(2, 12)]
    assert time.monotonic() - t0 < 30.0
    assert computed == REFERENCE_K_MAX


def test_criterion_03_ccs_slem_formula_and_n_independence():
    """CCS optimal SLEM equals cos(pi/(2(m+1))) within 1e-8 for
    m in 1..6, constant over n in 2..8 within 1e-8."""
    for m in range(1, 7):
        ref = math.cos(math.pi / (2 * (m + 1)))
        vals = []
        for n in range(2, 9):
            g, W = scheme_matrix(CcsStar(m, n), "optimal")
            s = slem(W)
            assert abs(s - ref) < 1e-8, (m, n)
            vals.append(s)
        assert max(vals) - min(vals) < 1e-8, m


def test_criterion_04_stratification_and_interlacing():
    """Spectrum of W equals spec(W0) + (n-1) x spec(W1) within 1e-10
    elementwise for m <= 6, n <= 8, all four schemes; interlacing
    inequalities hold throughout."""
    for m in range(1, 7):
        for n in range(1, 9):
            topo = SymmetricStar(m, n)
            for scheme in WEIGHTINGS:
                g, W = scheme_matrix(topo, scheme)
                assign = WeightAssignment(
                    per_stratum=per_stratum_from_matrix(g, W))
                blocks = stratify(topo, assign)
                full = np.sort(eig_symmetric(W))
                stacked = np.sort(blocks.combined_spectrum())
                assert full.shape == stacked.shape
                assert np.max(np.abs(full - stacked)) < 1e-10, (m, n, scheme)
                rep = interlacing_check(blocks)
                assert rep.max_violation < 1e-10, (m, n, scheme)


def test_criterion_05_slackness_residuals():
    """All dual-certificate residuals <= 1e-9 for m, n <= 8, with the
    printed end-recursions and the direct matrix equations reported
    under separate keys."""
    for m in range(1, 9):
        for n in range(1, 9):
            rep = slackness_residuals(m, n)
            assert rep.max_residual() <= 1e-9, (m, n, rep.residuals)
            # end conditions tracked separately from the matrix form
            assert {"eq25_c", "eq26_c", "matrix_w1", "matrix_w0"} <= set(
                rep.residuals)


def test_criterion_06_optimizer_matches_closed_forms():
    """Numerical minimization on the three star instances lands within
    1e-3 of the closed-form SLEM and 1e-2 of the central weights; < 60 s
    total."""
    t0 = time.monotonic()
    cases = [
        (SymmetricStar(2, 3), 1, 2 / 5),
        (CcsStar(2, 4), 0, 1 / 4),
        (KcsStar(2, 3, 2), 1, 2 / 7),
    ]
    for topo, central, w_ref in cases:
        g = build(topo)
        res = minimize_slem(g, symmetry_classes=dict(g.stratum_of_edge))
        assert abs(res.slem - slem_closed_form(topo)) < 1e-3, topo
        assert abs(res.class_weights[central] - w_ref) < 1e-2, topo
    assert time.monotonic() - t0 < 60.0


def test_criterion_07_central_weight_invariance():
    """At least three non-path branch constructions recover the central
    weight (2/(2+n) star core, 1/n complete core) within 1e-2."""
    tri = Graph(3, ((0, 1), (0, 2), (1, 2)))
    star3 = Graph(4, ((0, 1), (0, 2), (0, 3)))
    cyc4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    path2 = Graph(3, ((0, 1), (1, 2)))
    cases = [
        ("star", [(tri, 0)] * 3),
        ("star", [(star3, 0)] * 3),
        ("complete", [(cyc4, 0)] * 3),
        ("complete", [(path2, 0), (path2, 0), (tri, 0), (tri, 0)]),
    ]
    for core, branches in cases:
        rep = central_weight_invariance(core, branches)
        assert rep.deviation <= 1e-2, (core, rep)


def test_criterion_08_kcs_curve_minimum():
    """The (k, SLEM) curve for n=3, m=2 over k in 1..30 attains its
    minimum at k = 15 (published figure).

    KNOWN HONEST FAILURE: the true curve (closed form up to
    k_max(2, 3) = 9, the certified tied optimum beyond) attains its
    minimum at k = 10; an independent semidefinite-program oracle
    confirms the optimal SLEM is already increasing well before k = 15.
    The published 15 is the published grid's entry at (m, n) = (2, 3),
    ceil(2 * r*(3)), the bound of the star with m and n swapped, rounded
    up: on that star (n = 2, m = 3) the certified minimum lies at
    k_max(3, 2) = 14 (see
    test_published_k_max_data_is_the_rule_with_m_and_n_swapped).
    """
    curve = kcs_slem_curve(3, 2, range(1, 31))
    ks = [k for k, _ in curve]
    vals = [s for _, s in curve]
    assert ks[int(np.argmin(vals))] == 15


def test_published_k_max_data_is_the_rule_with_m_and_n_swapped():
    """Why criteria 02 and 08 fail: the published grid is ceil(m * r*(n)),
    which is k_max(n, m) + 1 for n >= 2 (m * r*(n) is not an integer
    there) and m at n = 1 (r*(1) = 1), in all 80 cells; and the published
    curve minimum, k = 15 at (n, m) = (3, 2), is that grid's entry, while
    the certified curve of the swapped star (n = 2, m = 3) bottoms out at
    k = 14."""
    for m in range(2, 12):
        for n in range(1, 9):
            swapped = k_max(n, m) + 1 if n >= 2 else m
            assert REFERENCE_K_MAX[m - 2][n - 1] == swapped, (m, n)
    published_minimum = REFERENCE_K_MAX[2 - 2][3 - 1]
    assert published_minimum == 15
    curve = kcs_slem_curve(2, 3, range(1, 31))
    k_min = curve[int(np.argmin([s for _, s in curve]))][0]
    assert k_min == 14 == published_minimum - 1 == k_max(3, 2)


@pytest.fixture(scope="module")
def quantized_sweep():
    t0 = time.monotonic()
    stats = {}
    for table_id, topo in SIM_TOPOLOGIES.items():
        for bits in (4, 8):
            spec = QuantizerSpec(bits, "probabilistic")
            for scheme in WEIGHTINGS:
                stats[(table_id, bits, scheme)] = monte_carlo(
                    topo, scheme, spec, 10_000, master_seed=0)
    return stats, time.monotonic() - t0


def test_criterion_09a_psi_matches_reference(quantized_sweep):
    """psi >= 99 wherever the reference reports 100 at 4 and 8 bits."""
    stats, _ = quantized_sweep
    for (table_id, bits, scheme), st in stats.items():
        if REFERENCE_STATS[table_id][bits][scheme][0] == 100:
            assert st.psi >= 99.0, (table_id, bits, scheme, st.psi)


def test_criterion_09b_eta_close_and_ordered(quantized_sweep):
    """Optimal-weight eta within +-35% of the reference on every 4- and
    8-bit cell, and optimal eta <= Metropolis eta at 8 bits."""
    stats, _ = quantized_sweep
    for table_id in SIM_TOPOLOGIES:
        for bits in (4, 8):
            ref_eta = REFERENCE_STATS[table_id][bits]["optimal"][1]
            got = stats[(table_id, bits, "optimal")].eta
            assert abs(got - ref_eta) <= 0.35 * ref_eta, (
                table_id, bits, got, ref_eta)
        assert (stats[(table_id, 8, "optimal")].eta
                <= stats[(table_id, 8, "metropolis")].eta), table_id


def test_criterion_09c_mean_error_small(quantized_sweep):
    """|mu| <= 0.1 normalized units at 4 and 8 bits for all schemes."""
    stats, _ = quantized_sweep
    for key, st in stats.items():
        assert abs(st.mu) <= 0.1, (key, st.mu)


def test_criterion_09d_uniform_vs_probabilistic():
    """On the 5-branch, length-3 star at 6 bits: uniform quantization
    psi < 10, probabilistic psi >= 99."""
    topo = SymmetricStar(3, 5)
    uni = monte_carlo(topo, "optimal", QuantizerSpec(6, "uniform"),
                      2_000, master_seed=1, max_iters=2_000)
    prob = monte_carlo(topo, "optimal", QuantizerSpec(6, "probabilistic"),
                       2_000, master_seed=1)
    assert uni.psi < 10.0
    assert prob.psi >= 99.0


def test_criterion_09_runtime(quantized_sweep):
    """Full sweep (3 topologies x 4 weightings x 2 bit depths x 10,000
    trials) within the 10-minute budget."""
    _, elapsed = quantized_sweep
    assert elapsed < 600.0


def test_criterion_10_determinism(tmp_path):
    """Seeded runs are byte-identical and independent of batching."""
    from star_consensus.cli import main

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (a, b):
        assert main(["table", "--id", "3", "--trials", "300", "--seed",
                     "4", "--bits", "4", "--output", str(f)]) == 0
    assert a.read_bytes() == b.read_bytes()

    # batching independence: identical stats from one batch of 60 and
    # from accumulating three batches' trials via per-trial streams
    from star_consensus.simulate import (derive_trial_seed, initial_states,
                                         run_trial)
    from star_consensus.weights import scheme_matrix as _sm

    topo = SymmetricStar(2, 3)
    spec = QuantizerSpec(4, "probabilistic")
    whole = monte_carlo(topo, "optimal", spec, 60, master_seed=2)
    g, W = _sm(topo, "optimal")
    outs = [run_trial(W, initial_states(2, i, g.node_count), spec,
                      trial_seed=derive_trial_seed(2, i)) for i in range(60)]
    ok = [o for o in outs if o.consensus_reached]
    assert whole.psi == 100 * len(ok) / 60
    assert whole.eta == np.mean([o.iterations for o in ok])
