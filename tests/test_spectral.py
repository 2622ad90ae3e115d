import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal
from scipy.optimize import brentq

from star_consensus.topology import CcsStar, Graph, KcsStar, SymmetricStar, build
from star_consensus import spectral
from star_consensus.spectral import (
    SpectralError,
    char_kcs,
    eig_symmetric,
    interlacing_check,
    k_max,
    slem,
    slem_closed_form,
    stratify,
    theta_root_kcs,
)
from star_consensus.weights import (
    WeightAssignment,
    assemble_matrix,
    metropolis_weights,
    optimal_weights,
    per_stratum_from_matrix,
    scheme_matrix,
)


def _stratum_matrix(topo, assignment):
    """W of a star family at per-stratum weights."""
    g = build(topo)
    return assemble_matrix(g, assignment.for_strata(map(g.stratum_of_edge.get, g.edges)))


def _spectrum(n, k, w):
    """The block spectrum of KcsStar(m, n, k) at weights w1..wm and its
    gradients; rows of w and one k per row give a stack."""
    return spectral._block_spectrum(spectral.sector_block(n, k, w), n, k, gradients=True)


def _blocks_spectrum(blocks):
    """The block spectrum of a stratified point and its gradients."""
    return spectral._block_spectrum(blocks.w0_block, blocks.n, blocks.k, gradients=True)


def test_eig_symmetric_self_check():
    rng = np.random.default_rng(1)
    for n in (3, 10, 50):
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2
        lam = eig_symmetric(A)
        assert np.all(np.diff(lam) <= 0)
        assert abs(lam.sum() - np.trace(A)) < 1e-9
        assert abs(np.sum(lam**2) - np.sum(A * A)) < 1e-9


def test_eig_symmetric_rejects_asymmetric():
    with pytest.raises(SpectralError):
        eig_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_slem_known_values():
    # 2-node averaging with weight 1/2 mixes in one step
    W = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert slem(W) == pytest.approx(0.0, abs=1e-14)
    assert slem(np.eye(3)) == pytest.approx(1.0)


def test_slem_requires_stochastic():
    with pytest.raises(SpectralError):
        slem(np.array([[0.4, 0.5], [0.5, 0.4]]))


def test_slem_needs_two_nodes():
    W = metropolis_weights(Graph(1, ()))
    assert W.shape == (1, 1)
    with pytest.raises(SpectralError, match="at least two nodes"):
        slem(W)


def test_stratify_block_shapes_and_entries():
    topo = SymmetricStar(2, 3)
    blocks = stratify(topo, optimal_weights(topo))
    assert blocks.w0_block.shape == (3, 3)
    assert blocks.w0_block[1:, 1:].shape == (2, 2)
    assert blocks.n - 1 == 2
    w1 = 2 / 5
    assert blocks.w0_block[0, 0] == pytest.approx(1 - 3 * w1)
    assert blocks.w0_block[0, 1] == pytest.approx(math.sqrt(3) * w1)
    assert blocks.w0_block[1, 1] == pytest.approx(1 - w1 - 0.5)


def test_stratification_matches_full_spectrum():
    for scheme in ("optimal", "metropolis", "best-constant"):
        topo = SymmetricStar(3, 4)
        g, W = scheme_matrix(topo, scheme)
        assign = WeightAssignment(per_stratum=per_stratum_from_matrix(g, W))
        blocks = stratify(topo, assign)
        full = np.sort(eig_symmetric(W))
        stacked = np.sort(blocks.combined_spectrum())
        assert np.max(np.abs(full - stacked)) < 1e-10


def test_stratify_kcs_matches_dense_spectrum():
    # random per-stratum weights: the blocks are exact for any tied weights
    rng = np.random.default_rng(5)
    for m in range(1, 5):
        for n in range(1, 6):
            for k in range(1, 8):
                topo = KcsStar(m, n, k)
                assign = WeightAssignment(per_stratum=dict(
                    enumerate(rng.uniform(0.05, 0.6, m), start=1)))
                W = _stratum_matrix(topo, assign)
                blocks = stratify(topo, assign)
                full = np.sort(np.linalg.eigvalsh(W))
                stacked = np.sort(blocks.combined_spectrum())
                assert full.shape == stacked.shape
                assert np.max(np.abs(full - stacked)) < 1e-12, (m, n, k)
                assert blocks.slem() == pytest.approx(slem(W), abs=1e-12)


def test_stratify_kcs_block_entries():
    m, n, k = 3, 4, 5
    w = {1: 0.1, 2: 0.3, 3: 0.4}
    blocks = stratify(KcsStar(m, n, k), WeightAssignment(per_stratum=w))
    # W0 is the one block stored: W1 and the core value are read off it
    assert [f.name for f in dataclasses.fields(blocks)] == ["w0_block", "n", "k"]
    with pytest.raises(TypeError):
        dataclasses.replace(blocks, w1_block=0.95 * np.eye(m))
    assert (blocks.n, blocks.k) == (n, k)
    assert blocks.w0_block[0, 0] == pytest.approx(1 - n * w[1])
    assert blocks.w0_block[0, 1] == pytest.approx(math.sqrt(n * k) * w[1])
    assert blocks.w0_block[1, 1] == pytest.approx(1 - k * w[1] - w[2])
    _assert_drops_sector_perron_eigenvalue(blocks, n, k)


@pytest.mark.parametrize("change", [
    {"n": 5},  # W0 of n = 3 does not fix (1, sqrt(5), sqrt(5))
    {"k": 2},
    {"n": 0},
    {"n": 3.0},
    {"k": True},
    {"w0_block": np.eye(1)},  # order 1
    {"w0_block": np.ones((3, 3)) / 3},  # not tridiagonal
    {"w0_block": np.triu(np.ones((3, 3)))},  # not symmetric
])
def test_stratified_blocks_refuse_a_record_no_star_describes(change):
    blocks = stratify(SymmetricStar(2, 3), optimal_weights(SymmetricStar(2, 3)))
    with pytest.raises(SpectralError):
        dataclasses.replace(blocks, **change)


def test_stratified_blocks_accept_another_star_with_the_same_sector_block():
    # W0 of SymmetricStar(2, 3) at (w1, w2) is the sector block of
    # KcsStar(2, 6, 2) at (w1/2, w2): the coupling sqrt(n*k)*w1 and the
    # corner 1 - n*w1 agree
    blocks = stratify(SymmetricStar(2, 3), optimal_weights(SymmetricStar(2, 3)))
    other = dataclasses.replace(blocks, n=6, k=2)
    w = optimal_weights(SymmetricStar(2, 3)).per_stratum
    W = _stratum_matrix(KcsStar(2, 6, 2),
                        WeightAssignment(per_stratum={1: w[1] / 2, 2: w[2]}))
    assert np.allclose(other.combined_spectrum(), eig_symmetric(W),
                       rtol=0, atol=1e-14)


def _assert_drops_sector_perron_eigenvalue(blocks, n, k):
    """W0 maps (sqrt(k), sqrt(n), ..., sqrt(n)) to itself, and the first m
    entries of the nontrivial spectrum are W0's spectrum without exactly
    that eigenvalue 1."""
    m = blocks.w0_block.shape[0] - 1
    perron = np.array([math.sqrt(k)] + [math.sqrt(n)] * m)
    assert np.allclose(blocks.w0_block @ perron, perron, rtol=0, atol=1e-14)
    lam = _blocks_spectrum(blocks)[0]
    assert lam.size == m + m * (n > 1) + (k > 1)
    assert np.allclose(np.append(lam[:m], 1.0),
                       np.sort(np.linalg.eigvalsh(blocks.w0_block)), rtol=0, atol=1e-14)


def test_stratify_symmetric_is_kcs_k1():
    # SymmetricStar must stratify exactly as the k-cored star it stands for
    for m, n in ((1, 1), (2, 3), (4, 5)):
        assign = optimal_weights(SymmetricStar(m, n))
        a = stratify(SymmetricStar(m, n), assign)
        b = stratify(KcsStar(m, n, 1), assign)
        assert np.array_equal(a.w0_block, b.w0_block)
        assert (a.n, a.k) == (b.n, b.k) == (n, 1)
        for got, want in zip(_blocks_spectrum(a), _blocks_spectrum(b)):
            assert np.array_equal(got, want)
        _assert_drops_sector_perron_eigenvalue(a, n, 1)


def _nontrivial_cases():
    """(topology, weights) for the symmetric and k-cored stars with m 1..4,
    n 1..5 and k 1..4, at the closed-form and at random positive weights."""
    rng = np.random.default_rng(15)
    for m in range(1, 5):
        for n in range(1, 6):
            for topo in [SymmetricStar(m, n)] + [KcsStar(m, n, k) for k in range(1, 5)]:
                yield topo, optimal_weights(topo)
                yield topo, WeightAssignment(per_stratum=dict(
                    enumerate(rng.uniform(0.05, 0.6, m), start=1)))


def test_nontrivial_spectrum_matches_dense_eigensolve():
    for topo, assign in _nontrivial_cases():
        blocks = stratify(topo, assign)
        lam, grad = _blocks_spectrum(blocks)
        m = topo.m
        assert grad.shape == (lam.size, m)
        # one copy per block: W0 without its eigenvalue 1, W1, the core value
        expanded = ([lam[:m], [1.0]] + [lam[m:2 * m]] * (blocks.n - 1)
                    + [lam[-1:]] * (blocks.k - 1))
        dense = eig_symmetric(_stratum_matrix(topo, assign))
        got = np.sort(np.concatenate(expanded))[::-1]
        assert got.shape == dense.shape
        assert np.max(np.abs(got - dense)) <= 1e-12, topo


def _gaps_within_blocks(lam, m):
    """Distance from each entry of a nontrivial spectrum to the nearest
    other eigenvalue of its own block, W0's eigenvalue 1 included."""
    gaps = []
    for part in (np.append(lam[:m], 1.0), lam[m:2 * m], lam[2 * m:]):
        d = np.abs(part[:, None] - part[None, :]) + np.diag(np.full(part.size, np.inf))
        gaps.append(d.min(axis=1, initial=np.inf))
    gaps[0] = np.delete(gaps[0], m)
    return np.concatenate(gaps)


def test_nontrivial_spectrum_gradients_match_central_differences():
    # at positive weights the blocks are unreduced tridiagonal, so every
    # eigenvalue is simple; on this grid each is 0.04 or more from the next
    h = 1e-6
    for topo, assign in _nontrivial_cases():
        m, n, k = topo.m, topo.n, topo.k
        w = np.array([assign.per_stratum[j] for j in range(1, m + 1)])
        lam, grad = _spectrum(n, k, w)
        fd = np.column_stack([(_spectrum(n, k, w + h * e)[0] - _spectrum(n, k, w - h * e)[0])
                              / (2 * h) for e in np.eye(m)])
        assert np.all(_gaps_within_blocks(lam, m) > 1e-3), topo
        assert np.max(np.abs(grad - fd)) <= 1e-6, topo


def _einsum_gradients(blocks, n, k):
    """The nontrivial spectrum's gradients by the dense einsum over the
    stacked slopes dW0/dw_i (W0 at the unit vectors less W0 at zero), the
    O(m^4) form that the band form replaced."""
    m = blocks.w0_block.shape[0] - 1
    slopes = (np.stack([spectral.sector_block(n, k, e) for e in np.eye(m)])
              - spectral.sector_block(n, k, np.zeros(m)))
    vals, vecs = np.linalg.eigh(blocks.w0_block)
    grads = np.einsum("aj,iab,bj->ji", vecs, slopes, vecs)
    parts = [np.delete(grads, np.argmin(np.abs(vals - 1.0)), 0)]
    if n > 1:
        vecs = np.linalg.eigh(blocks.w0_block[1:, 1:])[1]
        parts.append(np.einsum("aj,iab,bj->ji", vecs, slopes[:, 1:, 1:], vecs))
    if k > 1:
        parts.append(slopes[None, :, 0, 0])
    return np.concatenate(parts)


def test_nontrivial_spectrum_band_gradients_match_einsum():
    for topo, assign in _nontrivial_cases():
        blocks = stratify(topo, assign)
        grad = _blocks_spectrum(blocks)[1]
        want = _einsum_gradients(blocks, topo.n, topo.k)
        assert grad.shape == want.shape
        # entries reach n + k in size, so the bound is relative above 1
        assert np.all(np.abs(grad - want) <= 1e-15 * np.maximum(1.0, np.abs(want))), topo


def test_block_slem_and_interlacing_form_no_gradients(monkeypatch):
    cases = [(stratify(topo, assign), _stratum_matrix(topo, assign))
             for topo, assign in _nontrivial_cases()]
    want = [(blocks.slem(), interlacing_check(blocks, W)) for blocks, W in cases]

    def gradients_not_used(*args):
        raise AssertionError("gradients formed")

    monkeypatch.setattr(spectral, "_band_gradients", gradients_not_used)
    assert [(blocks.slem(), interlacing_check(blocks, W)) for blocks, W in cases] == want


@pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (2, 1), (2, 3), (5, 4), (60, 3)])
def test_stacked_blocks_give_each_point_its_own_bits(m, n):
    # one eigensolve per block kind over the stack, and the same bits per
    # point as its blocks alone
    rng = np.random.default_rng(m * 10 + n)
    ks = np.array([2, 3, 7, 40, 41])
    w = rng.uniform(0.05, 0.6, (ks.size, m))
    lam, grad = _spectrum(n, ks, w)
    assert lam.shape == (ks.size, m + m * (n > 1) + 1)
    for p, k in enumerate(ks):
        alone = _spectrum(n, int(k), w[p])
        assert np.array_equal(lam[p], alone[0])
        assert np.array_equal(grad[p], alone[1])


def test_stack_refuses_mixed_core():
    # the core eigenvalue is in every spectrum of a stack or in none
    with pytest.raises(SpectralError, match="k must be 1 at every point or at none"):
        _spectrum(3, np.array([1, 2]), np.full((2, 2), 0.4))


def test_nontrivial_spectrum_slem_at_m200_matches_closed_form():
    # band gradients keep the block SLEM at O(m^3) for the two eigensolves
    topo = KcsStar(200, 3, 2)
    assert stratify(topo, optimal_weights(topo)).slem() == \
        pytest.approx(slem_closed_form(topo), abs=1e-12)


def test_stratify_rejects_ccs():
    with pytest.raises(SpectralError):
        stratify(CcsStar(2, 3), optimal_weights(CcsStar(2, 3)))


def test_interlacing_holds_and_lambda2_identity():
    topo = SymmetricStar(3, 5)
    g, W = scheme_matrix(topo, "optimal")
    blocks = stratify(topo, optimal_weights(topo))
    rep = interlacing_check(blocks, W)
    assert rep.holds
    assert rep.lambda2_matches_w1_top
    # the smallest eigenvalue comes from the center block at the optimum
    assert not rep.lambda_min_matches_w1_bottom
    # past k_max, lambda2 is the core eigenvalue 1 - n*w1, above the W1 top
    topo = KcsStar(2, 3, 12)
    blocks = stratify(topo, optimal_weights(topo))
    assert blocks.w0_block[0, 0] > np.linalg.eigvalsh(blocks.w0_block[1:, 1:])[-1] + 0.05
    # with one branch, W1 does not occur in W and lambda2 comes from W0;
    # W and its blocks hold the same weights, past k_max the tied optimum
    for topo in (topo, SymmetricStar(3, 1), KcsStar(2, 1, 3)):
        g, W = scheme_matrix(topo, "optimal")
        blocks = stratify(topo, WeightAssignment(per_stratum_from_matrix(g, W)))
        rep = interlacing_check(blocks, W)
        assert rep.holds and rep.max_violation <= 1e-12
        assert rep.lambda2_matches_w1_top


def test_interlacing_zero_weights_degenerate():
    topo = SymmetricStar(2, 3)
    zero = WeightAssignment(per_stratum={1: 0.0, 2: 0.0})
    rep = interlacing_check(stratify(topo, zero))
    assert rep.holds and rep.max_violation <= 1e-12


def test_interlacing_refuses_a_matrix_of_another_star():
    # SymmetricStar(3, 4) has 13 nodes, SymmetricStar(3, 5) 16; KcsStar(2, 3, 4) 10
    for topo, other in ((SymmetricStar(3, 4), SymmetricStar(3, 5)),
                        (KcsStar(2, 3, 4), KcsStar(2, 3, 5))):
        blocks = stratify(topo, optimal_weights(topo))
        W = scheme_matrix(other, "optimal")[1]
        order = build(topo).node_count
        with pytest.raises(SpectralError, match=f"order {len(W)}.* order {order}"):
            interlacing_check(blocks, W)


def test_interlacing_report_holds_python_bools():
    topo = SymmetricStar(3, 5)
    blocks = stratify(topo, optimal_weights(topo))
    for W in (None, scheme_matrix(topo, "optimal")[1]):
        report = dataclasses.asdict(interlacing_check(blocks, W))
        assert [type(v) for v in report.values()] == [bool, float, bool, bool]
        assert json.loads(json.dumps(report)) == report


def test_symmetric_root_vs_eigen():
    for m in range(1, 7):
        for n in range(1, 9):
            topo = SymmetricStar(m, n)
            g, W = scheme_matrix(topo, "optimal")
            assert slem_closed_form(topo) == pytest.approx(slem(W), abs=1e-9)


def test_kcs_root_vs_eigen():
    for m in range(1, 5):
        for n in range(1, 7):
            for k in range(1, min(4, k_max(m, n)) + 1):
                topo = KcsStar(m, n, k)
                g, W = scheme_matrix(topo, "optimal")
                assert slem_closed_form(topo) == pytest.approx(slem(W),
                                                               abs=1e-9)


def test_ccs_slem_independent_of_n():
    for m in range(1, 7):
        ref = math.cos(math.pi / (2 * (m + 1)))
        for n in range(2, 9):
            assert slem_closed_form(CcsStar(m, n)) == pytest.approx(ref)
            g, W = scheme_matrix(CcsStar(m, n), "optimal")
            assert slem(W) == pytest.approx(ref, abs=1e-9)


def test_theta_roots_in_open_interval():
    for m, n, k in ((1, 1, 1), (2, 2, 1), (4, 8, 1), (8, 3, 1), (1, 3, 3), (3, 2, 7)):
        t = theta_root_kcs(m, n, k)
        assert 0 < t < math.pi / (2 * m)
        assert abs(char_kcs(t, m, n, k)) < 1e-9
        # no smaller root: f < 0 on a fine grid below t
        assert all(char_kcs(x, m, n, k) < 0 for x in np.linspace(0.0, t, 1001)[:-1])


def _block_slem(m, n, k):
    """SLEM of KcsStar(m, n, k) at w1 = 2/(n+2k), tail weights 1/2, from
    its stratified tridiagonal blocks, built from diagonals only: the sector
    block (size m+1), the tail block (size m, n-1 copies) and the
    eigenvalue 1 - n*w1 (k-1 copies)."""
    w1 = 2.0 / (n + 2 * k)
    tail_d = np.zeros(m)
    tail_d[-1] = 0.5
    tail_d[0] = 1.0 - k * w1 - (0.5 if m > 1 else 0.0)
    tail_e = np.full(m - 1, 0.5)
    sector_d = np.concatenate(([1.0 - n * w1], tail_d))
    sector_e = np.concatenate(([math.sqrt(n * k) * w1], tail_e))

    def eig(d, e, i):
        if d.size == 1:
            return d[0]
        return eigvalsh_tridiagonal(d, e, select="i", select_range=(i, i))[0]

    top = [eig(sector_d, sector_e, m - 1)]  # index m is the eigenvalue 1
    bottom = [eig(sector_d, sector_e, 0)]
    if n > 1:
        top.append(eig(tail_d, tail_e, m - 1))
        bottom.append(eig(tail_d, tail_e, 0))
    if k > 1:
        top.append(1.0 - n * w1)
        bottom.append(1.0 - n * w1)
    return max(max(top), -min(bottom))


def test_block_oracle_matches_dense_eigensolve():
    for m, n, k in ((1, 1, 1), (1, 3, 2), (2, 3, 1), (3, 3, 2), (4, 5, 3), (3, 40, 2)):
        g, W = scheme_matrix(KcsStar(m, n, k), "optimal")
        assert _block_slem(m, n, k) == pytest.approx(slem(W), abs=1e-12)


@pytest.mark.parametrize("m", [1, 1000, 6000, 20000])
def test_large_m_roots_vs_tridiagonal_blocks(m):
    for n, k in ((3, 1), (40, 2), (3, 2), (8, 1)):
        topo = SymmetricStar(m, n) if k == 1 else KcsStar(m, n, k)
        t = theta_root_kcs(m, n, k)
        assert 0 < t < math.pi / (2 * m - 1)
        assert abs(char_kcs(t, m, n, k)) <= 1e-9 * (n + 2 * k)
        assert slem_closed_form(topo) == pytest.approx(_block_slem(m, n, k), abs=1e-9)


def test_k_max_boundary():
    # at k_max the ignored central eigenvalue is still below the tail
    # SLEM; at k_max + 1 it exceeds it
    for m, n in ((2, 3), (3, 4), (5, 2), (1, 200), (11, 200)):
        km = k_max(m, n)

        def central(k):
            return (2 * k - n) / (2 * k + n)

        assert central(km) <= math.cos(theta_root_kcs(m, n, km)) + 1e-12
        assert central(km + 1) > math.cos(theta_root_kcs(m, n, km + 1))


def test_slem_closed_form_refuses_past_k_max():
    # the closed form is the optimal SLEM exactly up to k_max; past it
    # there is no closed-form answer, so it is refused
    for m in range(1, 7):
        for n in range(1, 9):
            km = k_max(m, n)
            for k in range(1, km + 4):
                if k <= km:
                    slem_closed_form(KcsStar(m, n, k))
                else:
                    with pytest.raises(SpectralError, match=f"k_max = {km}"):
                        slem_closed_form(KcsStar(m, n, k))
    assert k_max(2, 3) == 9
    slem_closed_form(KcsStar(2, 3, 9))
    with pytest.raises(SpectralError):
        slem_closed_form(KcsStar(2, 3, 10))


def test_roots_and_k_max_need_integer_parameters():
    # a float or bool parameter would otherwise give an answer: k_max(2, 3.5)
    # was 11, and theta_root_kcs(2, 3, 2.5) an angle
    for args in ((2, 3, 2.5), (2.0, 3, 1), (2, 3.5, 1), (True, 3, 1),
                 (2, 3, np.True_), (0, 3, 1)):
        with pytest.raises(SpectralError, match="must be integers >= 1"):
            theta_root_kcs(*args)
    for args in ((2, 3.5), (2.0, 3), (True, 3), (2, False), (2, 0)):
        with pytest.raises(SpectralError, match="must be integers >= 1"):
            k_max(*args)
    assert theta_root_kcs(np.int64(2), 3, np.int32(1)) == theta_root_kcs(2, 3, 1)
    assert k_max(np.int64(2), np.int64(3)) == k_max(2, 3) == 9
    assert slem_closed_form(KcsStar(np.int64(2), 3, 1)) == \
        slem_closed_form(SymmetricStar(2, 3))
    # the characteristic function itself keeps real n and k
    assert math.isfinite(char_kcs(0.3, 2, 3.5, 0.5))


def _k_max_by_increment(m, n):
    """The k-increment loop: raise k from 1 until the central eigenvalue
    (2(k+1)-n)/(2(k+1)+n) first exceeds cos(theta(m, n, k+1))."""
    k = 1
    while True:
        s = math.cos(theta_root_kcs(m, n, k + 1))
        if (2 * (k + 1) - n) / (2 * (k + 1) + n) > s:
            return k
        k += 1


def test_k_max_matches_increment_loop():
    for m in range(2, 12):
        for n in list(range(1, 9)) + [40, 200]:
            assert k_max(m, n) == _k_max_by_increment(m, n), (m, n)


def test_k_max_m1_is_n():
    # at m = 1, k = n the condition is an exact tie: cos(theta) = 1/3 =
    # (2n-n)/(2n+n), and the rule's "<=" keeps k = n
    for n in (2, 3, 5):
        assert k_max(1, n) == n
        topo = KcsStar(1, n, n)
        g, W = scheme_matrix(topo, "optimal")
        assert slem(W) == pytest.approx(slem_closed_form(topo), abs=1e-12)
        assert slem_closed_form(topo) == pytest.approx(1 / 3, abs=1e-12)


# k_max(m, n) = floor(n * r*(m)) with r*(m) from a 60-digit (mpmath)
# bisection of the crossing function _crossing_char on (0, pi/(2m)),
# 210 halvings.  At these pairs a 1e-12 tolerance on the float condition
# (2k-n)/(2k+n) <= cos(theta) accepts larger k (up to 657 more)
K_MAX_REFERENCES = [(85, 1000, 5856036), (97, 200, 1525263),
                    (200, 1000, 32422447), (300, 13, 948361),
                    (300, 1000, 72950920), (500, 1000, 202642034),
                    (1000, 1000, 810569136)]


@pytest.mark.parametrize("m,n,want", K_MAX_REFERENCES)
def test_k_max_matches_60_digit_references(m, n, want):
    assert k_max(m, n) == want


def test_slem_closed_form_refuses_one_past_large_m_k_max():
    slem_closed_form(KcsStar(300, 13, 948361))
    with pytest.raises(SpectralError, match="k_max = 948361"):
        slem_closed_form(KcsStar(300, 13, 948362))


# sha256 of theta_root_kcs(m, n, k).hex() for m 1..12, n 1..8 and k in
# {1, 2, k_max(m, n)}, one line "m n k root" each
THETA_ROOTS_SHA256 = "f661e23c48ee57fbab72146e9027daa40fb3155c8d103bc0302a075b22cbc19e"


def test_theta_roots_pinned_bit_for_bit():
    lines = [f"{m} {n} {k} {theta_root_kcs(m, n, k).hex()}"
             for m in range(1, 13) for n in range(1, 9)
             for k in sorted({1, 2, k_max(m, n)})]
    assert len(lines) == 286
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == THETA_ROOTS_SHA256


def test_k_max_refuses_what_floating_point_cannot_decide():
    # at n = 10**15, n * r*(2) is near 3.2e15, where a float's ulp is 0.5
    # and r*'s own error about 2: k_max once read 3186140661634507 there
    with pytest.raises(SpectralError, match="undecided in floating point"):
        k_max(2, 10**15)
    with pytest.raises(SpectralError, match="undecided in floating point"):
        slem_closed_form(KcsStar(2, 10**15, 2))
    # k = 1 never exceeds k_max, so the symmetric star keeps its closed form
    assert 0.99 < slem_closed_form(SymmetricStar(2, 10**15)) < 1.0
    assert k_max(1, 10**15) == 10**15  # m = 1 is exact


@pytest.mark.parametrize("r,want", [
    (4.0, None), (math.nextafter(4.0, 5.0), None), (math.nextafter(4.0, 0.0), None),
    (4.0 + 1e-14, 4), (4.0 - 1e-14, 3)])
def test_k_max_guard_on_both_sides_of_an_integer(monkeypatch, r, want):
    # with n = 1, n * r* = r: within 8e-16 r of 4 from either side is
    # refused, and 1e-14 away floors as usual
    monkeypatch.setattr(spectral, "_r_star", lambda m: r)
    if want is None:
        with pytest.raises(SpectralError, match="undecided"):
            k_max(2, 1)
    else:
        assert k_max(2, 1) == want


def test_k_max_guard_refuses_no_probed_pair():
    # the least relative distance of n * r*(m) to an integer on m 2..300 x
    # n 1..1000 is 1.8e-14, far from spectral.K_MAX_GUARD = 8e-16
    for m in range(2, 301):
        for n in range(1, 1001):
            k_max(m, n)
    # nor is any of the benchmark's 12 closed-form roots refused
    for m in (10, 100, 1000, 4000, 6000, 20000):
        for topo in (SymmetricStar(m, 3), KcsStar(m, 40, 2)):
            k_max(m, topo.n)
            assert 0 < slem_closed_form(topo) < 1


def _brentq_both(f, a, b, args, xtol):
    """(root, iterations) of the package's Brent port and of scipy's."""
    got = spectral._brentq(f, a, b, args, xtol)
    root, info = brentq(f, a, b, args=args, xtol=xtol, full_output=True)
    return got, (root, info.iterations)


@pytest.mark.parametrize("n,k", [(1, 1), (3, 1), (40, 1), (2, 3), (3, 9), (40, 2), (8, 233)])
def test_brentq_port_matches_scipy_on_char_kcs(n, k):
    for m in list(range(1, 21)) + [1000, 6000, 20000]:
        right = math.pi / (2 * m)
        got, want = _brentq_both(char_kcs, 0.0, right, (m, n, k), spectral.EPS * right)
        assert got == want, (m, n, k)
        # theta_root_kcs solves the same function on the same bracket
        assert theta_root_kcs(m, n, k) == want[0], (m, n, k)


def test_brentq_port_matches_scipy_on_threshold_char():
    for m in range(1, 51):
        right = math.pi / (2 * m)
        got, want = _brentq_both(spectral._crossing_char, 0.0, right, (m,),
                                 spectral.EPS * right)
        assert got == want, m
        # _r_star solves the same function on the same bracket
        assert spectral._r_star(m) == 0.5 / math.tan(want[0] / 2) ** 2, m


def test_brentq_port_errors_and_bisection():
    def step(x):
        return -1.0 if x < 0 else 1.0

    # a jump in place of a root: the bracket still closes on x = 0
    got, want = _brentq_both(step, -1.0, 2.0, (), 2e-12)
    assert got == want
    # halving [-1, 2] down to a 1e-300 tolerance takes ~1000 iterations
    with pytest.raises(RuntimeError):
        brentq(step, -1.0, 2.0, xtol=1e-300)
    with pytest.raises(RuntimeError, match="100 iterations"):
        spectral._brentq(step, -1.0, 2.0, (), 1e-300)
    with pytest.raises(ValueError, match="different signs"):
        spectral._brentq(lambda x: x * x + 1.0, -1.0, 1.0, (), 2e-12)
    with pytest.raises(ValueError, match="NaN"):
        spectral._brentq(lambda x: math.nan, 0.0, 1.0, (), 2e-12)
    # f(0) = -0.7 and f(1) = 0.3, so the first iterate is the secant's 0.7
    with pytest.raises(ValueError, match=r"at x=0\.7 is NaN"):
        spectral._brentq(lambda x: math.nan if 0.4 < x < 0.9 else x - 0.7,
                         0.0, 1.0, (), 2e-12)
    # a root at either end point returns at once
    assert spectral._brentq(lambda x: x, 0.0, 1.0, (), 2e-12) == (0.0, 0)
    assert spectral._brentq(lambda x: x - 1.0, 0.0, 1.0, (), 2e-12) == (1.0, 0)


def test_closed_form_refuses_a_bare_graph():
    with pytest.raises(SpectralError, match="only for the star families"):
        slem_closed_form(Graph(3, ((0, 1), (1, 2))))


# float.hex of slem_closed_form for SymmetricStar(m, 3) and KcsStar(m, 40, 2),
# the benchmark's twelve closed-form roots; any change to the Brent port or
# to the characteristic function that moves a bit shows here
PINNED_ROOTS = {
    10: ("0x1.fa8ac87ee3984p-1", "0x1.fd092689b1b4fp-1"),
    100: ("0x1.fff011df1a3f3p-1", "0x1.fff154a95cab5p-1"),
    1000: ("0x1.ffffd6aa792f9p-1", "0x1.ffffd703c70c4p-1"),
    4000: ("0x1.fffffd69e90e6p-1", "0x1.fffffd6b50979p-1"),
    6000: ("0x1.fffffed9b37f7p-1", "0x1.fffffeda1e1a8p-1"),
    20000: ("0x1.ffffffe5822b1p-1", "0x1.ffffffe5850cap-1"),
}


@pytest.mark.parametrize("m", sorted(PINNED_ROOTS))
def test_closed_form_roots_are_pinned_bit_for_bit(m):
    got = (slem_closed_form(SymmetricStar(m, 3)).hex(),
           slem_closed_form(KcsStar(m, 40, 2)).hex())
    assert got == PINNED_ROOTS[m]
