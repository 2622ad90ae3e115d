import math

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal
from scipy.optimize import brentq

from star_consensus.topology import CcsStar, Custom, Graph, KcsStar, SymmetricStar, build
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
    optimal_weights,
    per_stratum_from_matrix,
    scheme_matrix,
)


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
    g, W = scheme_matrix(Custom(Graph(1, ())), "metropolis")
    assert W.shape == (1, 1)
    with pytest.raises(SpectralError, match="at least two nodes"):
        slem(W)


def test_stratify_block_shapes_and_entries():
    topo = SymmetricStar(2, 3)
    blocks = stratify(topo, optimal_weights(topo))
    assert blocks.w0_block.shape == (3, 3)
    assert blocks.w1_block.shape == (2, 2)
    assert blocks.w1_multiplicity == 2
    w1 = 2 / 5
    assert blocks.w0_block[0, 0] == pytest.approx(1 - 3 * w1)
    assert blocks.w0_block[0, 1] == pytest.approx(math.sqrt(3) * w1)
    assert blocks.w1_block[0, 0] == pytest.approx(1 - w1 - 0.5)


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
                W = assemble_matrix(build(topo), assign)
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
    assert blocks.w0_block[0, 0] == pytest.approx(1 - n * w[1])
    assert blocks.w0_block[0, 1] == pytest.approx(math.sqrt(n * k) * w[1])
    assert blocks.w1_block[0, 0] == pytest.approx(1 - k * w[1] - w[2])
    assert np.array_equal(blocks.w0_block[1:, 1:], blocks.w1_block)
    assert (blocks.w1_multiplicity, blocks.core_multiplicity) == (n - 1, k - 1)
    assert blocks.core_value == pytest.approx(1 - n * w[1])
    assert np.allclose(blocks.w0_block @ blocks.perron_vector, blocks.perron_vector)
    # deflation drops exactly the eigenvalue 1 of the sector block
    sector = np.sort(np.linalg.eigvalsh(blocks.deflated_blocks()[0]))
    assert np.allclose(np.append(sector, 1.0),
                       np.sort(np.linalg.eigvalsh(blocks.w0_block)), atol=1e-14)


def test_stratify_symmetric_is_kcs_k1():
    # SymmetricStar must stratify exactly as the k-cored star it stands for
    for m, n in ((1, 1), (2, 3), (4, 5)):
        assign = optimal_weights(SymmetricStar(m, n))
        a = stratify(SymmetricStar(m, n), assign)
        b = stratify(KcsStar(m, n, 1), assign)
        assert np.array_equal(a.w0_block, b.w0_block)
        assert np.array_equal(a.w1_block, b.w1_block)
        assert np.array_equal(a.perron_vector, b.perron_vector)
        assert (a.w1_multiplicity, a.core_value, a.core_multiplicity) == \
            (b.w1_multiplicity, b.core_value, b.core_multiplicity)


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
    assert blocks.core_value > np.linalg.eigvalsh(blocks.w1_block)[-1] + 0.05
    # with one branch, W1 does not occur in W and lambda2 comes from W0
    for topo in (topo, SymmetricStar(3, 1), KcsStar(2, 1, 3)):
        g, W = scheme_matrix(topo, "optimal")
        rep = interlacing_check(stratify(topo, optimal_weights(topo)), W)
        assert rep.holds and rep.max_violation <= 1e-12
        assert rep.lambda2_matches_w1_top


def test_interlacing_zero_weights_degenerate():
    topo = SymmetricStar(2, 3)
    zero = WeightAssignment(per_stratum={1: 0.0, 2: 0.0})
    rep = interlacing_check(stratify(topo, zero))
    assert rep.holds and rep.max_violation <= 1e-12


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
        assert np.all(char_kcs(np.linspace(0.0, t, 1001)[:-1], m, n, k) < 0)


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


def test_char_functions_vectorized():
    t = np.linspace(0.1, 3.0, 7)
    assert char_kcs(t, 2, 3, 1).shape == (7,)
    assert char_kcs(t, 2, 3, 2).shape == (7,)


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
        # the float form that theta_root_kcs solves gives the same root
        assert theta_root_kcs(m, n, k) == want[0], (m, n, k)


def test_brentq_port_matches_scipy_on_threshold_char():
    for m in range(1, 51):
        right = math.pi / (2 * m)
        got, want = _brentq_both(spectral._threshold_char, 0.0, right, (m,),
                                 spectral.EPS * right)
        assert got == want, m


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
    with pytest.raises(ValueError, match="NaN"):
        spectral._brentq(lambda x: math.nan if 0.4 < x < 0.9 else x - 0.7,
                         0.0, 1.0, (), 2e-12)
    assert spectral._brentq(lambda x: x, 0.0, 1.0, (), 2e-12) == (0.0, 0)
