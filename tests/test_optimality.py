import hashlib
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from star_consensus import optimality
from star_consensus.topology import CcsStar, Graph, KcsStar, SymmetricStar, build
from star_consensus.spectral import (
    SpectralError,
    k_max,
    slem,
    slem_closed_form,
    stratify,
    theta_root_kcs,
)
from star_consensus.weights import assemble_matrix, optimal_weights
from star_consensus.optimality import (
    central_weight_invariance,
    kcs_slem_curve,
    kcs_tied_optimum,
    minimize_slem,
    slackness_residuals,
)


def _stratum_matrix(graph, assignment):
    """W of a labeled graph at per-stratum weights."""
    strata = map(graph.stratum_of_edge.get, graph.edges)
    return assemble_matrix(graph, assignment.for_strata(strata))


def test_slackness_grid():
    for m in range(1, 9):
        for n in range(1, 9):
            rep = slackness_residuals(m, n)
            assert rep.max_residual() <= 1e-9, (m, n, rep.residuals)


def test_slackness_report_fields():
    rep = slackness_residuals(3, 5)
    assert rep.s == pytest.approx(math.cos(rep.theta))
    assert rep.a_coords[-1] == pytest.approx(1.0)
    assert abs(rep.b_coords[-1]) == pytest.approx(1.0)
    for key in ("eq19", "eq25_a", "eq25_b", "eq25_c",
                "eq26_a", "eq26_b", "eq26_c", "matrix_w1", "matrix_w0"):
        assert key in rep.residuals
        assert rep.residuals[key] >= 0.0
    # the ratio condition (23) holds identically, b_i = (-1)^(m-i) a_i, so
    # it has no residual
    assert "eq23" not in rep.residuals
    signs = (-1.0) ** (3 - np.arange(1, 4))
    assert np.allclose(rep.b_coords, signs * rep.a_coords, rtol=0, atol=1e-14)


def test_slackness_m1_single_equation():
    rep = slackness_residuals(1, 4)
    assert rep.residuals["eq25_a"] <= 1e-9
    assert rep.residuals["eq26_a"] <= 1e-9


def test_recursions_are_homogeneous():
    # doubling the coordinates doubles each recursion residual exactly
    m, n = 3, 4
    theta = theta_root_kcs(m, n, 1)
    s = math.cos(theta)
    idx = np.arange(1, m + 1)
    a = np.sin((m - idx + 1) * theta) / math.sin(theta)
    w = np.array([2 / (n + 2), 0.5, 0.5])
    r = (1 - s) * a[1] - w[1] * (-a[0] + 2 * a[1] - a[2])
    r2 = (1 - s) * 2 * a[1] - w[1] * (-2 * a[0] + 4 * a[1] - 2 * a[2])
    assert r2 == pytest.approx(2 * r, abs=1e-15)


def test_minimize_slem_single_edge():
    res = minimize_slem(Graph(2, ((0, 1),)))
    assert res.per_edge[(0, 1)] == pytest.approx(0.5, abs=1e-6)
    assert res.slem == pytest.approx(0.0, abs=1e-9)


def test_minimize_slem_requires_connected():
    with pytest.raises(ValueError):
        minimize_slem(Graph(4, ((0, 1), (2, 3))))
    with pytest.raises(ValueError):
        minimize_slem(Graph(1, ()))


def test_minimize_slem_refuses_classes_off_the_edge_set():
    g = Graph(3, ((0, 1), (1, 2)))
    with pytest.raises(ValueError, match=r"edges \[\(0, 1\)\]"):
        minimize_slem(g, symmetry_classes={(1, 2): "a"})
    with pytest.raises(ValueError, match=r"pairs \[\(0, 99\)\]"):
        minimize_slem(g, symmetry_classes={(0, 1): "a", (1, 2): "a", (0, 99): "b"})


def test_minimize_slem_matches_closed_form():
    topo = SymmetricStar(2, 3)
    g = build(topo)
    res = minimize_slem(g, symmetry_classes=dict(g.stratum_of_edge))
    assert res.slem == pytest.approx(slem_closed_form(topo), abs=1e-3)
    assert res.class_weights[1] == pytest.approx(0.4, abs=1e-2)


def test_minimize_slem_deterministic():
    g = build(KcsStar(2, 3, 2))
    a = minimize_slem(g, symmetry_classes=dict(g.stratum_of_edge))
    b = minimize_slem(g, symmetry_classes=dict(g.stratum_of_edge))
    assert a.slem == b.slem
    assert a.per_edge == b.per_edge


def test_closed_form_is_lower_bound():
    # the closed form solves the weight optimization exactly (n >= 2),
    # so the numeric minimizer can never beat it
    for topo in (SymmetricStar(2, 3), SymmetricStar(3, 5),
                 CcsStar(2, 4), KcsStar(2, 3, 2)):
        g = build(topo)
        res = minimize_slem(g, symmetry_classes=dict(g.stratum_of_edge))
        assert res.slem >= slem_closed_form(topo) - 1e-6


# (topology, central stratum, closed-form central weight)
EXACT_CASES = [(SymmetricStar(2, 3), 1, 2 / 5), (SymmetricStar(3, 5), 1, 2 / 7),
               (CcsStar(2, 4), 0, 1 / 4), (KcsStar(2, 3, 2), 1, 2 / 7)]


@pytest.mark.parametrize("tied", [True, False], ids=["tied", "untied"])
@pytest.mark.parametrize("topo,central,w_ref", EXACT_CASES, ids=repr)
def test_dense_minimizer_is_exact(topo, central, w_ref, tied):
    g = build(topo)
    res = minimize_slem(g, symmetry_classes=dict(g.stratum_of_edge) if tied else None)
    assert res.converged
    assert abs(res.slem - slem_closed_form(topo)) <= 1e-9
    # untied, the SLEM of CcsStar(2, 4) grows only quadratically along some
    # asymmetric moves of the core weights, so single edges are pinned to
    # about sqrt(eps); the mean over the central class is pinned to 1e-8
    centrals = [w for e, w in res.per_edge.items() if g.stratum_of_edge[e] == central]
    assert abs(np.mean(centrals) - w_ref) <= 1e-8
    # the reported value is the dense spectrum at the returned weights
    W = assemble_matrix(g, [res.per_edge[e] for e in g.edges])
    assert abs(slem(W) - res.slem) <= 1e-12


def test_tied_optimum_matches_closed_form_up_to_k_max():
    for m, n in ((1, 3), (2, 3), (3, 2), (2, 5)):
        for k in range(1, k_max(m, n) + 1):
            tied = kcs_tied_optimum(m, n, k)
            assert abs(tied.slem - slem_closed_form(KcsStar(m, n, k))) <= 1e-12, (m, n, k)
            assert tied.message == "closed form"
            assert tied.certificate_residual <= 1e-12, (m, n, k)


def test_kcs_curve_anchors():
    curve = dict(kcs_slem_curve(3, 2, [1, 2, 9]))
    assert curve[1] == pytest.approx(slem_closed_form(SymmetricStar(2, 3)))
    assert curve[9] == pytest.approx(slem_closed_form(KcsStar(2, 3, 9)))


def test_kcs_curve_closed_form_entries_are_slem_closed_form():
    for m in range(1, 9):
        for n in range(1, 7):
            km = k_max(m, n)
            curve = kcs_slem_curve(n, m, range(1, km + 1))
            assert curve == [(k, slem_closed_form(KcsStar(m, n, k)))
                             for k in range(1, km + 1)], (m, n)
            for k in (0, 2.5, True):
                with pytest.raises(ValueError):
                    kcs_slem_curve(n, m, [k])


def test_kcs_curve_non_increasing_up_to_k_max():
    km = k_max(2, 3)
    vals = [s for _, s in kcs_slem_curve(3, 2, range(1, km + 1))]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


# (m, n, k) beyond k_max: n = 1 has no tail block, m = 1 a single
# weight, and (2, 3, 10) is the first fig-2 point past k_max(2, 3) = 9
TIED_CASES = [(1, 1, 2), (1, 3, 4), (2, 1, 4), (2, 3, 10), (2, 2, 9), (3, 2, 15)]


@pytest.mark.parametrize("m,n,k", TIED_CASES)
def test_tied_optimum_vs_dense_minimizer(m, n, k):
    assert k > k_max(m, n)
    tied = kcs_tied_optimum(m, n, k)
    assert tied.message == "active-set solve"
    assert tied.certificate_residual <= 1e-12
    g = build(KcsStar(m, n, k))
    dense = minimize_slem(g, symmetry_classes=dict(g.stratum_of_edge))
    assert tied.slem <= dense.slem + 1e-9
    # the reported value is the spectrum of W at the returned weights
    assert slem(_stratum_matrix(g, tied.weights)) == pytest.approx(tied.slem, abs=1e-12)
    # and never above the closed-form weights it starts from
    assert tied.slem <= slem(_stratum_matrix(g, optimal_weights(KcsStar(m, n, k)))) + 1e-15


# one past the exact k_max at large m: the closed form is not the optimum
# there, though its core value lies within 1e-12 of cos(theta)
@pytest.mark.parametrize("m,n,k", [(85, 1000, 5856037), (300, 13, 948362)])
def test_one_past_large_m_k_max_takes_the_active_set(m, n, k):
    tied = kcs_tied_optimum(m, n, k)
    assert tied.message == "active-set solve"
    assert tied.certificate_residual <= 1e-12
    assert abs(tied.slem - slem_closed_form(KcsStar(m, n, k - 1))) <= 1e-15


def test_fig2_points_beyond_k_max_pinned(monkeypatch):
    # values of fig --id 2 when the dense minimizer produced them; the
    # block solve must reach them without calling it
    def dense_not_used(*args, **kwargs):
        raise AssertionError("minimize_slem called")

    monkeypatch.setattr(optimality, "minimize_slem", dense_not_used)
    curve = dict(kcs_slem_curve(3, 2, [10, 20, 30]))
    assert curve[10] == pytest.approx(0.72854020495388871, abs=1e-9)
    assert curve[20] == pytest.approx(0.79828019975254405, abs=1e-9)
    assert curve[30] == pytest.approx(0.84776715443746309, abs=1e-9)


# (m, n) x k in {k_max + 1, 2 k_max, 5 k_max + 3}
CERTIFIED_CASES = [(m, n, k) for m, n in ((2, 3), (3, 4), (5, 2), (6, 8))
                   for k in (k_max(m, n) + 1, 2 * k_max(m, n), 5 * k_max(m, n) + 3)]


# large n*k: the w1 row of the certificate matrix reaches 2.4e5 while the
# tail rows are near 1e-7, and an NNLS through A^T A left residuals of
# 2.8e-6..3.0e-3 here, sending optimal points to SLSQP
LARGE_NK_CASES = [(200, 3, 2 * k_max(200, 3)), (500, 3, 2 * k_max(500, 3)),
                  (200, 1, 2 * k_max(200, 1)), (50, 8, 5 * k_max(50, 8) + 3),
                  (300, 40, k_max(300, 40) + 2), (200, 200, k_max(200, 200) + 2),
                  (100, 1000, k_max(100, 1000) + 2),
                  (150, 1000, k_max(150, 1000) + 2)]


@pytest.mark.parametrize("m,n,k", CERTIFIED_CASES + LARGE_NK_CASES)
def test_active_set_solve_is_certified(m, n, k):
    tied = kcs_tied_optimum(m, n, k)
    assert tied.message == "active-set solve"
    assert tied.certificate_residual <= 1e-12
    w = tied.weights.per_stratum
    assert 1.0 - n * w[1] == pytest.approx(tied.slem, abs=1e-15)  # core active
    assert all(w[j] == 0.5 for j in range(3, m + 1))


def test_active_set_solve_beats_slsqp_stop():
    # with one BLAS thread, SLSQP stopped at 0.9660236216124574 here
    # (status 8), 1.5e-10 above the tied optimum
    tied = kcs_tied_optimum(6, 8, 233)
    assert tied.certificate_residual <= 1e-12
    assert tied.slem < 0.9660236216124574 - 1e-10


@pytest.mark.parametrize("dw1", [1e-6, -1e-6])
def test_certificate_rejects_moved_weights(monkeypatch, dw1):
    m, n, k = 2, 3, 10
    tied = kcs_tied_optimum(m, n, k)
    w = np.array([tied.weights.per_stratum[j] for j in range(1, m + 1)])
    moved = w + [dw1, 0.0]
    [(_, residual)] = optimality._kcs_certificate(n, [k], [moved])
    assert residual > 1e-3
    # a candidate that fails the certificate is refused, naming the star,
    # the route and the residual
    monkeypatch.setattr(optimality, "_active_set_weights", lambda *a: (moved, 0))
    with pytest.raises(SpectralError, match=r"KcsStar\(2, 3, 10\): the weights of "
                       r"the active-set solve have KKT residual \d"):
        kcs_tied_optimum(m, n, k)


def test_certificate_near_zero_slem_takes_both_signs():
    # KcsStar(1, 1, 1) is one edge: its one nontrivial eigenvalue 1 - 2 w1
    # is 0 at the optimum w1 = 1/2, where it touches +s and -s at once.
    # With the sign of the eigenvalue alone the residual read 0.894.
    [(value, residual)] = optimality._kcs_certificate(1, [1], [[0.5 - 1e-10]])
    assert (value, residual) == pytest.approx((2e-10, 0.0), abs=1e-15)
    # its closed form 2/3 is no optimum: n = 1 with k <= k_max is refused
    with pytest.raises(SpectralError, match=r"KcsStar\(1, 1, 1\): the weights of "
                       r"the closed form .*\(ROADMAP direction 2\)"):
        kcs_tied_optimum(1, 1, 1)


def test_active_set_brentq_matches_scipy(monkeypatch):
    # the one root solve of each fig-2 point past k_max(2, 3) = 9 (w2 is
    # in closed form) gives the root bits and iteration count of
    # scipy.optimize.brentq
    from scipy.optimize import brentq

    port = optimality._brentq
    solves = []

    def checked(f, a, b, args, xtol, fa=None):
        got = port(f, a, b, args, xtol, fa)
        root, info = brentq(f, a, b, args=args, xtol=xtol, full_output=True)
        assert got == (root, info.iterations)
        assert fa == f(a, *args)  # the value handed in is D at the lower end
        solves.append(f.__name__)
        return got

    monkeypatch.setattr(optimality, "_brentq", checked)
    for k in range(10, 31):
        optimality._active_set_weights(2, 3, k, math.cos(theta_root_kcs(2, 3, k)))
    assert solves == ["sector_bottom"] * 21


def test_active_set_evaluates_d_once_per_point(monkeypatch):
    # D at the bracket's lower end is handed to the solve, not evaluated
    # again there: fig 2's 21 points past k_max evaluate D 201 times, 180
    # of them inside Brent.
    port = optimality._brentq
    inside = []

    def counted(f, a, b, args, xtol, fa=None):
        def g(x, *args):
            inside.append(x)
            return f(x, *args)
        return port(g, a, b, args, xtol, fa)

    total = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "sector_bottom":
            total.append(1)

    monkeypatch.setattr(optimality, "_brentq", counted)
    sys.setprofile(profile)
    try:
        optimality.kcs_slem_curve(3, 2, range(1, 31))
    finally:
        sys.setprofile(None)
    assert (len(inside), len(total)) == (180, 201)


def test_active_set_solve_runs_no_eigensolve(monkeypatch):
    # w2 is eliminated in closed form and s found from a scalar function,
    # so the solve itself never calls into numpy.linalg
    def eigensolve_not_used(*args, **kwargs):
        raise AssertionError("eigensolve called")

    for name in ("eigvalsh", "eigh", "eig", "solve", "det"):
        monkeypatch.setattr(np.linalg, name, eigensolve_not_used)
    large = (200, 3, k_max(200, 3) + 2)
    for m, n, k in TIED_CASES + CERTIFIED_CASES + [(7, 1, 40), large]:
        optimality._active_set_weights(m, n, k, math.cos(theta_root_kcs(m, n, k)))


# single-branch stars near k_max: at the low end of the s bracket the w2
# that puts the top at s lies above 1/2, where a bracketed solve for w2 on
# [0, 1/2] finds no root, and the SLSQP fallback certified them only to
# 2e-10..2e-8; w2 in closed form needs no bracket
@pytest.mark.parametrize("m,n,k", [(5, 1, 21), (7, 1, 40), (8, 1, 53)])
def test_single_branch_near_k_max_is_certified(m, n, k):
    tied = kcs_tied_optimum(m, n, k)
    assert tied.message == "active-set solve"
    assert tied.certificate_residual <= 1e-12
    g = build(KcsStar(m, n, k))
    assert slem(_stratum_matrix(g, tied.weights)) == pytest.approx(tied.slem, abs=1e-12)


@pytest.mark.parametrize("m", [10, 25, 50])
def test_active_set_solve_vs_dense_block_eigensolve(m):
    # the dense eigensolve of each block is the oracle of the elimination:
    # the core value and the tail top at +s, the sector bottom at -s
    n = 3
    k = k_max(m, n) + 2
    tied = kcs_tied_optimum(m, n, k)
    assert tied.message == "active-set solve"
    assert tied.certificate_residual <= 1e-12
    blocks = stratify(KcsStar(m, n, k), tied.weights)
    sector = np.linalg.eigvalsh(blocks.w0_block)
    tail = np.linalg.eigvalsh(blocks.w0_block[1:, 1:])
    s = tied.slem
    assert abs(blocks.w0_block[0, 0] - s) <= 1e-12
    assert abs(tail[-1] - s) <= 1e-12
    assert abs(sector[0] + s) <= 1e-12
    assert max(sector[-2], -sector[0], tail[-1], -tail[0]) <= s + 1e-12


@pytest.mark.parametrize("m,n", [(200, 3), (100, 40), (200, 40)])
def test_tied_optimum_at_large_m_is_certified(m, n):
    # the elimination is O(m) per step and the certificate O(m^3) for its
    # two eigensolves; (200, 3) takes about 0.01 s on one thread.  At
    # (200, 40) the root lies within rounding of cos(theta), which leaves
    # D(cos(theta)) at +3e-11, so the lower end must step down
    start = time.perf_counter()
    tied = kcs_tied_optimum(m, n, k_max(m, n) + 2)
    assert time.perf_counter() - start < 1.0
    assert tied.message == "active-set solve"
    assert tied.certificate_residual <= 1e-12


def test_nnls_matches_scipy_on_random_problems():
    from scipy.optimize import nnls

    rng = np.random.default_rng(14)
    for trial in range(200):
        rows, cols = rng.integers(1, 8), rng.integers(1, 6)
        A = rng.standard_normal((rows, cols))
        if trial % 4 == 0:  # two equal columns: a rank-deficient A^T A
            A[:, -1] = A[:, 0]
        b = rng.standard_normal(rows)
        got = optimality._nnls_residual(A.T.tolist(), b.tolist())
        assert got == pytest.approx(nnls(A, b)[1], abs=1e-13)


# cases at the edge of the NNLS early exit (the full column set solved by
# one QR): (columns of A, b)
NNLS_EDGE_CASES = {
    # the third column is the sum of the first two: the full set is rank
    # deficient, and the exit must see it before it divides
    "rank-deficient": ([[1.0, 2.0, 0.0, 1.0], [0.0, 1.0, 3.0, 1.0],
                        [1.0, 3.0, 3.0, 2.0]], [2.0, 5.0, 4.0, 3.0]),
    "equal-columns": ([[1.0, -2.0, 0.5], [1.0, -2.0, 0.5]], [1.0, 1.0, 1.0]),
    # orthogonal unit columns solve exactly: one component is exactly 0
    "zero-coefficient": ([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                          [0.0, 0.0, 1.0, 0.0]], [1.0, 0.0, 2.0, 0.5]),
    "negative-coefficient": ([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]],
                             [1.0, -1.0, 2.0]),
    "zero-column": ([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
                    [1.0, 3.0, 2.0]),
    "zero-column-alone": ([[0.0, 0.0]], [1.0, -1.0]),
    "more-columns-than-rows": ([[1.0, 0.5], [-1.0, 2.0], [0.3, -0.7], [2.0, 1.0]],
                               [1.0, 1.0]),
    "positive-full-set": ([[2.0, 0.0, 1.0], [1.0, 3.0, 0.0], [0.0, 1.0, 4.0]],
                          [3.0, 4.0, 5.0]),
}


@pytest.mark.parametrize("case", sorted(NNLS_EDGE_CASES))
def test_nnls_early_exit_edges_match_scipy(case):
    from scipy.optimize import nnls

    columns, target = NNLS_EDGE_CASES[case]
    got = optimality._nnls_residual(columns, target)
    assert got == pytest.approx(nnls(np.array(columns).T, np.array(target))[1], abs=1e-13)


def test_fig2_certificates_take_the_early_exit(monkeypatch):
    # every fig-2 point past k_max has three active eigenvalues with
    # positive multipliers: one QR of the full set, and no smaller support
    # is tried
    solves = []
    port = optimality._passive_least_squares

    def counted(columns, target, P, *rest):
        solves.append(len(P))
        return port(columns, target, P, *rest)

    monkeypatch.setattr(optimality, "_passive_least_squares", counted)
    tied = optimality._tied_optima(2, 3, range(10, 31))
    assert solves == [3] * 21
    assert all(t.certificate_residual <= 1e-12 for t in tied)


# m = 1, k = n = k_max: three active columns in two rows, so the full set
# is dependent and the minimum lies on a smaller support
M1_TIE_CASES = [(1, 2, 2), (1, 5, 5)]


@pytest.mark.parametrize("m,n,k", TIED_CASES + CERTIFIED_CASES + LARGE_NK_CASES
                         + M1_TIE_CASES)
def test_nnls_matches_scipy_on_certificates(monkeypatch, m, n, k):
    from scipy.optimize import nnls

    port = optimality._nnls_residual
    problems = []

    def recorded(columns, target):
        problems.append((columns, target))
        return port(columns, target)

    monkeypatch.setattr(optimality, "_nnls_residual", recorded)
    kcs_tied_optimum(m, n, k)
    assert problems
    for columns, target in problems:
        want = nnls(np.array(columns).T, np.array(target))[1]
        assert port(columns, target) == pytest.approx(want, abs=1e-13)


def _tied_grid():
    """m 1..8 x n 1..8 at k = 1..k_max (for n >= 2 at most 40), k_max + 1,
    k_max + 2, 2 k_max + 5 and 3 k_max."""
    for m in range(1, 9):
        for n in range(1, 9):
            km = k_max(m, n)
            low = set(range(1, (km if n == 1 else min(km, 40)) + 1))
            for k in sorted(low | {km + 1, km + 2, 2 * km + 5, 3 * km}):
                yield m, n, k


def test_tied_optima_never_load_scipy_optimize():
    # the tied optimum is certified or refused with no SLSQP, so neither
    # the grid's answers nor its refusals, nor fig 2's curve, load
    # scipy.optimize; fig 2's minimum lies at k = 10, one past k_max(2, 3)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
    code = (
        "import sys\n"
        "from star_consensus import kcs_slem_curve, kcs_tied_optimum\n"
        "from star_consensus.spectral import SpectralError\n"
        "refused = 0\n"
        f"for m, n, k in {list(_tied_grid())!r}:\n"
        "    try:\n"
        "        kcs_tied_optimum(m, n, k)\n"
        "    except SpectralError:\n"
        "        refused += 1\n"
        "curve = kcs_slem_curve(3, 2, range(1, 31))\n"
        "print(refused, min(curve, key=lambda t: t[1])[0],\n"
        "      'scipy.optimize' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["161", "10", "False"]


def test_tied_optimum_grid_is_certified_or_refused():
    # exactly the single-branch stars up to k_max are refused: their closed
    # form fails the certificate (ROADMAP direction 2), and every other
    # point certifies
    refused, answered = [], 0
    for m, n, k in _tied_grid():
        try:
            tied = kcs_tied_optimum(m, n, k)
        except SpectralError as error:
            assert "ROADMAP direction 2" in str(error), (m, n, k)
            refused.append((m, n, k))
            continue
        assert tied.certificate_residual <= 1e-12, (m, n, k)
        answered += 1
    assert refused == [(m, 1, k) for m in range(1, 9) for k in range(1, k_max(m, 1) + 1)]
    assert (len(refused), answered) == (161, 1998)


@pytest.mark.parametrize("m", range(1, 7))
def test_minimize_slem_reaches_the_path_optimum(m):
    # SymmetricStar(m, 1) is the path on m + 1 nodes, whose optimal SLEM is
    # cos(pi/(m + 1)) (Boyd, Diaconis, Sun and Xiao 2006): the estimate that
    # the refusal at n = 1 points to
    g = build(SymmetricStar(m, 1))
    res = minimize_slem(g, symmetry_classes=dict(g.stratum_of_edge))
    assert abs(res.slem - math.cos(math.pi / (m + 1))) <= 1e-8


def test_fig2_points_certified_and_not_above_slsqp():
    # no weights of the dense graph that minimize_slem finds beat a
    # certified point.  At one BLAS thread SLSQP stops on KcsStar(2, 3, 11)
    # with "Inequality constraints incompatible" (ROADMAP direction 11), so
    # a point may lack the estimate, but at most one
    unestimated = []
    for k in range(10, 31):
        tied = kcs_tied_optimum(2, 3, k)
        assert tied.certificate_residual <= 1e-12
        g = build(KcsStar(2, 3, k))
        try:
            dense = minimize_slem(g, symmetry_classes=dict(g.stratum_of_edge))
        except SpectralError as error:
            assert "did not converge" in str(error)
            unestimated.append(k)
            continue
        assert tied.slem <= dense.slem + 1e-14, k
    assert len(unestimated) <= 1, unestimated


@pytest.mark.parametrize("error", [ValueError, ZeroDivisionError])
def test_failed_active_set_solve_is_refused(monkeypatch, error):
    # the closed form of KcsStar(200, 40, k_max + 2) passes the certificate
    # (its core value lies within ACTIVE_TOL of the top), though its SLEM
    # is 2.6e-11 above the tied optimum; a failed solve must not offer it
    m, n = 200, 40
    k = k_max(m, n) + 2
    closed = optimal_weights(KcsStar(m, n, k)).for_strata(range(1, m + 1))
    [(_, residual)] = optimality._kcs_certificate(n, [k], [closed])
    assert residual <= optimality.CERTIFICATE_TOL

    def no_solve(*args):
        raise error("no bracket")

    monkeypatch.setattr(optimality, "_active_set_weights", no_solve)
    with pytest.raises(SpectralError, match=rf"KcsStar\({m}, {n}, {k}\): the "
                       r"active-set solve failed \(no bracket\)"):
        kcs_tied_optimum(m, n, k)


# (n, m, k range): fig 2, a single branch, a single stratum and two of the
# large-n*k pairs; the stack of a curve splits into chunks at m = 50
CURVE_CASES = [(3, 2, range(1, 31)), (1, 5, range(1, 60)), (4, 1, range(1, 30)),
               (8, 50, range(k_max(50, 8) - 1, k_max(50, 8) + 9)),
               (3, 200, range(k_max(200, 3), k_max(200, 3) + 4))]


@pytest.mark.parametrize("n,m,ks", CURVE_CASES)
def test_curve_points_are_the_tied_optima_bit_for_bit(n, m, ks):
    # a point certified in a stack gets the bits it gets alone
    km = k_max(m, n)
    past = [k for k in ks if k > km]
    stacked = optimality._tied_optima(m, n, past)
    curve = dict(kcs_slem_curve(n, m, ks))
    assert len(stacked) == len(past) >= 2
    for k, tied in zip(past, stacked):
        alone = kcs_tied_optimum(m, n, k)
        assert curve[k] == alone.slem
        assert tied.certificate_residual == alone.certificate_residual
        assert tied == alone
        assert tied.message == "active-set solve"


# sha256 of the tied optima at k_max + 1, k_max + 2 and 2 k_max + 5 on this
# (m, n) grid (numpy 2.4 with its bundled OpenBLAS): weights, SLEM and
# residual as float.hex, iterations and message.  Every m >= 3 runs the
# bottom-up pivots of the tail path, which fig 2 (m = 2) never does.
TIED_OPTIMA_SHA256 = "074d0eedf5f538f0c96063a265fc085da6c2afd901fb90a7b9fbe7a981f102fb"


def test_tied_optima_pinned_bit_for_bit():
    lines = []
    for m in (1, 2, 3, 4, 7, 12, 40, 150):
        for n in (1, 2, 3, 5, 8):
            km = k_max(m, n)
            ks = [km + 1, km + 2, 2 * km + 5]
            for k, t in zip(ks, optimality._tied_optima(m, n, ks)):
                w = ",".join(t.weights.per_stratum[j].hex() for j in range(1, m + 1))
                lines.append(f"{m} {n} {k} {w} {t.slem.hex()} "
                             f"{t.certificate_residual.hex()} {t.iterations} {t.message}")
    assert len(lines) == 120
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == TIED_OPTIMA_SHA256


def test_failing_point_of_a_stack_refuses_it(monkeypatch):
    m, n, ks = 2, 3, list(range(10, 31))
    solve = optimality._active_set_weights

    def moved_at_20(m, n, k, cos_theta):
        w, iterations = solve(m, n, k, cos_theta)
        return (w + [1e-6, 0.0] if k == 20 else w), iterations

    monkeypatch.setattr(optimality, "_active_set_weights", moved_at_20)
    with pytest.raises(SpectralError, match=r"KcsStar\(2, 3, 20\)"):
        optimality._tied_optima(m, n, ks)
    with pytest.raises(SpectralError, match=r"KcsStar\(2, 3, 20\)"):
        kcs_slem_curve(n, m, range(1, 31))


def test_certificate_stack_memory_is_bounded():
    # 300 points at m = 60 would stack 8.9 MB of sector blocks at once;
    # chunks of CERTIFICATE_STACK_BYTES keep the peak far below that
    import tracemalloc

    m, n = 60, 3
    km = k_max(m, n)
    ks = range(km + 1, km + 301)
    kcs_slem_curve(n, m, ks[:2])  # imports and caches outside the trace
    tracemalloc.start()
    try:
        curve = kcs_slem_curve(n, m, ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(curve) == len(ks)
    assert peak < len(ks) * (m + 1) ** 2 * 8 / 4


def test_invariance_star_core():
    tri = Graph(3, ((0, 1), (0, 2), (1, 2)))
    rep = central_weight_invariance("star", [(tri, 0)] * 3)
    assert rep.closed_form_weight == pytest.approx(2 / 5)
    assert rep.deviation <= 1e-2


def test_invariance_complete_core():
    cyc4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    rep = central_weight_invariance("complete", [(cyc4, 0)] * 3)
    assert rep.closed_form_weight == pytest.approx(1 / 3)
    assert rep.deviation <= 1e-2


def test_invariance_path_branches_recover_symmetric_star():
    # a 2-node path plus the central edge gives branches of length 2
    path2 = Graph(2, ((0, 1),))
    rep = central_weight_invariance("star", [(path2, 0)] * 3)
    assert rep.recovered_central_weight == pytest.approx(0.4, abs=1e-2)
    assert rep.slem == pytest.approx(
        slem_closed_form(SymmetricStar(2, 3)), abs=1e-3)


def test_invariance_validates_inputs():
    disconnected = Graph(3, ((0, 1),))
    with pytest.raises(ValueError):
        central_weight_invariance("star", [(disconnected, 0)] * 3)
    tri = Graph(3, ((0, 1), (0, 2), (1, 2)))
    with pytest.raises(ValueError):
        central_weight_invariance("ring", [(tri, 0)] * 3)
