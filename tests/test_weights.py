import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from star_consensus import weights
from star_consensus.cli import WEIGHTINGS
from star_consensus.optimality import kcs_tied_optimum
from star_consensus.spectral import SpectralError, k_max, slem, stratify
from star_consensus.topology import CcsStar, Graph, KcsStar, SymmetricStar, build
from star_consensus.weights import (
    WeightAssignment,
    WeightError,
    assemble_matrix,
    best_constant_weights,
    max_degree_weights,
    metropolis_weights,
    optimal_weights,
    per_stratum_from_matrix,
    scheme_matrix,
)


def test_optimal_symmetric_star():
    w = optimal_weights(SymmetricStar(3, 5))
    assert w.per_stratum == {1: 2 / 7, 2: 0.5, 3: 0.5}


def test_optimal_scheme_never_loads_scipy_optimize():
    # the optimal weights need no SLSQP, the closed form within k_max nor
    # the tied optimum's active-set solve past it, so neither the optimal
    # matrix nor a Monte Carlo run on it loads scipy.optimize
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
    code = (
        "import sys\n"
        "from star_consensus.simulate import QuantizerSpec, monte_carlo\n"
        "from star_consensus.topology import KcsStar, SymmetricStar\n"
        "from star_consensus.weights import scheme_matrix\n"
        "for topo in (SymmetricStar(3, 50), KcsStar(2, 3, 2), KcsStar(2, 3, 12)):\n"
        "    scheme_matrix(topo, 'optimal')\n"
        "monte_carlo(KcsStar(2, 3, 2), 'optimal',\n"
        "            QuantizerSpec(4, 'probabilistic'), 10, 1)\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False"]


def test_optimal_scheme_past_k_max_is_the_tied_optimum():
    # past k_max(2, 3) = 9 and k_max(3, 2) the closed form is not optimal
    for topo, expected in ((KcsStar(2, 3, 12), 0.738417), (KcsStar(3, 2, 20), 0.877424)):
        assert topo.k > k_max(topo.m, topo.n)
        tied = kcs_tied_optimum(topo.m, topo.n, topo.k).slem
        assert tied == pytest.approx(expected, abs=1e-6)
        assert abs(slem(scheme_matrix(topo, "optimal")[1]) - tied) <= 1e-12


def test_optimal_scheme_within_k_max_is_the_closed_form():
    # k = 1 and every k up to k_max, n = 1 included, keep the paper's weights
    for m in range(1, 7):
        for n in range(1, 7):
            for k in range(1, k_max(m, n) + 1):
                topo = KcsStar(m, n, k)
                g, W = scheme_matrix(topo, "optimal")
                strata = map(g.stratum_of_edge.get, g.edges)
                closed = assemble_matrix(g, optimal_weights(topo).for_strata(strata))
                assert np.array_equal(W, closed)


def test_scheme_matrix_refuses_before_building(monkeypatch):
    # n * r*(2) at n = 10**15 lies within float error of an integer: k_max,
    # and with it the route, is refused before 2 * 10**15 edges are listed,
    # as is an unknown scheme
    def no_build(topology):
        raise AssertionError(f"built the graph of {topology}")
    monkeypatch.setattr(weights, "build", no_build)
    with pytest.raises(SpectralError, match="k_max"):
        scheme_matrix(KcsStar(2, 10**15, 2), "optimal")
    with pytest.raises(WeightError, match="unknown weighting scheme"):
        scheme_matrix(SymmetricStar(2, 3), "uniform")


def test_optimal_ccs():
    w = optimal_weights(CcsStar(2, 5))
    assert w.per_stratum == {0: 0.2, 1: 0.5, 2: 0.5}


def test_optimal_kcs():
    w = optimal_weights(KcsStar(2, 3, 2))
    assert w.per_stratum[1] == pytest.approx(2 / 7)
    assert w.per_stratum[2] == 0.5


def _check_scheme(W, g):
    assert W.shape == (g.node_count, g.node_count)
    assert np.max(np.abs(W - W.T)) <= 1e-12
    assert np.max(np.abs(W.sum(axis=1) - 1.0)) <= 1e-12
    # sparsity: zero off the diagonal where there is no edge
    support = np.eye(g.node_count, dtype=bool)
    for u, v in g.edges:
        support[u, v] = support[v, u] = True
    assert np.all(W[~support] == 0.0)


@pytest.mark.parametrize("scheme", ["optimal", "metropolis", "max-degree",
                                    "best-constant"])
def test_schemes_are_valid_weight_matrices(scheme):
    for topo in (SymmetricStar(2, 3), CcsStar(2, 3), KcsStar(2, 3, 2)):
        g, W = scheme_matrix(topo, scheme)
        _check_scheme(W, g)


def test_metropolis_values():
    g = build(SymmetricStar(2, 3))
    W = metropolis_weights(g)
    # center degree 3, inner tail degree 2, tip degree 1
    assert W[0, 1] == pytest.approx(1 / 4)
    inner, tip = 1, 2  # first branch: nodes 1 (inner), 2 (tip)
    assert W[inner, tip] == pytest.approx(1 / 3)


def test_max_degree_values():
    g = build(SymmetricStar(2, 3))
    W = max_degree_weights(g)
    assert W[0, 1] == pytest.approx(1 / 3)
    assert W[1, 2] == pytest.approx(1 / 3)


def test_best_constant_alpha():
    g = build(SymmetricStar(2, 3))
    A = np.zeros((7, 7))
    for u, v in g.edges:
        A[u, v] = A[v, u] = 1
    L = np.diag(A.sum(axis=1)) - A
    lam = np.sort(np.linalg.eigvalsh(L))
    alpha = 2 / (lam[1] + lam[-1])
    W = best_constant_weights(g)
    assert W[0, 1] == pytest.approx(alpha)
    assert W[1, 2] == pytest.approx(alpha)


def test_ccs_core_diagonal():
    g, W = scheme_matrix(CcsStar(2, 5), "optimal")
    # core node: 4 core edges at 1/5 each plus one tail edge at 1/2
    assert W[0, 0] == pytest.approx(1 - 4 / 5 - 1 / 2)


def test_assemble_and_recover_round_trip():
    topo = KcsStar(2, 4, 2)
    g, W = scheme_matrix(topo, "optimal")
    assign = optimal_weights(topo)
    got = per_stratum_from_matrix(g, W)
    for s, v in assign.per_stratum.items():
        assert got[s] == pytest.approx(v, abs=1e-15)


def _nonuniform_stratum(g, W):
    u, v = g.edges[0]
    W[u, v] += 0.01
    W[v, u] += 0.01
    np.fill_diagonal(W, 0)
    np.fill_diagonal(W, 1 - W.sum(axis=1))


def _asymmetric(g, W):
    u, v = g.edges[0]  # a hub edge
    W[v, u] += 0.3


def _weight_off_the_edges(g, W):
    # nodes 2 and 4 are the tips of two branches
    W[2, 4] = W[4, 2] = 0.1
    W[2, 2] -= 0.1
    W[4, 4] -= 0.1


def _nan_diagonal(g, W):
    W[0, 0] = math.nan


def _row_not_stochastic(g, W):
    W[0, 0] += 0.5


# a star and an edit of its optimal W that leaves a matrix no per-stratum
# weights assemble; all but the first read the edges of a stratum alike
REFUSED_MATRICES = {
    "nonuniform-stratum": (SymmetricStar(2, 2), _nonuniform_stratum),
    "asymmetric": (SymmetricStar(2, 3), _asymmetric),
    "weight-off-the-edges": (SymmetricStar(2, 3), _weight_off_the_edges),
    "nan-diagonal": (SymmetricStar(2, 3), _nan_diagonal),
    "row-not-stochastic": (SymmetricStar(2, 3), _row_not_stochastic),
}


@pytest.mark.parametrize("topo, edit", REFUSED_MATRICES.values(),
                         ids=REFUSED_MATRICES.keys())
def test_recover_refuses_a_matrix_its_strata_do_not_assemble(topo, edit):
    g, W = scheme_matrix(topo, "optimal")
    edit(g, W)
    with pytest.raises(WeightError, match="not the matrix of its per-stratum"):
        per_stratum_from_matrix(g, W)


# sha256 of the per-stratum weights read back off each scheme's matrix on
# the stars of ``verify --suite stratification`` (symmetric m 1..6 x
# n 1..8, then k-cored m 1..4 x n 1..5 x k 2..7), one "stratum:float.hex"
# line per matrix in the order returned (numpy 2.4 with its bundled
# OpenBLAS); the round-trip check refuses none of them and changes no bit.
# The 25 optimal matrices of k-cored stars past k_max hold the certified
# tied optimum, not the closed form.
RECOVERED_STRATA_SHA256 = "7ef55bf9882afc3e9aacf08644473c2d3b4e0f2bca6a6c13598dcda737375766"


def test_recover_keeps_every_scheme_matrix_bit_for_bit():
    stars = [SymmetricStar(m, n) for m in range(1, 7) for n in range(1, 9)]
    stars += [KcsStar(m, n, k) for m in range(1, 5) for n in range(1, 6)
              for k in range(2, 8)]
    lines = []
    for topo in stars:
        for scheme in WEIGHTINGS:
            per = per_stratum_from_matrix(*scheme_matrix(topo, scheme))
            lines.append(" ".join(f"{s}:{w.hex()}" for s, w in per.items()))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == RECOVERED_STRATA_SHA256


def test_recover_refuses_a_matrix_of_another_order():
    g, W = scheme_matrix(SymmetricStar(2, 3), "optimal")  # 7 nodes
    smaller = scheme_matrix(SymmetricStar(2, 2), "optimal")[1]
    for bad in (smaller, W[:, :-1], W[0], np.pad(W, (0, 1))):
        with pytest.raises(WeightError, match="graph has 7 nodes"):
            per_stratum_from_matrix(g, bad)


def test_per_edge_assignment():
    # one weight per entry of graph.edges, in order
    g = Graph(3, ((2, 1), (0, 1)))
    W = assemble_matrix(g, [0.3, 0.6])
    assert (W[1, 2], W[0, 1]) == (0.3, 0.6)
    assert W[1, 1] == pytest.approx(1 - 0.9)
    _check_scheme(W, g)


# per-stratum weights on SymmetricStar(2, 3), whose strata are 1 and 2
REFUSED_ASSIGNMENTS = {
    "empty": ({}, "no weight for strata \\[1, 2\\]"),
    "missing": ({1: 0.4}, "no weight for strata \\[2\\]"),
    "extra": ({1: 0.4, 2: 0.5, 7: 9.0}, "strata \\[7\\] the topology does not have"),
}


@pytest.mark.parametrize("per_stratum, match", REFUSED_ASSIGNMENTS.values(),
                         ids=REFUSED_ASSIGNMENTS.keys())
def test_refused_assignments(per_stratum, match, monkeypatch):
    topo, assign = SymmetricStar(2, 3), WeightAssignment(per_stratum)
    with pytest.raises(WeightError, match=match):
        stratify(topo, assign)
    monkeypatch.setattr(weights, "optimal_weights", lambda topology: assign)
    with pytest.raises(WeightError, match=match):
        scheme_matrix(topo, "optimal")


def test_assemble_refuses_wrong_length():
    g = build(SymmetricStar(2, 3))
    for bad in (np.ones(5), np.ones(7), np.ones((6, 1)), 0.5, []):
        with pytest.raises(WeightError, match="one weight per edge"):
            assemble_matrix(g, bad)


@pytest.mark.parametrize("call,match", [
    pytest.param(lambda: optimal_weights(Graph(3, ((0, 1), (1, 2)))),
                 "only for the star families", id="optimal-on-a-graph"),
    pytest.param(lambda: metropolis_weights(Graph(4, ((0, 1), (2, 3)))),
                 "require a connected graph", id="metropolis-disconnected"),
    pytest.param(lambda: per_stratum_from_matrix(Graph(2, ((0, 1),)),
                                                 np.full((2, 2), 0.5)),
                 "no stratum labels", id="per-stratum-unlabeled"),
    pytest.param(lambda: scheme_matrix(SymmetricStar(2, 3), "uniform"),
                 "unknown weighting scheme 'uniform'", id="unknown-scheme"),
])
def test_weight_refusals(call, match):
    with pytest.raises(WeightError, match=match):
        call()


def test_assemble_refuses_non_finite_weights():
    # a NaN or infinite weight is refused by name here, not later as a W
    # that is "not symmetric"
    g = build(SymmetricStar(2, 3))
    with pytest.raises(WeightError, match=r"finite, got nan on edge \(0, 1\)"):
        assemble_matrix(g, [math.nan] * 6)
    bad = [0.2] * 6
    bad[4] = -math.inf
    with pytest.raises(WeightError, match=r"^edge weights must be finite, got -inf on edge \(0, 5\)$"):
        assemble_matrix(g, bad)


def _per_edge_loop(graph, weight_of):
    """The assembly that edge arrays replaced: edge by edge, each weight
    looked up on its own, then the diagonal."""
    W = np.zeros((graph.node_count, graph.node_count))
    for e in graph.edges:
        u, v = e
        W[u, v] = W[v, u] = weight_of(e)
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    return W


def _per_edge_scheme(topo, scheme):
    """A scheme's matrix by the per-edge loop, each weight computed as the
    per-edge dictionaries of the schemes computed it."""
    g = build(topo)
    deg = g.degrees()
    if scheme == "optimal":
        w = optimal_weights(topo).per_stratum
        return _per_edge_loop(g, lambda e: w[g.stratum_of_edge[e]])
    if scheme == "metropolis":
        return _per_edge_loop(g, lambda e: 1.0 / (1 + max(deg[e[0]], deg[e[1]])))
    if scheme == "max-degree":
        return _per_edge_loop(g, lambda e: 1.0 / max(deg))
    n = g.node_count
    lam = np.sort(np.linalg.eigvalsh(np.eye(n) - _per_edge_loop(g, lambda e: 1.0)))[::-1]
    alpha = 2.0 / (lam[0] + lam[n - 2])
    return _per_edge_loop(g, lambda e: alpha)


@pytest.mark.parametrize("scheme", ["optimal", "metropolis", "max-degree",
                                    "best-constant"])
def test_edge_arrays_match_per_edge_loop_bit_for_bit(scheme):
    for topo in (SymmetricStar(2, 3), CcsStar(2, 3), KcsStar(2, 3, 2),
                 SymmetricStar(3, 50)):
        W = scheme_matrix(topo, scheme)[1]
        assert W.tobytes() == _per_edge_scheme(topo, scheme).tobytes(), topo
