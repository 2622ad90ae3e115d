"""Edge-weight schemes and assembly of symmetric stochastic weight matrices.

Four schemes: the closed-form optimal weights for the three star families,
plus Metropolis-Hastings, maximum-degree and best-constant weighting as
baselines.  An edge weighting is one array aligned with ``graph.edges``;
the optimal weights are per stratum (``WeightAssignment``) and become
that array through ``WeightAssignment.for_strata`` over the strata of the
edges.  The assembled matrix W puts the edge weight on the
off-diagonal and 1 minus the incident weight sum on the diagonal, so rows
always sum to 1 and W is symmetric.  Negative diagonals are legal (and do
occur for the optimal weights on star centers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import (
    CcsStar,
    Graph,
    KcsStar,
    Topology,
    build,
)

__all__ = [
    "WeightAssignment",
    "WeightError",
    "optimal_weights",
    "metropolis_weights",
    "max_degree_weights",
    "best_constant_weights",
    "assemble_matrix",
    "per_stratum_from_matrix",
    "scheme_matrix",
]


class WeightError(ValueError):
    """Raised for unsupported schemes or incomplete assignments."""


@dataclass(frozen=True)
class WeightAssignment:
    """Edge weights tied per stratum: stratum index -> weight."""

    per_stratum: dict[int, float]

    def for_strata(self, strata) -> np.ndarray:
        """The weights of ``strata``, in order, one per entry.

        Refuses a stratum without a weight, and a weight for a stratum not
        among ``strata``, which the topology does not have and would
        otherwise ignore.
        """
        strata = list(strata)
        missing = set(strata) - self.per_stratum.keys()
        if missing:
            raise WeightError(f"no weight for strata {sorted(missing)}")
        extra = self.per_stratum.keys() - set(strata)
        if extra:
            raise WeightError(f"weights for strata {sorted(extra)} the topology does not have")
        return np.array([self.per_stratum[s] for s in strata], dtype=float)


def optimal_weights(topology: Topology) -> WeightAssignment:
    """The paper's closed-form weights for the three star families.

    KCS star: central edges 2/(n+2k), tails 1/2 (the symmetric star is
    k = 1); CCS star: core edges 1/n, tails 1/2.  The KCS weights are
    optimal only while k <= k_max(m, n), and only for n >= 2; past k_max
    ``optimality.kcs_tied_optimum`` gives the optimal weights, solved
    exactly on their known active set and certified by a KKT residual,
    and ``scheme_matrix(topology, "optimal")`` builds W from those.
    At n = 1 it refuses up to k_max, where these weights are not the
    optimum (ROADMAP direction 2).  This function is the paper's formula
    at every k.
    """
    if isinstance(topology, CcsStar):
        w = {0: 1.0 / topology.n}
    elif isinstance(topology, KcsStar):
        w = {1: 2.0 / (topology.n + 2 * topology.k)}
    else:
        raise WeightError("optimal weights are defined only for the star families")
    w.update({j: 0.5 for j in range(1, topology.m + 1) if j not in w})
    return WeightAssignment(per_stratum=w)


def _require_connected(graph: Graph):
    if not graph.is_connected():
        raise WeightError("weighting schemes require a connected graph")


def metropolis_weights(graph: Graph) -> np.ndarray:
    """Metropolis-Hastings: edge (i,j) gets 1/(1 + max(d_i, d_j))."""
    _require_connected(graph)
    deg = graph.degrees()
    return assemble_matrix(graph, [1.0 / (1 + max(deg[u], deg[v])) for u, v in graph.edges])


def max_degree_weights(graph: Graph) -> np.ndarray:
    """Maximum-degree: every edge gets 1/max_k(d_k)."""
    _require_connected(graph)
    return assemble_matrix(graph, np.full(len(graph.edges), 1.0 / max(graph.degrees())))


def best_constant_weights(graph: Graph) -> np.ndarray:
    """Best-constant: uniform edge weight 2/(lam_1(L) + lam_{N-1}(L)).

    L is the standard graph Laplacian D - A, which is I - W at unit edge
    weights; lam_1 is its largest and lam_{N-1} its second-smallest
    eigenvalue.
    """
    _require_connected(graph)
    n, ones = graph.node_count, np.ones(len(graph.edges))
    lam = np.sort(np.linalg.eigvalsh(np.eye(n) - assemble_matrix(graph, ones)))[::-1]
    return assemble_matrix(graph, 2.0 / (lam[0] + lam[n - 2]) * ones)


def assemble_matrix(graph: Graph, edge_weights) -> np.ndarray:
    """Dense symmetric stochastic matrix from one weight per entry of
    ``graph.edges``, in order.

    Off-diagonal (i,j) carries the edge weight, diagonal i carries
    1 - sum of weights incident to i.  Another number of weights, or a NaN
    or infinite one, raises WeightError.
    """
    w = np.asarray(edge_weights, dtype=float)
    if w.shape != (len(graph.edges),):
        raise WeightError(f"need one weight per edge ({len(graph.edges)}), "
                          f"got an array of shape {w.shape}")
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        raise WeightError("edge weights must be finite, got "
                          + ", ".join(f"{w[i]} on edge {graph.edges[i]}" for i in bad))
    u, v = np.array(graph.edges, dtype=int).reshape(-1, 2).T
    W = np.zeros((graph.node_count, graph.node_count))
    W[u, v] = W[v, u] = w
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    return W


def per_stratum_from_matrix(graph: Graph, W: np.ndarray) -> dict[int, float]:
    """Recover per-stratum weights from a matrix respecting the strata.

    Each stratum's weight is read off W at its edges, and W must be the
    matrix that ``assemble_matrix`` builds from those weights, within
    1e-12 in every entry.  So it refuses, with WeightError, a graph
    without stratum labels, a W that is not N x N for the graph's N
    nodes, and a W with edge weights that vary within a stratum, an
    asymmetric W, weight off the edges, a row that does not sum to one,
    or a NaN or infinite entry.
    """
    if graph.stratum_of_edge is None:
        raise WeightError("graph carries no stratum labels")
    N = graph.node_count
    if np.shape(W) != (N, N):
        raise WeightError(f"W has shape {np.shape(W)}, but the graph has "
                          f"{N} nodes: W must be {N} x {N}")
    per = {s: float(W[u, v]) for (u, v), s in graph.stratum_of_edge.items()}
    strata = map(graph.stratum_of_edge.get, graph.edges)
    rebuilt = assemble_matrix(graph, WeightAssignment(per).for_strata(strata))
    if not np.all(np.abs(rebuilt - W) <= 1e-12):  # a NaN fails it
        raise WeightError("W is not the matrix of its per-stratum edge "
                          "weights (within 1e-12)")
    return per


_BASELINES = {"metropolis": metropolis_weights, "max-degree": max_degree_weights,
              "best-constant": best_constant_weights}


def scheme_matrix(topology: Topology, scheme: str) -> tuple[Graph, np.ndarray]:
    """Build (graph, W) for a named scheme: optimal | metropolis |
    max-degree | best-constant.

    "optimal" is the closed form of ``optimal_weights``, except on a
    k-cored star past k_max(m, n), where it is the certified optimum
    ``optimality.kcs_tied_optimum``; a refused optimum raises
    SpectralError.  At n = 1 up to k_max it is the closed form, which is
    not the optimum there (ROADMAP direction 2).
    """
    if scheme == "optimal":
        assignment = optimal_weights(topology)
        # k = 1 is within k_max; the route is decided before build, so an
        # undecided k_max is refused before a huge star lists its edges
        if isinstance(topology, KcsStar) and topology.k > 1:
            from .optimality import kcs_tied_optimum  # both import this module
            from .spectral import _k_max
            if topology.k > _k_max(topology.m, topology.n):
                assignment = kcs_tied_optimum(topology.m, topology.n, topology.k).weights
    elif scheme not in _BASELINES:
        raise WeightError(f"unknown weighting scheme {scheme!r}")
    graph = build(topology)
    if scheme != "optimal":
        return graph, _BASELINES[scheme](graph)
    strata = map(graph.stratum_of_edge.get, graph.edges)
    return graph, assemble_matrix(graph, assignment.for_strata(strata))
