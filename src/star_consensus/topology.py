"""Construction of star-family network graphs with edge-stratum labels.

Three families are supported:

* KCS star (k-cored): k parallel central nodes, n path tails of m edges
  each, every tail attached to all k centrals, no edges among them,
* symmetric star: one central node, i.e. the KCS star with k = 1
  (``SymmetricStar`` is a ``KcsStar`` with k fixed at 1, so every layer
  handles it through the k-cored code),
* CCS star (complete-cored): the n tails meet in a complete graph on n
  core nodes.

Edges are labeled by stratum (orbit under branch permutation): stratum 0
for core edges, stratum j for the j-th edge of a tail counted from the
center outward.  Custom graphs carry no stratum labels.

Node layout is fixed for reproducibility: central/core nodes occupy the
lowest indices, then tail nodes in branch-major order, inner to outer.

Family parameters are integers: ``_is_integer`` is the package's one rule
for an integer argument (an int or numpy integer, not a bool), which the
spectral functions, the quantizer, the seeds and the CLI share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Graph",
    "SymmetricStar",
    "CcsStar",
    "KcsStar",
    "Custom",
    "Topology",
    "TopologyError",
    "build",
]


class TopologyError(ValueError):
    """Raised for topology parameters or graphs violating invariants."""


def _is_integer(v) -> bool:
    """An int or numpy integer, but not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with optional edge-stratum labels.

    Edges are stored as (u, v) tuples with u < v.  ``stratum_of_edge``
    maps each edge to its stratum index (0 for core edges, 1..m for tail
    edges) and is None for custom graphs.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]
    stratum_of_edge: dict[tuple[int, int], int] | None = None

    def __post_init__(self):
        if self.node_count < 1:
            raise TopologyError("graph needs at least one node")
        seen = set()
        norm = []
        for u, v in self.edges:
            if u == v:
                raise TopologyError(f"self-loop at node {u}")
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise TopologyError(f"edge ({u},{v}) out of range")
            e = (min(u, v), max(u, v))
            if e in seen:
                raise TopologyError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        object.__setattr__(self, "edges", tuple(norm))
        if self.stratum_of_edge is not None:
            labeled = {(min(u, v), max(u, v)): s
                       for (u, v), s in self.stratum_of_edge.items()}
            if set(labeled) != seen:
                raise TopologyError("stratum labels must cover exactly the edge set")
            object.__setattr__(self, "stratum_of_edge", labeled)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        d = [0] * self.node_count
        for u, v in self.edges:
            d[u] += 1
            d[v] += 1
        return d

    def is_connected(self) -> bool:
        if self.node_count == 1:
            return True
        adj = [[] for _ in range(self.node_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.node_count


@dataclass(frozen=True)
class CcsStar:
    """Complete core on n nodes, one tail path of m edges hanging off each
    core node (a branch is a path with m edges whose inner endpoint is the
    core node), so the graph has n(m+1) nodes."""
    m: int
    n: int

    def __post_init__(self):
        if not (_is_integer(self.m) and _is_integer(self.n)):
            raise TopologyError(f"CCS star requires integers m and n, got "
                                f"m={self.m!r}, n={self.n!r}")
        if self.m < 1:
            raise TopologyError("CCS star requires m >= 1")
        if self.n < 2:
            raise TopologyError("CCS star requires n >= 2 (single-branch core is degenerate)")


@dataclass(frozen=True)
class KcsStar:
    """k parallel central nodes, each of the n tails attached to all k."""
    m: int
    n: int
    k: int

    def __post_init__(self):
        if not all(_is_integer(v) and v >= 1 for v in (self.m, self.n, self.k)):
            raise TopologyError(f"{type(self).__name__} requires integers "
                                f"m, n, k >= 1, got {self!r}")


@dataclass(frozen=True)
class SymmetricStar(KcsStar):
    """One central node, n tails of m edges each: the KCS star with k = 1.

    Constructed as ``SymmetricStar(m, n)``; k is fixed, not an argument.
    """
    k: int = field(default=1, init=False, repr=False)


@dataclass(frozen=True)
class Custom:
    """User-supplied graph; no stratum structure is assumed."""
    graph: Graph


Topology = SymmetricStar | CcsStar | KcsStar | Custom


def build(topology: Topology) -> Graph:
    """Construct the graph of a star family (or pass a custom graph through).

    Node layout: centrals/core first (indices 0..k-1 resp. 0..n-1), then
    tail nodes branch-major, inner to outer.  Edge order: core edges first
    (lexicographic), then tail edges branch-major, inner to outer.
    """
    if isinstance(topology, Custom):
        return topology.graph

    edges: list[tuple[int, int]] = []
    strata: dict[tuple[int, int], int] = {}

    if isinstance(topology, CcsStar):
        m, n = topology.m, topology.n
        for u in range(n):
            for v in range(u + 1, n):
                e = (u, v)
                edges.append(e)
                strata[e] = 0

        def tail(i, j):  # j = 1..m; core node i is position 0 of branch i
            return n + i * m + (j - 1)

        for i in range(n):
            prev = i
            for j in range(1, m + 1):
                e = (prev, tail(i, j))
                edges.append(e)
                strata[e] = j
                prev = tail(i, j)
        return Graph(n * (m + 1), tuple(edges), strata)

    if isinstance(topology, KcsStar):
        m, n, k = topology.m, topology.n, topology.k

        def tail(i, j):  # j = 1..m
            return k + i * m + (j - 1)

        for i in range(n):
            for c in range(k):
                e = (c, tail(i, 1))
                edges.append(e)
                strata[e] = 1
            for j in range(2, m + 1):
                e = (tail(i, j - 1), tail(i, j))
                edges.append(e)
                strata[e] = j
        return Graph(k + n * m, tuple(edges), strata)

    raise TopologyError(f"unknown topology {topology!r}")
