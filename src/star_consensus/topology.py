"""Construction of star-family network graphs with edge-stratum labels.

Three families are supported:

* KCS star (k-cored): k parallel central nodes, n path tails of m edges
  each, every tail attached to all k centrals, no edges among them,
* symmetric star: one central node, i.e. the KCS star with k = 1
  (``SymmetricStar`` is a ``KcsStar`` with k fixed at 1, so every layer
  handles it through the k-cored code),
* CCS star (complete-cored): the n tails meet in a complete graph on n
  core nodes.

The k-cored and complete-cored stars are built by one loop (``build``): a
core, with or without edges of its own, plus n tail paths of m edges, each
attached to its branch's nodes of the core.

Edges are labeled by stratum (orbit under branch permutation): stratum 0
for core edges, stratum j for the j-th edge of a tail counted from the
center outward.  A ``Graph`` built directly carries no stratum labels.

Node layout is fixed for reproducibility: central/core nodes occupy the
lowest indices, then tail nodes in branch-major order, inner to outer.

Family parameters are integers: ``_is_integer`` is the package's one rule
for an integer argument (an int or numpy integer, not a bool), which the
spectral functions, the quantizer, the seeds and the CLI share.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "Graph",
    "SymmetricStar",
    "CcsStar",
    "KcsStar",
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
    edges) and is None for a graph built directly.
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
        m, n, k = self.m, self.n, self.k
        if not (_is_integer(m) and m >= 1 and _is_integer(n) and n >= 1
                and _is_integer(k) and k >= 1):
            names = ", ".join(f.name for f in fields(self) if f.init)
            raise TopologyError(f"{type(self).__name__} requires integers "
                                f"{names} >= 1, got {self!r}")


@dataclass(frozen=True)
class SymmetricStar(KcsStar):
    """One central node, n tails of m edges each: the KCS star with k = 1.

    Constructed as ``SymmetricStar(m, n)``; k is fixed, not an argument.
    """
    k: int = field(default=1, init=False, repr=False)


Topology = SymmetricStar | CcsStar | KcsStar


def build(topology: Topology) -> Graph:
    """Construct the graph of a star family.

    Both families are a core of c nodes plus n tail paths of m edges, built
    by one loop from three family parts: the core size c (k centrals, or n
    core nodes), the core edges (none, or the complete graph on the core,
    stratum 0) and each branch's attachment nodes (all k centrals, or core
    node i).  Branch i's tail nodes are c + i*m .. c + i*m + m - 1, inner
    to outer; edge 1 joins each attachment node to the first of them and
    edges 2..m run along the tail.  Edge order: core edges first
    (lexicographic), then tail edges branch-major, inner to outer.
    """
    if not isinstance(topology, (CcsStar, KcsStar)):
        raise TopologyError(f"unknown topology {topology!r}")
    m, n = topology.m, topology.n
    if isinstance(topology, CcsStar):
        c = n
        core = [(u, v) for u in range(n) for v in range(u + 1, n)]
        attach = [(i,) for i in range(n)]
    else:
        c = topology.k
        core = []
        attach = [range(c)] * n

    strata = dict.fromkeys(core, 0)
    for i in range(n):
        first = c + i * m
        strata.update(((a, first), 1) for a in attach[i])
        strata.update(((first + j - 2, first + j - 1), j) for j in range(2, m + 1))
    return Graph(c + n * m, tuple(strata), strata)
