from collections import Counter

import numpy as np
import pytest

from star_consensus.topology import (
    CcsStar,
    Graph,
    KcsStar,
    SymmetricStar,
    TopologyError,
    build,
)


def test_symmetric_star_counts():
    g = build(SymmetricStar(3, 5))
    assert g.node_count == 1 + 5 * 3
    assert len(g.edges) == 5 * 3
    assert Counter(g.stratum_of_edge.values()) == {1: 5, 2: 5, 3: 5}
    assert g.is_connected()
    # center has degree n, tail tips degree 1
    assert g.degrees()[0] == 5
    assert sorted(g.degrees()).count(1) == 5


def test_symmetric_star_m1_is_plain_star():
    g = build(SymmetricStar(1, 4))
    assert g.node_count == 5 and len(g.edges) == 4
    assert Counter(g.stratum_of_edge.values()) == {1: 4}


def test_ccs_star_counts():
    # a branch is a path of m edges whose inner endpoint is a core node
    g = build(CcsStar(2, 5))
    assert g.node_count == 5 * 3
    assert len(g.edges) == 5 * 2 + 5 * 4 // 2
    assert Counter(g.stratum_of_edge.values()) == {0: 10, 1: 5, 2: 5}
    assert g.is_connected()
    # core node degree: n-1 core edges + 1 tail edge
    assert g.degrees()[0] == 5


def test_ccs_requires_two_branches():
    with pytest.raises(TopologyError):
        CcsStar(2, 1)


def test_kcs_star_counts():
    g = build(KcsStar(3, 5, 2))
    assert g.node_count == 2 + 5 * 3
    assert len(g.edges) == 5 * 2 + 5 * 2  # n tails * k central edges + n(m-1)
    assert Counter(g.stratum_of_edge.values()) == {1: 10, 2: 5, 3: 5}
    # centrals are not directly connected
    assert (0, 1) not in g.edges
    assert g.degrees()[0] == 5 and g.degrees()[1] == 5


def test_kcs_k1_equals_symmetric_star():
    a = build(KcsStar(3, 4, 1))
    b = build(SymmetricStar(3, 4))
    assert a.node_count == b.node_count
    assert set(a.edges) == set(b.edges)
    assert a.stratum_of_edge == b.stratum_of_edge


def test_symmetric_star_is_kcs_k1():
    s = SymmetricStar(2, 3)
    assert isinstance(s, KcsStar) and s.k == 1
    assert repr(s) == "SymmetricStar(m=2, n=3)"
    assert s != KcsStar(2, 3, 1)
    with pytest.raises(TypeError):
        SymmetricStar(2, 3, 1)
    # the CLI prints this message, so it names the family the user asked for
    with pytest.raises(TopologyError, match="SymmetricStar"):
        SymmetricStar(0, 3)


def test_parameter_validation():
    with pytest.raises(TopologyError):
        SymmetricStar(0, 3)
    with pytest.raises(TopologyError):
        KcsStar(2, 3, 0)


def test_graph_rejects_self_loops_duplicates_range():
    with pytest.raises(TopologyError):
        Graph(3, ((0, 0),))
    with pytest.raises(TopologyError):
        Graph(3, ((0, 1), (1, 0)))
    with pytest.raises(TopologyError):
        Graph(3, ((0, 3),))


def test_graph_normalizes_edge_order():
    g = Graph(3, ((2, 1), (1, 0)))
    assert set(g.edges) == {(1, 2), (0, 1)}


@pytest.mark.parametrize("make,match", [
    pytest.param(lambda: Graph(0, ()), "at least one node", id="no-node"),
    pytest.param(lambda: Graph(3, ((0, 1), (1, 2)), {(1, 0): 1}),
                 "cover exactly the edge set", id="labels-miss-an-edge"),
    pytest.param(lambda: CcsStar(0, 3), "requires m >= 1", id="ccs-m0"),
    pytest.param(lambda: build(Graph(2, ((0, 1),))), "unknown topology",
                 id="build-a-graph"),
])
def test_topology_refusals(make, match):
    with pytest.raises(TopologyError, match=match):
        make()


def test_family_parameters_must_be_integers():
    # a float or bool parameter would otherwise pass (True acts as m = 1)
    for make in (lambda: KcsStar(2.5, 3, 1), lambda: KcsStar(2, 3.0, 1),
                 lambda: KcsStar(2, 3, 1.5), lambda: KcsStar(True, 3, 2),
                 lambda: SymmetricStar(2, 3.5), lambda: SymmetricStar(2, True),
                 lambda: CcsStar(2, 3.5), lambda: CcsStar(2.0, 3),
                 lambda: CcsStar(True, 3)):
        with pytest.raises(TopologyError, match="integers"):
            make()
    assert build(KcsStar(np.int64(2), 3, 1)) == build(KcsStar(2, 3, 1))
    assert build(CcsStar(np.int32(2), np.int64(3))) == build(CcsStar(2, 3))
