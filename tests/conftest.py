import pytest

from regtail.graphs import (Graph, butterfly, complete_bipartite, complete_graph,
                            cycle_graph, cycle_union, k0_graph)


@pytest.fixture
def k23():
    return complete_bipartite(2, 3)


@pytest.fixture
def k24():
    return complete_bipartite(2, 4)


@pytest.fixture
def k0():
    return k0_graph()


@pytest.fixture
def bfly():
    return butterfly()


@pytest.fixture
def triangle():
    return cycle_graph(3)


@pytest.fixture
def k5():
    return complete_graph(5)


def small_corpus():
    """Named graphs exercised by most property tests."""
    return [
        complete_bipartite(2, 3),
        complete_bipartite(2, 4),
        k0_graph(),
        butterfly(),
        cycle_graph(3),
        cycle_graph(5),
        complete_graph(4),
        complete_graph(5),
        cycle_union([3, 4]),
        Graph([(0, 1), (1, 2), (2, 0), (2, 3)]),  # triangle with a pendant
        Graph([(0, 1), (1, 2), (2, 3)]),          # path
    ]


def edge_subsets_oracle(g):
    """Every edge-subset subgraph of g, one Graph per bitmask over the
    sorted edges, in increasing bitmask order (the empty graph first)."""
    es = g.sorted_edges()
    for mask in range(1 << len(es)):
        yield g.subgraph(es[i] for i in range(len(es)) if mask >> i & 1)
