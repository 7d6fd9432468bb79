"""Small labeled simple graphs: parsing, named families, structural predicates.

Graphs follow the edge-subset convention: a graph is its edge set, vertices
are exactly the edge endpoints, and the empty graph is a first-class value.
Vertex ids are dense integers and are preserved by subgraph extraction, so
vertex subsets computed on a subgraph are comparable with the parent's ids.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from .errors import EdgeListParseError, PreconditionError

Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple undirected graph without isolated vertices."""

    __slots__ = ("edges", "vertices", "name", "vertex_names")

    def __init__(self, edges: Iterable[Edge], name: Optional[str] = None,
                 vertex_names: Optional[dict[int, str]] = None):
        es = set()
        for u, v in edges:
            if u == v:
                raise PreconditionError(f"self-loop at vertex {u}")
            es.add(_norm_edge(int(u), int(v)))
        self.edges: frozenset[Edge] = frozenset(es)
        self.vertices: tuple[int, ...] = tuple(sorted({x for e in es for x in e}))
        self.name = name
        self.vertex_names = dict(vertex_names) if vertex_names else None

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def is_empty(self) -> bool:
        return not self.edges

    def degrees(self) -> dict[int, int]:
        deg = {v: 0 for v in self.vertices}
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def neighbors(self) -> dict[int, set[int]]:
        nbr: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            nbr[u].add(v)
            nbr[v].add(u)
        return nbr

    def subgraph(self, edges: Iterable[Edge]) -> "Graph":
        """Graph on an edge subset; vertex ids are inherited from the parent."""
        sub = frozenset(_norm_edge(u, v) for u, v in edges)
        extra = sub - self.edges
        if extra:
            raise PreconditionError(f"edges {sorted(extra)} not in parent graph")
        return Graph(sub, vertex_names=self.vertex_names)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def edge_label(self, e: Edge) -> str:
        if self.vertex_names:
            return f"{self.vertex_names.get(e[0], e[0])}-{self.vertex_names.get(e[1], e[1])}"
        return f"{e[0]}-{e[1]}"

    def to_edge_list(self) -> str:
        """Render in the plain text edge-list format (one "u v" per line)."""
        return "\n".join(f"{u} {v}" for u, v in self.sorted_edges()) + ("\n" if self.edges else "")

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.edges == other.edges

    def __hash__(self) -> int:
        return hash(self.edges)

    def __repr__(self) -> str:
        tag = self.name or "Graph"
        return f"{tag}(v={self.n_vertices}, e={self.n_edges})"


def parse_edge_list(text: str) -> tuple[Graph, list[str]]:
    """Parse the text edge-list format.

    Lines hold "u v" with distinct integer endpoints; a single integer
    declares a vertex; '#' starts a comment; blank lines are skipped.
    Duplicate edges collapse silently. Declared vertices that end up with no
    incident edges are dropped and reported in the warning list.
    """
    edges: set[Edge] = set()
    declared: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            values = [int(t) for t in tokens]
        except ValueError:
            raise EdgeListParseError(f"non-integer token in {tokens!r}", lineno)
        if len(values) == 1:
            declared.add(values[0])
        elif len(values) == 2:
            u, v = values
            if u == v:
                raise EdgeListParseError(f"self-loop at vertex {u}", lineno)
            edges.add(_norm_edge(u, v))
        else:
            raise EdgeListParseError(f"expected 1 or 2 tokens, got {len(values)}", lineno)
    g = Graph(edges)
    warnings = [f"isolated vertex {v} dropped" for v in sorted(declared - set(g.vertices))]
    return g, warnings


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------

def complete_graph(n: int) -> Graph:
    if n < 1:
        raise PreconditionError("complete graph needs n >= 1")
    return Graph([(i, j) for i in range(n) for j in range(i + 1, n)], name=f"K{n}")


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with side-A vertices 0..a-1 named v1.. and side-B named w1.. ."""
    if a < 1 or b < 1:
        raise PreconditionError("complete bipartite needs both sides nonempty")
    names = {i: f"v{i + 1}" for i in range(a)}
    names.update({a + j: f"w{j + 1}" for j in range(b)})
    return Graph([(i, a + j) for i in range(a) for j in range(b)],
                 name=f"K{a}{b}", vertex_names=names)


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise PreconditionError("cycle length must be >= 3")
    return Graph([(i, (i + 1) % k) for i in range(k)], name=f"C{k}")


def butterfly() -> Graph:
    """Two triangles joined at a vertex; vertex 0 has degree 4."""
    return Graph([(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)], name="butterfly")


def k0_graph() -> Graph:
    """K_{2,4} plus the edge w1w2 on the four-vertex side."""
    g = complete_bipartite(2, 4)
    edges = set(g.edges)
    edges.add((2, 3))  # w1-w2
    return Graph(edges, name="K0", vertex_names=g.vertex_names)


def cycle_union(lengths: Iterable[int]) -> Graph:
    """Vertex-disjoint union of cycles with the given lengths."""
    ls = list(lengths)
    if not ls:
        raise PreconditionError("need at least one cycle length")
    edges = []
    base = 0
    for k in ls:
        if k < 3:
            raise PreconditionError("cycle length must be >= 3")
        edges.extend((base + i, base + (i + 1) % k) for i in range(k))
        base += k
    return Graph(edges, name="+".join(f"C{k}" for k in ls))


_FAMILY_ARITY = {"complete": 1, "complete-bipartite": 2, "cycle": 1,
                 "butterfly": 0, "k0": 0, "disjoint-union": -1}


def make_named(family: str, params: tuple[int, ...] = ()) -> Graph:
    """Build a named-family graph; ``family`` tags match the CLI syntax."""
    if family not in _FAMILY_ARITY:
        raise PreconditionError(f"unknown family {family!r}")
    arity = _FAMILY_ARITY[family]
    if arity >= 0 and len(params) != arity:
        raise PreconditionError(f"family {family!r} takes {arity} parameter(s)")
    if family == "complete":
        return complete_graph(params[0])
    if family == "complete-bipartite":
        return complete_bipartite(params[0], params[1])
    if family == "cycle":
        return cycle_graph(params[0])
    if family == "butterfly":
        return butterfly()
    if family == "k0":
        return k0_graph()
    return cycle_union(params)


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------

def two_core(g: Graph) -> Graph:
    """Repeatedly delete degree-<=1 vertices; empty iff g is a forest."""
    nbr = g.neighbors()
    queue = [v for v, s in nbr.items() if len(s) <= 1]
    alive = set(g.vertices)
    while queue:
        v = queue.pop()
        if v not in alive or len(nbr[v]) > 1:
            continue
        alive.discard(v)
        for u in nbr.pop(v):
            nbr[u].discard(v)
            if u in alive and len(nbr[u]) <= 1:
                queue.append(u)
    return g.subgraph((u, v) for u, v in g.edges if u in alive and v in alive)


def components(g: Graph) -> list[list[int]]:
    """Vertex lists of the components, breadth first from the least vertex."""
    nbr = g.neighbors()
    seen: set[int] = set()
    comps = []
    for start in g.vertices:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        for v in comp:
            for u in sorted(nbr[v]):
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
        comps.append(comp)
    return comps


def is_forest(g: Graph) -> bool:
    return two_core(g).is_empty


def cycle_union_core(g: Graph) -> Optional[list[int]]:
    """Cycle lengths of the 2-core when it is a nonempty disjoint cycle union.

    Returns None when g is a forest or its 2-core has a vertex of degree != 2.
    """
    core = two_core(g)
    if core.is_empty:
        return None
    nbr = core.neighbors()
    if any(len(s) != 2 for s in nbr.values()):
        return None
    lengths = []
    seen: set[int] = set()
    for start in core.vertices:
        if start in seen:
            continue
        size, prev, cur = 0, None, start
        while cur not in seen:
            seen.add(cur)
            size += 1
            nxt = [x for x in nbr[cur] if x != prev]
            prev, cur = cur, nxt[0]
        lengths.append(size)
    return sorted(lengths)


def delta_star(g: Graph) -> Fraction:
    """Half the maximum of deg(u)+deg(v) over edges uv, as an exact rational."""
    if g.is_empty:
        raise PreconditionError("delta_star needs at least one edge")
    deg = g.degrees()
    return Fraction(max(deg[u] + deg[v] for u, v in g.edges), 2)


def is_complete_bipartite(g: Graph) -> Optional[tuple[int, int]]:
    """Side sizes (a, b) with a <= b when g is a complete bipartite graph."""
    if g.is_empty:
        return None
    color: dict[int, int] = {}
    nbr = g.neighbors()
    for start in g.vertices:
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for u in nbr[v]:
                if u not in color:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return None
    sides = [sorted(v for v in g.vertices if color[v] == c) for c in (0, 1)]
    if len(g.edges) != len(sides[0]) * len(sides[1]):
        return None
    a, b = sorted((len(sides[0]), len(sides[1])))
    return (a, b)


def describe_subgraph(g: Graph, parent: Optional[Graph] = None) -> str:
    """Short display name for a subgraph (used in reports)."""
    if g.is_empty:
        return "empty"
    if parent is not None and g.edges == parent.edges and parent.name:
        return parent.name
    ab = is_complete_bipartite(g)
    if ab:
        return f"K{ab[0]}{ab[1]}"
    lengths = cycle_union_core(g)
    if lengths is not None and sum(lengths) == g.n_vertices and len(lengths) == 1:
        return f"C{lengths[0]}"
    return f"H(v={g.n_vertices},e={g.n_edges})"
