"""Bipartite graphs, line graphs, and exact integer spectra.

Graphs here are simple and finite. A :class:`BipartiteGraph` keeps its
two colour classes explicit; a :class:`Graph` is a plain undirected
graph used for line graphs and their spectra. Both store the sorted
neighbour lists of their vertices (a bipartite graph numbers its X
vertices first, then its Y vertices), and read their edges and degrees
off them; a line graph builds its lists only when a caller reads them.
Every distance comes from bitmasks of the balls around each vertex,
grown one level at a time (`_levels`); connectivity alone takes one BFS
(`_distances`). Characteristic polynomials are computed exactly
(integer arithmetic throughout), so "this graph is integral" is a proof,
not a float heuristic: the polynomial either splits over the integers or
it does not.

A line graph made by :func:`line_graph` keeps its base graph, and the
metrics of the line graph come from the nu vertices of the base graph
instead of its e vertices. `_source` is the one place that decides which
graph a routine reads: the base graph when there is one, else the graph
itself (a `Graph` built directly, or by `BipartiteGraph.as_graph`).

* its order is the base graph's edge count, and the degree of the edge
  xy is deg x + deg y - 2;
* its neighbour lists, built by `_adjacency` the first time something
  reads them, pair the base edges within each star (the edges at one
  vertex), which lists every adjacent pair once, since two edges share
  at most one endpoint;
* its diameter: two distinct edges lie at distance 1 + the least base
  distance over the four pairs of their endpoints, and by parity that
  makes the diameter D or D - 1, D the base graph's, decided from the
  last two levels of the base graph's balls;
* its clique number is the base graph's largest degree: edges that meet
  pairwise share one vertex or form a triangle, and a bipartite graph is
  triangle-free.

A graph without a base reads its diameter from the levels of its own
balls, and takes a branch and bound for its clique number.

Every graph, with a base or without, has one spectral description
(`_matrix`): an integer matrix M and a count of extra -2s, so that its
spectrum is that of M with -2 added that many times, or removed when the
count is negative. A graph without a base is its own adjacency matrix
with no extra -2. For a line graph, with B the nu x e vertex-edge
incidence matrix of the base graph, A(L) = B^T B - 2I and B B^T = Q =
D + A, the signless Laplacian, so M = Q - 2I (the base graph's neighbour
lists with deg - 2 on the diagonal) and the count is e - nu:
det(xI - A(L)) = (x+2)^(e-nu) det(xI - (Q - 2I)). When e < nu (a forest,
or a base graph with isolated vertices) the division by (x+2)^(nu-e) is
exact, because Q of a bipartite graph has one zero eigenvalue per
component. Every eigenvalue of M lies in [lowest, Delta], Delta the
graph's largest degree and lowest the Gershgorin floor min(M_ii - deg_i):
-Delta for an adjacency matrix, and -2 for Q - 2I (Q = B B^T is positive
semidefinite, and its nonzero eigenvalues are those of B^T B =
A(L) + 2I). So the integer roots are searched in that window on
det(xI - M) alone, and the numeric eigenvalues are those of M, padded
with -2.0. Each `Graph` keeps its spectral record in a slot, filled the
first time a spectral answer asks for it (`_spectral_record`): the
factor det(xI - M), the extra count, every integer eigenvalue's
multiplicity from one scan of that window with the extra -2s added
once, and whether the factor split. Every spectral answer about one
graph object reads that record; only an answer that returns the
polynomial multiplies (x+2)^(e-nu) in (`char_poly_exact`). When both
classes of the base graph are regular, as they are under every regular
line graph of a connected bipartite graph, `_factor` expands the factor
from the m x m Gram matrix N N^T of the biadjacency N, m the smaller
class, instead of the nu x nu Q - 2I.

Vertex order of a line graph is the lexicographic order of the base
graph's edges by (x-index, y-index); every operation that returns
edge-indexed data uses that same ordering.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import FormatError, InputError, as_int, brief, require_type
from .partitions import Partition


class Graph:
    """Immutable simple undirected graph on vertices 0..order-1.

    Equality and hashing look at the adjacency only. A line graph built
    by `line_graph` keeps its base graph in `_base` and starts without
    neighbour lists: `_adjacency` builds them, once, the first time
    `neighbors`, `degree`, `edges`, `==`, `hash` or `repr` reads them
    (e lists, sum(deg^2) - 2e entries over the base degrees). Its `order`
    and degrees, and the answers of `char_poly_exact`, `exact_spectrum`,
    `numeric_spectrum`, `diameter` and `clique_number`, come from the
    base graph (through `_source`), so none of those builds the lists.
    Every graph keeps its spectral record in `_record`, filled on the
    first spectral answer (`_spectral_record`).
    """

    __slots__ = ("_adj", "_base", "_record")

    def __init__(self, order: int, edges: Iterable[tuple[int, int]] = ()):
        if type(order) is not int or order < 1:  # a plain int skips the call to as_int
            order = as_int(order, "graph order", 1)
        adj: list[set[int]] = [set() for _ in range(order)]
        try:
            for u, v in edges:
                if not (type(u) is int and type(v) is int):
                    u, v = as_int(u, "an endpoint in edges"), as_int(v, "an endpoint in edges")
                if not (0 <= u < order and 0 <= v < order):
                    raise InputError(f"edge {brief((u, v))} out of range for order {order}")
                if u == v:
                    raise InputError(f"loops are not allowed: ({u},{v})")
                adj[u].add(v)
                adj[v].add(u)
        except InputError:
            raise
        except (TypeError, ValueError):
            raise InputError("edges must be an iterable of integer pairs") from None
        self._adj: Optional[tuple[tuple[int, ...], ...]] = tuple(tuple(sorted(s)) for s in adj)
        self._base: Optional[BipartiteGraph] = None
        self._record: Optional[_Record] = None

    @property
    def order(self) -> int:
        source = _source(self)
        return source.edge_count if isinstance(source, BipartiteGraph) else len(self._adj)

    def neighbors(self, v: int) -> tuple[int, ...]:
        adj = _adjacency(self)
        if type(v) is not int or not 0 <= v < len(adj):
            v = as_int(v, "vertex v", 0)
            if v >= len(adj):
                raise InputError(f"vertex v must be below the order {len(adj)}, got {brief(v)}")
        return adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def degrees(self) -> list[int]:
        """Degrees by vertex; for a line graph, deg x + deg y - 2 for the
        base edge xy, read from the base graph."""
        source = _source(self)
        if isinstance(source, BipartiteGraph):
            adj = source._adj
            return [len(nb) + len(adj[v]) - 2 for nb in adj[: source.x_size] for v in nb]
        return list(map(len, self._adj))

    def max_degree(self) -> int:
        return max(_distinct_degrees(self))

    def edges(self) -> list[tuple[int, int]]:
        adj = _adjacency(self)
        return [(u, v) for u in range(len(adj)) for v in adj[u] if u < v]

    def regular_degree(self) -> Optional[int]:
        """Common degree if the graph is regular, else None."""
        degs = _distinct_degrees(self)
        return degs.pop() if len(degs) == 1 else None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and _adjacency(self) == _adjacency(other)

    def __hash__(self) -> int:
        return hash(_adjacency(self))

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, edges={self.edges()!r})"


class BipartiteGraph:
    """Simple bipartite graph with colour classes X (size m) and Y (size n).

    Edges are pairs (x-index, y-index), 0-based. The graph is stored as
    the neighbour lists of its nu = m + n vertices, sorted, with X
    vertices 0..m-1 followed by Y vertices m..nu-1 (the numbering of
    `as_graph`); the edges, degrees and classes are read off them.
    Connectivity is not a type invariant; operations that need it check
    and say so.
    """

    __slots__ = ("_m", "_adj")

    def __init__(self, x_size: int, y_size: int, edges: Iterable[tuple[int, int]] = ()):
        if not (type(x_size) is int and type(y_size) is int) or x_size < 1 or y_size < 1:
            x_size = as_int(x_size, "class size x_size", 1)
            y_size = as_int(y_size, "class size y_size", 1)
        adj: list[set[int]] = [set() for _ in range(x_size + y_size)]
        try:
            for x, y in edges:
                if not (type(x) is int and type(y) is int):
                    x, y = as_int(x, "an endpoint in edges"), as_int(y, "an endpoint in edges")
                if not (0 <= x < x_size and 0 <= y < y_size):
                    raise InputError(
                        f"edge {brief((x, y))} out of range for classes {brief((x_size, y_size))}"
                    )
                adj[x].add(x_size + y)
                adj[x_size + y].add(x)
        except InputError:
            raise
        except (TypeError, ValueError):
            raise InputError("edges must be an iterable of integer pairs") from None
        self._m = x_size
        self._adj = tuple(tuple(sorted(s)) for s in adj)

    @property
    def x_size(self) -> int:
        return self._m

    @property
    def y_size(self) -> int:
        return len(self._adj) - self._m

    @property
    def order(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return sum(self.x_degrees())

    @property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        """Edges in the canonical lexicographic (x, y) order."""
        m = self._m
        return tuple((x, v - m) for x, v in _edge_pairs(self))

    def x_degrees(self) -> list[int]:
        return list(map(len, self._adj[: self._m]))

    def y_degrees(self) -> list[int]:
        return list(map(len, self._adj[self._m :]))

    def is_connected(self) -> bool:
        """BFS across both classes; order >= 2 always, so edgeless
        bipartite graphs are never connected."""
        return -1 not in _distances(self._adj, 0)

    def regular_degree(self) -> Optional[int]:
        """Common degree when every vertex in both classes shares it."""
        degs = set(map(len, self._adj))
        return degs.pop() if len(degs) == 1 else None

    def as_graph(self) -> Graph:
        """The same graph with X vertices 0..m-1 followed by Y vertices."""
        return Graph(self.order, _edge_pairs(self))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BipartiteGraph)
            and (self._m, self._adj) == (other._m, other._adj)
        )

    def __hash__(self) -> int:
        return hash((self._m, self._adj))

    def __repr__(self) -> str:
        return f"BipartiteGraph({self._m}, {self.y_size}, edges={list(self.sorted_edges)!r})"


# ---------------------------------------------------------------------------
# constructions


def line_graph(bg: BipartiteGraph) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    """Line graph of a bipartite graph plus the edge ordering used.

    Vertices of the result are the edges of `bg` in lexicographic order;
    two are adjacent when the edges share an endpoint. The result keeps
    `bg` as its base graph, from which its order, degrees, spectra and
    metrics are computed, and holds no neighbour lists until a caller
    reads them (`_adjacency`), so building it costs no work per pair of
    adjacent edges.
    """
    if not isinstance(bg, BipartiteGraph):
        require_type(BipartiteGraph, bg=bg)
    edges = bg.sorted_edges
    if not edges:
        raise InputError("line graph of an edgeless graph is undefined")
    lg = Graph.__new__(Graph)
    lg._adj = lg._record = None
    lg._base = bg
    return lg, edges


def _star_lists(bg: BipartiteGraph) -> tuple[tuple[int, ...], ...]:
    """Neighbour lists of L(bg) on the indices of `bg.sorted_edges`: the
    neighbours of the edge xy are the other edges of the star at x (the
    edges at x) and of the star at y. The two stars share only xy, so
    their symmetric difference lists each neighbour once."""
    pairs = _edge_pairs(bg)
    stars: list[list[int]] = [[] for _ in bg._adj]
    for idx, (x, v) in enumerate(pairs):
        stars[x].append(idx)
        stars[v].append(idx)
    return tuple(tuple(sorted(set(stars[x]).symmetric_difference(stars[v]))) for x, v in pairs)


def _edge_pairs(bg: BipartiteGraph) -> list[tuple[int, int]]:
    """The edges of `bg` in `sorted_edges` order, each as (x, m + y):
    its two vertices in the numbering of the neighbour lists."""
    return [(x, v) for x, nb in enumerate(bg._adj[: bg.x_size]) for v in nb]


def degree_partitions(bg: BipartiteGraph) -> tuple[Partition, Partition]:
    """Weakly decreasing degree sequences of the two colour classes.

    Both partitions have full class length, so every vertex must have
    degree >= 1; the error names the first isolated vertex found.
    """
    if not isinstance(bg, BipartiteGraph):
        require_type(BipartiteGraph, bg=bg)
    xd = bg.x_degrees()
    yd = bg.y_degrees()
    for i, d in enumerate(xd):
        if d == 0:
            raise InputError(f"isolated vertex x{i}: degree partitions need min degree 1")
    for j, d in enumerate(yd):
        if d == 0:
            raise InputError(f"isolated vertex y{j}: degree partitions need min degree 1")
    return Partition(xd), Partition(yd)


def bipartite_complement(bg: BipartiteGraph) -> BipartiteGraph:
    """Same colour classes, edge (x, y) present exactly where absent."""
    if not isinstance(bg, BipartiteGraph):
        require_type(BipartiteGraph, bg=bg)
    present = set(bg.sorted_edges)
    edges = [
        (x, y)
        for x in range(bg.x_size)
        for y in range(bg.y_size)
        if (x, y) not in present
    ]
    return BipartiteGraph(bg.x_size, bg.y_size, edges)


def complete_bipartite(s: int, t: int) -> BipartiteGraph:
    s, t = as_int(s, "class size s", 1), as_int(t, "class size t", 1)
    return BipartiteGraph(s, t, [(i, j) for i in range(s) for j in range(t)])


def even_cycle(length: int) -> BipartiteGraph:
    """C_length as a bipartite graph; length must be even and >= 4."""
    length = as_int(length, "cycle length", 4)
    if length % 2:
        raise InputError(f"cycle length must be even, got {brief(length)}")
    k = length // 2
    edges = [(i, i) for i in range(k)] + [((i + 1) % k, i) for i in range(k)]
    return BipartiteGraph(k, k, edges)


def matching(n: int) -> BipartiteGraph:
    """n disjoint edges (the graph nK_2 drawn across two classes)."""
    n = as_int(n, "matching size n", 1)
    return BipartiteGraph(n, n, [(i, i) for i in range(n)])


def disjoint_union(parts: Sequence[BipartiteGraph]) -> BipartiteGraph:
    """Disjoint union; classes of the parts are concatenated in order."""
    if not isinstance(parts, Iterable):
        raise InputError(f"parts must be an iterable of BipartiteGraphs, got {brief(parts)}")
    parts = list(parts)  # an iterator is read once, and may be empty
    if not parts:
        raise InputError("disjoint union of nothing is undefined")
    edges = []
    off_x = off_y = 0
    for bg in parts:
        if not isinstance(bg, BipartiteGraph):
            require_type(BipartiteGraph, part=bg)
        edges.extend((x + off_x, y + off_y) for x, y in bg.sorted_edges)
        off_x += bg.x_size
        off_y += bg.y_size
    return BipartiteGraph(off_x, off_y, edges)


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class ExactSpectrum:
    """Exact spectral data: monic integer characteristic polynomial and,
    when the polynomial splits over the integers, the full root multiset
    as ((eigenvalue, multiplicity), ...) sorted by descending eigenvalue.
    `integer_roots` is None exactly when the graph is not integral.
    """

    char_poly: tuple[int, ...]
    integer_roots: Optional[tuple[tuple[int, int], ...]]


def _source(g: Graph) -> Union[Graph, BipartiteGraph]:
    """The graph whose matrix describes `g`: its base graph when it was
    made by `line_graph`, else `g` itself. Every routine that reads a
    Graph's matrix or metrics comes here first, so a wrong argument type
    raises InputError here."""
    if not isinstance(g, Graph):
        require_type(Graph, g=g)
    return g if g._base is None else g._base


def _distinct_degrees(g: Graph) -> set[int]:
    """The degrees that occur in `g`, as a set. A line graph made by
    `line_graph(bg)` reads them from `bg`'s neighbour lists without
    listing its e degrees deg x + deg y - 2: when all X vertices share
    one degree a and all Y vertices one degree b, every edge gives
    a + b - 2; else each edge gives its own."""
    source = _source(g)
    if isinstance(source, Graph):
        return set(map(len, source._adj))
    adj, m = source._adj, source.x_size
    xs = set(map(len, adj[:m]))
    ys = set(map(len, adj[m:])) if len(xs) == 1 else ()
    if len(ys) == 1:
        return {xs.pop() + ys.pop() - 2}
    return {len(nb) + len(adj[v]) - 2 for nb in adj[:m] for v in nb}


def _adjacency(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The neighbour lists of `g`. A line graph made by `line_graph` has
    none until the first call, which builds them from the stars of its
    base graph (`_star_lists`) and keeps them."""
    if g._adj is None:
        g._adj = _star_lists(_source(g))
    return g._adj


def char_poly_exact(g: Graph) -> tuple[int, ...]:
    """Integer coefficients of det(xI - A), descending degree.

    The factor det(xI - M) in the graph's spectral record
    (`_spectral_record`) is multiplied by the binomial expansion of
    (x+2)^extra in one convolution: for a graph without a base M is its
    adjacency and the binomial is [1]; for a line graph made by
    `line_graph(bg)`, M is Q - 2I of `bg` on its nu vertices (whose
    determinant `_factor` takes from the m x m Gram matrix N N^T when
    both classes of `bg` are regular) and extra = e - nu. When extra < 0,
    a forest or a base graph with isolated vertices, (x+2)^(-extra) is
    divided out instead; Q has a zero eigenvalue per component, so the
    division is exact, and a remainder raises ArithmeticError.

    Only the answers that return the polynomial expand it: this one,
    `exact_spectrum` and the report of `analyze_line_graph`. Integer
    roots, multiplicities and Ramanujan verdicts read the record's
    multiplicities alone (`integer_spectrum`, `_multiplicity`).
    """
    factor, extra, _, _ = _spectral_record(g)
    if extra < 0:
        coeffs, count = _deflate(factor, -2, -extra)
        if count < -extra:
            raise ArithmeticError("(x+2) deflation of the line-graph polynomial was not exact")
        return tuple(coeffs)
    return tuple(_convolve(factor, _binomial(2, extra)))


def _binomial(c: int, k: int) -> list[int]:
    """Coefficients of (x + c)^k, descending."""
    return [math.comb(k, j) * c**j for j in range(k + 1)]


def _convolve(p: Sequence[int], q: Sequence[int]) -> list[int]:
    """Coefficients of the product of two polynomials, descending."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _matrix(
    source: Union[Graph, BipartiteGraph]
) -> tuple[Sequence[Sequence[int]], list[int], int]:
    """(neighbours, diagonal, extra): the integer matrix M and the count
    of extra -2s whose spectrum, padded, is the graph's. A `Graph` gives
    its adjacency, a zero diagonal and 0; a base graph gives Q - 2I on
    its nu vertices (its stored neighbour lists, deg - 2 on the
    diagonal) and e - nu. `numeric_spectrum` solves this M for every
    graph, and `_factor` expands det(xI - M) from it unless the base
    graph is semiregular, when the m x m Gram matrix serves instead."""
    if isinstance(source, Graph):
        return source._adj, [0] * source.order, 0
    adj = source._adj
    return adj, [len(nb) - 2 for nb in adj], source.edge_count - source.order


_Record = tuple[tuple[int, ...], int, dict[int, int], bool]


def _spectral_record(g: Graph) -> _Record:
    """(factor, extra, multiplicities, split): the spectral record of
    `g`, built on the first call and kept in `g._record`, so every
    spectral answer about one graph object computes the factor once.

    `factor` and `extra` are `_factor`'s det(xI - M) and e - nu. The
    factor's integer roots lie in [lowest, Delta], lowest its Gershgorin
    floor and Delta the largest degree of `g` (no eigenvalue exceeds
    it), so one scan from Delta down divides each out as often as it
    divides (`_deflate`). The extra -2s are then added to the count of
    -2, here and nowhere else, and `multiplicities` maps every integer
    eigenvalue of `g` to its multiplicity, descending. `split` tells
    whether nothing was left of the factor: whether `g` is integral.
    For a line graph the floor is -2 even when Delta(L) < 2: the factor
    of a single edge, Delta(L) = 0, has the root -2, which its extra
    count of -1 cancels. Two threads that fill the slot at once write
    equal records, so either write may win.
    """
    source = _source(g)  # first, so that a wrong type raises InputError
    if g._record is None:
        factor, extra, lowest = _factor(source)
        quotient, counts = factor, {}
        for t in range(g.max_degree(), lowest - 1, -1):
            quotient, counts[t] = _deflate(quotient, t)
        counts[-2] = counts.get(-2, 0) + extra  # -2 is the floor whenever extra != 0
        g._record = factor, extra, {t: c for t, c in counts.items() if c}, len(quotient) == 1
    return g._record


def _factor(source: Union[Graph, BipartiteGraph]) -> tuple[tuple[int, ...], int, int]:
    """(det(xI - M), extra, lowest) for `_matrix(source)`, lowest the
    Gershgorin floor min(M_ii - deg_i) of M's eigenvalues. Computed
    afresh on every call; `_spectral_record` keeps the one of each graph.

    A base graph whose classes are each regular, m vertices of degree a
    (the smaller class) and n >= m of degree b, takes a smaller route.
    With N its m x n biadjacency, Q = [[aI, N], [N^T, bI]], and the
    Schur complement of the (y - b)I_n block gives
    det(yI - Q) = (y - b)^(n-m) R((y - a)(y - b)), R(t) = det(tI - N N^T).
    So R comes from the kernel on the m x m Gram matrix N N^T, m steps
    instead of nu; the quadratic (x + 2 - a)(x + 2 - b) is substituted
    into it by Horner's rule and the result multiplied by
    (x + 2 - b)^(n-m), which is det(xI - (Q - 2I)) at y = x + 2. Every
    other graph expands det(xI - M) on its nu x nu matrix directly.
    """
    neighbours, diagonal, extra = _matrix(source)
    lowest = min(d - len(nb) for nb, d in zip(neighbours, diagonal))
    sides = _gram_sides(source) if isinstance(source, BipartiteGraph) else None
    if sides is None:
        return tuple(_char_poly(neighbours, diagonal)), extra, lowest
    rows, cols = sides
    a, b = len(rows[0]), len(cols[0])
    factor = [1]
    for c in _char_poly(rows, [0] * len(rows), cols)[1:]:  # Horner's rule in t
        factor = _convolve(factor, (1, 4 - a - b, (2 - a) * (2 - b)))  # t = (x + 2 - a)(x + 2 - b)
        factor[-1] += c
    return tuple(_convolve(factor, _binomial(2 - b, len(cols) - len(rows)))), extra, lowest


def _gram_sides(bg: BipartiteGraph) -> Optional[tuple[Sequence[Sequence[int]], ...]]:
    """(N, N^T) as neighbour lists, N the biadjacency from the smaller
    class to the larger (X when the two are equal), each list numbering
    the other class from 0, when the two classes of `bg` are each
    regular; else None. The regularity test reads the nu list lengths
    only."""
    m = bg.x_size
    xs, ys = bg._adj[:m], bg._adj[m:]
    if len(set(map(len, xs))) > 1 or len(set(map(len, ys))) > 1:
        return None
    xs = [[v - m for v in nb] for nb in xs]
    return (xs, ys) if m <= len(ys) else (ys, xs)


def _char_poly(
    neighbours: Sequence[Sequence[int]],
    diagonal: Sequence[int],
    inner: Optional[Sequence[Sequence[int]]] = None,
) -> list[int]:
    """Coefficients of det(xI - A), descending, for the integer matrix A
    with 1 at (i, j) for each j in neighbours[i], diagonal[i] at (i, i)
    and 0 elsewhere: an adjacency matrix, or Q - 2I. With `inner`, A is
    instead N N' plus the diagonal, N the 0/1 matrix with rows
    `neighbours` and N' the one with rows `inner`: the Gram matrix
    N N^T of a biadjacency, with inner = N^T's rows.

    Uses the Faddeev-LeVerrier recurrence M_1 = I, c_k = -tr(A M_k) / k,
    M_{k+1} = A M_k + c_k I over Python integers; the division by k is
    exact at every step. Each row of the work matrix is packed into one
    integer, entry j in a w-bit field at bit w*j (Kronecker
    substitution). Packing is linear, so row i of A M is the sum of the
    packed rows at the neighbours of i, one integer addition each, plus
    d_i times row i for a nonzero diagonal entry d_i, and c I adds
    c << (w*i) to row i; negative entries need no care while adding. With
    `inner`, A M = N (N' M) takes two such passes: row j of N' M is the
    sum of the rows of M at inner[j], and row i of A M the sum of those
    rows at neighbours[i]. An entry is read by adding the bias 2^(w-1) to
    every field, which makes each field nonnegative, so none borrows
    from the next, and subtracting it again.

    Field width. Let R = max_i(s_i + |d_i|), the largest absolute row
    sum of A, with s_i = |neighbours[i]|, or with `inner` the row sum
    of N N', the sum of |inner[j]| over j in neighbours[i]. By
    Gershgorin every eigenvalue has |lambda| <= R, so the coefficients,
    elementary symmetric functions of the eigenvalues, obey
    |c_j| <= C(n, j) R^j; and the row-sum norm is submultiplicative,
    so |(A^i)_uv| <= R^i. For R >= 1 and k <= n, every entry of
    M_k = sum_{j<k} c_j A^(k-1-j) and of A M_k = sum_{j<k} c_j A^(k-j)
    is then at most sum_j C(n, j) R^j R^(k-j) <= 2^n R^n; for R = 0,
    A = 0 and every entry is 0 or 1. With
    w = (n + 1) * R.bit_length() + n + 2, 2^n R^n < 2^(w-1), so each
    field holds its entry exactly. The rows of N' M that the second
    pass reads hold no more: row j of N' sums |inner[j]| <= R rows of
    M (j lies in some neighbours[i], whose row sum counts it), so its
    entries are at most R * 2^n R^(n-1). For a semiregular base, row j
    of N^T M is the sum of b rows of M and R = ab.
    """
    n = len(neighbours)
    # the row sums of A less its diagonal: |neighbours[i]|, or with `inner` those of N N'
    sums = [sum(len(inner[j]) for j in nb) for nb in neighbours] if inner else map(len, neighbours)
    r = max((s + abs(d) for s, d in zip(sums, diagonal)), default=0)
    w = (n + 1) * r.bit_length() + n + 2
    shifts = [w * i for i in range(n)]
    half = 1 << (w - 1)
    mask = (1 << w) - 1
    bias = sum(half << s for s in shifts)
    diagonal = [(i, d) for i, d in enumerate(diagonal) if d]
    work = [1 << s for s in shifts]
    coeffs = [1]
    for k in range(1, n + 1):
        rows = work if inner is None else [sum(map(work.__getitem__, nb)) for nb in inner]
        prod = [sum(map(rows.__getitem__, nb)) for nb in neighbours]
        for i, d in diagonal:
            prod[i] += d * work[i]
        trace = sum((p + bias) >> s & mask for p, s in zip(prod, shifts)) - n * half
        c, rem = divmod(-trace, k)
        if rem:
            raise ArithmeticError("Faddeev-LeVerrier division was not exact")
        coeffs.append(c)
        work = [p + (c << s) for p, s in zip(prod, shifts)]
    return coeffs


def exact_spectrum(g: Graph) -> ExactSpectrum:
    """Characteristic polynomial (`char_poly_exact`) plus integer roots
    (`integer_spectrum`); the roots are read from the graph's spectral
    record, not from the polynomial."""
    return ExactSpectrum(char_poly_exact(g), integer_spectrum(g))


def integer_spectrum(g: Graph) -> Optional[tuple[tuple[int, int], ...]]:
    """Root multiset when the graph is integral, else None: the
    multiplicities of the graph's spectral record (`_spectral_record`)
    when its factor det(xI - M) split. The full polynomial is never
    built."""
    _, _, counts, split = _spectral_record(g)
    return tuple(counts.items()) if split else None


def _multiplicity(g: Graph, t: int) -> int:
    """Multiplicity of the integer t as an eigenvalue of `g`, 0 when t is
    not one: a lookup in the graph's spectral record, which holds the
    multiplicity of every integer eigenvalue, integral graph or not."""
    return _spectral_record(g)[2].get(t, 0)


def _deflate(
    coeffs: Sequence[int], t: int, most: Optional[int] = None
) -> tuple[Sequence[int], int]:
    """(quotient, count): (x - t) divided out of the polynomial as long
    as it divides, at most `most` times, by synthetic division. A root
    t divides the constant term, so a t that does not costs no division.
    """
    count = 0
    while len(coeffs) > 1 and count != most:
        if coeffs[-1] % t if t else coeffs[-1]:
            break
        out = [coeffs[0]]
        for c in coeffs[1:]:
            out.append(c + t * out[-1])
        if out[-1]:
            break
        coeffs = out[:-1]
        count += 1
    return coeffs, count


def expand_root_multiset(
    roots: Sequence[tuple[int, int]]
) -> list[int]:
    """Flatten ((value, mult), ...) into a descending eigenvalue list."""
    out = []
    for value, mult in sorted(roots, reverse=True):
        out.extend([value] * mult)
    return out


def numeric_spectrum(g: Graph) -> list[float]:
    """All adjacency eigenvalues, descending, via a symmetric eigensolver
    (LAPACK through numpy; relative accuracy well inside 1e-9).

    The solver runs on the matrix M of the graph's spectral description,
    nu x nu Q - 2I for a line graph made by `line_graph(bg)`, and -2.0
    fills the e - nu other places; when e < nu the e largest are kept,
    since the nu - e eigenvalues dropped are copies of -2, the least."""
    neighbours, diagonal, extra = _matrix(_source(g))
    rows = [[0.0] * len(neighbours) for _ in neighbours]
    for u, (nb, d) in enumerate(zip(neighbours, diagonal)):
        for v in nb:
            rows[u][v] = 1.0
        rows[u][u] = d
    values = np.linalg.eigvalsh(np.array(rows, dtype=float)).tolist() + [-2.0] * extra
    return sorted(values, reverse=True)[: g.order]


# ---------------------------------------------------------------------------
# metrics


def _distances(adj: Sequence[Sequence[int]], src: int) -> list[int]:
    """BFS distances from `src` over the neighbour lists `adj`, -1 where
    a vertex is unreachable."""
    dist = [-1] * len(adj)
    dist[src] = 0
    queue = [src]
    for v in queue:
        d = dist[v] + 1
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = d
                queue.append(w)
    return dist


def _levels(adj: Sequence[Sequence[int]]) -> tuple[int, list[int], list[int]]:
    """(D, R_(D-1), R_D) over the neighbour lists `adj`, where R_k[v] is
    the bitmask of the vertices within distance k of v and D is the
    largest distance within a component; R_(D-1) is R_0 when D = 0.

    R_0[v] = 1 << v and R_(k+1)[v] = R_k[v] | the OR of R_k[u] over the
    neighbours u of v (`_spread`), 2|E| big-integer ORs a level, until a
    level equals the one before. Only the last two levels are kept:
    O(V^2) bits, never the whole list."""
    below = reach = [1 << v for v in range(len(adj))]
    d = 0
    while True:
        grown = _spread(adj, reach, reach)
        if grown == reach:
            return d, below, reach
        below, reach, d = reach, grown, d + 1


def _spread(adj: Sequence[Sequence[int]], masks: Sequence[int], start: Sequence[int]) -> list[int]:
    """start[v] | the OR of masks[u] over the neighbours u of v, for each
    vertex v of the neighbour lists `adj`."""
    out = []
    for r, nb in zip(start, adj):
        for u in nb:
            r |= masks[u]
        out.append(r)
    return out


def diameter(g: Graph) -> Union[int, float]:
    """Longest distance between two vertices, an int; math.inf when
    disconnected. For a line graph made by `line_graph(bg)` it is D or
    D - 1, D the diameter of `bg`, decided from the base graph's level
    sets (`_line_diameter`); every other graph reads it from the number
    of levels of its own (`_levels`), in O(V^2) bits of memory."""
    source = _source(g)
    if isinstance(source, BipartiteGraph):
        return _line_diameter(source)
    d, _, reach = _levels(source._adj)
    return d if reach[0] == (1 << len(reach)) - 1 else math.inf


def _line_diameter(bg: BipartiteGraph) -> Union[int, float]:
    """Diameter of L(bg), decided by parity from the distances between
    the vertices of `bg` (X vertices 0..m-1, then Y vertices).

    The shared vertices along a path e = e_0, ..., e_k = f of L(bg)
    trace a walk of length at most k - 1 in `bg` from an end of e to an
    end of f, and a base path of length l between such ends gives a path
    of length l + 1 in L(bg). So for distinct edges ab and cd, d(ab, cd)
    = 1 + the least of d(a, c), d(a, d), d(b, c) and d(b, d).

    Let the edges lie in one component, of diameter D >= 2. The ends of
    an edge lie at distances of opposite parity, so one apart, from every
    vertex, and the least of the four is at most D - 1. It equals D - 1
    exactly when d(a, c) = d(b, d) = D for one orientation of cd; then a
    and b both have eccentricity D. The edges at the two ends of a
    diametral path lie at least D - 2 apart. So L(bg) has diameter D when
    some vertex at distance D from a has a neighbour at distance D from b,
    for some edge ab, and D - 1 otherwise.

    D and the vertices far(v) at distance D from v come from the last two
    levels of `_levels`: far(v) = R_D[v] & ~R_(D-1)[v], O(nu^2) bits.
    Let near(v) be the OR of far(u) over the neighbours u of v. Then c
    lies in near(b) when c is at distance D from a neighbour a of b, and
    b lies in near(c) when b is at distance D from a neighbour w of c, so
    a pair (b, c) with both is an edge ab and a vertex c at distance D
    from a with a neighbour w at distance D from b: the test above. It
    takes one bit test for each c in each near(b).
    """
    edges = _edge_pairs(bg)
    if len(edges) == 1:
        return 0
    adj = bg._adj
    d, below, reach = _levels(adj)
    component = reach[edges[0][0]]
    if any(reach[x] != component for x, _ in edges):
        return math.inf
    far = [r & ~b for r, b in zip(reach, below)]
    near = _spread(adj, far, [0] * len(adj))
    for b, ahead in enumerate(near):
        while ahead:
            low = ahead & -ahead
            if near[low.bit_length() - 1] >> b & 1:
                return d
            ahead ^= low
    return d - 1


def clique_number(g: Graph) -> int:
    """Exact maximum clique size.

    For a line graph made by `line_graph(bg)` it is the largest degree of
    `bg`: a clique of L(bg) is a set of pairwise-meeting edges, which all
    share one vertex or form a triangle, and a bipartite graph has no
    triangles. Every other graph takes a branch and bound with a greedy
    colouring bound (candidates are pruned when even one vertex per
    colour class cannot beat the incumbent)."""
    source = _source(g)
    if isinstance(source, BipartiteGraph):
        return max(map(len, source._adj))
    n = g.order
    adj = [0] * n
    for v in range(n):
        for w in g.neighbors(v):
            adj[v] |= 1 << w

    def coloured(cand: int) -> list[tuple[int, int]]:
        """The vertices of `cand` with their greedy colours, ascending."""
        order: list[tuple[int, int]] = []
        colour = 0
        rem = cand
        while rem:
            colour += 1
            avail = rem
            while avail:
                vbit = avail & -avail
                v = vbit.bit_length() - 1
                avail &= ~(adj[v] | vbit)
                rem ^= vbit
                order.append((v, colour))
        return order

    # one frame per clique vertex: [clique size, candidates, vertices of
    # the candidates still to try, highest colour last]; a list, so the
    # depth is not bounded by Python's recursion limit
    best = 0
    full = (1 << n) - 1
    stack = [[0, full, coloured(full)]]
    while stack:
        frame = stack[-1]
        size, cand, order = frame
        if not order or size + order[-1][1] <= best:
            stack.pop()
            continue
        v, _ = order.pop()
        frame[1] = cand & ~(1 << v)
        grown = cand & adj[v]
        if grown:
            stack.append([size + 1, grown, coloured(grown)])
        elif size + 1 > best:
            best = size + 1
    return best


# ---------------------------------------------------------------------------
# file formats


def parse_graph_text(text: str) -> BipartiteGraph:
    """Text format: `X <m>`, `Y <n>`, then one `xi yj` edge per line."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if len(lines) < 2:
        raise FormatError("graph file needs `X <m>` and `Y <n>` header lines")
    sizes = []
    for expected, ln in zip(("X", "Y"), lines[:2]):
        parts = ln.split()
        if len(parts) != 2 or parts[0] != expected or not parts[1].isdecimal():
            raise FormatError(f"bad header line {brief(ln)}, expected `{expected} <size>`")
        sizes.append(_decimal(parts[1], ln))
    edges: dict[tuple[int, int], None] = {}  # insertion-ordered, with a constant-time lookup
    for ln in lines[2:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line {brief(ln)}, expected `xi yj`")
        if not (parts[0].isdecimal() and parts[1].isdecimal()):
            raise FormatError(f"bad edge line {brief(ln)}, expected integers")
        edge = (_decimal(parts[0], ln), _decimal(parts[1], ln))
        if edge in edges:
            raise FormatError(f"duplicate edge {brief(ln)}")
        edges[edge] = None
    try:
        return BipartiteGraph(sizes[0], sizes[1], edges)
    except InputError as exc:
        raise FormatError(str(exc)) from None


def _decimal(token: str, ln: str) -> int:
    """The int that a token of decimal digits on line `ln` spells;
    FormatError for one with more digits than int() converts (4300 by
    default), where int() raises ValueError."""
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"number with too many digits on line {brief(ln)}") from None


def graph_to_text(bg: BipartiteGraph) -> str:
    lines = [f"X {bg.x_size}", f"Y {bg.y_size}"]
    lines.extend(f"{x} {y}" for x, y in bg.sorted_edges)
    return "\n".join(lines) + "\n"


def parse_graph_json(text: str) -> BipartiteGraph:
    """JSON format: {"x_size": m, "y_size": n, "edges": [[xi, yj], ...]}."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc}") from None
    if not isinstance(data, dict):
        raise FormatError("graph JSON must be an object")
    try:
        x_size, y_size = data["x_size"], data["y_size"]
        raw_edges = data["edges"]
    except KeyError as exc:
        raise FormatError(f"graph JSON missing key {exc}") from None
    if not isinstance(raw_edges, list):
        raise FormatError(f"graph JSON edges must be a list, got {brief(raw_edges)}")
    try:  # BipartiteGraph refuses an entry that is not a pair of integers
        bg = BipartiteGraph(x_size, y_size, raw_edges)
    except InputError as exc:
        raise FormatError(str(exc)) from None
    if bg.edge_count != len(raw_edges):
        raise FormatError("duplicate edge in JSON edge list")
    return bg


def load_graph(path) -> BipartiteGraph:
    """Parse a graph file, JSON when the name ends in .json, else text."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"graph file is not UTF-8 text: {exc}") from None
    if str(path).endswith(".json"):
        return parse_graph_json(text)
    return parse_graph_text(text)


# ---------------------------------------------------------------------------
# corpus generation


def connected_bipartite_graphs(
    max_order: int, min_order: int = 2
) -> Iterator[BipartiteGraph]:
    """All connected bipartite graphs without isolated vertices, one per
    isomorphism class, ordered by (order, smaller class size).

    A graph is a multiset of column masks, one per vertex of the larger
    class Y, each over the m vertices of the smaller class X. Each
    descending tuple of masks is visited once and emitted when it is
    connected and its own canonical form: no order of X (nor of Y, rows
    read as columns, when m == n) gives a larger descending tuple. A
    connected graph's bipartition is unique up to swapping equal classes,
    so each isomorphism class has one canonical form, and no record of
    emitted graphs is kept (orderly generation; Read, "Every one a
    winner", 1978).
    """
    max_order, min_order = as_int(max_order, "max_order"), as_int(min_order, "min_order")
    for order in range(min_order, max_order + 1):
        for m in range(1, order // 2 + 1):
            n = order - m
            # relabel[p][mask]: the mask with bit i moved to bit p[i]
            relabel = [
                [sum(1 << p[i] for i in range(m) if mask >> i & 1) for mask in range(1 << m)]
                for p in permutations(range(m))
            ]
            for cols in combinations_with_replacement(range((1 << m) - 1, 0, -1), n):
                if _masks_connected(cols, (1 << m) - 1) and _is_canonical(cols, m, n, relabel):
                    yield _graph_from_columns(cols, m, n)


def _is_canonical(cols: tuple[int, ...], m: int, n: int, relabel: list[list[int]]) -> bool:
    """Whether no table of `relabel` (applied to X, and to Y when m == n)
    makes the descending masks `cols` a larger descending tuple. Some
    order of X puts a column of the largest degree d on the top d bits,
    and no column exceeds that mask, so the first must equal it."""
    d = max(map(int.bit_count, cols))
    if cols[0] != (1 << m) - (1 << (m - d)):
        return False
    sides = (cols, _columns_of(cols, m)) if m == n else (cols,)
    return all(
        tuple(sorted([t[c] for c in side], reverse=True)) <= cols
        for side in sides
        for t in relabel
    )


def _columns_of(rows: Sequence[int], n: int) -> list[int]:
    cols = [0] * n
    for i, rm in enumerate(rows):
        while rm:
            low = rm & -rm
            cols[low.bit_length() - 1] |= 1 << i
            rm ^= low
    return cols


def _masks_connected(masks: Sequence[int], full: int) -> bool:
    """Whether the bits reached from the first mask through masks that
    share one are all of `full` (masks are non-empty, so then all are)."""
    reach = masks[0]
    while True:
        grown = reach
        for mask in masks:
            if mask & reach:
                grown |= mask
        if grown == reach:
            return reach == full
        reach = grown


def _graph_from_columns(cols: Sequence[int], m: int, n: int) -> BipartiteGraph:
    edges = [(i, j) for j, cm in enumerate(cols) for i in range(m) if cm >> i & 1]
    return BipartiteGraph(m, n, edges)
