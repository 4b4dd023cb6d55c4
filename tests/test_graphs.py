import itertools
import math
import random
import sys
from collections import Counter

import numpy as np
import pytest
import sympy

import hornlr
from hornlr import (
    BipartiteGraph,
    Graph,
    InputError,
    Partition,
    bipartite_complement,
    char_poly_exact,
    clique_number,
    complete_bipartite,
    connected_bipartite_graphs,
    degree_partitions,
    diameter,
    disjoint_union,
    even_cycle,
    exact_spectrum,
    integer_spectrum,
    line_graph,
    matching,
    numeric_spectrum,
    ramanujan_verdict,
)
from hornlr import graphs
from hornlr.graphs import (
    _char_poly,
    _factor,
    _gram_sides,
    _matrix,
    _multiplicity,
    expand_root_multiset,
    graph_to_text,
    parse_graph_json,
    parse_graph_text,
)

from oracles import (
    adjacency_matrix,
    bfs_diameter,
    bipartite_signature,
    brute_force_bipartite,
    brute_force_clique,
    char_poly_by_rows,
    connected_bipartite_signatures,
    line_graph_by_pairs,
    parity_bipartite,
    poly_mul,
    root_multiplicity,
    star_graphs,
)


def _triangle():
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


def _cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# constructions


def test_line_graph_examples():
    lg, order = line_graph(complete_bipartite(1, 3))
    assert lg == _triangle()
    assert order == ((0, 0), (0, 1), (0, 2))

    lg, _ = line_graph(complete_bipartite(2, 2))
    assert sorted(lg.degrees()) == [2, 2, 2, 2]
    assert diameter(lg) == 2  # C_4

    lg, _ = line_graph(BipartiteGraph(1, 1, [(0, 0)]))
    assert lg.order == 1 and lg.edges() == []

    with pytest.raises(InputError):
        line_graph(BipartiteGraph(2, 2, []))


def test_star_graphs_examples():
    gx, gy = star_graphs(complete_bipartite(1, 3))
    assert gx == _triangle()
    assert gy.edges() == []

    gx, gy = star_graphs(complete_bipartite(2, 2))
    assert sorted(gx.degrees()) == [1, 1, 1, 1]
    assert sorted(gy.degrees()) == [1, 1, 1, 1]


def test_star_graphs_sum_to_line_graph():
    # the X stars and the Y stars, found pair by pair, together give the
    # line graph that line_graph builds star by star
    rng = random.Random(2)
    for _ in range(60):
        bg = _random_bipartite(rng)
        if bg.edge_count == 0:
            continue
        lg, _ = line_graph(bg)
        gx, gy = star_graphs(bg)
        assert (adjacency_matrix(gx) + adjacency_matrix(gy) == adjacency_matrix(lg)).all()


@pytest.mark.parametrize(
    "build",
    [
        lambda: BipartiteGraph(2, 2, [(0.5, 0)]),  # was silently edge (0, 0)
        lambda: BipartiteGraph(2, 2, [(0, True)]),
        lambda: BipartiteGraph(2.0, 2, [(0, 0)]),  # kept a float size
        lambda: BipartiteGraph(2, "2"),
        lambda: BipartiteGraph(2, 2, [(0, 0, 1)]),
        lambda: BipartiteGraph(2, 2, 5),
        lambda: Graph(3, [(0.0, 1)]),
        lambda: Graph(2.5),
        lambda: Graph(True),
        lambda: Graph(3, [0]),
        lambda: Graph(3, [(0, 0)]),  # a loop
        lambda: Graph(3, [(0, 5)]),  # out of range
        lambda: BipartiteGraph(2, 2, [(0, 2)]),  # out of range
    ],
)
def test_constructors_refuse_non_integers(build):
    with pytest.raises(InputError):
        build()


HUGE = 10**5000  # more digits than Python converts to a decimal string


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Graph(-HUGE), "graph order"),
        (lambda: BipartiteGraph(-HUGE, 1), "class size x_size"),
        (lambda: complete_bipartite(1.5, HUGE), "class size s"),
        (lambda: even_cycle(HUGE + 1), "cycle length"),
        (lambda: matching(-HUGE), "matching"),
        (lambda: Graph(3, [(0, HUGE)]), "out of range"),
        (lambda: BipartiteGraph(2, 2, [(0, HUGE)]), "out of range"),
        (lambda: Graph(3, [(1, 1)]), "loops"),
    ],
)
def test_rejections_show_the_value_briefly(build, message):
    # the message names the fault, and an int past the conversion limit
    # is shown by its bit length instead of raising ValueError
    with pytest.raises(InputError, match=message) as info:
        build()
    assert len(str(info.value)) < 200


def _random_bipartite(rng, max_side=4, p=0.5):
    m, n = rng.randint(1, max_side), rng.randint(1, max_side)
    edges = [(i, j) for i in range(m) for j in range(n) if rng.random() < p]
    return BipartiteGraph(m, n, edges)


def _bases_with_isolated_vertices():
    """30 seeded bipartite graphs with edges and at least one isolated
    vertex; some have their edges in more than one component."""
    rng = random.Random(43)
    bases = []
    while len(bases) < 30:
        bg = _random_bipartite(rng, max_side=6, p=rng.choice([0.2, 0.4]))
        if bg.edge_count and 0 in bg.x_degrees() + bg.y_degrees():
            bases.append(bg)
    return bases


def test_degree_partitions_examples():
    assert degree_partitions(complete_bipartite(1, 3)) == (
        Partition([3]),
        Partition([1, 1, 1]),
    )
    assert degree_partitions(complete_bipartite(2, 2)) == (
        Partition([2, 2]),
        Partition([2, 2]),
    )
    for s in (2, 3, 4):
        alpha, beta = degree_partitions(complete_bipartite(s, s))
        assert alpha == beta == Partition([s] * s)


def test_degree_partitions_names_isolated_vertex():
    bg = BipartiteGraph(2, 1, [(0, 0)])
    with pytest.raises(InputError, match="x1"):
        degree_partitions(bg)
    bg = BipartiteGraph(1, 2, [(0, 1)])
    with pytest.raises(InputError, match="y0"):
        degree_partitions(bg)


@pytest.mark.parametrize("wrong", [[(0, 0)], (1, 1), None, Graph(2, [(0, 1)])])
def test_degree_partitions_rejects_wrong_argument_types(wrong):
    with pytest.raises(InputError, match="must be a BipartiteGraph"):
        degree_partitions(wrong)
    for parts in ([wrong], [matching(1), wrong]):
        with pytest.raises(InputError, match="must be a BipartiteGraph"):
            disjoint_union(parts)


def test_degree_partition_sizes_match_edge_count():
    rng = random.Random(4)
    for _ in range(50):
        bg = _random_bipartite(rng)
        if 0 in bg.x_degrees() or 0 in bg.y_degrees():
            continue
        alpha, beta = degree_partitions(bg)
        assert alpha.size == beta.size == bg.edge_count
        assert alpha.length == bg.x_size and beta.length == bg.y_size


# ---------------------------------------------------------------------------
# exact spectra


def test_char_poly_examples():
    assert char_poly_exact(Graph(1)) == (1, 0)  # x
    assert char_poly_exact(Graph(2, [(0, 1)])) == (1, 0, -1)  # x^2 - 1
    assert char_poly_exact(_cycle_graph(4)) == (1, 0, -4, 0, 0)  # x^4 - 4x^2


def test_char_poly_matches_sympy_on_random_graphs():
    rng = random.Random(6)
    x = sympy.symbols("x")
    for _ in range(25):
        g = _random_graph(rng, rng.randint(1, 7))
        expected = sympy.Matrix(adjacency_matrix(g).tolist()).charpoly(x).all_coeffs()
        assert list(char_poly_exact(g)) == [int(c) for c in expected]


def test_char_poly_exact_beyond_64_bits():
    # entries and coefficients that no fixed-width integer holds
    assert _char_poly([[]], [2**70]) == [1, -(2**70)]


def test_char_poly_kernel_with_diagonal_matches_sympy():
    # 0/1 off the diagonal, as neighbour lists, and any integer on it
    rng = random.Random(26)
    x = sympy.symbols("x")
    matrices = []
    for _ in range(30):
        n = rng.randint(1, 6)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.choice([0, 0, -2, -1, 1, 3, 7])
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(0, 1)
        matrices.append(rows)
    for _ in range(10):
        bg = _random_bipartite(rng)
        m, nu = bg.x_size, bg.order
        rows = [[0] * nu for _ in range(nu)]
        for v, d in enumerate(bg.x_degrees() + bg.y_degrees()):
            rows[v][v] = d - 2  # Q - 2I
        for a, b in bg.sorted_edges:
            rows[a][m + b] = rows[m + b][a] = 1
        matrices.append(rows)
    for n, extreme in ((22, 0), (30, 2**70), (40, -(2**70))):
        # dense, and well past the orders above
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.choice([-2, -1, 0, 3])
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = int(rng.random() < 0.7)
        if extreme:
            rows[n - 1][n - 1] = extreme
        matrices.append(rows)
    for rows in matrices:
        expected = sympy.Matrix(rows).charpoly(x).all_coeffs()
        neighbours = [[j for j, v in enumerate(r) if v and j != i] for i, r in enumerate(rows)]
        diagonal = [r[i] for i, r in enumerate(rows)]
        assert _char_poly(neighbours, diagonal) == [int(c) for c in expected]


def _neighbour_lists(g):
    return [g.neighbors(v) for v in range(g.order)]


def test_packed_char_poly_matches_row_lists():
    # packed rows against the row-list recurrence, with the field width
    # pushed by degree 39 and by diagonal entries of 2^70
    big = 2**70
    cases = []
    bases = list(connected_bipartite_graphs(8)) + [complete_bipartite(s, s) for s in range(1, 12)]
    for bg in bases:
        adj = _neighbour_lists(bg.as_graph())
        cases += [(adj, [0] * len(adj)), (adj, [len(nb) - 2 for nb in adj])]  # A, then Q - 2I
    for n in (1, 2, 5, 40):
        adj = _neighbour_lists(Graph(n, list(itertools.combinations(range(n), 2))))
        for diagonal in ([0] * n, [-big] * n, [(big, -big, -3, 5)[i % 4] for i in range(n)]):
            cases.append((adj, diagonal))
    rng = random.Random(16)
    for n in (30, 60):
        adj = _neighbour_lists(_random_graph(rng, n, 0.3))
        cases.append((adj, [rng.choice([-2, -1, 0, 1, 7]) for _ in range(n)]))
    assert len(cases) == 2 * (253 + 11) + 14
    for adj, diagonal in cases:
        assert _char_poly(adj, diagonal) == char_poly_by_rows(adj, diagonal)


def _direct_routes_agree(bg):
    # L(bg) takes every spectral answer from the degree-nu factor
    # det(xI - (Q - 2I)); the same graph built pair by pair has no base
    # graph and takes the e x e routes
    lg, _ = line_graph(bg)
    plain = line_graph_by_pairs(bg)
    poly = char_poly_exact(lg)
    assert len(poly) == bg.edge_count + 1
    assert poly == char_poly_exact(plain), bg
    assert exact_spectrum(lg) == exact_spectrum(plain), bg
    numeric, direct = numeric_spectrum(lg), numeric_spectrum(plain)
    assert len(numeric) == bg.edge_count
    assert numeric == sorted(numeric, reverse=True)
    assert max(abs(a - b) for a, b in zip(numeric, direct)) < 1e-9, bg


def test_line_graph_char_poly_matches_direct_route_on_corpus():
    # polynomial, integer roots and numeric eigenvalues of the line graph
    # of every connected bipartite graph of order <= 8, both routes
    count = 0
    for bg in connected_bipartite_graphs(8):
        _direct_routes_agree(bg)
        count += 1
    assert count == 253


@pytest.mark.parametrize(
    "bg",
    [
        complete_bipartite(1, 1),
        complete_bipartite(1, 4),  # star
        BipartiteGraph(3, 3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]),  # path P6
        BipartiteGraph(2, 2, [(0, 0), (1, 0), (1, 1)]),  # path P4
        matching(3),
        disjoint_union([even_cycle(4), complete_bipartite(1, 3), matching(1)]),
        BipartiteGraph(4, 3, [(0, 0), (0, 1), (1, 0), (1, 1)]),  # isolated vertices
        complete_bipartite(7, 7),
    ],
)
def test_line_graph_char_poly_matches_direct_route(bg):
    # trees and forests divide (x+2) out instead of multiplying it in
    _direct_routes_agree(bg)


def _path(edges):
    """The path on `edges` + 1 vertices, alternating between the classes."""
    return BipartiteGraph(
        (edges + 2) // 2, (edges + 1) // 2, [(i // 2 + i % 2, i // 2) for i in range(edges)]
    )


def test_line_spectra_from_base_factor():
    # the corpus to order 8 takes the same comparison above
    rng = random.Random(19)
    bases = [complete_bipartite(1, t) for t in range(1, 9)]  # K_{1,1} and stars
    bases += [_path(e) for e in range(1, 12)]
    bases += [complete_bipartite(s, t) for s in range(1, 7) for t in range(1, 7)]
    for _ in range(60):  # isolated vertices and several components
        m, n = rng.randint(2, 7), rng.randint(2, 7)
        p = rng.choice([0.15, 0.3, 0.5])
        edges = [(i, j) for i in range(m) for j in range(n) if rng.random() < p]
        parts = [BipartiteGraph(m, n, edges or [(0, 0)]), matching(rng.randint(1, 3))]
        bases.append(disjoint_union(parts[: rng.randint(1, 2)]))
    for bg in bases:
        _direct_routes_agree(bg)
    # the single edge: Delta(L) = 0, and the factor's root -2 is divided out
    assert integer_spectrum(line_graph(complete_bipartite(1, 1))[0]) == ((0, 1),)


def test_line_graph_char_poly_rejects_an_inexact_division(monkeypatch):
    # a forest divides (x+2)^(nu-e) out of the factor; a factor without
    # the root -2 leaves a remainder, which is an error, not a polynomial
    lg, _ = line_graph(_path(3))  # nu - e = 1
    monkeypatch.setattr(graphs, "_factor", lambda source: ((1, 0, 0, 0, 1), -1, -2))
    with pytest.raises(ArithmeticError):
        char_poly_exact(lg)


def _counted_char_poly(monkeypatch):
    """The orders of the matrices that `_char_poly` runs on from now on,
    in a list that grows with each run."""
    rows = []
    real = graphs._char_poly

    def counting(neighbours, *rest):
        rows.append(len(neighbours))
        return real(neighbours, *rest)

    monkeypatch.setattr(graphs, "_char_poly", counting)
    return rows


def test_factor_cache_tells_a_line_graph_from_its_plain_copy(monkeypatch):
    # each graph keeps its own spectral record, built from the graph that
    # `_source` picks: the base graph for a line graph, the graph itself
    # for its equal plain copy. K_{3,4} is semiregular, so the line
    # graph's factor comes from the 3 x 3 Gram matrix, and the copy's from
    # its 12 x 12 adjacency
    rows = _counted_char_poly(monkeypatch)
    lg = line_graph(complete_bipartite(3, 4))[0]
    plain = Graph(lg.order, lg.edges())
    assert plain == lg and plain._base is None
    (poly, spec, numeric), (poly2, spec2, numeric2) = [
        (char_poly_exact(g), exact_spectrum(g), numeric_spectrum(g)) for g in (lg, plain)
    ]
    assert poly == poly2 and spec == spec2
    assert numeric2 == pytest.approx(numeric, abs=1e-9)
    assert rows == [3, 12]
    assert exact_spectrum(lg).integer_roots == ((5, 1), (2, 2), (1, 3), (-2, 6))
    assert exact_spectrum(plain) == spec
    assert rows == [3, 12]  # equal graphs, and each reads its own record


def test_spectral_answers_build_each_graphs_factor_once(monkeypatch):
    # answers that alternate between graphs build each graph's factor on
    # the first of them, and a repeat on the same graph object builds
    # none: L(K_{3,4}) from its 3 x 3 Gram matrix, L(K_{1,3}), a forest's
    # line graph with e - nu = -1, from its 1 x 1 one, and C_5 from its
    # adjacency
    def fresh():
        return [
            line_graph(complete_bipartite(3, 4))[0],
            line_graph(complete_bipartite(1, 3))[0],
            _cycle_graph(5),
        ]

    queries = (exact_spectrum, ramanujan_verdict, integer_spectrum)
    alone = [[query(g) for query in queries] for g in fresh()]  # one graph at a time
    rows = _counted_char_poly(monkeypatch)
    cases = fresh()
    for _ in range(2):
        answers = [[None] * len(queries) for _ in cases]
        for q, query in enumerate(queries):
            for i, g in enumerate(cases):
                answers[i][q] = query(g)
        assert answers == alone
        assert rows == [3, 1, 5]  # the first pass builds each factor, the repeat none
    assert integer_spectrum(cases[1]) == ((2, 1), (-1, 2))  # the triangle


def _semiregular(rng, m, n, a, swaps):
    """A random bipartite graph with X degrees a and Y degrees b = m a / n:
    edge slot k joins x = k // a to y = k mod n, then `swaps`
    degree-preserving swaps (x1, y1), (x2, y2) -> (x1, y2), (x2, y1)."""
    edges = {(k // a, k % n) for k in range(m * a)}
    for _ in range(swaps):
        (x1, y1), (x2, y2) = rng.sample(sorted(edges), 2)
        if (x1, y2) not in edges and (x2, y1) not in edges:
            edges -= {(x1, y1), (x2, y2)}
            edges |= {(x1, y2), (x2, y1)}
    return BipartiteGraph(m, n, edges)


def _semiregular_bases():
    rng = random.Random(27)
    bases = [complete_bipartite(1, t) for t in (1, 2, 4, 9)]  # stars, m = 1
    bases += [complete_bipartite(t, 1) for t in (2, 5)]
    bases += [complete_bipartite(s, s) for s in (2, 3, 6)]
    bases += [complete_bipartite(5, 3), complete_bipartite(5, 14), complete_bipartite(2, 30)]
    bases += [
        disjoint_union([complete_bipartite(2, 4), complete_bipartite(2, 4)]),
        disjoint_union([even_cycle(6), even_cycle(8)]),
        matching(4),
        BipartiteGraph(2, 3),  # edgeless: a = b = 0
    ]
    for m, n, a in ((4, 6, 3), (6, 9, 3), (10, 15, 6), (12, 8, 2), (9, 9, 4), (30, 45, 3), (30, 45, 6)):
        bases += [_semiregular(rng, m, n, a, swaps) for swaps in (0, 5 * m)]
    return bases


def test_gram_factor_matches_the_full_matrix_route():
    # the factor of a semiregular base from det(tI - N N^T), m x m, against
    # Faddeev-LeVerrier on the nu x nu Q - 2I of the same base
    bases = _semiregular_bases()
    assert len(bases) == 30
    for bg in bases:
        assert _gram_sides(bg) is not None, bg
        neighbours, diagonal, extra = _matrix(bg)
        assert _factor(bg) == (tuple(_char_poly(neighbours, diagonal)), extra, -2), bg


def test_only_semiregular_bases_take_the_gram_route(monkeypatch):
    rows = _counted_char_poly(monkeypatch)
    cases = [
        (complete_bipartite(5, 3), 3),  # the smaller class, here Y
        (_path(3), 4),  # degrees 1, 2 | 2, 1: nu x nu
        (BipartiteGraph(2, 3, [(0, 0), (0, 1), (1, 0), (1, 2)]), 5),  # X regular, Y not
        (BipartiteGraph(3, 2, [(0, 0), (1, 0), (0, 1), (2, 1)]), 5),  # Y regular, X not
        (complete_bipartite(3, 3).as_graph(), 6),  # a plain graph: its adjacency
    ]
    for source, expected in cases:
        rows.clear()
        _factor(source)
        assert rows == [expected], source


def test_gram_factor_of_large_complete_bipartite_graphs():
    # Q of K_{s,t} has eigenvalues s + t, s^(t-1), t^(s-1) and 0, so
    # det(xI - (Q - 2I)) is known in closed form; the nu x nu route would
    # take seconds here
    for s, t in ((40, 39), (39, 40), (60, 60), (1, 60), (17, 45), (60, 59)):
        expected = [1, -(s + t - 2)]
        for root, mult in ((s - 2, t - 1), (t - 2, s - 1), (-2, 1)):
            for _ in range(mult):
                expected = poly_mul(expected, [1, -root])
        assert _factor(complete_bipartite(s, t))[0] == tuple(expected), (s, t)


def test_gram_kernel_matches_sympy():
    # the two-pass product N (N^T M), with any degrees and a diagonal
    rng = random.Random(28)
    x = sympy.symbols("x")
    for _ in range(25):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[j for j in range(n) if rng.random() < 0.5] for _ in range(m)]
        cols = [[i for i in range(m) if j in rows[i]] for j in range(n)]
        diagonal = [rng.choice([0, 0, -3, 2, 2**70]) for _ in range(m)]
        gram = sympy.Matrix(m, m, lambda i, k: len(set(rows[i]) & set(rows[k])))
        expected = (gram + sympy.diag(*diagonal)).charpoly(x).all_coeffs()
        assert _char_poly(rows, diagonal, cols) == [int(c) for c in expected]


def test_plain_numeric_spectrum_matches_the_adjacency_matrix():
    # a graph without a base solves the float matrix built from its
    # neighbour lists; it must be the one its edge list gives
    cases = [Graph(1), Graph(3), Graph(6, [(0, 1), (1, 2), (0, 2), (4, 5)])]
    cases += [bg.as_graph() for bg in connected_bipartite_graphs(6)]
    for g in cases:
        rows = adjacency_matrix(g).astype(float)
        assert numeric_spectrum(g) == sorted(np.linalg.eigvalsh(rows), reverse=True), g


def test_line_graph_keeps_equality_on_adjacency():
    lg, _ = line_graph(complete_bipartite(2, 3))
    plain = Graph(lg.order, lg.edges())
    assert lg == plain and hash(lg) == hash(plain)


def _lazy_bases():
    return list(connected_bipartite_graphs(8)) + _bases_with_isolated_vertices()


def test_line_graph_builds_its_lists_on_demand():
    # a line graph starts without neighbour lists; its order and degrees come
    # from the base graph (deg x + deg y - 2 for the edge xy), the same before
    # the lists are built and after, and equal to those of the pair scan
    bases = _lazy_bases()
    assert len(bases) == 253 + 30
    for bg in bases:
        lg, _ = line_graph(bg)
        oracle = line_graph_by_pairs(bg)
        expected = (oracle.order, oracle.degrees(), oracle.max_degree(), oracle.regular_degree())
        assert lg._adj is None
        assert (lg.order, lg.degrees(), lg.max_degree(), lg.regular_degree()) == expected, bg
        assert lg._adj is None
        assert _neighbour_lists(lg) == _neighbour_lists(oracle), bg
        assert lg._adj is not None
        assert (lg.order, lg.degrees(), lg.max_degree(), lg.regular_degree()) == expected, bg
        # equality and hashing build the lists of a fresh line graph too
        plain = Graph(lg.order, lg.edges())
        assert line_graph(bg)[0] == plain and hash(line_graph(bg)[0]) == hash(plain), bg


def test_line_graph_answers_leave_the_lists_unbuilt(monkeypatch):
    # every spectral answer, metric and report of a line graph reads the base
    # graph; only a reader of the adjacency itself builds the lists
    built = []
    real = graphs._star_lists
    monkeypatch.setattr(graphs, "_star_lists", lambda bg: built.append(bg) or real(bg))
    regular = 0
    for bg in _lazy_bases():
        lg, _ = line_graph(bg)
        char_poly_exact(lg), exact_spectrum(lg), numeric_spectrum(lg)
        diameter(lg), clique_number(lg)
        if (lg.regular_degree() or 0) >= 1:
            ramanujan_verdict(lg)
            regular += 1
        if bg.is_connected():
            hornlr.analyze_line_graph(bg, include_p_set=True)
        assert lg._adj is None, bg
    assert built == [] and regular > 10
    lg, _ = line_graph(complete_bipartite(2, 3))
    assert lg.neighbors(0) == (1, 2, 3) and built == [complete_bipartite(2, 3)]
    lg.edges(), lg.degree(1), repr(lg)
    assert len(built) == 1  # once


def _never_called(*args):
    raise AssertionError("the characteristic polynomial was built")


def _factor_answers(lg):
    """(integer_spectrum, ramanujan_verdict or the error it raised) of lg."""
    try:
        verdict = ramanujan_verdict(lg)
    except InputError as exc:
        verdict = type(exc)
    return integer_spectrum(lg), verdict


def test_answers_without_the_polynomial_never_build_it(monkeypatch):
    # integer roots and verdicts read the degree-nu factor alone, so they
    # answer the same with char_poly_exact broken; the line graphs of the
    # forests K_{1,1}, P_3 = K_{2,1} and K_{1,3} have e - nu = -1
    forests = [complete_bipartite(1, 1), complete_bipartite(2, 1), complete_bipartite(1, 3)]
    bases = forests + [complete_bipartite(s, t) for s in range(2, 8) for t in range(s, 9)]
    bases += [bg for bg in connected_bipartite_graphs(8) if line_graph(bg)[0].regular_degree()]
    expected = [_factor_answers(line_graph(bg)[0]) for bg in bases]
    monkeypatch.setattr(graphs, "char_poly_exact", _never_called)
    with pytest.raises(AssertionError):
        exact_spectrum(line_graph(complete_bipartite(2, 2))[0])
    got = [_factor_answers(line_graph(bg)[0]) for bg in bases]
    assert got == expected
    k2, k3 = Graph(2, [(0, 1)]), _triangle()
    assert [v for _, v in got[:3]] == [InputError, ramanujan_verdict(k2), ramanujan_verdict(k3)]
    assert sum(isinstance(v, hornlr.RamanujanVerdict) for _, v in got) > 40


def test_multiplicity_reads_the_factor():
    # the factor's count of t, plus e - nu at t = -2, is t's multiplicity
    # in the full polynomial, on bases with isolated vertices (e - nu may
    # be negative) and connected ones, and on plain graphs
    checked = Counter()
    cases = [line_graph(bg)[0] for bg in _lazy_bases()] + [_cycle_graph(5), _triangle(), Graph(3)]
    for lg in cases:
        poly = char_poly_exact(lg)
        top = lg.max_degree()
        for t in range(-top - 2, top + 2):
            assert _multiplicity(lg, t) == root_multiplicity(poly, t), (lg, t)
        checked[graphs._spectral_record(lg)[1] < 0] += 1
    assert checked[True] >= 20 and checked[False] >= 200


def test_kernel_backend_is_pure():
    assert hornlr.kernel_backend == "pure"


def test_integer_spectrum_examples():
    assert integer_spectrum(_cycle_graph(4)) == ((2, 1), (0, 2), (-2, 1))
    assert integer_spectrum(_triangle()) == ((2, 1), (-1, 2))
    assert integer_spectrum(_cycle_graph(5)) is None


def test_integer_spectrum_consistency_with_numeric():
    rng = random.Random(8)
    for _ in range(40):
        g = _random_graph(rng, rng.randint(1, 8))
        numeric = numeric_spectrum(g)
        roots = integer_spectrum(g)
        if roots is not None:
            exact = expand_root_multiset(roots)
            assert len(exact) == g.order
            assert max(abs(a - b) for a, b in zip(exact, numeric)) < 1e-9
        else:
            assert any(abs(v - round(v)) > 1e-9 for v in numeric)


def test_root_multiplicity():
    # C_4 has spectrum {2, 0, 0, -2}; the oracle reads the polynomial
    for t, count in ((0, 2), (2, 1), (-2, 1), (1, 0)):
        assert _multiplicity(_cycle_graph(4), t) == count
        assert root_multiplicity(char_poly_exact(_cycle_graph(4)), t) == count


def test_integer_roots_match_sympy_factorisation():
    # the integer roots are the linear factors over the integers; every
    # root is an integer exactly when every irreducible factor is linear
    x = sympy.symbols("x")
    rng = random.Random(14)
    graphs = [Graph(4), complete_bipartite(2, 8).as_graph()]  # 0 with multiplicity 4 and 8
    for bg in connected_bipartite_graphs(7):
        graphs += [line_graph(bg)[0], bg.as_graph()]
    graphs += [_random_graph(rng, rng.randint(1, 8)) for _ in range(12)]
    for g in graphs:
        poly = char_poly_exact(g)
        _, factors = sympy.Poly(poly, x).factor_list()
        linear = {-int(f.all_coeffs()[1]): m for f, m in factors if f.degree() == 1}
        split = all(f.degree() == 1 for f, _ in factors)
        expected = tuple(sorted(linear.items(), reverse=True)) if split else None
        assert integer_spectrum(g) == expected, g
        bound = g.max_degree() + 1
        for t in range(-bound, bound + 1):
            assert _multiplicity(g, t) == linear.get(t, 0), (g, t)
            assert root_multiplicity(poly, t) == linear.get(t, 0), (g, t)


def test_numeric_spectrum_examples():
    assert numeric_spectrum(Graph(2, [(0, 1)])) == pytest.approx([1, -1])
    assert numeric_spectrum(_cycle_graph(4)) == pytest.approx([2, 0, 0, -2])


# ---------------------------------------------------------------------------
# metrics


def test_diameter_examples():
    assert diameter(_triangle()) == 1
    assert diameter(_cycle_graph(4)) == 2
    assert diameter(Graph(2)) == math.inf
    assert diameter(Graph(1)) == 0
    # the number of levels of the balls, against a BFS from every vertex
    paths = [Graph(n, [(i, i + 1) for i in range(n - 1)]) for n in (2, 3, 10, 57, 300)]
    cycles = [_cycle_graph(n) for n in (3, 4, 5, 17, 64, 399, 400)]
    disconnected = [
        Graph(3, [(0, 1)]),
        Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6)]),  # components of diameters 1, 1, 1
        Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7)]),  # P5 beside P3 and a vertex
    ]
    for g in [Graph(1)] + paths + cycles + disconnected:
        assert diameter(g) == bfs_diameter(g), g
    assert [diameter(g) for g in paths] == [1, 2, 9, 56, 299]
    assert [diameter(g) for g in cycles] == [1, 2, 2, 8, 32, 199, 200]
    assert {diameter(g) for g in disconnected} == {math.inf}


def test_clique_examples():
    assert clique_number(_triangle()) == 3
    assert clique_number(_cycle_graph(4)) == 2
    lg, _ = line_graph(complete_bipartite(2, 3))
    assert clique_number(lg) == 3


def test_clique_number_beyond_recursion_limit():
    # one branch-and-bound level per clique vertex, kept on an explicit stack
    n = sys.getrecursionlimit() + 100
    complete = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    assert clique_number(complete) == n


def test_clique_matches_brute_force():
    rng = random.Random(10)
    for _ in range(40):
        g = _random_graph(rng, rng.randint(1, 9), p=rng.choice([0.2, 0.5, 0.8]))
        assert clique_number(g) == brute_force_clique(g)


def test_line_graph_clique_equals_max_degree():
    rng = random.Random(12)
    for _ in range(40):
        bg = _random_bipartite(rng)
        degs = bg.x_degrees() + bg.y_degrees()
        if max(degs, default=0) < 2:
            continue
        lg, _ = line_graph(bg)
        assert clique_number(lg) == max(degs)
        # the branch and bound, on the same graph without its base
        assert clique_number(Graph(lg.order, lg.edges())) == max(degs)


def _line_metrics_agree(bg):
    """Line graph, diameter and clique number of L(bg) from the base graph,
    against the pair scan and the routes of a graph without a base; the
    diameter is returned."""
    lg, _ = line_graph(bg)
    assert lg == line_graph_by_pairs(bg)
    plain = Graph(lg.order, lg.edges())
    assert plain._base is None
    diam = diameter(lg)
    assert diam == diameter(plain) == bfs_diameter(plain)
    assert type(diam) is int or diam == math.inf
    assert clique_number(lg) == clique_number(plain)
    return diam


def test_line_metrics_from_base_on_corpus():
    count = 0
    outcomes = Counter()  # diam L(bg) - diam bg: 0 or -1 by parity
    for bg in connected_bipartite_graphs(8):
        diam = _line_metrics_agree(bg)
        assert type(diam) is int
        outcomes[diam - bfs_diameter(bg.as_graph())] += 1
        count += 1
    assert count == 253
    assert set(outcomes) == {0, -1}


def test_line_metrics_from_base_on_complete_bipartite():
    for s in range(1, 12):
        for t in range(1, 12):
            diam = _line_metrics_agree(complete_bipartite(s, t))
            assert type(diam) is int
            assert diam == (s > 1) + (t > 1)
            assert clique_number(line_graph(complete_bipartite(s, t))[0]) == max(s, t)


def test_line_metrics_from_base_on_random_graphs():
    rng = random.Random(31)
    kinds = Counter()  # (has isolated base vertices, line graph connected)
    checked = 0
    while checked < 40:
        bg = _random_bipartite(rng, max_side=6, p=rng.choice([0.15, 0.3, 0.6]))
        if bg.edge_count == 0:
            continue
        checked += 1
        diam = _line_metrics_agree(bg)
        kinds[0 in bg.x_degrees() + bg.y_degrees(), diam != math.inf] += 1
    # isolated base vertices alone do not disconnect the line graph
    assert kinds[True, True] >= 3
    assert kinds[True, False] + kinds[False, False] >= 5


def test_line_diameter_on_seeded_random_graphs():
    rng = random.Random(41)
    for _ in range(20):
        bg = _random_bipartite(rng, max_side=6, p=rng.choice([0.3, 0.6]))
        if bg.edge_count:
            _line_metrics_agree(bg)
    assert diameter(line_graph(complete_bipartite(6, 5))[0]) == 2
    # bases with isolated vertices, and bases whose edges lie in two components
    for bg in _bases_with_isolated_vertices():
        _line_metrics_agree(bg)
    for _ in range(10):
        parts = []
        while len(parts) < 2:
            part = _random_bipartite(rng, max_side=4, p=0.5)
            if part.edge_count:
                parts.append(part)
        assert _line_metrics_agree(disjoint_union(parts)) == math.inf


@pytest.mark.parametrize(
    "bg, expected",
    [
        (complete_bipartite(1, 1), 0),
        (BipartiteGraph(2, 2, [(0, 0), (1, 0), (1, 1)]), 2),  # path P4
        (BipartiteGraph(3, 3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]), 4),  # path P6
        (BipartiteGraph(4, 3, [(0, 0), (0, 1), (1, 0), (1, 1)]), 2),  # C4 and isolated vertices
        (BipartiteGraph(3, 4, [(0, 0), (1, 0)]), 1),
        (even_cycle(10), 5),
        (matching(1), 0),
        (matching(3), math.inf),
        (disjoint_union([even_cycle(4), complete_bipartite(1, 3)]), math.inf),
        # diameter D - 1 of the base graph's D
        (complete_bipartite(1, 4), 1),  # star, centre in X
        (complete_bipartite(4, 1), 1),  # star, centre in Y
        (BipartiteGraph(5, 5, [(i, j) for i in range(5) for j in range(i, 5)]), 2),  # half graph
        # double broom: centres x0, x1 joined through y0, two leaves each; D = 4
        (BipartiteGraph(2, 5, [(0, 0), (1, 0), (0, 1), (0, 2), (1, 3), (1, 4)]), 3),
        (BipartiteGraph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)]), 3),  # path P5
        # diameter D
        (BipartiteGraph(4, 4, [(i, j) for i in range(4) for j in range(4) if i != j]), 3),
        # the 3-cube, the same graph labelled by bit strings: X even weight, Y odd
        (
            BipartiteGraph(
                4,
                4,
                [
                    (i, j)
                    for i, u in enumerate((0, 3, 5, 6))
                    for j, v in enumerate((1, 2, 4, 7))
                    if (u ^ v).bit_count() == 1
                ],
            ),
            3,
        ),
    ],
)
def test_line_diameter_examples(bg, expected):
    assert _line_metrics_agree(bg) == expected


def test_connectivity_and_bipartiteness():
    assert parity_bipartite(_cycle_graph(4))
    assert not parity_bipartite(_cycle_graph(5))
    assert complete_bipartite(2, 3).is_connected()
    assert not matching(2).is_connected()


def test_bipartiteness_matches_brute_force():
    rng = random.Random(31)
    graphs = [Graph(1), Graph(2), Graph(3, [(0, 1)]), Graph(10)]
    for _ in range(60):
        # sparse graphs split into components, dense ones close odd cycles
        graphs.append(_random_graph(rng, rng.randint(1, 10), p=rng.choice([0.1, 0.2, 0.4, 0.7])))
    # an odd cycle beside bipartite components, in either order
    graphs.append(Graph(7, [(0, 1), (2, 3), (3, 4), (4, 2), (5, 6)]))
    graphs.append(Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6)]))
    verdicts = set()
    for g in graphs:
        verdict = parity_bipartite(g)
        assert verdict == brute_force_bipartite(g)
        verdicts.add((verdict, bfs_diameter(g) < math.inf))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_bipartite_graph_stores_sorted_neighbour_lists():
    # edges in any order, repeated or not, give the same lists, the numbering
    # of as_graph; edges, degrees, equality and hash are read off them
    rng = random.Random(33)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        edges = [(x, y) for x in range(m) for y in range(n) if rng.random() < 0.5]
        shuffled = edges + edges[: len(edges) // 2]
        rng.shuffle(shuffled)
        bg, copy = BipartiteGraph(m, n, edges), BipartiteGraph(m, n, shuffled)
        assert bg._adj == copy._adj == bg.as_graph()._adj
        assert bg == copy and hash(bg) == hash(copy)
        assert bg.sorted_edges == copy.sorted_edges == tuple(edges)
        assert (bg.x_size, bg.y_size, bg.order, bg.edge_count) == (m, n, m + n, len(edges))
        assert bg.x_degrees() == [sum(x == v for x, _ in edges) for v in range(m)]
        assert bg.y_degrees() == [sum(y == v for _, y in edges) for v in range(n)]
    # the same neighbour lists, split into classes differently
    assert BipartiteGraph(1, 2) != BipartiteGraph(2, 1)
    assert BipartiteGraph(1, 2)._adj == BipartiteGraph(2, 1)._adj


def test_connectivity_matches_bfs_diameter():
    rng = random.Random(32)
    bipartite = [
        _random_bipartite(rng, max_side=5, p=rng.choice([0.2, 0.4, 0.7])) for _ in range(60)
    ]
    bipartite += [
        BipartiteGraph(1, 1),
        BipartiteGraph(3, 2, [(0, 0), (0, 1), (1, 0), (1, 1)]),  # isolated x2
        BipartiteGraph(2, 3, [(0, 0), (1, 0), (0, 1), (1, 1)]),  # isolated y2
        BipartiteGraph(2, 2, [(1, 0), (1, 1)]),  # isolated x0, where the search starts
        complete_bipartite(2, 3),
    ]
    verdicts = set()
    for bg in bipartite:
        verdict = bg.is_connected()
        assert verdict == (bfs_diameter(bg.as_graph()) < math.inf)
        verdicts.add(verdict)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# complement and generators


def test_bipartite_complement_examples():
    for s in (2, 3):
        assert bipartite_complement(complete_bipartite(s, s)).edge_count == 0
    rng = random.Random(14)
    for _ in range(30):
        bg = _random_bipartite(rng)
        assert bipartite_complement(bipartite_complement(bg)) == bg
    for s in (3, 4):
        comp = bipartite_complement(matching(s + 1))
        assert comp.regular_degree() == s
        assert comp.x_size == comp.y_size == s + 1


def test_generators():
    c4 = even_cycle(4)
    k22 = complete_bipartite(2, 2)
    assert sorted(c4.x_degrees() + c4.y_degrees()) == sorted(
        k22.x_degrees() + k22.y_degrees()
    )
    assert integer_spectrum(c4.as_graph()) == integer_spectrum(k22.as_graph())

    two_c6 = disjoint_union([even_cycle(6), even_cycle(6)])
    assert two_c6.order == 12 and two_c6.edge_count == 12
    assert two_c6.regular_degree() == 2

    comp = bipartite_complement(two_c6)
    assert comp.regular_degree() == 4
    assert comp.x_size == comp.y_size == 6

    with pytest.raises(InputError):
        even_cycle(5)
    with pytest.raises(InputError):
        even_cycle(2)
    for nothing in ([], iter([])):
        with pytest.raises(InputError, match="nothing"):
            disjoint_union(nothing)
    assert disjoint_union(iter([c4, k22])) == disjoint_union([c4, k22])
    for wrong in (5, None, k22):  # not an iterable of parts
        with pytest.raises(InputError, match="iterable of BipartiteGraphs"):
            disjoint_union(wrong)


def test_even_cycle_really_is_a_cycle():
    for length in (4, 6, 8, 10):
        g = even_cycle(length).as_graph()
        assert g.order == length
        assert set(g.degrees()) == {2}
        assert even_cycle(length).is_connected()
        assert diameter(g) == length // 2


def test_regular_complement_char_poly_identity():
    # for an s-regular bipartite graph on classes of size n:
    # p(x) * (x^2 - (n-s)^2) == p_complement(x) * (x^2 - s^2)
    cases = [
        disjoint_union([even_cycle(4), even_cycle(4)]),
        disjoint_union([even_cycle(6), even_cycle(6)]),
        complete_bipartite(3, 3),
        matching(4),
        bipartite_complement(matching(5)),
    ]
    for bg in cases:
        s = bg.regular_degree()
        assert s is not None
        n = bg.x_size
        p = list(char_poly_exact(bg.as_graph()))
        q = list(char_poly_exact(bipartite_complement(bg).as_graph()))
        lhs = poly_mul(p, [1, 0, -((n - s) ** 2)])
        rhs = poly_mul(q, [1, 0, -(s**2)])
        assert lhs == rhs, (bg, s, n)


# ---------------------------------------------------------------------------
# line graph spectral laws


def test_minus_two_multiplicity_law_on_small_corpus():
    count = 0
    for bg in connected_bipartite_graphs(6):
        lg, _ = line_graph(bg)
        e, nu = lg.order, bg.order
        poly = char_poly_exact(lg)
        assert root_multiplicity(poly, -2) == e - nu + 1
        # numeric clustering agrees
        numeric = numeric_spectrum(lg)
        assert sum(1 for v in numeric if abs(v + 2) < 1e-6) == e - nu + 1
        count += 1
    assert count == 27  # 1 + 1 + 3 + 5 + 17 connected bipartite graphs on 2..6 vertices


def test_least_line_graph_eigenvalue_is_at_least_minus_two():
    rng = random.Random(16)
    for _ in range(40):
        bg = _random_bipartite(rng)
        if bg.edge_count == 0:
            continue
        lg, _ = line_graph(bg)
        assert numeric_spectrum(lg)[-1] >= -2 - 1e-9


def test_star_factor_spectrum_is_shifted_degree_partition():
    rng = random.Random(18)
    for _ in range(40):
        bg = _random_bipartite(rng)
        if 0 in bg.x_degrees() or 0 in bg.y_degrees():
            continue
        alpha, _ = degree_partitions(bg)
        gx, _ = star_graphs(bg)
        roots = integer_spectrum(gx)
        assert roots is not None  # disjoint cliques are integral
        shifted = Counter(v + 1 for v in expand_root_multiset(roots))
        expected = Counter(alpha.parts)
        expected[0] += bg.edge_count - bg.x_size
        expected = Counter({v: m for v, m in expected.items() if m})
        assert shifted == expected


# ---------------------------------------------------------------------------
# file formats


def test_text_format_round_trip():
    bg = complete_bipartite(2, 3)
    assert parse_graph_text(graph_to_text(bg)) == bg
    text = "X 1\nY 3\n0 0\n0 1\n0 2\n"
    assert parse_graph_text(text) == complete_bipartite(1, 3)


def test_text_format_large_file_and_late_duplicate():
    from hornlr import FormatError

    text = graph_to_text(complete_bipartite(200, 150))
    assert parse_graph_text(text).edge_count == 30000
    with pytest.raises(FormatError, match="duplicate edge '7 9'"):
        parse_graph_text(text + "7 9\n")


def test_json_format_round_trip():
    import json

    bg = bipartite_complement(matching(3))
    data = {"x_size": bg.x_size, "y_size": bg.y_size, "edges": [list(e) for e in bg.sorted_edges]}
    assert parse_graph_json(json.dumps(data)) == bg


def test_format_errors():
    from hornlr import FormatError

    for bad in [
        "",
        "X 2\n",
        "X a\nY 2\n",
        "X \u00b2\nY 1\n",  # a digit that int() rejects
        "X 1\nY 1\n0\n",
        "X 1\nY 1\n0 0\n0 0\n",
        "X 1\nY 11\n0 1_0\n",  # int() would read 10
        # isdecimal() passes these, int() refuses more than 4300 digits
        f"X {'9' * 5000}\nY 1\n",
        f"X 1\nY 1\n0 {'9' * 5000}\n",
        "X 0\nY 1\n",  # parsed, then refused by BipartiteGraph
    ]:
        with pytest.raises(FormatError):
            parse_graph_text(bad)
    for bad in [
        "{]",
        "[]",
        '{"x_size": 1}',
        '{"x_size":1,"y_size":1,"edges":[[0,0],[0,0]]}',
        # json.loads raises a ValueError past int()'s digit limit, and a
        # RecursionError when nested too deeply
        f'{{"x_size": {"9" * 5000}, "y_size": 1, "edges": [[0, 0]]}}',
        "[" * 100000,
    ]:
        with pytest.raises(FormatError):
            parse_graph_json(bad)


# ---------------------------------------------------------------------------
# corpus generator


def test_connected_bipartite_counts():
    # published counts of connected bipartite graphs on 2..8 nodes
    expected = {2: 1, 3: 1, 4: 3, 5: 5, 6: 17, 7: 44, 8: 182}
    got = Counter(bg.order for bg in connected_bipartite_graphs(8))
    assert dict(got) == expected


def test_connected_bipartite_graphs_below_order_2():
    # no graph has order < 2, so a lower min_order changes nothing and
    # costs nothing: the orders below 2 are not visited one by one
    expected = list(connected_bipartite_graphs(5))
    for min_order in (-(10**5000), -(10**7), 0, 1):
        assert list(connected_bipartite_graphs(5, min_order)) == expected


def test_connected_bipartite_counts_order_9():
    assert sum(1 for _ in connected_bipartite_graphs(9, min_order=9)) == 730


def test_corpus_matches_full_permutation_oracle():
    # the generator emits one graph per class of the full-permutation
    # signature, for each (order, smaller class size), and each emitted
    # graph is its own signature: its sorted column masks
    emitted = {}
    for bg in connected_bipartite_graphs(7):
        m, n = bg.x_size, bg.y_size
        rows, cols = [0] * m, [0] * n
        for x, y in bg.sorted_edges:
            rows[x] |= 1 << y
            cols[y] |= 1 << x
        sig = bipartite_signature(rows, m, n)
        assert tuple(sorted(cols, reverse=True)) == sig
        emitted.setdefault((bg.order, m), []).append(sig)
    for sigs in emitted.values():
        assert len(set(sigs)) == len(sigs)
    expected = {
        (order, m): connected_bipartite_signatures(m, order - m)
        for order in range(2, 8)
        for m in range(1, order // 2 + 1)
    }
    assert {key: set(sigs) for key, sigs in emitted.items()} == expected


def test_generators_reject_non_integer_sizes():
    with pytest.raises(InputError):
        list(connected_bipartite_graphs(4.5))
    with pytest.raises(InputError):
        list(connected_bipartite_graphs("4"))
    with pytest.raises(InputError):
        list(connected_bipartite_graphs(4, min_order=True))
    with pytest.raises(InputError):
        even_cycle(4.0)
    with pytest.raises(InputError):
        matching(2.5)
    with pytest.raises(InputError):
        complete_bipartite(2, "3")
    with pytest.raises(InputError):
        complete_bipartite(2.0, 3)


def test_corpus_members_are_connected_and_isolated_free():
    for bg in connected_bipartite_graphs(6):
        assert bg.is_connected()
        assert 0 not in bg.x_degrees() and 0 not in bg.y_degrees()
        assert bg.x_size <= bg.y_size


def test_corpus_dedup_matches_pairwise_isomorphism():
    # brute-force check that no two emitted order-<=6 graphs are isomorphic
    graphs = [bg for bg in connected_bipartite_graphs(6)]
    from itertools import permutations

    def isomorphic(g1, g2):
        if (g1.x_size, g1.y_size) != (g2.x_size, g2.y_size):
            return False
        e2 = set(g2.sorted_edges)
        swaps = [False, True] if g1.x_size == g1.y_size else [False]
        for swap in swaps:
            e1 = (
                set(g1.sorted_edges)
                if not swap
                else {(y, x) for x, y in g1.sorted_edges}
            )
            if len(e1) != len(e2):
                continue
            for pm in permutations(range(g2.x_size)):
                for pn in permutations(range(g2.y_size)):
                    if {(pm[x], pn[y]) for x, y in e1} == e2:
                        return True
        return False

    for i, g1 in enumerate(graphs):
        for g2 in graphs[i + 1 :]:
            assert not isomorphic(g1, g2)
