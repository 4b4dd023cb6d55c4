import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from hornlr import (
    BipartiteGraph,
    InputError,
    Partition,
    TheoremViolation,
    analyze_line_graph,
    bipartite_complement,
    classify_regular_ramanujan_case,
    complete_bipartite,
    connected_bipartite_graphs,
    degree_partitions,
    disjoint_union,
    enumerate_p,
    enumerate_partitions,
    even_cycle,
    exact_spectrum,
    integer_spectrum,
    line_graph,
    matching,
    moment_c,
    moment_d,
    ramanujan_verdict,
)
from hornlr import graphs, spectra
from hornlr.graphs import Graph, _multiplicity, char_poly_exact, expand_root_multiset
from hornlr.lr import lr_positive
from hornlr.spectra import _power_sum_range

from oracles import (
    adjacency_matrix,
    all_partitions,
    brute_force_bipartite,
    classify_by_base_spectrum,
    exhaustive_p,
    line_spectrum_template,
    parity_bipartite,
    root_multiplicity,
    uncapped_p,
    verdict_by_parity,
)

P = Partition


# ---------------------------------------------------------------------------
# moment conditions


def test_moment_c_examples():
    assert moment_c(P([4, 1, 1]), P([3]), P([1, 1, 1]), 3, 4)
    assert moment_c(P([4, 2, 2]), P([2, 2]), P([2, 2]), 4, 4)
    assert not moment_c(P([3, 2, 1]), P([3]), P([1, 1, 1]), 3, 4)
    with pytest.raises(InputError, match="3 parts but only 2"):
        moment_c(P([2, 2, 2]), P([2]), P([1, 1]), 2, 3)


def test_moment_d_examples():
    assert moment_d(P([4, 1, 1]), P([3]), P([1, 1, 1]), 3, 4)
    assert moment_d(P([4, 2, 2]), P([2, 2]), P([2, 2]), 4, 4)
    assert not moment_d(P([2, 2, 2]), P([3]), P([1, 1, 1]), 3, 4)


def test_moments_match_closed_walk_counts():
    # trace(A^2) counts closed 2-walks (twice the edges), trace(A^3)
    # closed 3-walks (six times the triangles); for a line graph both are
    # star counts of the base graph, which is what the moment formulas
    # encode after the -2 shift.
    for bg in connected_bipartite_graphs(6):
        alpha, beta = degree_partitions(bg)
        lg, _ = line_graph(bg)
        e, nu = lg.order, bg.order
        a = adjacency_matrix(lg)
        t2 = int(np.trace(a @ a))
        t3 = int(np.trace(a @ a @ a))
        star_pairs = sum(math.comb(d, 2) for d in alpha) + sum(
            math.comb(d, 2) for d in beta
        )
        star_triples = sum(math.comb(d, 3) for d in alpha) + sum(
            math.comb(d, 3) for d in beta
        )
        assert t2 == 2 * star_pairs
        assert t3 == 6 * star_triples
        roots = integer_spectrum(lg)
        if roots is None:
            continue
        gamma = P(v + 2 for v in expand_root_multiset(roots) if v != -2)
        assert moment_c(gamma, alpha, beta, e, nu)
        assert moment_d(gamma, alpha, beta, e, nu)


# ---------------------------------------------------------------------------
# candidate sets


def test_enumerate_p_worked_example():
    cs = enumerate_p(P([3]), P([1, 1, 1]))
    assert [g.parts for g in cs] == [(4, 1, 1)]
    assert cs.e == 3 and cs.nu == 4
    assert cs.max_distinct_parts == 2


def test_enumerate_p_k22_example():
    cs = enumerate_p(P([2, 2]), P([2, 2]))
    assert P([4, 2, 2]) in cs
    # frozen regression: the full set
    assert [g.parts for g in cs] == [(4, 2, 2)]


def test_enumerate_p_single_edge():
    cs = enumerate_p(P([1]), P([1]))
    assert [g.parts for g in cs] == [(2,)]


def test_enumerate_p_deeper_than_the_recursion_limit():
    # the star K_{1,1200}: 1200 parts to place, more than Python's default
    # recursion limit of 1000
    cs = enumerate_p(P([1200]), P([1] * 1200))
    assert [g.parts for g in cs] == [(1201,) + (1,) * 1199]


def test_enumerate_p_validation():
    with pytest.raises(InputError):
        enumerate_p(P([2]), P([1]))
    with pytest.raises(InputError):
        enumerate_p(P(), P())


def test_messages_abbreviate_huge_arguments():
    """A size or length with more digits than Python converts to a decimal
    string is shown by its bit length, so the InputError being built is
    the one raised, not a ValueError from str()."""
    for call in (
        lambda: moment_c(P([4, 1, 1]), P([3]), P([1, 1, 1]), 3, -(10**5000)),
        lambda: moment_d(P([4, 1, 1]), P([3]), P([1, 1, 1]), 3, -(10**5000)),
        lambda: enumerate_p(P([10**5000]), P([1])),
    ):
        with pytest.raises(InputError, match="bits") as info:
            call()
        assert len(str(info.value)) < 200


@pytest.mark.parametrize("wrong", [[3], (1, 1, 1), None])
def test_enumerate_p_rejects_wrong_argument_types(wrong):
    with pytest.raises(InputError, match="alpha must be a Partition"):
        enumerate_p(wrong, P([1, 1, 1]))
    with pytest.raises(InputError, match="beta must be a Partition"):
        enumerate_p(P([3]), wrong)
    gamma, alpha, beta = P([4, 1, 1]), P([3]), P([1, 1, 1])
    for moment in (moment_c, moment_d):
        for args in ((wrong, alpha, beta), (gamma, wrong, beta), (gamma, alpha, wrong)):
            with pytest.raises(InputError, match="must be a Partition"):
                moment(*args, 3, 4)
        for e, nu, name in (("3", 4, "e"), (3, 4.0, "nu"), (True, 4, "e"), (3, wrong, "nu")):
            with pytest.raises(InputError, match=f"^{name} must be an integer"):
                moment(gamma, alpha, beta, e, nu)


def test_moments_alone_do_not_decide_membership():
    # both moment identities hold here, yet the LR coefficient vanishes
    # (confirmed by the brute-force oracle), so the candidate is rejected
    alpha, beta = P([5, 1, 1, 1]), P([2, 2, 2, 2])
    gamma = P([6, 4, 2, 1, 1, 1, 1])
    e, nu = 8, 8
    assert moment_c(gamma, alpha, beta, e, nu)
    assert moment_d(gamma, alpha, beta, e, nu)
    assert not lr_positive(alpha, beta, gamma)
    assert gamma not in enumerate_p(alpha, beta)


def test_enumerate_p_cap_loses_nothing():
    # re-run the search without any cap and compare; no LR-positive gamma,
    # member or not, breaks a Weyl cap
    pairs = [
        (P([3]), P([1, 1, 1])),
        (P([2, 2]), P([2, 2])),
        (P([2, 1]), P([1, 1, 1])),
        (P([3, 1]), P([2, 2])),
        (P([4, 2]), P([3, 2, 1])),
    ]
    for alpha, beta in pairs:
        e = alpha.size
        nu = alpha.length + beta.length
        caps = spectra._weyl_caps(alpha, beta, nu - 1)
        capped = {g.parts for g in enumerate_p(alpha, beta)}
        uncapped = set()
        for gamma in enumerate_partitions(2 * e, nu - 1, 2 * e):
            if not lr_positive(alpha, beta, gamma):
                continue
            assert all(g <= cap for g, cap in zip(gamma, caps)), (alpha, beta, gamma)
            if nu - 1 >= 2 and gamma.part(1) == gamma.part(2):
                continue
            if not moment_c(gamma, alpha, beta, e, nu):
                continue
            if not moment_d(gamma, alpha, beta, e, nu):
                continue
            uncapped.add(gamma.parts)
        assert capped == uncapped
        assert all(g[0] <= alpha.part(1) + beta.part(1) for g in uncapped)


def test_weyl_caps_hold_for_every_lr_positive_gamma():
    # checks each cap against the LR kernel, apart from the search: every
    # gamma with a positive coefficient in alpha * beta, |alpha| = |beta| <= 6
    by_size = {}
    for parts in all_partitions(12):
        by_size.setdefault(sum(parts), []).append(P(parts))
    checked = 0
    for size in range(1, 7):
        for alpha in by_size[size]:
            for beta in by_size[size]:
                caps = spectra._weyl_caps(alpha, beta, alpha.length + beta.length)
                for gamma in by_size[2 * size]:
                    if lr_positive(alpha, beta, gamma):
                        checked += 1
                        assert gamma.length <= len(caps)
                        assert all(g <= cap for g, cap in zip(gamma, caps)), (alpha, beta, gamma)
    assert checked == 2233
    # the rows j = l(beta) + 1 and i = l(alpha) + 1 cut below the first two
    assert spectra._weyl_caps(P([6] * 20), P([15] * 8), 27) == (21,) * 8 + (6,) * 19
    assert spectra._weyl_caps(P([2, 2]), P([3, 1, 1, 1]), 5) == (5, 3, 3, 1, 1)


def _assert_matches_exhaustive(pairs):
    for alpha, beta in pairs:
        assert [g.parts for g in enumerate_p(alpha, beta)] == exhaustive_p(alpha, beta), (
            alpha,
            beta,
        )


def test_enumerate_p_matches_exhaustive_on_corpus_pairs():
    # both orders of each pair, so the count does not depend on which
    # class of a graph with equal classes the generator calls X
    pairs = {degree_partitions(bg) for bg in connected_bipartite_graphs(8)}
    pairs |= {(beta, alpha) for alpha, beta in pairs}
    assert len(pairs) == 365
    _assert_matches_exhaustive(sorted(pairs, key=str))


def test_enumerate_p_matches_exhaustive_on_complete_bipartite():
    _assert_matches_exhaustive(degree_partitions(complete_bipartite(s, s)) for s in range(1, 8))


def _random_connected_bipartite(rng, m, n, edges):
    # a random spanning tree of K_{m,n}, then random further edges
    placed = {"x": [0], "y": [0]}
    edge_set = {(0, 0)}
    rest = [("x", i) for i in range(1, m)] + [("y", j) for j in range(1, n)]
    rng.shuffle(rest)
    for side, v in rest:
        if side == "x":
            edge_set.add((v, rng.choice(placed["y"])))
        else:
            edge_set.add((rng.choice(placed["x"]), v))
        placed[side].append(v)
    others = [(x, y) for x in range(m) for y in range(n) if (x, y) not in edge_set]
    rng.shuffle(others)
    edge_set.update(others[: edges - len(edge_set)])
    return BipartiteGraph(m, n, edge_set)


def test_enumerate_p_matches_exhaustive_on_random_pairs():
    rng = random.Random(2026)
    pairs = set()
    while len(pairs) < 60:
        nu = rng.randint(3, 12)
        m = rng.randint(1, nu - 1)
        edges = rng.randint(nu - 1, min(m * (nu - m), 2 * nu))
        bg = _random_connected_bipartite(rng, m, nu - m, edges)
        assert bg.is_connected()
        pairs.add(degree_partitions(bg))
    _assert_matches_exhaustive(sorted(pairs, key=str))


def _semiregular_pairs(max_nu):
    # ((a^m), (b^n)) with a <= b, am = bn and m + n <= max_nu, realisable
    # (m >= b): K_{s,t} and the regular pairs among them; the unbalanced
    # ones (a < b) are where the cube bound and the Weyl caps cut the most
    return [
        (P([a] * m), P([b] * n))
        for a in range(1, max_nu)
        for b in range(a, max_nu)
        for m in range(b, max_nu)
        for n in range(a, max_nu + 1 - m)
        if a * m == b * n
    ]


def test_enumerate_p_matches_exhaustive_on_semiregular_pairs():
    pairs = [(alpha, beta) for alpha, beta in _semiregular_pairs(12) if alpha != beta]
    assert len(pairs) == 42
    _assert_matches_exhaustive(pairs)


def test_enumerate_p_matches_uncapped_search():
    # the same members in the same order as the search capped on the first
    # part only, where the Weyl caps on the later parts cut the most
    pairs = _semiregular_pairs(20)
    assert len(pairs) == 195
    corpus = {degree_partitions(bg) for bg in connected_bipartite_graphs(7)}
    for alpha, beta in pairs + sorted(corpus, key=str):
        assert [g.parts for g in enumerate_p(alpha, beta)] == uncapped_p(alpha, beta), (
            alpha,
            beta,
        )


def test_moment_search_yields_exactly_the_moment_solutions():
    # every tuple meeting (b), (c), (d) and the Weyl caps, and no other,
    # reaches the LR test
    pairs = {degree_partitions(bg) for bg in connected_bipartite_graphs(7)}
    unbalanced = [(alpha, beta) for alpha, beta in _semiregular_pairs(12) if alpha != beta]
    for alpha, beta in sorted(pairs, key=str) + unbalanced:
        e, nu = alpha.size, alpha.length + beta.length
        caps = spectra._weyl_caps(alpha, beta, nu - 1)
        expected = [
            g.parts
            for g in enumerate_partitions(2 * e, nu - 1, caps[0])
            if (nu == 2 or g.part(1) > g.part(2))
            and all(part <= cap for part, cap in zip(g, caps))
            and moment_c(g, alpha, beta, e, nu)
            and moment_d(g, alpha, beta, e, nu)
        ]
        need2, need3 = spectra._moment_targets(alpha, beta, e, nu)
        assert list(spectra._moment_search(caps, 2 * e, need2, need3)) == expected


def _k_pair(s, t):
    return degree_partitions(complete_bipartite(s, t))


def test_enumerate_p_on_long_unbalanced_pairs():
    assert [g.parts for g in enumerate_p(*_k_pair(5, 14))] == [(19,) + (14,) * 4 + (5,) * 13]
    assert [g.parts for g in enumerate_p(*_k_pair(2, 50))] == [(52, 50) + (2,) * 49]
    # L(K_{1,3000}) = K_3000: spectrum 2998 and -1^2999, shifted by 2
    assert [g.parts for g in enumerate_p(*_k_pair(1, 3000))] == [(3001,) + (1,) * 2999]


@pytest.mark.parametrize(
    "s, members, ramanujan",
    [
        (9, [(19,) + (10,) * 8 + (9,) * 9], True),  # lambda_2 = 8: 64 = 4 (17 - 1)
        (10, [(21,) + (11,) * 9 + (10,) * 10], False),  # lambda_2 = 9: 81 > 72
    ],
    ids=["K_9_10", "K_10_11"],
)
def test_candidate_sets_at_the_ramanujan_threshold(s, members, ramanujan):
    # L(K_{s,s+1}) is (2s - 1)-regular; its lambda_2 is gamma_2 - 2
    cset = enumerate_p(*_k_pair(s, s + 1))
    assert [g.parts for g in cset] == members
    k = 2 * s - 1
    assert ((members[0][1] - 2) ** 2 <= 4 * (k - 1)) == ramanujan


@pytest.mark.parametrize("power", [2, 3])
def test_power_sum_range_matches_brute_force(power):
    for k in range(8):
        for top in range(1, 9):
            seen = {}
            for parts in combinations_with_replacement(range(1, top + 1), k):
                value = sum((g - 2) ** power for g in parts)
                low, high = seen.get(sum(parts), (value, value))
                seen[sum(parts)] = (min(low, value), max(high, value))
            assert sorted(seen) == list(range(k, k * top + 1))
            for total, expected in seen.items():
                assert _power_sum_range(k, total, top, power) == expected, (k, total, top)


# ---------------------------------------------------------------------------
# line graph analysis


def test_analyze_k13():
    report = analyze_line_graph(complete_bipartite(1, 3))
    assert report.is_integral
    assert report.spectrum_int == ((2, 1), (-1, 2))
    assert report.gamma_matched == P([4, 1, 1])
    assert report.minus_two_multiplicity == 0
    assert report.diameter == 1
    assert report.max_k_gamma == 2
    assert report.two_omega == 6
    assert report.ok


def test_analyze_k22():
    report = analyze_line_graph(complete_bipartite(2, 2))
    assert report.is_integral
    assert report.spectrum_int == ((2, 1), (0, 2), (-2, 1))
    assert report.gamma_matched == P([4, 2, 2])
    assert report.minus_two_multiplicity == 1
    assert report.diameter == 2
    assert report.two_omega == 4
    assert report.ok


def test_analyze_path_on_four_vertices():
    # a-b-c-d with classes {a, c}, {b, d}: line graph is the 3-vertex path
    p4 = BipartiteGraph(2, 2, [(0, 0), (1, 0), (1, 1)])
    report = analyze_line_graph(p4)
    assert not report.is_integral
    assert report.char_poly == (1, 0, -2, 0)
    assert report.gamma_matched is None
    assert report.p_set is None
    assert report.minus_two_multiplicity == 0
    assert report.ok
    # P(alpha, beta) on request
    report = analyze_line_graph(p4, include_p_set=True)
    assert report.p_set is not None


def test_analyze_requires_connected():
    with pytest.raises(InputError):
        analyze_line_graph(matching(2))


@pytest.mark.parametrize("wrong", [[(0, 0)], (1, 1), None, Graph(2, [(0, 1)])])
def test_analyze_rejects_wrong_argument_types(wrong):
    with pytest.raises(InputError, match="must be a BipartiteGraph"):
        analyze_line_graph(wrong)


_GRAPH_ROUTINES = (
    graphs.exact_spectrum,
    graphs.char_poly_exact,
    graphs.integer_spectrum,
    graphs.numeric_spectrum,
    graphs.diameter,
    graphs.clique_number,
    ramanujan_verdict,
)
_BIPARTITE_ROUTINES = (
    classify_regular_ramanujan_case,
    line_graph,
    bipartite_complement,
)


@pytest.mark.parametrize(
    "routine, kind, wrong",
    [
        (routine, kind, wrong)
        for routines, kind, other in (
            (_GRAPH_ROUTINES, "Graph", complete_bipartite(3, 3)),
            (_BIPARTITE_ROUTINES, "BipartiteGraph", Graph(2, [(0, 1)])),
        )
        for routine in routines
        for wrong in (other, [(0, 1)], None)
    ],
)
def test_graph_routines_reject_wrong_argument_types(routine, kind, wrong):
    with pytest.raises(InputError, match=f"must be a {kind},"):
        routine(wrong)


def test_analyze_single_edge():
    report = analyze_line_graph(complete_bipartite(1, 1))
    assert report.is_integral
    assert report.gamma_matched == P([2])
    assert report.minus_two_multiplicity == 0
    assert report.diameter == 0
    assert report.ok


def test_theorem_corpus_order_six():
    # every connected bipartite graph on <= 6 vertices with integral line
    # graph satisfies all the verified laws
    integral = 0
    for bg in connected_bipartite_graphs(6):
        report = analyze_line_graph(bg)
        assert report.ok, (bg, report.violations)
        integral += report.is_integral
    assert integral > 0


# ---------------------------------------------------------------------------
# Ramanujan verdicts


def test_ramanujan_complete_graph():
    k4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    verdict = ramanujan_verdict(k4)
    assert verdict.exact
    assert verdict.second_largest == -1
    assert verdict.bound == pytest.approx(2 * math.sqrt(2))
    assert verdict.second_largest_ok and verdict.all_nontrivial_ok


def test_ramanujan_rejects_non_regular():
    path = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(InputError):
        ramanujan_verdict(path)
    with pytest.raises(InputError, match="degree must be at least 1"):
        ramanujan_verdict(Graph(3))


def test_ramanujan_checks_its_arguments():
    # L(C_8) = C_8 is not integral; L(K_{3,2}) is 3-regular and integral
    for lg in (line_graph(even_cycle(8))[0], line_graph(complete_bipartite(3, 2))[0]):
        assert ramanujan_verdict(lg, tol=None) == ramanujan_verdict(lg)
        # 10**400 is beyond the float range that the bound is added to
        for tol in ("x", [1e-9], 1j, math.nan, math.inf, 10**400, Fraction(10**400, 3)):
            with pytest.raises(InputError, match="tolerance"):
                ramanujan_verdict(lg, tol=tol)
        # the tolerance is keyword-only: a positional 3 is not read as one
        with pytest.raises(TypeError):
            ramanujan_verdict(lg, 3)


def test_ramanujan_l_k_3_2():
    # L(K_{3,2}) is 3-regular with spectrum {3, 1, 0, 0, -2, -2}
    lg, _ = line_graph(complete_bipartite(3, 2))
    assert integer_spectrum(lg) == ((3, 1), (1, 1), (0, 2), (-2, 2))
    verdict = ramanujan_verdict(lg)
    assert verdict.degree == 3
    assert verdict.second_largest == 1
    assert verdict.least == -2
    assert verdict.second_largest_ok and verdict.all_nontrivial_ok


def test_ramanujan_kss_boundary_small():
    # (s-2)^2 <= 8s - 12 holds at s = 10, fails at s = 11; spot-check s=4
    lg, _ = line_graph(complete_bipartite(4, 4))
    verdict = ramanujan_verdict(lg)
    assert verdict.degree == 6
    assert verdict.second_largest == 2
    assert verdict.second_largest_ok


def test_ramanujan_both_readings_reported():
    # C_6 is 2-regular and bipartite: one copy of -2 = -k is dropped from
    # the nontrivial set; both readings hold.
    c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    verdict = ramanujan_verdict(c6)
    assert verdict.second_largest_ok and verdict.all_nontrivial_ok
    # two disjoint K_4: 3-regular, second largest 3 > 2*sqrt(2); the
    # second Perron copy also survives in the nontrivial set
    two_k4 = Graph(
        8,
        [(a, b) for a in range(4) for b in range(a + 1, 4)]
        + [(a + 4, b + 4) for a in range(4) for b in range(a + 1, 4)],
    )
    verdict = ramanujan_verdict(two_k4)
    assert not verdict.second_largest_ok
    assert not verdict.all_nontrivial_ok


def test_ramanujan_bipartite_drops_minus_k():
    # on a bipartite k-regular graph with k >= 3, -k itself breaks the
    # bound (k^2 > 4(k - 1)), so the nontrivial reading must leave it out:
    # K_{3,3} (integral, 3, 0^4, -3) and the Heawood graph (3, sqrt(2)^6,
    # -sqrt(2)^6, -3) are Ramanujan under both readings
    heawood = BipartiteGraph(7, 7, [(x, (x + d) % 7) for x in range(7) for d in (0, 1, 3)])
    for bg, exact in ((complete_bipartite(3, 3), True), (heawood, False)):
        verdict = ramanujan_verdict(bg.as_graph())
        assert verdict.exact == exact
        assert verdict.least == pytest.approx(-3)
        assert verdict.second_largest_ok and verdict.all_nontrivial_ok


def _plain_union(*graphs_):
    """The disjoint union of plain graphs, in the order given."""
    edges, offset = [], 0
    for g in graphs_:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.order
    return Graph(offset, edges)


def _regular_graphs(rng):
    """Seeded regular graphs of degree >= 1: cycles, circulants, line
    graphs of K_{s,t}, and unions of a bipartite and a non-bipartite
    component of one degree, in both orders, as plain graphs and as line
    graphs (L(C_6 + K_{1,3}) = C_6 + K_3 has e - nu = -1, so the
    multiplicity of -k = -2 needs the extra count); line graphs of even
    cycles, some beside isolated vertices; and graphs one edge swap away
    from K_{n,n}, whose verdict turns on the rule."""
    cycle = lambda n: Graph(n, [(i, (i + 1) % n) for i in range(n)])
    complete = lambda n: Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])
    out = [cycle(n) for n in range(3, 13)]
    while len(out) < 40:
        n = rng.randint(4, 12)
        jumps = rng.sample(range(1, n // 2 + 1), rng.randint(1, (n - 1) // 2))
        out.append(Graph(n, [(v, (v + d) % n) for v in range(n) for d in jumps]))
    out += [line_graph(complete_bipartite(s, t))[0] for s in range(1, 5) for t in range(max(s, 2), 6)]
    k33 = complete_bipartite(3, 3).as_graph()
    out += [_plain_union(cycle(4), cycle(5)), _plain_union(cycle(5), cycle(4))]
    out += [_plain_union(k33, complete(4)), _plain_union(complete(4), k33)]
    for other in (even_cycle(4), even_cycle(6)):
        for pair in ([other, complete_bipartite(1, 3)], [complete_bipartite(1, 3), other]):
            out.append(line_graph(disjoint_union(pair))[0])
        # the same cycle beside two isolated vertices: e - nu = -2
        out.append(line_graph(disjoint_union([other, BipartiteGraph(1, 1)]))[0])
    out.append(line_graph(disjoint_union([even_cycle(4), even_cycle(6)]))[0])
    # K_{n,n} with x0y0 and x1y1 swapped for x0x1 and y0y1: n-regular with
    # a triangle, and for n >= 5 its least eigenvalue alone breaks the bound
    for n in range(4, 8):
        kept = [(x, n + y) for x in range(n) for y in range(n) if (x, y) not in ((0, 0), (1, 1))]
        out.append(Graph(2 * n, kept + [(0, 1), (n, n + 1)]))
    return out


def test_bipartiteness_from_the_multiplicities_of_k_and_minus_k():
    # a k-regular graph is bipartite exactly when -k is as frequent as k,
    # against the parity of the polynomial and, to order 10, every
    # 2-colouring; both answers occur among the brute-forced graphs and
    # among the 2-regular line graphs, where -k = -2 takes the extra count
    seen = Counter()
    for g in _regular_graphs(random.Random(29)):
        k = g.regular_degree()
        assert k >= 1
        rule = _multiplicity(g, -k) == _multiplicity(g, k)
        assert rule == parity_bipartite(g), g
        if g.order <= 10:
            assert rule == brute_force_bipartite(g), g
            seen[rule, "brute force"] += 1
        if k == 2 and g._base is not None:
            seen[rule, "2-regular line graph"] += 1
    assert min(seen.values()) >= 2 and len(seen) == 4


def test_verdicts_match_the_parity_route():
    # every regular line graph of the order <= 9 corpus, and every graph
    # of the seeded set, gets the verdict of the full spectrum and parity
    regular = 0
    for bg in connected_bipartite_graphs(9):
        lg, _ = line_graph(bg)
        if lg.regular_degree():
            expected = verdict_by_parity(lg)
            assert ramanujan_verdict(lg) == expected, bg
            assert analyze_line_graph(bg).ramanujan == expected, bg
            regular += 1
    assert regular > 20
    turns = 0
    for g in _regular_graphs(random.Random(29)):
        verdict = ramanujan_verdict(g)
        assert verdict == verdict_by_parity(g), g
        # the all-nontrivial reading fails below the second eigenvalue
        turns += verdict.second_largest_ok and not verdict.all_nontrivial_ok
    assert turns >= 3


def test_minus_two_multiplicity_from_the_factor():
    # analyze_line_graph reads -2 from the degree-nu factor; the expanded
    # polynomial of degree e must agree
    for bg in connected_bipartite_graphs(8):
        lg, _ = line_graph(bg)
        expected = root_multiplicity(char_poly_exact(lg), -2)
        assert analyze_line_graph(bg).minus_two_multiplicity == expected, bg


# ---------------------------------------------------------------------------
# spectrum template


def test_template_examples():
    assert line_spectrum_template(2, 2, 0, 0) == ((2, 1), (0, 2), (-2, 1))
    assert line_spectrum_template(3, 3, 0, 0) == ((4, 1), (1, 4), (-2, 4))
    assert line_spectrum_template(3, 3, 0, 0) == integer_spectrum(
        line_graph(complete_bipartite(3, 3))[0]
    )


def test_template_matches_l_kss():
    for s in range(2, 5):
        lg, _ = line_graph(complete_bipartite(s, s))
        assert line_spectrum_template(s, s, 0, 0) == integer_spectrum(lg)


def test_template_total_multiplicity():
    # the line spectra of K_{s,s} and of the complement of (s+1)K_2 are
    # integral, and their multiplicities sum to the order of the line graph,
    # which comes from the base graph's edge count
    for s in range(1, 13):
        for bg in (complete_bipartite(s, s), bipartite_complement(matching(s + 1))):
            lg, _ = line_graph(bg)
            roots = integer_spectrum(lg)
            assert roots is not None, bg
            assert sum(m for _, m in roots) == lg.order == bg.edge_count, bg


def test_template_on_matching_complement():
    # the complement of (s+1)K_2 is s-regular on classes of size s+1 with
    # base eigenvalues {s, 1^s, -1^s, -s}: x = 0, y = s in the template
    for s in (3, 4):
        bg = bipartite_complement(matching(s + 1))
        lg, _ = line_graph(bg)
        assert line_spectrum_template(s, s + 1, 0, s) == integer_spectrum(lg)


# ---------------------------------------------------------------------------
# case classification


def test_classify_kss():
    assert classify_regular_ramanujan_case(complete_bipartite(5, 5)) == "lambda0"


def test_classify_matching_complement():
    assert (
        classify_regular_ramanujan_case(bipartite_complement(matching(5))) == "lambda1"
    )


def test_classify_cycle_complements():
    bg = bipartite_complement(disjoint_union([even_cycle(6), even_cycle(6)]))
    assert classify_regular_ramanujan_case(bg) == "lambda2"


def test_char_poly_computed_once_per_graph(monkeypatch):
    calls = []
    real = graphs._char_poly

    def counting(neighbours, *rest):
        calls.append(len(neighbours))
        return real(neighbours, *rest)

    monkeypatch.setattr(graphs, "_char_poly", counting)
    report = analyze_line_graph(complete_bipartite(3, 3))
    assert report.ramanujan is not None
    assert calls == [3]  # the Gram matrix of K_{3,3}, not the 9 x 9 adjacency
    calls.clear()
    assert classify_regular_ramanujan_case(complete_bipartite(3, 3)) == "lambda0"
    assert calls == [3]  # the line graph only; lambda_2 is read off its spectrum
    calls.clear()
    lg = line_graph(complete_bipartite(3, 3))[0]
    plain = Graph(lg.order, lg.edges())
    assert exact_spectrum(lg) == exact_spectrum(plain)
    assert calls == [3, 9]  # each graph builds its own factor: the Gram matrix, the adjacency
    calls.clear()
    assert ramanujan_verdict(lg) == ramanujan_verdict(plain)
    exact_spectrum(lg)
    assert calls == []  # each graph's kept record serves its repeated queries


def test_analyze_reads_one_numeric_spectrum(monkeypatch):
    # L(C_8) = C_8 is regular and not integral: its report and its
    # Ramanujan verdict share one eigensolve
    calls = []
    real = spectra.numeric_spectrum

    def counting(g):
        calls.append(g.order)
        return real(g)

    monkeypatch.setattr(spectra, "numeric_spectrum", counting)
    report = analyze_line_graph(even_cycle(8))
    assert calls == [8]
    assert not report.is_integral
    assert report.ramanujan == ramanujan_verdict(line_graph(even_cycle(8))[0])
    assert not report.ramanujan.exact and report.ramanujan.is_ramanujan


def test_classify_preconditions():
    with pytest.raises(InputError):
        classify_regular_ramanujan_case(matching(3))  # disconnected
    with pytest.raises(InputError):
        classify_regular_ramanujan_case(complete_bipartite(2, 3))  # not regular
    with pytest.raises(InputError):
        classify_regular_ramanujan_case(complete_bipartite(2, 2))  # s < 3
    with pytest.raises(InputError):
        classify_regular_ramanujan_case(bipartite_complement(even_cycle(10)))  # not integral


def _classification(classify, bg):
    try:
        return classify(bg)
    except (InputError, TheoremViolation) as exc:
        return type(exc)


def _connected_circulants(rng, count):
    """Seeded connected s-regular bipartite circulants on classes Z_n,
    n <= 10: x ~ x + d for the s shifts d; count // 4 for each s = 3..6."""
    found = {}
    while len(found) < count:
        s = 3 + 4 * len(found) // count
        n = rng.randint(s, 10)
        shifts = tuple(sorted(rng.sample(range(n), s)))
        bg = BipartiteGraph(n, n, [(x, (x + d) % n) for x in range(n) for d in shifts])
        if bg.is_connected():
            found[n, shifts] = bg
    return list(found.values())


def test_classify_matches_base_spectrum_oracle():
    # lambda_2 read off the line spectrum against the base graph's own
    # polynomial: the same label or the same exception type on each graph
    named = (
        [complete_bipartite(s, s) for s in range(3, 12)]
        + [bipartite_complement(matching(s + 1)) for s in range(3, 7)]
        + [
            bipartite_complement(disjoint_union([even_cycle(t) for t in lengths]))
            for lengths in ([4, 4, 4], [6, 6], [4, 4, 6], [4, 4, 4, 4], [4, 6, 6])
        ]
    )
    circulants = _connected_circulants(random.Random(11), 24)
    preconditions = [
        matching(3),
        complete_bipartite(2, 3),
        complete_bipartite(2, 2),
        bipartite_complement(even_cycle(10)),
    ]
    outcomes = []
    for bg in named + circulants + preconditions:
        outcome = _classification(classify_regular_ramanujan_case, bg)
        assert outcome == _classification(classify_by_base_spectrum, bg), bg
        if isinstance(outcome, str):
            verdict = ramanujan_verdict(line_graph(bg)[0])
            assert verdict.second_largest_ok and verdict.all_nontrivial_ok, bg
        outcomes.append(outcome)
    expected = ["lambda0"] * 8 + [InputError] + ["lambda1"] * 4 + ["lambda2"] * 5
    assert outcomes[: len(named)] == expected  # L(K_{11,11}) is not Ramanujan
    on_circulants = set(outcomes[len(named) : -len(preconditions)])
    assert on_circulants == {"lambda0", "lambda1", "lambda2", InputError}
    assert any(integer_spectrum(line_graph(bg)[0]) is None for bg in circulants)
    assert outcomes[-len(preconditions) :] == [InputError] * len(preconditions)


def test_classify_rejects_non_ramanujan():
    with pytest.raises(InputError, match="not Ramanujan"):
        classify_regular_ramanujan_case(complete_bipartite(11, 11))
