"""Independent brute-force oracles used only by the tests.

Each oracle deliberately takes a different route than the library code
it checks:

- LR coefficients by filtering all multiset placements instead of
  pruned DFS, and Pieri products by the closed-form interleaving rule;
- partition counts by the classic two-term recurrence instead of
  enumeration;
- cliques by subset enumeration instead of branch and bound;
- bipartite graph canonical forms by maximising over every order of a
  class instead of the degree-sorted ones only;
- Horn's families T(n, r) by Horn's recursion over T(r, p), p < r,
  written out triple by triple, and by LR positivity, instead of the
  matrix of T(r) applied to every shape at once, and by filtering
  U(n, r) for every r instead of taking T(n, n - r) as the conjugates
  of T(n, r);
- candidate sets P(alpha, beta) by filtering every partition of 2e into
  nu - 1 parts instead of a moment-pruned search, and by the
  moment-pruned search with the single cap alpha_1 + beta_1 on the first
  part instead of a Weyl cap on every part;
- Horn's inequalities by checking the trace and the triples of T(n, r)
  one at a time, in order, each as sums written out over its index sets,
  instead of one product with a matrix of all of them (for single checks
  and, trial by trial, for the sampler); that matrix by reading the
  index sets of each IndexTriple instead of the integer arrays cached
  with T(n, r);
- line graphs, and their split into the X-star and Y-star graphs, by
  testing every pair of edges for a shared endpoint instead of pairing
  the edges within each star;
- dense adjacency matrices from a graph's edge list;
- line-graph diameters by a BFS from each of the e vertices of the line
  graph instead of from each of the nu vertices of its base graph;
- bipartiteness by trying every 2-colouring, and by the parity of the
  characteristic polynomial, instead of comparing the multiplicities of
  k and -k in the factor of a k-regular graph; Ramanujan verdicts from
  the full exact spectrum and that parity instead of the factor alone;
- the case label of a regular graph with an integral Ramanujan line
  graph from the base graph's own spectrum instead of the line spectrum
  shifted by s - 2, and the line spectrum of an s-regular base by its
  closed form in s, n and the counts of base eigenvalues +-2 and +-1;
- root multiplicities by the Taylor coefficients of the polynomial at
  the root, each summed out exactly, instead of dividing (x - t) out of
  the factor as often as it divides;
- characteristic polynomials by the Faddeev-LeVerrier recurrence on rows
  kept as lists of integers instead of rows packed into one integer
  each;
- the sampler's random entries by one getrandbits call each, mirrored
  entry by entry, instead of one randbytes block per block of trials
  read as an array.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

import numpy as np

from hornlr import (
    BipartiteGraph,
    Graph,
    IndexTriple,
    InputError,
    Partition,
    RamanujanVerdict,
    TheoremViolation,
    char_poly_exact,
    enumerate_partitions,
    exact_spectrum,
    generate_t,
    generate_u,
    integer_spectrum,
    line_graph,
    moment_c,
    moment_d,
    numeric_spectrum,
    weyl_bounds,
)
from hornlr.graphs import expand_root_multiset
from hornlr.horn import DEFAULT_TOL, SampleReport
from hornlr.lr import lr_positive
from hornlr.partitions import _descending_parts
from hornlr.spectra import _moment_targets, _power_sum_range


def brute_force_lr(gamma, alpha, beta):
    """Count LR tableaux of shape gamma/alpha, content beta, by checking
    every distinct placement of the content multiset after the fact."""
    gamma, alpha, beta = tuple(gamma), tuple(alpha), tuple(beta)
    if sum(gamma) != sum(alpha) + sum(beta):
        return 0
    pad_a = list(alpha) + [0] * (len(gamma) - len(alpha))
    if len(alpha) > len(gamma) or any(pad_a[i] > gamma[i] for i in range(len(gamma))):
        return 0
    cells = [(r, c) for r, g in enumerate(gamma) for c in range(pad_a[r], g)]
    content = [v for v, b in enumerate(beta, 1) for _ in range(b)]
    if len(cells) != len(content):
        return 0
    if not cells:
        return 1
    count = 0
    for perm in _distinct_permutations(content):
        filling = dict(zip(cells, perm))
        if _is_semistandard(filling) and _is_lattice(filling, gamma, pad_a):
            count += 1
    return count


def _distinct_permutations(items):
    """Every distinct ordering of `items`, in lexicographic order, by the
    classic next-permutation step: no repeat is generated, so content with
    one value (a Pieri product of any size) is one placement."""
    perm = sorted(items)
    while True:
        yield tuple(perm)
        i = len(perm) - 2
        while i >= 0 and perm[i] >= perm[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(perm) - 1
        while perm[j] <= perm[i]:
            j -= 1
        perm[i], perm[j] = perm[j], perm[i]
        perm[i + 1 :] = reversed(perm[i + 1 :])


def _is_semistandard(filling):
    for (r, c), v in filling.items():
        if (r, c + 1) in filling and filling[(r, c + 1)] < v:
            return False
        if (r + 1, c) in filling and filling[(r + 1, c)] <= v:
            return False
    return True


def _is_lattice(filling, gamma, pad_a):
    tally = {}
    for r, g in enumerate(gamma):
        for c in range(g - 1, pad_a[r] - 1, -1):
            v = filling[(r, c)]
            tally[v] = tally.get(v, 0) + 1
            if v >= 2 and tally.get(v - 1, 0) < tally[v]:
                return False
    return True


@lru_cache(maxsize=None)
def partition_count(total, length):
    """Number of partitions of `total` into exactly `length` positive
    parts, by p(n, k) = p(n-1, k-1) + p(n-k, k)."""
    if length == 0:
        return 1 if total == 0 else 0
    if total < length:
        return 0
    return partition_count(total - 1, length - 1) + partition_count(total - length, length)


def pieri_coefficient(a, b, gamma):
    """LR coefficient for two one-row partitions (a), (b): 1 exactly when
    gamma = (a + b - k, k) for some 0 <= k <= min(a, b), else 0."""
    gamma = tuple(gamma)
    if len(gamma) > 2 or sum(gamma) != a + b:
        return 0
    second = gamma[1] if len(gamma) == 2 else 0
    first = gamma[0] if gamma else 0
    return 1 if 0 <= second <= min(a, b) and first >= second else 0


def brute_force_clique(g):
    """Maximum clique by descending subset enumeration."""
    n = g.order
    adj = [set(g.neighbors(v)) for v in range(n)]
    for size in range(n, 0, -1):
        for subset in combinations(range(n), size):
            if all(v in adj[u] for u, v in combinations(subset, 2)):
                return size
    return 0


def line_graph_by_pairs(bg):
    """The line graph of `bg` on its edges in lexicographic order, two
    edges adjacent when they share an endpoint, found by testing all
    e(e - 1)/2 pairs."""
    edges = bg.sorted_edges
    return Graph(
        len(edges),
        [
            (a, b)
            for a in range(len(edges))
            for b in range(a + 1, len(edges))
            if edges[a][0] == edges[b][0] or edges[a][1] == edges[b][1]
        ],
    )


def star_graphs(bg):
    """(G_X, G_Y) on the edges of `bg` in lexicographic order: G_X joins
    two edges when they share their x vertex, G_Y when they share their y
    vertex, found by testing all e(e - 1)/2 pairs. Their adjacency
    matrices sum to that of the line graph."""
    edges = bg.sorted_edges
    pairs = list(combinations(range(len(edges)), 2))
    return tuple(
        Graph(len(edges), [(a, b) for a, b in pairs if edges[a][side] == edges[b][side]])
        for side in (0, 1)
    )


def adjacency_matrix(g):
    """The 0/1 adjacency matrix of `g` as an int64 array, read from its
    edge list."""
    a = np.zeros((g.order, g.order), dtype=np.int64)
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1
    return a


def line_spectrum_template(s, n, x, y):
    """The spectrum of the line graph of an s-regular bipartite graph on
    colour classes of size n whose nontrivial spectrum has x eigenvalues
    +-2 and y eigenvalues +-1, as (value, multiplicity) pairs by
    descending value, equal values merged, zero multiplicities left out:

      { -2^((s-2)n+1), (s-4)^x, (s-3)^y, (s-2)^(2n-2x-2y-2),
        (s-1)^y, s^x, (2s-2)^1 }

    The closed form only; the arguments are not checked."""
    counts = Counter()
    for value, mult in [
        (-2, (s - 2) * n + 1),
        (s - 4, x),
        (s - 3, y),
        (s - 2, 2 * n - 2 * x - 2 * y - 2),
        (s - 1, y),
        (s, x),
        (2 * s - 2, 1),
    ]:
        counts[value] += mult
    return tuple(sorted((v, m) for v, m in counts.items() if m))[::-1]


def bfs_diameter(g):
    """Largest distance over all pairs of vertices of `g`, by a BFS from
    each of them, level by level; math.inf when some pair is unreachable."""
    best = 0
    for src in range(g.order):
        seen, frontier, depth = {src}, {src}, 0
        while frontier:
            frontier = {w for v in frontier for w in g.neighbors(v)} - seen
            seen |= frontier
            depth += bool(frontier)
        if len(seen) < g.order:
            return math.inf
        best = max(best, depth)
    return best


def brute_force_bipartite(g):
    """Whether some 2-colouring of the vertices of `g` leaves no edge
    within one colour, by trying all 2**order of them (order <= 10)."""
    if g.order > 10:
        raise ValueError(f"brute_force_bipartite needs order <= 10, got {g.order}")
    edges = g.edges()
    return any(
        all((mask >> u ^ mask >> v) & 1 for u, v in edges) for mask in range(1 << g.order)
    )


def parity_bipartite(g):
    """Whether `g` is bipartite, from its characteristic polynomial:
    exactly when every coefficient at an odd offset from the leading one
    is 0, that is, when the spectrum is symmetric about 0. A bipartite
    graph's spectrum is (Coulson-Rushbrooke); conversely a symmetric one
    gives tr A^(2j+1) = 0, and that trace counts the closed walks of
    length 2j + 1, so there is no odd cycle."""
    return not any(char_poly_exact(g)[1::2])


def verdict_by_parity(g):
    """ramanujan_verdict(g) for a k-regular g, k >= 1, from the full
    exact spectrum (the expanded polynomial and its integer roots), or
    the numeric one, with bipartiteness by `parity_bipartite`."""
    k = g.regular_degree()
    roots = exact_spectrum(g).integer_roots
    exact = roots is not None
    eigs = expand_root_multiset(roots) if exact else numeric_spectrum(g)
    bound = 2.0 * math.sqrt(k - 1)
    if exact:
        within = lambda v: v * v <= 4 * (k - 1)
    else:
        within = lambda v: abs(v) <= bound + DEFAULT_TOL
    nontrivial = eigs[1:-1] if parity_bipartite(g) else eigs[1:]
    return RamanujanVerdict(
        degree=k,
        second_largest=eigs[1],
        least=eigs[-1],
        bound=bound,
        second_largest_ok=within(eigs[1]),
        all_nontrivial_ok=all(map(within, nontrivial)),
        exact=exact,
    )


def root_multiplicity(coeffs, t):
    """Multiplicity of the integer t as a root of the polynomial with
    descending coefficients `coeffs` (leading one nonzero): the index of
    the first nonzero Taylor coefficient p^(j)(t) / j! =
    sum_i c_i C(d - i, j) t^(d - i - j), d the degree."""
    d = len(coeffs) - 1
    return next(
        j
        for j in range(d + 1)
        if sum(c * math.comb(d - i, j) * t ** (d - i - j) for i, c in enumerate(coeffs[: d - j + 1]))
    )


def poly_mul(p, q):
    """Product of two integer polynomials (descending coefficients)."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def char_poly_by_rows(neighbours, diagonal):
    """Coefficients of det(xI - A), descending, for the matrix with 1 at
    (i, j) for each j in neighbours[i] and diagonal[i] at (i, i), by the
    Faddeev-LeVerrier recurrence with each row of the work matrix a list
    of integers: row i of A M sums the rows at the neighbours of i."""
    n = len(neighbours)
    work = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    coeffs = [1]
    for k in range(1, n + 1):
        prod = [
            [sum(col) for col in zip(*(work[t] for t in nb))] if nb else [0] * n
            for nb in neighbours
        ]
        for i, d in enumerate(diagonal):
            prod[i] = [a + d * b for a, b in zip(prod[i], work[i])]
        trace = sum(prod[i][i] for i in range(n))
        c, rem = divmod(-trace, k)
        if rem:
            raise ArithmeticError("Faddeev-LeVerrier division was not exact")
        coeffs.append(c)
        for i in range(n):
            prod[i][i] += c
        work = prod
    return coeffs


def all_partitions(max_size, max_part=None, max_length=None):
    """Every partition of size <= max_size under the given caps, as tuples."""
    max_part = max_part if max_part is not None else max_size
    max_length = max_length if max_length is not None else max_size
    out = []

    def rec(acc, remaining, cap):
        out.append(tuple(acc))
        if len(acc) == max_length:
            return
        for p in range(min(cap, remaining), 0, -1):
            acc.append(p)
            rec(acc, remaining - p, p)
            acc.pop()

    rec([], max_size, max_part)
    return out


def bipartite_signature(rows, m, n):
    """Canonical form of the bipartite graph whose class X has the m
    biadjacency bitmask rows `rows` over the n vertices of Y: the maximum,
    over all m! orders of X, of the sorted column masks, and also over
    all n! orders of Y (columns read as rows) when m == n."""
    candidates = [_sorted_columns([rows[i] for i in p], n) for p in permutations(range(m))]
    if m == n:
        cols = _sorted_columns(rows, n)
        candidates += [_sorted_columns([cols[j] for j in p], m) for p in permutations(range(n))]
    return max(candidates)


def _sorted_columns(rows, n):
    cols = [sum((rm >> j & 1) << i for i, rm in enumerate(rows)) for j in range(n)]
    return tuple(sorted(cols, reverse=True))


def connected_bipartite_signatures(m, n):
    """Signatures of every connected bipartite graph with classes of
    sizes m and n, found by trying every m-tuple of non-empty rows."""
    out = set()
    for rows in product(range(1, 1 << n), repeat=m):
        edges = [(i, j) for i, rm in enumerate(rows) for j in range(n) if rm >> j & 1]
        if BipartiteGraph(m, n, edges).is_connected():
            out.add(bipartite_signature(rows, m, n))
    return out


@lru_cache(maxsize=None)
def recursive_t(n, r):
    """Horn's T(n, r) by his recursion. T(n, 1) = U(n, 1). For r >= 2, a
    triple of U(n, r) survives when for every p < r and every (F, G, H)
    in T(r, p),

        sum(i_f, f in F) + sum(j_g, g in G) <= sum(k_h, h in H) + p(p+1)/2

    where i_f is the f-th smallest element of I."""
    if r == 1:
        return generate_u(n, 1)
    filters = [(p, recursive_t(r, p)) for p in range(1, r)]
    out = []
    for triple in generate_u(n, r):
        i_set, j_set, k_set = triple.i, triple.j, triple.k
        ok = True
        for p, inner in filters:
            bound = p * (p + 1) // 2
            for f_g_h in inner:
                lhs = sum(i_set[f - 1] for f in f_g_h.i)
                lhs += sum(j_set[g - 1] for g in f_g_h.j)
                rhs = sum(k_set[h - 1] for h in f_g_h.k) + bound
                if lhs > rhs:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(triple)
    return tuple(out)


@lru_cache(maxsize=None)
def filtered_t(n, r):
    """T(n, r) and a read-only index array of its triples, one row
    (I, J, K) per triple, of dtype np.min_scalar_type(3n), by filtering
    U(n, r) with the rows of T(r) for every r, T(n, n - r) included,
    instead of taking n/2 < r < n as conjugates. The rows of T(r) are
    this oracle's own T(r, p), p < r, applied one at a time to the shapes
    of all of U(n, r); each kept triple goes through IndexTriple's public,
    validating constructor."""
    u_sets = [(t.i, t.j, t.k) for t in generate_u(n, r)]
    sets = np.array([i + j + k for i, j, k in u_sets], dtype=np.min_scalar_type(3 * n))
    shapes = (sets.reshape(-1, 3, r)[:, :, ::-1] - np.arange(r, 0, -1)).reshape(-1, 3 * r)
    keep = np.ones(len(sets), dtype=bool)
    for p in range(1, r):
        offsets = np.repeat(np.arange(0, 3 * r, r), p) - 1
        for row in filtered_t(r, p)[1]:
            picked = shapes[:, row + offsets]
            keep &= picked[:, 2 * p :].sum(axis=1) <= picked[:, : 2 * p].sum(axis=1)
    family = tuple(IndexTriple(*u, n) for u, ok in zip(u_sets, keep) if ok)
    sets = sets[keep]
    sets.flags.writeable = False
    return family, sets


def horn_matrix_by_triples(n):
    """The triples of T(n, 1), ..., T(n, n - 1) in that order, and the
    matrix of their inequalities (-1 in the columns of I and J, +1 in
    those of K), filled from the i, j and k attributes of the IndexTriples
    that generate_t returns."""
    families = [generate_t(n, r) for r in range(1, n)]
    triples = tuple(t for family in families for t in family)
    matrix = np.zeros((len(triples), 3 * n))
    start = 0
    for r, family in enumerate(families, 1):
        columns = np.fromiter(
            (c - 1 for t in family for c in (*t.i, *(n + j for j in t.j), *(2 * n + k for k in t.k))),
            dtype=np.intp,
            count=3 * r * len(family),
        ).reshape(-1, 3 * r)
        rows = np.arange(start, start + len(family))
        for p in range(3 * r):
            matrix[rows, columns[:, p]] = -1 if p < 2 * r else 1
        start += len(family)
    return triples, matrix


def t_by_lr(n, r):
    """T(n, r) by saturation: the triples of U(n, r) whose LR coefficient
    c^{l(K)}_{l(I), l(J)} is positive, l(I) = (i_r - r, ..., i_1 - 1)."""

    def shape(indices):
        return Partition(i - a for a, i in enumerate(indices, 1))

    return tuple(
        t for t in generate_u(n, r) if lr_positive(shape(t.i), shape(t.j), shape(t.k))
    )


def exhaustive_p(alpha, beta):
    """Members of P(alpha, beta) as tuples, in descending lex order: every
    partition of 2e into nu - 1 parts with first part at most
    alpha_1 + beta_1, kept when it passes (b), (c), (d) and LR positivity."""
    e = alpha.size
    nu = alpha.length + beta.length
    members = []
    for gamma in enumerate_partitions(2 * e, nu - 1, alpha.part(1) + beta.part(1)):
        if nu - 1 >= 2 and gamma.part(1) == gamma.part(2):
            continue
        if not moment_c(gamma, alpha, beta, e, nu):
            continue
        if not moment_d(gamma, alpha, beta, e, nu):
            continue
        if not lr_positive(alpha, beta, gamma):
            continue
        members.append(gamma.parts)
    return members


def uncapped_p(alpha, beta):
    """Members of P(alpha, beta) as tuples, in descending lex order, from
    the moment-pruned search whose only Weyl cap is gamma_1 <= alpha_1 +
    beta_1, with LR positivity tested last."""
    e = alpha.size
    nu = alpha.length + beta.length
    need2, need3 = _moment_targets(alpha, beta, e, nu)
    length = nu - 1
    choices = _uncapped_parts(length, 2 * e, alpha.part(1) + beta.part(1), need2, need3, length >= 2)
    return [
        parts
        for parts in _descending_parts(length, choices)
        if lr_positive(alpha, beta, Partition(parts))
    ]


def _uncapped_parts(k, total, top, need2, need3, strict):
    """Choices for the next of k parts summing to `total`, each at most
    `top` and, when `strict`, the part after below this one, kept while
    the remaining parts can still meet the moment targets."""
    for g in range(min(top, total - k + 1), 0, -1):
        rest = total - g
        cap = g - 1 if strict else g
        if rest > (k - 1) * cap:
            return
        rest2 = need2 - (g - 2) ** 2
        low, high = _power_sum_range(k - 1, rest, cap, 2)
        if low <= rest2 <= high:
            rest3 = need3 - (g - 2) ** 3
            low, high = _power_sum_range(k - 1, rest, cap, 3)
            if low <= rest3 <= high:
                yield g, (_uncapped_parts(k - 1, rest, cap, rest2, rest3, False) if k > 1 else None)


def scan_first_violation(alpha, beta, gamma, tol=None):
    """find_horn_violation by a scan: "trace" when the traces differ by
    more than the slack, else the first triple of T(n, 1), ...,
    T(n, n - 1), in that order, whose inequality fails by more than the
    slack, else None. The slack is 0 when every entry is an int or a
    Fraction, else `tol` (None means 1e-9). Numpy integer entries are
    summed as Python ints, so sums past 2**63 do not wrap."""
    exact = all(isinstance(v, (int, Fraction)) for vec in (alpha, beta, gamma) for v in vec)
    slack = 0 if exact else (1e-9 if tol is None else tol)
    alpha, beta, gamma = (
        [int(v) if isinstance(v, np.integer) else v for v in vec] for vec in (alpha, beta, gamma)
    )
    if not trace_within(alpha, beta, gamma, slack):
        return "trace"
    return _first_rejected(alpha, beta, gamma, slack)


def trace_within(alpha, beta, gamma, slack):
    return abs(sum(gamma) - sum(alpha) - sum(beta)) <= slack


def row_within(t, alpha, beta, gamma, slack):
    """sum(gamma[K]) <= sum(alpha[I]) + sum(beta[J]) + slack, written out."""
    lhs = sum(gamma[k - 1] for k in t.k)
    rhs = sum(alpha[i - 1] for i in t.i) + sum(beta[j - 1] for j in t.j)
    return lhs <= rhs + slack


def _first_rejected(alpha, beta, gamma, slack):
    n = len(alpha)
    for r in range(1, n):
        for t in generate_t(n, r):
            if not row_within(t, alpha, beta, gamma, slack):
                return t
    return None


def sample_by_trial(n, trials, tol, seed):
    """sample_necessity one trial at a time: draw A, then B, from the
    same random stream, entry by entry, take each spectrum on its own,
    and check the trace, the triples of T(n, r) one by one and every Weyl
    window."""
    rng = random.Random(seed)
    trace_bad = ineq_bad = weyl_bad = 0
    for _ in range(trials):
        a, b = (_random_symmetric(rng, n) for _ in range(2))
        alpha, beta, gamma = ([float(v) for v in np.linalg.eigvalsh(m)[::-1]] for m in (a, b, a + b))
        trace_bad += not trace_within(alpha, beta, gamma, tol)
        ineq_bad += _first_rejected(alpha, beta, gamma, tol) is not None
        windows = [weyl_bounds(alpha, beta, k) for k in range(1, n + 1)]
        weyl_bad += any(
            g < lower - tol or g > upper + tol for g, (lower, upper) in zip(gamma, windows)
        )
    return SampleReport(n, trials, tol, trace_bad, ineq_bad, weyl_bad)


def _random_symmetric(rng, n):
    """An n x n matrix of entries in [-1, 1), one getrandbits(64) call
    each, row-major, with its upper triangle mirrored: 53 bits u of each
    call give u / 2**52 - 1."""
    m = [[(rng.getrandbits(64) >> 11) / 2**52 - 1 for _ in range(n)] for _ in range(n)]
    return np.array([[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])


def classify_by_base_spectrum(bg):
    """classify_regular_ramanujan_case with lambda_2 taken from the
    characteristic polynomial of the base graph itself, and both
    Ramanujan readings of the line graph computed from its integer
    spectrum and required to agree."""
    if not bg.is_connected():
        raise InputError("classification requires a connected graph")
    s = bg.regular_degree()
    if s is None:
        raise InputError("classification requires an s-regular bipartite graph")
    if s < 3:
        raise InputError("line graph degree is below the Ramanujan range (s >= 3)")
    lg, _ = line_graph(bg)
    roots = integer_spectrum(lg)
    if roots is None:
        raise InputError("line graph is not integral")
    k = 2 * s - 2
    eigs = expand_root_multiset(roots)
    nontrivial = list(eigs)
    nontrivial.remove(k)
    # no copy of -k to drop: with s >= 3, three edges at one base vertex
    # form a triangle of the line graph, which is therefore not bipartite
    ok_second = eigs[1] * eigs[1] <= 4 * (k - 1)
    ok_all = all(v * v <= 4 * (k - 1) for v in nontrivial)
    if ok_second != ok_all:
        raise InputError("the two Ramanujan readings disagree on this graph")
    if not ok_second:
        raise InputError("line graph is not Ramanujan")
    base_roots = integer_spectrum(bg.as_graph())
    if base_roots is None:
        raise TheoremViolation("integral line graph with a non-integral base spectrum")
    lam = expand_root_multiset(base_roots)[1]
    if lam not in (0, 1, 2):
        raise TheoremViolation(f"second largest base eigenvalue {lam} outside {{0, 1, 2}}")
    s_max = (10, 8, 6)[lam]
    if s > s_max:
        raise TheoremViolation(f"case lambda{lam} admits 3 <= s <= {s_max}, got s = {s}")
    return f"lambda{lam}"
