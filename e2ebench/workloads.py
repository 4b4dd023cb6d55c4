"""The four workloads: inputs made from a seed, operations, checks.

Each workload is a `Workload` with three parts:

* ``build(seed)`` makes the inputs and any tables the operations need;
  it is part of the measured set-up.
* ``ops(inputs)`` yields ``(kind, call)`` pairs; one call is one timed
  operation. Calls look hornlr functions up on the package at call
  time, so the tracer's wrappers are seen.
* ``check(inputs, outcomes)`` returns a list of problems found, given
  ``(kind, ok, value)`` per operation (``value`` is the exception when
  ``ok`` is false). It runs after the timed loop and compares every
  answer with `oracles`, never with the routine under test.

Sizes are stratified: the seed picks the graphs and partitions, while
the number of operations and their sizes (line-graph orders, orders and
edge counts of base graphs, partition sizes) follow fixed ladders, so
that every seed gives the same amount of work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import hornlr

import oracles

Outcome = tuple[str, bool, Any]


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], Any]
    ops: Callable[[Any], Iterator[tuple[str, Callable[[], Any]]]]
    check: Callable[[Any, list[Outcome]], list[str]]


# ---------------------------------------------------------------------------
# seeded graphs


def random_connected_bipartite(rng: random.Random, m: int, n: int, e: int):
    """A random spanning tree of K_{m,n} plus random further edges."""
    xs, ys = [0], [0]
    edges = {(0, 0)}
    rest = [("x", i) for i in range(1, m)] + [("y", j) for j in range(1, n)]
    rng.shuffle(rest)
    for side, v in rest:
        if side == "x":
            edges.add((v, rng.choice(ys)))
            xs.append(v)
        else:
            edges.add((rng.choice(xs), v))
            ys.append(v)
    others = [(x, y) for x in range(m) for y in range(n) if (x, y) not in edges]
    rng.shuffle(others)
    edges.update(others[: e - len(edges)])
    return hornlr.BipartiteGraph(m, n, edges)


def spread_degrees(total: int, count: int, cap: int) -> list[int]:
    """`total` split over `count` vertices, weights falling linearly from
    2 to 1, each degree in 1..cap; descending."""
    weights = [2 - i / max(1, count - 1) for i in range(count)]
    degs = [min(cap, max(1, int(total * w / sum(weights)))) for w in weights]
    i = 0
    while sum(degs) != total:
        step = 1 if sum(degs) < total else -1
        j = i % count if step > 0 else count - 1 - i % count
        if 1 <= degs[j] + step <= cap:
            degs[j] += step
        i += 1
    return sorted(degs, reverse=True)


def random_bipartite_with_degrees(rng: random.Random, dx: list[int], dy: list[int]):
    """A random connected bipartite graph with the given degrees: a greedy
    realisation, then random degree-preserving edge swaps."""
    m, n = len(dx), len(dy)
    left = list(dy)
    edges = set()
    for x in range(m):
        ys = sorted(range(n), key=lambda y: -left[y])[: dx[x]]
        if len(ys) < dx[x] or left[ys[-1]] == 0:
            raise ValueError(f"degree sequences {dx}, {dy} have no bipartite realisation")
        for y in ys:
            edges.add((x, y))
            left[y] -= 1
    listed = sorted(edges)
    for _block in range(100):
        for _ in range(10 * len(listed)):
            i, j = rng.sample(range(len(listed)), 2)
            (x1, y1), (x2, y2) = listed[i], listed[j]
            if (x1, y2) not in edges and (x2, y1) not in edges:
                edges -= {listed[i], listed[j]}
                listed[i], listed[j] = (x1, y2), (x2, y1)
                edges |= {listed[i], listed[j]}
        if oracles.is_connected(m, n, listed):
            return hornlr.BipartiteGraph(m, n, edges)
    raise ValueError(f"no connected realisation of {dx}, {dy} found")


def random_regular_bipartite(rng: random.Random, k: int, s: int):
    """A connected s-regular bipartite graph on k + k vertices: x is
    joined to x + t (mod k) for t in a random s-set of shifts, with both
    classes randomly relabelled."""
    while True:
        shifts = rng.sample(range(k), s)
        label = list(range(k))
        rng.shuffle(label)
        edges = sorted((x, label[(x + t) % k]) for x in range(k) for t in shifts)
        if oracles.is_connected(k, k, edges):
            return hornlr.BipartiteGraph(k, k, edges)


# ---------------------------------------------------------------------------
# corpus8: the paper's corpus check on every connected bipartite graph of
# order at most 8


CORPUS_ORDERS = {2: 1, 3: 1, 4: 3, 5: 5, 6: 17, 7: 44, 8: 182}  # OEIS A005142


def corpus_build(seed: int) -> dict:
    return {"tail": None}  # the corpus is fixed; the seed changes nothing


def _next_and_analyze(stream) -> tuple:
    bg = next(stream)
    return bg, hornlr.analyze_line_graph(bg)


def corpus_ops(inputs: dict):
    stream = hornlr.connected_bipartite_graphs(8)
    for _ in range(sum(CORPUS_ORDERS.values())):
        yield "graph", lambda: _next_and_analyze(stream)
    inputs["tail"] = list(stream)  # the rest of the search, timed in wall_s


def check_report(bg, report) -> list[str]:
    m, n, edges = bg.x_size, bg.y_size, list(bg.sorted_edges)
    e, nu = len(edges), m + n
    where = f"graph {edges}"
    problems = []
    if report.violations:
        problems.append(f"{where}: violations {report.violations}")
    eigs = oracles.line_eigenvalues(m, n, edges)
    integral = all(abs(v - round(v)) < 1e-6 for v in eigs)
    if report.is_integral != integral:
        problems.append(f"{where}: is_integral {report.is_integral}, eigenvalues say {integral}")
    if report.minus_two_multiplicity != e - nu + 1:
        problems.append(f"{where}: -2 multiplicity {report.minus_two_multiplicity} != e-nu+1")
    if report.two_omega != 2 * oracles.max_degree(m, n, edges):
        problems.append(f"{where}: two_omega {report.two_omega} != 2 max degree")
    return problems


def corpus_check(inputs: dict, outcomes: list[Outcome]) -> list[str]:
    problems = []
    orders: dict[int, int] = {}
    for kind, ok, value in outcomes:
        if not ok:
            problems.append(f"corpus op failed: {value!r}")
            continue
        bg, report = value
        orders[bg.order] = orders.get(bg.order, 0) + 1
        problems += check_report(bg, report)
    if inputs["tail"]:
        problems.append(f"corpus has {len(inputs['tail'])} graphs beyond the expected count")
    if orders != CORPUS_ORDERS:
        problems.append(f"graphs per order {orders} != {CORPUS_ORDERS}")
    return problems


# ---------------------------------------------------------------------------
# line_spectra: exact spectral verdicts of line graphs


CYCLE_UNIONS = [[4, 4, 4], [6, 6], [4, 4, 6], [4, 4, 4, 4], [4, 6, 6]]
RANDOM_LINE_GRAPHS = 85
LINE_ORDERS = (20, 90)
FIXED_COST_TOP = 12  # the largest random slots are regular or complete


def _line_slots(count: int) -> list[tuple]:
    """(kind, m, n, e) per random slot. Line-graph orders follow a ladder
    skewed towards small graphs, since the exact polynomial costs about
    order^4.5. Every slot's cost is fixed by its shape: irregular graphs
    get fixed degree sequences, and the top slots, which set op_p90_ms,
    are regular or complete bipartite."""
    lo, hi = LINE_ORDERS
    slots = []
    for i in range(count):
        e = round(lo + (hi - lo) * (i / (count - 1)) ** 6)
        if i >= count - FIXED_COST_TOP:
            kind = ("regular", "complete")[i % 2]
        else:
            kind = ("irregular", "irregular", "regular", "complete")[i % 4]
        if kind == "regular":
            _, k, s = min((abs(k * s - e), k, s) for k in range(3, 12) for s in range(2, k))
            slots.append((kind, k, k, k * s))
        elif kind == "complete":
            _, m, n = min((abs(m * n - e), m, n) for m in range(2, 12) for n in range(m, 12))
            slots.append((kind, m, n, m * n))
        else:
            m = n = 4
            while m * n < 1.6 * e:
                n, m = m + 1, n
            slots.append((kind, m, n, e))
    return slots


def _random_line_base(rng: random.Random, kind: str, m: int, n: int, e: int):
    if kind == "regular":
        return random_regular_bipartite(rng, m, e // m)
    if kind == "complete":
        return hornlr.complete_bipartite(m, n)
    return random_bipartite_with_degrees(rng, spread_degrees(e, m, n), spread_degrees(e, n, m))


def line_build(seed: int) -> list[tuple[str, Any]]:
    rng = random.Random(seed)
    graphs = [(f"K{s},{s}", hornlr.complete_bipartite(s, s)) for s in range(3, 12)]
    graphs.append(("K11,10", hornlr.complete_bipartite(11, 10)))
    for lengths in CYCLE_UNIONS:
        union = hornlr.disjoint_union([hornlr.even_cycle(t) for t in lengths])
        graphs.append((f"co-C{lengths}", hornlr.bipartite_complement(union)))
    for i, slot in enumerate(_line_slots(RANDOM_LINE_GRAPHS)):
        graphs.append((f"random{i}", _random_line_base(rng, *slot)))
    return graphs


def _line_op(bg) -> tuple:
    lg, _ = hornlr.line_graph(bg)
    if lg.regular_degree() is not None:
        spectral = hornlr.ramanujan_verdict(lg)
    else:
        spectral = hornlr.exact_spectrum(lg)
    return lg.order, spectral, hornlr.diameter(lg), hornlr.clique_number(lg)


def line_ops(graphs):
    for _label, bg in graphs:
        yield "line", lambda bg=bg: _line_op(bg)


def _expand(roots) -> list[int]:
    coeffs = [1]
    for value, mult in roots:
        for _ in range(mult):
            coeffs = [a - value * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def check_line(label: str, bg, result) -> list[str]:
    order, spectral, diam, omega = result
    m, n, edges = bg.x_size, bg.y_size, list(bg.sorted_edges)
    e, nu = len(edges), m + n
    where = f"{label} ({m}x{n}, e={e})"
    problems = []
    eigs = oracles.line_eigenvalues(m, n, edges)
    integral = all(abs(v - round(v)) < 1e-6 for v in eigs)
    if order != e:
        problems.append(f"{where}: line graph order {order}")
    if diam != oracles.line_diameter(m, n, edges):
        problems.append(f"{where}: diameter {diam}")
    if omega != oracles.max_degree(m, n, edges):
        problems.append(f"{where}: clique number {omega} != max degree")
    if isinstance(spectral, hornlr.RamanujanVerdict):
        k = spectral.degree
        second, least = eigs[1], eigs[-1]
        if spectral.exact != integral:
            problems.append(f"{where}: verdict exact={spectral.exact}, integral={integral}")
        if abs(spectral.second_largest - second) > 1e-6 or abs(spectral.least - least) > 1e-6:
            problems.append(f"{where}: eigenvalues {spectral.second_largest}, {spectral.least}")
        if integral:
            expected = round(second) ** 2 <= 4 * (k - 1)
        else:
            expected = abs(second) <= 2 * math.sqrt(k - 1)
        if abs(abs(second) - 2 * math.sqrt(k - 1)) > 1e-6 and spectral.second_largest_ok != expected:
            problems.append(f"{where}: Ramanujan verdict {spectral.second_largest_ok}")
    else:
        if not oracles.line_char_poly_matches(m, n, edges, spectral.char_poly):
            problems.append(f"{where}: characteristic polynomial differs from the signless-Laplacian one")
        roots = spectral.integer_roots
        if (roots is not None) != integral:
            problems.append(f"{where}: integer roots {roots}, integral={integral}")
        elif roots is not None and _expand(roots) != list(spectral.char_poly):
            problems.append(f"{where}: integer roots do not multiply out to the polynomial")
    if label.startswith("K") and "," in label:
        s, t = (int(v) for v in label[1:].split(","))
        closed = sorted([s + t - 2] + [s - 2] * (t - 1) + [t - 2] * (s - 1) + [-2] * ((s - 1) * (t - 1)), reverse=True)
        if any(abs(a - b) > 1e-6 for a, b in zip(closed, eigs)):
            problems.append(f"{where}: spectrum differs from the closed form")
        if s == t and isinstance(spectral, hornlr.RamanujanVerdict):
            if spectral.is_ramanujan != ((s - 2) ** 2 <= 4 * (2 * s - 3)):
                problems.append(f"{where}: Ramanujan verdict {spectral.is_ramanujan}")
    return problems


def line_check(graphs, outcomes: list[Outcome]) -> list[str]:
    problems = []
    for (label, bg), (_kind, ok, value) in zip(graphs, outcomes):
        if not ok:
            problems.append(f"{label}: op failed: {value!r}")
        else:
            problems += check_line(label, bg, value)
    return problems


# ---------------------------------------------------------------------------
# candidate_sets: P(alpha, beta) on distinct degree-partition pairs


RANDOM_PAIRS = 93
EXHAUSTIVE_NU = 9  # pairs with nu <= 9 are also enumerated separately
HORN_MAX_N = 8  # generate_t tables beyond n = 8 take too long to build


def pairs_build(seed: int) -> list[tuple]:
    """(alpha, beta, nu) for K_{s,s}, s = 1..7, then seeded random graphs."""
    rng = random.Random(seed)
    pairs = []
    seen = set()
    for s in range(1, 8):
        part = hornlr.Partition([s] * s)
        pairs.append((part, part, 2 * s))
        seen.add((part, part))
    for i in range(RANDOM_PAIRS):
        nu = 9 + i % 7
        m = 2 + (i // 7) % (nu // 2 - 1)
        n = nu - m
        top = min(m * n, round(1.9 * nu))
        e = nu - 1 + round(((i * 0.6180339887) % 1.0) * (top - nu + 1))
        for attempt in range(2000):
            step = attempt // 200  # then try e - 1, e + 1, e - 2, ...
            edges = min(top, max(nu - 1, e + (step + 1) // 2 * (1 if step % 2 else -1)))
            alpha, beta = hornlr.degree_partitions(random_connected_bipartite(rng, m, n, edges))
            # the search runs over partitions with first part <= alpha_1 + beta_1;
            # fixing that cap per slot fixes the slot's cost
            cap = -(-edges // m) + -(-edges // n) + 1
            if alpha.part(1) + beta.part(1) == cap and (alpha, beta) not in seen:
                break
        else:
            raise RuntimeError(f"no new degree-partition pair for slot {i}")
        seen.add((alpha, beta))
        pairs.append((alpha, beta, nu))
    return pairs


def pairs_ops(pairs):
    for alpha, beta, _nu in pairs:
        yield "pair", lambda a=alpha, b=beta: hornlr.enumerate_p(a, b)


def _moments_hold(gamma, alpha, beta, e: int, nu: int) -> bool:
    c2 = 2 * (sum(math.comb(a, 2) for a in alpha) + sum(math.comb(b, 2) for b in beta)) - 4 * (e - nu + 1)
    c3 = 6 * (sum(math.comb(a, 3) for a in alpha) + sum(math.comb(b, 3) for b in beta)) + 8 * (e - nu + 1)
    padded = list(gamma) + [0] * (nu - 1 - len(gamma))
    return sum((g - 2) ** 2 for g in padded) == c2 and sum((g - 2) ** 3 for g in padded) == c3


def lr_positive_checked(alpha, beta, gamma) -> bool:
    """c^gamma_{alpha beta} > 0 by Horn's inequalities (saturation) where
    the triple, or its conjugate, fits n <= 8; by LR matrices beyond."""
    alpha, beta, gamma = tuple(alpha), tuple(beta), tuple(gamma)
    for a, b, g in ((alpha, beta, gamma), tuple(map(oracles.conjugate, (alpha, beta, gamma)))):
        n = max(len(a), len(b), len(g))
        if n <= HORN_MAX_N:
            pad = lambda p: list(p) + [0] * (n - len(p))
            return hornlr.horn_compatible(pad(a), pad(b), pad(g))
    return oracles.lr_positive_by_matrix(alpha, beta, gamma)


def check_candidates(alpha, beta, nu: int, cset) -> list[str]:
    e = alpha.size
    where = f"P({alpha}, {beta})"
    problems = []
    for gamma in cset.members:
        g = gamma.parts
        if sum(g) != 2 * e or len(g) != nu - 1:
            problems.append(f"{where}: {gamma} is not a partition of 2e into nu-1 parts")
        elif nu - 1 >= 2 and g[0] <= g[1]:
            problems.append(f"{where}: {gamma} fails (b)")
        elif not _moments_hold(g, alpha.parts, beta.parts, e, nu):
            problems.append(f"{where}: {gamma} fails (c) or (d)")
        elif not lr_positive_checked(alpha.parts, beta.parts, g):
            problems.append(f"{where}: {gamma} fails (a)")
    if nu <= EXHAUSTIVE_NU:
        expected = [
            g
            for g in oracles.partitions(2 * e, nu - 1)
            if (nu - 1 < 2 or g[0] > g[1])
            and _moments_hold(g, alpha.parts, beta.parts, e, nu)
            and oracles.lr_positive_by_matrix(alpha.parts, beta.parts, g)
        ]
        missing = set(expected) - {g.parts for g in cset.members}
        if missing:
            problems.append(f"{where}: members missing: {sorted(missing)}")
    return problems


def pairs_check(pairs, outcomes: list[Outcome]) -> list[str]:
    problems = []
    for (alpha, beta, nu), (_kind, ok, value) in zip(pairs, outcomes):
        if not ok:
            problems.append(f"P({alpha}, {beta}): op failed: {value!r}")
        else:
            problems += check_candidates(alpha, beta, nu, value)
    return problems


# ---------------------------------------------------------------------------
# horn_lr: Horn's inequalities against LR positivity, LR sweeps, sampling


# (compatible, incompatible) triples per n. A compatible triple costs a
# full scan of T(n), the same for every seed. The 20 incompatible triples
# at n = 6 stop earlier and at most 46 operations are cheaper than a full
# scan at n = 6, so the 34 of those cover ranks 50 and 51 of 100: the
# median operation is one of them.
TRIPLES = {6: (34, 20), 7: (6, 6), 8: (10, 4)}
# Fixed, so the sweeps cost the same for every seed: a sweep's cost
# depends strongly on the shapes, not only on their sizes.
SWEEPS = [
    ((3, 3, 2), (4, 2, 2)),
    ((4, 3, 1), (3, 3, 2)),
    ((4, 2, 2, 1), (3, 3, 2, 1)),
    ((5, 3, 1), (4, 3, 2)),
    ((4, 3, 2), (4, 3, 2)),
    ((5, 3, 2), (4, 3, 2, 1)),
    ((4, 3, 2, 1), (4, 3, 2, 1)),
    ((5, 4, 1), (3, 3, 2, 2)),
    ((4, 4, 2), (4, 3, 2, 1)),
    ((5, 3, 2), (5, 3, 2)),
]
SAMPLE_BATCHES, SAMPLE_TRIALS, SAMPLE_N = 6, 60, 5
PIERI_KS = (1000, 1100)  # the recursive pure LR kernel fails from k = 1000


def _random_partition(rng: random.Random, n: int, length: int, max_part: int) -> list[int]:
    parts = sorted((rng.randint(1, max_part) for _ in range(length)), reverse=True)
    return parts + [0] * (n - length)


def _add(*vectors: list[int]) -> list[int]:
    return [sum(col) for col in zip(*vectors)]


def compatible_triple(rng: random.Random, n: int) -> tuple:
    """A triple with c^gamma_{alpha beta} > 0 by construction: the sum of
    three triples (a, b, a + b) or (a, b, a u b), each of which has LR
    coefficient 1; positive coefficients are closed under addition."""
    alpha = beta = gamma = [0] * n
    for k in range(3):
        if k == 1:
            la = rng.randint(1, n - 1)
            a = _random_partition(rng, n, la, 4)
            b = _random_partition(rng, n, rng.randint(1, n - la), 4)
            g = sorted(a + b, reverse=True)[:n]
        else:
            a = _random_partition(rng, n, rng.randint(1, n), 4)
            b = _random_partition(rng, n, rng.randint(1, n), 4)
            g = _add(a, b)
        alpha, beta, gamma = _add(alpha, a), _add(beta, b), _add(gamma, g)
    return alpha, beta, gamma


def incompatible_triple(rng: random.Random, n: int, row: int) -> tuple:
    """A triple with coefficient 0 by construction: gamma is alpha + beta
    with one box moved up to (about) `row`, so it strictly dominates
    alpha + beta, the dominance-largest shape in the product."""
    alpha, beta, _ = compatible_triple(rng, n)
    gamma = _add(alpha, beta)
    removable = [j for j in range(n) if gamma[j] > 0 and (j == n - 1 or gamma[j] > gamma[j + 1])]
    addable = [i for i in range(n) if (i == 0 or gamma[i - 1] > gamma[i]) and any(j > i for j in removable)]
    i = min(addable, key=lambda a: abs(a - row))
    j = max(removable)
    gamma[i] += 1
    gamma[j] -= 1
    return alpha, beta, gamma


def horn_build(seed: int) -> dict:
    for n in range(2, max(TRIPLES) + 1):
        for r in range(1, n):
            hornlr.generate_t(n, r)
    rng = random.Random(seed)
    triples = []
    for n, (compatible, incompatible) in TRIPLES.items():
        triples += [(True, compatible_triple(rng, n)) for _ in range(compatible)]
        triples += [(False, incompatible_triple(rng, n, k % (n - 1))) for k in range(incompatible)]
    samples = [seed * 1000 + b for b in range(SAMPLE_BATCHES)]
    return {"triples": triples, "sweeps": SWEEPS, "samples": samples}


def _triple_op(alpha, beta, gamma) -> tuple[bool, bool]:
    P = hornlr.Partition
    return hornlr.horn_compatible(alpha, beta, gamma), hornlr.lr_positive(P(alpha), P(beta), P(gamma))


def _sweep_op(alpha, beta) -> dict:
    """Every c^gamma_{alpha beta}: gamma runs over all partitions of the
    right size with at most l(alpha) + l(beta) parts and first part at
    most alpha_1 + beta_1 (no other gamma can have a positive one)."""
    a, b = hornlr.Partition(alpha), hornlr.Partition(beta)
    out = {}
    for length in range(1, a.length + b.length + 1):
        for gamma in hornlr.enumerate_partitions(a.size + b.size, length, a.part(1) + b.part(1)):
            c = hornlr.lr_coefficient(a, b, gamma)
            if c:
                out[gamma.parts] = c
    return out


def _pieri_op(k: int, gamma: tuple[int, ...]) -> int:
    P = hornlr.Partition
    return hornlr.lr_coefficient(P([k]), P([k]), P(gamma))


def horn_ops(inputs: dict):
    for _expected, (alpha, beta, gamma) in inputs["triples"]:
        yield "triple", lambda a=alpha, b=beta, g=gamma: _triple_op(a, b, g)
    for alpha, beta in inputs["sweeps"]:
        yield "sweep", lambda a=alpha, b=beta: _sweep_op(a, b)
    for seed in inputs["samples"]:
        yield "sample", lambda s=seed: hornlr.sample_necessity(SAMPLE_N, SAMPLE_TRIALS, seed=s)
    for k in PIERI_KS:
        for gamma in ((2 * k,), (k, k)):
            yield "pieri", lambda k=k, g=gamma: _pieri_op(k, g)


def check_triple(compatible: bool, verdicts: tuple[bool, bool]) -> list[str]:
    horn, lr = verdicts
    if horn != lr:
        return [f"horn_compatible {horn} but lr_positive {lr}"]
    if horn != compatible:
        return [f"verdict {horn} on a triple built to be {'compatible' if compatible else 'incompatible'}"]
    return []


def check_sweep(alpha, beta, coefficients: dict) -> list[str]:
    total = sum(c * oracles.hook_dimension(g) for g, c in coefficients.items())
    expected = math.comb(sum(alpha) + sum(beta), sum(alpha)) * oracles.hook_dimension(alpha) * oracles.hook_dimension(beta)
    if total != expected:
        return [f"sweep {alpha} x {beta}: sum c f^gamma = {total}, hook lengths give {expected}"]
    return []


def check_sample(report) -> list[str]:
    if report.total_violations or report.trials != SAMPLE_TRIALS:
        return [f"sample_necessity: {report}"]
    return []


def horn_check(inputs: dict, outcomes: list[Outcome]) -> list[str]:
    problems = []
    items = (
        [("triple", t) for t in inputs["triples"]]
        + [("sweep", s) for s in inputs["sweeps"]]
        + [("sample", s) for s in inputs["samples"]]
    )
    for (kind, item), (_k, ok, value) in zip(items, outcomes):
        if not ok:
            problems.append(f"{kind} {item}: op failed: {value!r}")
        elif kind == "triple":
            problems += check_triple(item[0], value)
        elif kind == "sweep":
            problems += check_sweep(*item, value)
        else:
            problems += check_sample(value)
    for _kind, ok, value in outcomes[len(items):]:
        # Pieri: c = 1 by the closed form; a RecursionError is the known
        # fault of the recursive pure kernel and counts as a failed op.
        if ok and value != 1:
            problems.append(f"Pieri coefficient {value} != 1")
        elif not ok and not isinstance(value, RecursionError):
            problems.append(f"Pieri op failed with {value!r}")
    return problems


def expected_failure(kind: str, error: BaseException) -> bool:
    return kind == "pieri" and isinstance(error, RecursionError)


WORKLOADS = {
    "corpus8": Workload(corpus_build, corpus_ops, corpus_check),
    "line_spectra": Workload(line_build, line_ops, line_check),
    "candidate_sets": Workload(pairs_build, pairs_ops, pairs_check),
    "horn_lr": Workload(horn_build, horn_ops, horn_check),
}
