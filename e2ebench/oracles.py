"""Independent answers the benchmark checks hornlr's outputs against.

Nothing here calls the routine it checks. Graph facts come from the base
graph's edge list (signless Laplacian, breadth-first search on the base
graph) rather than from the line graph hornlr builds; determinants use
fraction-free Bareiss elimination rather than Faddeev-LeVerrier; LR
positivity is searched over LR matrices (row-by-row content counts)
rather than cell by cell; dimensions of irreducibles come from the hook
length formula.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

import numpy as np

Edges = Sequence[tuple[int, int]]


# ---------------------------------------------------------------------------
# bipartite base graphs, given as (m, n, edges) with edges (x, y)


def signless_laplacian(m: int, n: int, edges: Edges) -> list[list[int]]:
    """Q = D + A on the m + n base vertices (X first, then Y)."""
    q = [[0] * (m + n) for _ in range(m + n)]
    for x, y in edges:
        u, v = x, m + y
        q[u][u] += 1
        q[v][v] += 1
        q[u][v] += 1
        q[v][u] += 1
    return q


def line_eigenvalues(m: int, n: int, edges: Edges) -> list[float]:
    """Line-graph spectrum, descending, from the nu x nu signless
    Laplacian: every eigenvalue q of Q gives q - 2, and -2 fills the
    remaining e - nu places (a connected bipartite graph has exactly one
    zero eigenvalue of Q, which a tree's line graph does not get)."""
    q = np.linalg.eigvalsh(np.array(signless_laplacian(m, n, edges), dtype=float))
    vals = sorted((float(v) - 2.0 for v in q), reverse=True)
    e, nu = len(edges), m + n
    if e >= nu:
        vals += [-2.0] * (e - nu)
    else:
        vals = vals[: e]
    return vals


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    a = [list(r) for r in rows]
    size = len(a)
    sign, prev = 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return sign * a[-1][-1] if size else 1


def _divide_by_x_plus_2(coeffs: list[int]) -> Optional[list[int]]:
    out = [coeffs[0]]
    for c in coeffs[1:]:
        out.append(c - 2 * out[-1])
    return out[:-1] if out[-1] == 0 else None


def _evaluate(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def line_char_poly_matches(m: int, n: int, edges: Edges, coeffs: Sequence[int]) -> bool:
    """Whether `coeffs` (descending) equal (x+2)^(e-nu) det((x+2)I - Q).

    The quotient R of the candidate by (x+2)^(e-nu) (or the candidate
    times (x+2) for a tree) is monic of degree nu, so it is pinned down
    by nu values: R(t - 2) = det(tI - Q) for t = 0..nu-1.
    """
    e, nu = len(edges), m + n
    if len(coeffs) != e + 1 or coeffs[0] != 1:
        return False
    quotient: Optional[list[int]] = list(coeffs)
    if e < nu:  # a tree: multiply by (x + 2) instead
        quotient = [a + 2 * b for a, b in zip(quotient + [0], [0] + quotient)]
    for _ in range(e - nu):
        quotient = _divide_by_x_plus_2(quotient)
        if quotient is None:
            return False
    q = signless_laplacian(m, n, edges)
    for t in range(nu):
        shifted = [[(t if i == j else 0) - q[i][j] for j in range(nu)] for i in range(nu)]
        if _evaluate(quotient, t - 2) != bareiss_det(shifted):
            return False
    return True


def line_diameter(m: int, n: int, edges: Edges) -> int:
    """Diameter of the line graph from base-graph distances: two distinct
    edges lie at distance 1 + (least distance between their endpoints)."""
    adj: list[list[int]] = [[] for _ in range(m + n)]
    for x, y in edges:
        adj[x].append(m + y)
        adj[m + y].append(x)
    dist = []
    for src in range(m + n):
        d = [-1] * (m + n)
        d[src] = 0
        queue = [src]
        for v in queue:
            for w in adj[v]:
                if d[w] < 0:
                    d[w] = d[v] + 1
                    queue.append(w)
        dist.append(d)
    best = 0
    ends = [(x, m + y) for x, y in edges]
    for i, (a, b) in enumerate(ends):
        for c, d in ends[i + 1:]:
            best = max(best, 1 + min(dist[a][c], dist[a][d], dist[b][c], dist[b][d]))
    return best


def max_degree(m: int, n: int, edges: Edges) -> int:
    deg = [0] * (m + n)
    for x, y in edges:
        deg[x] += 1
        deg[m + y] += 1
    return max(deg)


def is_connected(m: int, n: int, edges: Edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(m + n)]
    for x, y in edges:
        adj[x].append(m + y)
        adj[m + y].append(x)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == m + n


# ---------------------------------------------------------------------------
# partitions and Littlewood-Richardson coefficients


def partitions(total: int, parts: int, max_part: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Partitions of `total` into exactly `parts` positive parts, descending."""
    if max_part is None:
        max_part = total
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(max_part, total - parts + 1), 0, -1):
        if first * parts < total:
            break
        for rest in partitions(total - first, parts - 1, first):
            yield (first,) + rest


def conjugate(parts: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(1 for p in parts if p > i) for i in range(parts[0] if parts else 0))


def hook_dimension(parts: Sequence[int]) -> int:
    """f^lambda, the number of standard Young tableaux, by hook lengths."""
    conj = conjugate(parts)
    hooks = 1
    for i, row in enumerate(parts):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return math.factorial(sum(parts)) // hooks


def lr_positive_by_matrix(alpha: Sequence[int], beta: Sequence[int], gamma: Sequence[int]) -> bool:
    """Whether c^gamma_{alpha beta} > 0, by depth-first search over LR
    matrices: a[i][v] counts the entries v in row i of gamma/alpha.

    Rows are weakly increasing, so a row is fixed by its counts. The
    column-strict, content and lattice-word conditions become linear
    bounds on the counts: entries v in row i end at column
    alpha_i + a_i1 + ... + a_iv, which must not pass the last column of
    row i-1 holding alpha or a value below v; and the running count of
    v + 1 through row i may not exceed that of v through row i - 1.
    """
    rows = len(gamma)
    if sum(gamma) != sum(alpha) + sum(beta) or len(alpha) > rows:
        return False
    inner = list(alpha) + [0] * (rows - len(alpha))
    if any(a > g for a, g in zip(inner, gamma)):
        return False
    values = len(beta)
    used = [0] * (values + 2)

    def fill_row(i: int, prev: list[int]) -> bool:
        if i == rows:
            return True
        counts = [0] * (values + 1)
        before = used[:]
        cap_above = inner[i - 1] if i else None

        def choose(v: int, width: int, cum: int, prev_cum: int) -> bool:
            if width == 0:
                for u in range(1, values + 1):
                    used[u] = before[u] + counts[u]
                ok = fill_row(i + 1, counts[:])
                used[:] = before
                return ok
            if v > values:
                return False
            hi = min(width, beta[v - 1] - before[v])
            if v >= 2:
                hi = min(hi, before[v - 1] - before[v])
            if cap_above is not None:
                hi = min(hi, cap_above + prev_cum - inner[i] - cum)
            for c in range(max(hi, 0), -1, -1):
                counts[v] = c
                if choose(v + 1, width - c, cum + c, prev_cum + prev[v]):
                    return True
            counts[v] = 0
            return False

        return choose(1, gamma[i] - inner[i], 0, 0)

    return fill_row(0, [0] * (values + 1))
