"""Pure-Python reference kernels.

These are the arbitrary-precision implementations of the two hot loops:
the Faddeev-LeVerrier characteristic polynomial and the backtracking
Littlewood-Richardson tableau counter. The compiled module in
``_speedups.pyx`` mirrors both signatures; either backend must produce
identical results (the compiled one raises OverflowError where 64-bit
arithmetic would not be exact, and callers fall back here).
"""

from __future__ import annotations

from typing import Sequence

BACKEND = "pure"


def char_poly(rows: Sequence[Sequence[int]]) -> list[int]:
    """Coefficients of det(xI - A), descending, for an integer matrix A.

    Uses the Faddeev-LeVerrier recurrence over Python integers; the
    division by the step index is exact at every step. 0/1 matrices
    (adjacency matrices, the common case) are multiplied through
    neighbour lists, which skips the zero terms.
    """
    n = len(rows)
    if n == 0:
        return [1]
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")

    neighbours = None
    if all(v in (0, 1) for r in rows for v in r):
        neighbours = [[j for j, v in enumerate(r) if v] for r in rows]

    work = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    coeffs = [1]
    for k in range(1, n + 1):
        if neighbours is not None:
            prod = [
                [sum(col) for col in zip(*(work[t] for t in nb))] if nb else [0] * n
                for nb in neighbours
            ]
        else:
            prod = [
                [
                    sum(rows[i][t] * work[t][j] for t in range(n) if rows[i][t])
                    for j in range(n)
                ]
                for i in range(n)
            ]
        trace = sum(prod[i][i] for i in range(n))
        c, rem = divmod(-trace, k)
        if rem:
            raise ArithmeticError("Faddeev-LeVerrier division was not exact")
        coeffs.append(c)
        for i in range(n):
            prod[i][i] += c
        work = prod
    return coeffs


def lr_count(
    gamma: Sequence[int],
    inner: Sequence[int],
    content: Sequence[int],
    limit: int = 0,
) -> int:
    """Count Littlewood-Richardson skew tableaux of shape gamma/inner
    with the given content.

    Cells are filled in reverse reading order (rows top to bottom, right
    to left within a row), which lets semistandardness and the lattice
    word condition be enforced incrementally. A positive `limit` stops
    the search as soon as that many tableaux have been found.

    Preconditions (validated by the caller, ``hornlr.lr``): gamma and
    inner are weakly decreasing, inner is padded to the length of gamma
    and fits inside it, and the cell count equals sum(content).
    """
    nvals = len(content)
    cells = []
    for r, g in enumerate(gamma):
        for c in range(g - 1, inner[r] - 1, -1):
            cells.append((r, c))
    ncells = len(cells)
    if ncells == 0:
        return 1
    if nvals == 0:
        return 0

    index = {cell: t for t, cell in enumerate(cells)}
    above = [index.get((r - 1, c), -1) for r, c in cells]
    right = [index.get((r, c + 1), -1) for r, c in cells]

    # values[t] is the value placed in cell t, 0 while the cell is empty;
    # depth t walks forward on a placement and back when a cell runs out.
    counts = [0] * (nvals + 1)
    values = [0] * ncells
    found = 0
    t = 0
    while t >= 0:
        v = values[t]
        if v:
            counts[v] -= 1
        else:
            a_idx = above[t]
            v = values[a_idx] if a_idx >= 0 else 0
        r_idx = right[t]
        hi = values[r_idx] if r_idx >= 0 else nvals
        v += 1
        while v <= hi and (
            counts[v] >= content[v - 1] or (v >= 2 and counts[v] >= counts[v - 1])
        ):
            v += 1
        if v > hi:
            values[t] = 0
            t -= 1
            continue
        counts[v] += 1
        values[t] = v
        if t + 1 < ncells:
            t += 1
        else:
            found += 1
            if limit and found >= limit:
                break
    return found
