"""Exact Littlewood-Richardson coefficients.

The coefficient c(alpha, beta; gamma) counts semistandard skew tableaux
of shape gamma/alpha and content beta whose reverse reading word (right
to left within rows, rows top to bottom) is a lattice word: every prefix
contains at least as many i's as (i+1)'s. Counting is by depth-first
backtracking over the cells in reverse reading order, pruning on the
first violated constraint; positivity queries stop at the first
completed tableau. A cell's neighbours to the right and above, the
bounds on its value, are found by arithmetic on the offset of each row's
first cell, with no table of cells: the one to the right is the cell
before it, unless it comes first in its row, and the one above lies in
the row before at the same column, unless that column is in alpha.
"""

from __future__ import annotations

from typing import Sequence

from .errors import require_type
from .partitions import Partition


def lr_coefficient(alpha: Partition, beta: Partition, gamma: Partition) -> int:
    """The Littlewood-Richardson coefficient of gamma in alpha * beta.

    Total: returns 0 whenever no tableau can exist (size mismatch,
    gamma does not contain alpha, or gamma has more rows than the two
    factors can reach).
    """
    return _count(alpha, beta, gamma, limit=0)


def lr_positive(alpha: Partition, beta: Partition, gamma: Partition) -> bool:
    """Whether the coefficient is non-zero; stops at the first witness."""
    return _count(alpha, beta, gamma, limit=1) > 0


def _count(alpha: Partition, beta: Partition, gamma: Partition, limit: int) -> int:
    if not (isinstance(alpha, Partition) and isinstance(beta, Partition) and isinstance(gamma, Partition)):
        require_type(Partition, alpha=alpha, beta=beta, gamma=gamma)
    if gamma.size != alpha.size + beta.size:
        return 0
    if not gamma.contains(alpha):
        return 0
    if gamma.length > alpha.length + beta.length:
        return 0
    rows = gamma.length
    return _lr_count(gamma.parts, alpha.padded(rows), beta.parts, limit)


def _lr_count(
    gamma: Sequence[int],
    inner: Sequence[int],
    content: Sequence[int],
    limit: int,
) -> int:
    """Count Littlewood-Richardson skew tableaux of shape gamma/inner
    with the given content.

    Cells are filled in reverse reading order (rows top to bottom, right
    to left within a row), which lets semistandardness and the lattice
    word condition be enforced incrementally. A positive `limit` stops
    the search as soon as that many tableaux have been found.

    Preconditions (ensured by `_count`): gamma and inner are weakly
    decreasing, inner is padded to the length of gamma and fits inside
    it, and the cell count equals sum(content).
    """
    nvals = len(content)
    ncells = sum(gamma) - sum(inner)
    if ncells == 0:
        return 1

    # Cell t is found by arithmetic on the index `start` of its row's first
    # cell, at column g - 1 (g = gamma[r]): column c is t = start + g - 1 - c.
    # Its right neighbour is t - 1 unless t = start. The cell above, at
    # column c of the row before, exists when c >= inner[r - 1] (c < g <=
    # gamma[r - 1] always); the cells between the two in reading order are
    # (r - 1, c - 1 .. inner[r - 1]) and (r, g - 1 .. c + 1), so it is
    # t - (g - inner[r - 1]). A row without cells adds none; the row after
    # it finds no cell above, as there inner[r - 1] = gamma[r - 1] > c.
    right = list(range(-1, ncells - 1))
    above = [-1] * ncells
    start = 0
    inner_above = gamma[0]  # row 0 has no row above: no c >= gamma[0]
    for g, lo in zip(gamma, inner):
        if g > lo:
            right[start] = -1
            shift = g - inner_above
            for t in range(start, start + g - max(lo, inner_above)):
                above[t] = t - shift
            start += g - lo
        inner_above = lo

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
