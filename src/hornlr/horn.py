"""Horn's inequality system for spectra of sums of Hermitian matrices.

A triple of weakly decreasing spectra (alpha, beta, gamma) of length n
can occur as eigenvalues of Hermitian A, B and C = A + B exactly when
the traces add up and, for every r < n and every index triple (I, J, K)
in T(n, r), the inequality

    sum(gamma[K]) <= sum(alpha[I]) + sum(beta[J])

holds. U(n, r) consists of all triples of r-subsets of {1..n} with
sum(I) + sum(J) = sum(K) + r(r+1)/2. Horn defined T(n, r) inside it by
a recursion over T(r, p), p < r; by the saturation theorem (Knutson and
Tao, JAMS 1999; Fulton, Bull. AMS 2000) it is exactly the set of triples
of U(n, r) whose Littlewood-Richardson coefficient c^{l(K)}_{l(I), l(J)}
is positive, where l(I) = (i_r - r, ..., i_2 - 2, i_1 - 1). So T(n, r)
is built from one LR-positivity test per triple of U(n, r); the
recursive construction is kept in the tests as an independent check.

Exact and floating inputs are both supported: when every entry is an
`int` or `Fraction` the comparisons are exact and the tolerance is
ignored, otherwise comparisons allow the caller-supplied tolerance
(default 1e-9). Spectrum entries and tolerances that are not real
numbers raise InputError.

|U(n, r)| grows combinatorially; n <= 8 stays comfortable on a desk
machine and nothing larger is refused, it just costs time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from numbers import Real
from typing import Optional, Sequence, Union

import numpy as np

from .errors import InputError
from .lr import lr_positive
from .partitions import Partition

Number = Union[int, float, Fraction]

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class IndexTriple:
    """Sorted index subsets (I, J, K) of {1..n}, all of cardinality r."""

    i: tuple[int, ...]
    j: tuple[int, ...]
    k: tuple[int, ...]
    n: int

    def __post_init__(self):
        r = len(self.i)
        if type(self.n) is not int:
            raise InputError(f"n must be an integer, got {self.n!r}")
        if not (1 <= r <= self.n) or len(self.j) != r or len(self.k) != r:
            raise InputError(f"index sets must share a cardinality in 1..{self.n}")
        for seq in (self.i, self.j, self.k):
            if any(type(v) is not int or not 1 <= v <= self.n for v in seq):
                raise InputError(f"indices must be integers in 1..{self.n}: {seq}")
            if any(seq[t] >= seq[t + 1] for t in range(r - 1)):
                raise InputError(f"index sets must be strictly increasing: {seq}")

    @property
    def r(self) -> int:
        return len(self.i)

    def __str__(self) -> str:
        fmt = lambda s: "{" + ",".join(map(str, s)) + "}"
        return f"I={fmt(self.i)} J={fmt(self.j)} K={fmt(self.k)}"


def generate_u(n: int, r: int) -> tuple[IndexTriple, ...]:
    """All triples of r-subsets of {1..n} whose index sums satisfy
    sum(I) + sum(J) = sum(K) + r(r+1)/2, in lexicographic (I, J, K) order.
    """
    if type(n) is not int or type(r) is not int or not 1 <= r <= n:
        raise InputError(f"need integers 1 <= r <= n, got n={n!r}, r={r!r}")
    by_sum: dict[int, list[tuple[int, ...]]] = {}
    for k_set in combinations(range(1, n + 1), r):
        by_sum.setdefault(sum(k_set), []).append(k_set)
    offset = r * (r + 1) // 2
    out = []
    for i_set in combinations(range(1, n + 1), r):
        for j_set in combinations(range(1, n + 1), r):
            for k_set in by_sum.get(sum(i_set) + sum(j_set) - offset, ()):
                out.append(IndexTriple(i_set, j_set, k_set, n))
    return tuple(out)


@lru_cache(maxsize=None, typed=True)
def generate_t(n: int, r: int) -> tuple[IndexTriple, ...]:
    """Horn's family T(n, r): the triples (I, J, K) of generate_u(n, r)
    with c^{l(K)}_{l(I), l(J)} > 0, in the same lexicographic order.

    l(I) is the partition (i_r - r, ..., i_1 - 1). By saturation this is
    the family Horn defined recursively through T(r, p), p < r.
    """
    return tuple(
        t for t in generate_u(n, r) if lr_positive(_shape(t.i), _shape(t.j), _shape(t.k))
    )


def _shape(indices: tuple[int, ...]) -> Partition:
    return Partition(i - a for a, i in enumerate(indices, 1))


def _holds(t: IndexTriple, alpha, beta, gamma, slack) -> bool:
    lhs = sum(gamma[k - 1] for k in t.k)
    rhs = sum(alpha[i - 1] for i in t.i) + sum(beta[j - 1] for j in t.j)
    return lhs <= rhs + slack


def _first_violation(alpha, beta, gamma, slack) -> Optional[IndexTriple]:
    """The first triple of T(n, 1), ..., T(n, n - 1), in that order, whose
    inequality fails by more than `slack`; None when all of them hold."""
    n = len(alpha)
    for r in range(1, n):
        for t in generate_t(n, r):
            if not _holds(t, alpha, beta, gamma, slack):
                return t
    return None


def check_inequality(
    t: IndexTriple,
    alpha: Sequence[Number],
    beta: Sequence[Number],
    gamma: Sequence[Number],
    tol: Optional[float] = None,
) -> bool:
    """sum(gamma[K]) <= sum(alpha[I]) + sum(beta[J]) up to `tol`."""
    for vec in (alpha, beta, gamma):
        if len(vec) != t.n:
            raise InputError(f"spectrum length {len(vec)} does not match n={t.n}")
    return _holds(t, alpha, beta, gamma, _effective_tol((alpha, beta, gamma), tol))


def trace_condition(
    alpha: Sequence[Number],
    beta: Sequence[Number],
    gamma: Sequence[Number],
    tol: Optional[float] = None,
) -> bool:
    """sum(gamma) equals sum(alpha) + sum(beta) up to `tol`."""
    if len(alpha) != len(beta) or len(beta) != len(gamma):
        raise InputError("spectra must have equal length")
    return _trace_holds(alpha, beta, gamma, _effective_tol((alpha, beta, gamma), tol))


def _trace_holds(alpha, beta, gamma, slack) -> bool:
    return abs(sum(gamma) - sum(alpha) - sum(beta)) <= slack


def _tolerance(tol: Optional[float]):
    """`tol`, or DEFAULT_TOL for None; anything else must be a real number."""
    if tol is None:
        return DEFAULT_TOL
    if not isinstance(tol, Real):
        raise InputError(f"tolerance must be a real number or None, got {tol!r}")
    return tol


def _effective_tol(vectors, tol: Optional[float]):
    """The slack for comparing these vectors: 0 when every entry is an int
    or Fraction, else the tolerance. Entries must be real numbers."""
    tol = _tolerance(tol)
    exact = True
    for vec in vectors:
        for v in vec:
            if isinstance(v, (int, Fraction)):
                continue
            if not isinstance(v, (float, Real)):
                raise InputError(f"spectrum entries must be real numbers, got {v!r}")
            exact = False
    return 0 if exact else tol


def find_horn_violation(
    alpha: Sequence[Number],
    beta: Sequence[Number],
    gamma: Sequence[Number],
    tol: Optional[float] = None,
) -> Optional[Union[str, IndexTriple]]:
    """First failed condition, or None when the triple is compatible.

    Returns the string "trace" when the trace condition fails, otherwise
    the first violated IndexTriple in (r, lexicographic) order. Only the
    families T(n, r) with r < n are consulted.
    """
    n = len(alpha)
    if len(beta) != n or len(gamma) != n:
        raise InputError("spectra must have equal length")
    slack = _effective_tol((alpha, beta, gamma), tol)
    if not _trace_holds(alpha, beta, gamma, slack):
        return "trace"
    return _first_violation(alpha, beta, gamma, slack)


def horn_compatible(
    alpha: Sequence[Number],
    beta: Sequence[Number],
    gamma: Sequence[Number],
    tol: Optional[float] = None,
) -> bool:
    """Whether (alpha, beta, gamma) can be spectra of A, B and A + B."""
    return find_horn_violation(alpha, beta, gamma, tol) is None


def weyl_bounds(
    alpha: Sequence[Number], beta: Sequence[Number], k: int
) -> tuple[Optional[Number], Optional[Number]]:
    """Per-eigenvalue sandwich for gamma[k] (1-based).

    lower = max(alpha[i] + beta[j] : i + j = n + k), an underestimate of
    the k-th largest eigenvalue of A + B; upper = min over i + j = k + 1.
    Index pairs outside 1..n are skipped; an empty window (impossible for
    1 <= k <= n, kept for safety) yields None on that side.
    """
    n = len(alpha)
    if len(beta) != n:
        raise InputError("spectra must have equal length")
    if type(k) is not int or not 1 <= k <= n:
        raise InputError(f"need an integer 1 <= k <= n, got k={k!r}, n={n}")
    lower_candidates = [
        alpha[i - 1] + beta[n + k - i - 1] for i in range(max(1, k), min(n, n + k - 1) + 1)
        if 1 <= n + k - i <= n
    ]
    upper_candidates = [
        alpha[i - 1] + beta[k - i] for i in range(max(1, k + 1 - n), min(n, k) + 1)
        if 1 <= k + 1 - i <= n
    ]
    lower = max(lower_candidates) if lower_candidates else None
    upper = min(upper_candidates) if upper_candidates else None
    return lower, upper


@dataclass(frozen=True)
class SampleReport:
    """Outcome of the random-sum necessity check in one dimension."""

    n: int
    trials: int
    tol: float
    trace_violations: int
    inequality_violations: int
    weyl_violations: int

    @property
    def total_violations(self) -> int:
        return self.trace_violations + self.inequality_violations + self.weyl_violations


def sample_necessity(
    n: int, trials: int, tol: Optional[float] = DEFAULT_TOL, seed: int = 0
) -> SampleReport:
    """Sample random symmetric matrix pairs and test every condition that
    the spectra of A, B and A + B are guaranteed to satisfy.

    Entries are drawn uniformly from [-1, 1] (symmetric: the upper
    triangle is sampled and mirrored). For each pair, the trace identity,
    every inequality in T(n, r) for r < n, and every per-index window
    from `weyl_bounds` are checked against `tol` (None means
    DEFAULT_TOL). Any nonzero count in the returned report falsifies a
    theorem and means a bug.
    """
    if type(n) is not int or type(trials) is not int or n < 1 or trials < 0:
        raise InputError(
            f"need integers n >= 1 and trials >= 0, got n={n!r}, trials={trials!r}"
        )
    tol = _tolerance(tol)
    rng = np.random.default_rng(seed)
    trace_bad = ineq_bad = weyl_bad = 0
    for _ in range(trials):
        a_mat = _random_symmetric(rng, n)
        b_mat = _random_symmetric(rng, n)
        alpha = _descending_spectrum(a_mat)
        beta = _descending_spectrum(b_mat)
        gamma = _descending_spectrum(a_mat + b_mat)
        if not _trace_holds(alpha, beta, gamma, tol):
            trace_bad += 1
        if _first_violation(alpha, beta, gamma, tol) is not None:
            ineq_bad += 1
        for k in range(1, n + 1):
            lower, upper = weyl_bounds(alpha, beta, k)
            if (lower is not None and gamma[k - 1] < lower - tol) or (
                upper is not None and gamma[k - 1] > upper + tol
            ):
                weyl_bad += 1
                break
    return SampleReport(n, trials, tol, trace_bad, ineq_bad, weyl_bad)


def _random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.uniform(-1.0, 1.0, size=(n, n))
    upper = np.triu(m)
    return upper + np.triu(m, 1).T


def _descending_spectrum(mat: np.ndarray) -> list[float]:
    return [float(v) for v in np.linalg.eigvalsh(mat)[::-1]]


def is_weakly_decreasing(values: Sequence[Number], tol: float = 0.0) -> bool:
    return all(values[i] + tol >= values[i + 1] for i in range(len(values) - 1))


def as_spectrum(values: Sequence[Number], tol: Optional[float] = None) -> tuple[Number, ...]:
    """Validate and freeze a weakly decreasing spectrum vector."""
    vec = tuple(values)
    if not is_weakly_decreasing(vec, _effective_tol((vec,), tol)):
        raise InputError(f"spectrum must be weakly decreasing: {vec}")
    return vec
