"""Horn's inequality system for spectra of sums of Hermitian matrices.

A triple of weakly decreasing spectra (alpha, beta, gamma) of length n
can occur as eigenvalues of Hermitian A, B and C = A + B exactly when
the traces add up and, for every r < n and every index triple (I, J, K)
in T(n, r), the inequality

    sum(gamma[K]) <= sum(alpha[I]) + sum(beta[J])

holds. U(n, r) consists of all triples of r-subsets of {1..n} with
sum(I) + sum(J) = sum(K) + r(r+1)/2. Horn defined T(n, r) inside it by
recursion, and it is built that way: a triple is kept when its shapes,
l(I) = (i_r - r, ..., i_1 - 1) and so on, satisfy the inequalities of
T(r). By saturation (Knutson and Tao, JAMS 1999; Fulton, Bull. AMS 2000)
these are the triples with c^{l(K)}_{l(I), l(J)} > 0; the tests check
both routes. Only T(n, r) with 2r <= n is filtered that way. T(n, n) is
U(n, n), its one triple ({1..n}, {1..n}, {1..n}) having zero shapes, and
for n/2 < r < n, T(n, r) is the image of T(n, n - r) under
I -> {n + 1 - j : j not in I}, which sends l(I) to its conjugate, as
c^{nu}_{lambda mu} = c^{nu'}_{lambda' mu'}. Generated triples are valid
by construction and skip IndexTriple's validation; the public
constructor validates every triple a caller builds.

For each n the inequalities of T(n, 1), ..., T(n, n - 1), in that
(r, lexicographic) order, form one matrix, built on first use and cached:
a row has -1 in the columns of I and J and +1 in those of K, so the
product with (alpha, beta, gamma) gives each inequality's excess
sum(gamma[K]) - sum(alpha[I]) - sum(beta[J]) at once. Its rows are
filled from the integer array of index sets cached with each T(n, r),
one row (I, J, K) per triple; their dtype is the smallest unsigned one
that holds 3n, so every column index fits for any n. A compatibility
check is one matrix-vector product, and the sampler checks a block of
trials with one matrix product.

The sampler draws its matrices from the standard library's
random.Random(seed), 64 bits per entry read from one randbytes call per
block of trials, so numpy.random, which numpy imports lazily at a cost of
milliseconds and megabytes, is never imported.

Weyl's inequalities are rows of the same system. T(n, 1), the triples
{i}, {j}, {k} with i + j = k + 1, gives his upper bounds
gamma_k <= alpha_i + beta_j; the same rows on the mirror image, each
spectrum negated and reversed (the spectra of -A, -B and -A - B), give
his lower bounds gamma_k >= alpha_i + beta_j with i + j = n + k. The
sampler checks the windows of `weyl_bounds` that way, through the same
screen as the rows of T(n).

Exact and floating inputs are both supported: when every entry is an
`int` or `Fraction` the comparisons are exact and the tolerance is
ignored, otherwise comparisons allow the caller-supplied tolerance
(default 1e-9). Exact input is scaled to integers by its common
denominator and multiplied in float64 while 3n times its largest entry
is at most 2**53, so that every partial sum is an integer float64 holds
exactly. Larger integers, and other input, are multiplied in float64
only to screen, with a margin that bounds the rounding; each row it
flags is then decided, in order, by the scalar comparison, so answers at
the tolerance are exactly those of comparing the sums directly.
Magnitudes too large to screen are compared row by row; negation commutes
with rounding, so a mirrored row is decided exactly as well. Numpy integer
entries are summed as Python ints, so they never wrap, and keep the
tolerance of inexact input. Spectrum entries and tolerances that are not
real numbers raise InputError, and so do tolerances beyond the float
range, and floats, and ints and Fractions mixed with floats, too large
for the sums of the same call to stay within it. Integer arguments (n,
r, k, trials, seed, the fields of IndexTriple) follow `errors.as_int`.

|U(n, r)| grows combinatorially; n <= 8 stays comfortable on a desk
machine and nothing larger is refused, it just costs time.
"""

from __future__ import annotations

import math
import random
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from numbers import Real
from typing import Iterator, Optional, Union

import numpy as np

from .errors import InputError, as_int, brief

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
        n = as_int(self.n, "n")
        _set(self, "n", n)  # the fields hold the ints that as_int returns
        for name in "ijk":
            seq = getattr(self, name)
            if type(seq) is not tuple:
                raise InputError(f"index sets must be tuples, got {brief(seq)}")
            seq = tuple(as_int(v, f"an index in {name}", 1) for v in seq)
            if any(seq[t] >= seq[t + 1] for t in range(len(seq) - 1)) or (seq and seq[-1] > n):
                raise InputError(f"index sets must increase strictly within 1..{brief(n)}: {brief(seq)}")
            _set(self, name, seq)
        r = len(self.i)
        if not (1 <= r <= n) or len(self.j) != r or len(self.k) != r:
            raise InputError(f"index sets must share a cardinality in 1..{brief(n)}")

    @property
    def r(self) -> int:
        return len(self.i)

    def __str__(self) -> str:
        fmt = lambda s: "{" + ",".join(map(str, s)) + "}"
        return f"I={fmt(self.i)} J={fmt(self.j)} K={fmt(self.k)}"


def _check_dimensions(n, r) -> tuple[int, int]:
    """(n, r) as ints (`as_int`), which must satisfy 1 <= r <= n."""
    n, r = as_int(n, "n", 1), as_int(r, "r", 1)
    if r > n:
        raise InputError(f"need 1 <= r <= n, got n={brief(n)}, r={brief(r)}")
    return n, r


def _u_sets(n: int, r: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The index sets (I, J, K) of U(n, r), as tuples of ints, in
    lexicographic (I, J, K) order; 1 <= r <= n."""
    by_sum: dict[int, list[tuple[int, ...]]] = {}
    for k_set in combinations(range(1, n + 1), r):
        by_sum.setdefault(sum(k_set), []).append(k_set)
    offset = r * (r + 1) // 2
    for i_set in combinations(range(1, n + 1), r):
        for j_set in combinations(range(1, n + 1), r):
            for k_set in by_sum.get(sum(i_set) + sum(j_set) - offset, ()):
                yield i_set, j_set, k_set


_new = object.__new__  # bound once: they run for every generated triple
_set = object.__setattr__


def _trusted(i: tuple[int, ...], j: tuple[int, ...], k: tuple[int, ...], n: int) -> IndexTriple:
    """IndexTriple(i, j, k, n) without its validation, for index sets that
    are valid by construction: r-subsets from `combinations`, or their
    conjugates. Neither __init__ nor __post_init__ runs."""
    t = _new(IndexTriple)
    _set(t, "i", i)
    _set(t, "j", j)
    _set(t, "k", k)
    _set(t, "n", n)
    return t


def generate_u(n: int, r: int) -> tuple[IndexTriple, ...]:
    """All triples of r-subsets of {1..n} whose index sums satisfy
    sum(I) + sum(J) = sum(K) + r(r+1)/2, in lexicographic (I, J, K) order,
    each made an IndexTriple, without re-validation, from the tuples that
    `_u_sets` yields.
    """
    n, r = _check_dimensions(n, r)
    return tuple(_trusted(i, j, k, n) for i, j, k in _u_sets(n, r))


def generate_t(n: int, r: int) -> tuple[IndexTriple, ...]:
    """Horn's family T(n, r), in the order of generate_u(n, r).

    For 2r <= n, the triples of U(n, r) whose shapes (l(I), l(J), l(K))
    satisfy every row of the cached matrix of T(r); generate_u's sum
    condition is their trace. For r = n, U(n, n): its one triple has zero
    shapes, so no row of T(n) is read. For n/2 < r < n, the
    conjugates of T(n, n - r): I -> {n + 1 - j : j not in I} sends l(I) to
    its conjugate partition, and c^{nu}_{lambda mu} = c^{nu'}_{lambda' mu'}
    (Fulton, Bull. AMS 2000), so by saturation the map is a bijection from
    T(n, n - r) onto T(n, r). Either way the triples are built without
    re-validation (see `_t_family`). Cached per (n, r); the arguments are
    checked first, as the cache would hash a list before the check could
    reject it.
    """
    return _t_family(*_check_dimensions(n, r))[0]


@lru_cache(maxsize=None)
def _t_family(n: int, r: int) -> tuple[tuple[IndexTriple, ...], np.ndarray]:
    """T(n, r) as generate_t returns it, and a read-only integer array
    of the same triples' index sets, one row (I, J, K) per triple. The
    dtype is np.min_scalar_type(3n), so it also holds every column index
    0..3n - 1 of the matrix of T(n).

    For 2r <= n and r = n (T(n, 0) does not exist), one np.fromiter reads
    the tuples of _u_sets(n, r) into an array. For 2r <= n the rows of T(r)
    are applied to the float64 shapes, its blocks of r columns reversed,
    less (r, ..., 1). Shape entries are integers in 0..n - r, summed 3r at
    a time, so float64 is exact. T(1) has no rows, so T(n, 1) = U(n, 1);
    T(n, n) = U(n, n) is not filtered, as its shapes are zero.
    The kept triples reuse U's tuples. For n/2 < r < n, the array is the
    conjugate of T(n, n - r)'s (`_conjugate_sets`), its rows sorted
    lexicographically, and equal index sets share one tuple. Every triple
    is made by `_trusted`: its sets are r-subsets in increasing order by
    construction, so the validation of IndexTriple would find nothing."""
    if n < 2 * r < 2 * n:
        sets = _conjugate_sets(_t_family(n, n - r)[1], n)
        sets = sets[np.lexsort(sets.T[::-1])]
        shared: dict[tuple[int, ...], tuple[int, ...]] = {}
        share = lambda s: shared.setdefault(s, s)
        family = tuple(
            _trusted(share(tuple(row[:r])), share(tuple(row[r : 2 * r])), share(tuple(row[2 * r :])), n)
            for row in sets.tolist()
        )
    else:
        u_sets = list(_u_sets(n, r))
        flat = chain.from_iterable(chain.from_iterable(u_sets))
        sets = np.fromiter(flat, np.min_scalar_type(3 * n), 3 * r * len(u_sets)).reshape(-1, 3 * r)
        shapes = np.subtract(sets.reshape(-1, 3, r)[:, :, ::-1], np.arange(r, 0, -1), dtype=np.float64)
        shapes = shapes.reshape(-1, 3 * r)
        keep = np.ones(len(sets), dtype=bool)
        # T(n, n) = U(n, n) is not filtered; T(n, r) row by row, not as one
        # product of |U(n, r)| x |T(r)|
        for row in _horn_system(r)[1] if r < n else ():
            keep &= shapes @ row <= 0
        family = tuple(_trusted(i, j, k, n) for (i, j, k), ok in zip(u_sets, keep) if ok)
        sets = sets[keep]
    sets.flags.writeable = False
    return family, sets


def _conjugate_sets(sets: np.ndarray, n: int) -> np.ndarray:
    """Each index set of `sets` (rows (I, J, K), s columns each) mapped to
    {n + 1 - j : j not in I}, in increasing order, rows kept in place: the
    complement reflected, read off a membership mask of each set whose
    columns are reversed and negated. Same dtype."""
    s = sets.shape[1] // 3
    member = np.zeros((len(sets), 3, n), dtype=bool)
    np.put_along_axis(member, sets.reshape(-1, 3, s).astype(np.intp) - 1, True, axis=2)
    value = np.flatnonzero(~member[:, :, ::-1]) % n + 1  # row-major: each set in increasing order
    return value.astype(sets.dtype).reshape(len(sets), 3 * (n - s))


@lru_cache(maxsize=None)
def _horn_system(n: int) -> tuple[tuple[IndexTriple, ...], np.ndarray]:
    """The triples of T(n, 1), ..., T(n, n - 1) in that order, and the
    matrix whose row t maps the concatenated vector (alpha, beta, gamma)
    to sum(gamma[K]) - sum(alpha[I]) - sum(beta[J]) for triple t: -1 in
    the columns of I and J, +1 in those of K. Read-only: it is shared.

    Each block of rows is filled from the index array of _t_family(n, r);
    no IndexTriple attribute is read."""
    families = [_t_family(n, r) for r in range(1, n)]
    triples = tuple(t for family, _ in families for t in family)
    matrix = np.zeros((len(triples), 3 * n))
    start = 0
    for r, (_, sets) in enumerate(families, 1):
        rows = np.arange(start, start + len(sets))
        # filled one column position at a time: no temporary the size of
        # the block, which would add to the peak memory of the first check
        for p in range(3 * r):
            part = p // r  # I, J or K
            matrix[rows, sets[:, p] - 1 + part * n] = 1 if part == 2 else -1
        start += len(sets)
    matrix.flags.writeable = False
    return triples, matrix


def _holds(t: IndexTriple, alpha, beta, gamma, slack) -> bool:
    lhs = sum(gamma[k - 1] for k in t.k)
    rhs = sum(alpha[i - 1] for i in t.i) + sum(beta[j - 1] for j in t.j)
    return lhs <= rhs + slack


# Entries whose arithmetic in _holds is exact or IEEE double once a float
# takes part, so _screen_margin bounds its rounding. Entries of other real
# types (np.float32 computes in single precision) and magnitudes from
# _SCREEN_LIMIT / 3n on are checked row by row. Numpy integers arrive here
# as Python ints (see _inspect).
_SCREENED = (int, Fraction, float)
_SCREEN_LIMIT = 2.0**62


def _screenable(values, n: int) -> bool:
    limit = _SCREEN_LIMIT / (3 * n)
    return all(isinstance(v, _SCREENED) and -limit < v < limit for v in values)


def _screen_margin(n: int, magnitude, slack):
    """Width of the band below `slack` in which a float64 row of
    matrix @ (alpha, beta, gamma) cannot tell whether _holds fails. Both
    sides sum at most 3n terms no larger than `magnitude`; in any order
    that strays from the exact sum by less than (3n)**2 * magnitude units
    of roundoff (eps / 2), conversions to float64 included, and adding
    `slack` by |slack| units more. Twice eps covers both with room."""
    return 2 * np.finfo(np.float64).eps * ((3 * n) ** 2 * magnitude + abs(float(slack)))


def _first_confirmed(triples, rows, alpha, beta, gamma, slack) -> Optional[IndexTriple]:
    """The first of the triples at `rows` (ascending) whose inequality
    fails by more than `slack`, decided by the scalar comparison."""
    for row in rows:
        if not _holds(triples[row], alpha, beta, gamma, slack):
            return triples[row]
    return None


def _first_violation(alpha, beta, gamma, exact: bool, slack) -> Optional[IndexTriple]:
    """The first triple of T(n, 1), ..., T(n, n - 1), in that order, whose
    inequality fails by more than `slack`; None when all of them hold.

    Exact input is scaled to integers by the common denominator, and
    multiplied in float64 without rounding when every partial sum stays
    within 2**53. Larger integers, and inexact input, are screened in
    float64 with a margin, and the rows the screen flags are decided by
    the scalar comparison; magnitudes too large to screen are compared
    row by row.
    """
    n = len(alpha)
    triples, matrix = _horn_system(n)
    values = (*alpha, *beta, *gamma)
    if exact:
        scale = math.lcm(*(v.denominator for v in values))
        values = [v.numerator * (scale // v.denominator) for v in values]
    if exact and 3 * n * max(map(abs, values), default=0) <= 2**53:
        rows = np.flatnonzero(matrix @ np.array(values, dtype=np.float64) > 0)
    elif _screenable((*values, slack), n):
        x = np.array(values, dtype=np.float64)
        bound = float(slack) - _screen_margin(n, np.abs(x).max(), slack)
        rows = np.flatnonzero(matrix @ x > bound)
    else:
        rows = range(len(triples))
    return _first_confirmed(triples, rows, alpha, beta, gamma, slack)


def _common_length(*vectors) -> int:
    """The length shared by the spectra `vectors`. Each must be a
    sequence, a numpy array of one dimension included: None, numbers,
    iterators and sets raise InputError, as do unequal lengths."""
    for vec in vectors:
        sequence = isinstance(vec, (list, tuple, Sequence))  # list and tuple first: the ABC is slower
        if not sequence and not (isinstance(vec, np.ndarray) and vec.ndim == 1):
            raise InputError(f"a spectrum must be a sequence of numbers, got {brief(vec)}")
    n = len(vectors[0])
    for vec in vectors:
        if len(vec) != n:
            raise InputError("spectra must have equal length")
    return n


def _trace_holds(alpha, beta, gamma, slack) -> bool:
    return abs(sum(gamma) - sum(alpha) - sum(beta)) <= slack


def _tolerance(tol: Optional[float]):
    """`tol`, or DEFAULT_TOL for None; anything else must be a real number
    within the float range, as callers add it to floats, on exact input
    too. (NaN fails `<=`; ints and Fractions compare exactly, unconverted.)"""
    if tol is None:
        return DEFAULT_TOL
    exact = isinstance(tol, (int, Fraction))
    if not isinstance(tol, Real) or not abs(tol if exact else float(tol)) <= sys.float_info.max:
        raise InputError(
            f"tolerance must be a real number within the float range or None, got {brief(tol)}"
        )
    return tol


def _inspect(vectors, tol=0.0):
    """(exact, vectors): whether every entry is an int or a Fraction, and
    the vectors with numpy integers turned into Python ints, which sum
    without wrapping; they still count as inexact, so the tolerance
    applies to them as before. Entries must be finite real numbers.

    Any sum of floats among the entries and `tol` must stay within the
    float range, where it would overflow to inf or raise OverflowError: a
    float entry larger than the largest float over (number of entries + 1)
    in magnitude raises InputError, and so, when some entries are inexact,
    does an int or Fraction among the entries and `tol`."""
    inexact = 0
    widen = False
    terms = sum(map(len, vectors)) + 1
    limit = sys.float_info.max / terms
    for vec in vectors:
        for v in vec:
            if isinstance(v, (int, Fraction)):
                continue
            inexact += 1
            if isinstance(v, np.integer):
                widen = True
                continue
            if not isinstance(v, (float, Real)):
                raise InputError(f"spectrum entries must be real numbers, got {brief(v)}")
            if not abs(float(v)) <= limit:  # NaN fails the comparison too
                raise InputError(
                    f"spectrum entries must be finite and at most {limit:.3g} in magnitude, got {brief(v)}"
                )
    if widen:
        vectors = tuple([int(v) if isinstance(v, np.integer) else v for v in vec] for vec in vectors)
    # no pass when every entry is inexact and so is tol: numpy integers,
    # now ints, stay far below the limit
    if inexact and (inexact < terms - 1 or isinstance(tol, (int, Fraction))):
        for v in (*(v for vec in vectors for v in vec), tol):
            if isinstance(v, (int, Fraction)) and abs(v) > limit:
                raise InputError(
                    f"an int or Fraction above {limit:.3g} in magnitude cannot be mixed with floats"
                )
    return not inexact, vectors


def _prepared(vectors, tol: Optional[float]):
    """(exact, vectors, slack): `_inspect`'s answer, and 0 when every
    entry is an int or Fraction, else the tolerance."""
    tol = _tolerance(tol)
    exact, vectors = _inspect(vectors, tol)
    return exact, vectors, (0 if exact else tol)


def find_horn_violation(
    alpha: Sequence[Number],
    beta: Sequence[Number],
    gamma: Sequence[Number],
    tol: Optional[float] = None,
) -> Optional[Union[str, IndexTriple]]:
    """First failed condition, or None when the triple is compatible.

    Returns the string "trace" when the trace condition fails, otherwise
    the first violated IndexTriple in (r, lexicographic) order. Only the
    families T(n, r) with r < n are consulted, all at once: the excess of
    every inequality is one product of the cached matrix of T(n) with
    (alpha, beta, gamma), exact for int and Fraction entries, and a
    float64 screen for others whose flagged rows are decided by comparing
    the sums directly, so the witness is the one the row-by-row scan
    finds (see the module docstring).
    """
    _common_length(alpha, beta, gamma)
    exact, (alpha, beta, gamma), slack = _prepared((alpha, beta, gamma), tol)
    if not _trace_holds(alpha, beta, gamma, slack):
        return "trace"
    return _first_violation(alpha, beta, gamma, exact, slack)


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
) -> tuple[Number, Number]:
    """Per-eigenvalue sandwich for gamma[k] (1-based).

    lower = max(alpha[i] + beta[j] : i + j = n + k), an underestimate of
    the k-th largest eigenvalue of A + B; upper = min over i + j = k + 1.
    For 1 <= k <= n the lower window is i = k..n and the upper one
    i = 1..k, so neither is empty.
    """
    n = _common_length(alpha, beta)
    k = as_int(k, "k", 1)
    if k > n:
        raise InputError(f"need 1 <= k <= n, got k={brief(k)}, n={n}")
    _, (alpha, beta) = _inspect((alpha, beta))
    lower = max(alpha[i - 1] + beta[n + k - i - 1] for i in range(k, n + 1))
    upper = min(alpha[i - 1] + beta[k - i] for i in range(1, k + 1))
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


# Trials per batched draw, eigensolve and product: bounds the memory of
# sample_necessity, whatever the number of trials.
_SAMPLE_BLOCK = 64


def sample_necessity(
    n: int, trials: int, tol: Optional[float] = DEFAULT_TOL, seed: int = 0
) -> SampleReport:
    """Sample random symmetric matrix pairs and test every condition that
    the spectra of A, B and A + B are guaranteed to satisfy.

    Entries are drawn uniformly from [-1, 1) by the standard library's
    random.Random(seed), the Mersenne Twister: 64 random bits u per entry
    give (u >> 11) * 2**-52 - 1. Each matrix is drawn whole, row-major, and
    its upper triangle mirrored; A before B, one pair after another. This
    is not the stream of 0.1.0 as released, which drew from numpy's
    default_rng: a seed gives other matrices than it did there, though
    every report keeps its meaning. numpy.random is never imported.
    For each pair, the trace identity, every inequality in T(n, r) for
    r < n, and every per-index window from `weyl_bounds` are checked
    against `tol` (None means DEFAULT_TOL). The windows are checked as
    the rows of T(n, 1) on (alpha, beta, gamma), the upper bounds, and on
    its mirror image, each vector negated and reversed, the lower ones.
    Trials run in blocks: one batched eigensolve, and one screen of every
    row (`_screen_block`) with the rounding margin of find_horn_violation;
    the rows it flags in a trial are decided by the scalar comparison.
    Any nonzero count in the returned report falsifies a theorem and
    means a bug. `seed` must be an integer >= 0.
    """
    n, trials, seed = as_int(n, "n", 1), as_int(trials, "trials", 0), as_int(seed, "seed", 0)
    tol = _tolerance(tol)
    rng = random.Random(seed)
    triples, matrix = _horn_system(n)
    weyl = _t_family(n, 1)[0]
    split = (len(triples), len(triples) + len(weyl))
    trace_bad = ineq_bad = weyl_bad = 0
    for start in range(0, trials, _SAMPLE_BLOCK):
        spectra = _sample_spectra(rng, n, min(_SAMPLE_BLOCK, trials - start))
        flagged, suspects = _screen_block(spectra, matrix, n, tol)
        for s in np.flatnonzero(suspects):
            vectors = spectra[s].reshape(3, n)
            alpha, beta, gamma = vectors.tolist()
            horn, upper, lower = map(np.flatnonzero, np.split(flagged[s], split))
            trace_bad += not _trace_holds(alpha, beta, gamma, tol)
            ineq_bad += _first_confirmed(triples, horn, alpha, beta, gamma, tol) is not None
            weyl_bad += (
                _first_confirmed(weyl, upper, alpha, beta, gamma, tol) is not None
                or _first_confirmed(weyl, lower, *(-vectors[:, ::-1]).tolist(), tol) is not None
            )
    return SampleReport(n, trials, tol, trace_bad, ineq_bad, weyl_bad)


def _sample_spectra(rng: random.Random, n: int, size: int) -> np.ndarray:
    """Descending spectra of `size` random pairs A, B and of A + B, one row
    (alpha, beta, gamma) of length 3n per pair.

    The entries come from one rng.randbytes call, read as little-endian
    64-bit words, which are the words of per-entry rng.getrandbits(64)
    calls in the same order; each word u gives (u >> 11) * 2**-52 - 1 in
    [-1, 1), exactly, as u >> 11 has 53 bits."""
    words = np.frombuffer(rng.randbytes(8 * size * 2 * n * n), dtype="<u8")
    draws = ((words >> 11) * 2.0**-52 - 1.0).reshape(size, 2, n, n)
    pairs = np.triu(draws) + np.swapaxes(np.triu(draws, 1), -1, -2)
    a, b = pairs[:, 0], pairs[:, 1]
    return np.linalg.eigvalsh(np.stack((a, b, a + b), axis=1))[..., ::-1].reshape(size, 3 * n)


def _screen_block(spectra: np.ndarray, matrix: np.ndarray, n: int, tol):
    """For a block of sampled spectra, one row (alpha, beta, gamma) per
    trial: the rows each trial may violate, and the trials that may
    violate any condition, the trace included.

    A trial's flags are those of the rows of `matrix`, then of the rows
    gamma_k - alpha_i - beta_j of T(n, 1) (Weyl's upper bounds), then of
    the same rows on the mirror image, each vector negated and reversed
    (his lower bounds). Each excess is compared with `tol` less the
    rounding margin of find_horn_violation; a tolerance that
    `_screenable` refuses gets an infinite margin, so every row and trial
    is flagged."""
    slack = float(tol)
    margin = _screen_margin(n, np.abs(spectra).max(axis=1), tol)
    bound = (slack - np.where(_screenable((tol,), n), margin, np.inf))[:, None]
    mirror = -spectra.reshape(-1, 3, n)[:, :, ::-1].reshape(-1, 3 * n)
    i, j, k = (_t_family(n, 1)[1] + np.arange(-1, 3 * n - 1, n)).T  # columns
    weyl = [x[:, k] - x[:, i] - x[:, j] for x in (spectra, mirror)]
    flagged = np.hstack([excess > bound for excess in (spectra @ matrix.T, *weyl)])
    alpha, beta, gamma = spectra.reshape(-1, 3, n).sum(axis=2).T
    return flagged, flagged.any(axis=1) | (np.abs(gamma - alpha - beta) > bound[:, 0])


def as_spectrum(values: Sequence[Number], tol: Optional[float] = None) -> tuple[Number, ...]:
    """Validate and freeze a weakly decreasing spectrum vector."""
    vec = tuple(values)
    _, (checked,), slack = _prepared((vec,), tol)
    if not all(checked[i] + slack >= checked[i + 1] for i in range(len(checked) - 1)):
        raise InputError(f"spectrum must be weakly decreasing: {brief(vec)}")
    return vec
