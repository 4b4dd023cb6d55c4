"""Candidate spectra of integral line graphs and their verification.

For partitions alpha, beta of equal size e (the degree sequences of the
two colour classes of a bipartite graph on nu = m + n vertices), the
candidate set P(alpha, beta) collects every partition gamma of size 2e
with exactly nu - 1 parts such that

  a) the Littlewood-Richardson coefficient of gamma in alpha * beta is
     non-zero,
  b) the first part strictly dominates the others,
  c) sum((gamma_i - 2)^2) = 2 * (sum C(alpha_j, 2) + sum C(beta_k, 2))
     - 4 (e - nu + 1),
  d) sum((gamma_i - 2)^3) = 6 * (sum C(alpha_j, 3) + sum C(beta_k, 3))
     + 8 (e - nu + 1).

`enumerate_p` finds P(alpha, beta) by a depth-first search that places
the parts of gamma largest first, the second below the first (b) and
each at most its Weyl cap: a positive LR coefficient forces
gamma_{i+j-1} <= alpha_i + beta_j, and the rows i = 1, j = 1,
i = l(alpha) + 1 and j = l(beta) + 1 of these bound every part, the
first by alpha_1 + beta_1. The parts still to place have a known sum
and lie between 1 and the lesser of the last part placed and the next
cap; since (g - 2)^2 and (g - 2)^3 have nondecreasing differences on
g >= 1, the sum of either over them is smallest at the most balanced
split and largest at the most extreme one (Karamata). A prefix whose
range misses the value fixed by (c) or (d) is cut, and LR positivity
tested last.

When the line graph of a connected bipartite graph is integral, its
spectrum is gamma_1 - 2 >= ... >= gamma_{nu-1} - 2 together with -2
repeated e - nu + 1 times, for some gamma in P(alpha, beta); its
diameter is bounded by the largest number of distinct parts over the
candidate set, and by twice the clique number. `analyze_line_graph`
checks all of this on a concrete graph and reports any failure as a
theorem violation (which would mean a bug, not new mathematics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .errors import DEFAULT_TOL, InputError, TheoremViolation, as_int, as_tolerance, brief, require_type
from .graphs import (
    BipartiteGraph,
    Graph,
    clique_number,
    degree_partitions,
    diameter,
    exact_spectrum,
    expand_root_multiset,
    integer_spectrum,
    line_graph,
    numeric_spectrum,
    _multiplicity,
)
from .lr import lr_positive
from .partitions import Partition, _descending_parts


def moment_c(
    gamma: Partition, alpha: Partition, beta: Partition, e: int, nu: int
) -> bool:
    """Exact second-moment identity, condition (c) above.

    gamma is read as a length nu - 1 vector (missing parts count as 0,
    contributing (0 - 2)^2 each); more than nu - 1 parts is an error.
    """
    return _moment(gamma, alpha, beta, e, nu, 2)


def moment_d(
    gamma: Partition, alpha: Partition, beta: Partition, e: int, nu: int
) -> bool:
    """Exact third-moment identity, condition (d) above."""
    return _moment(gamma, alpha, beta, e, nu, 3)


def _moment(
    gamma: Partition, alpha: Partition, beta: Partition, e: int, nu: int, power: int
) -> bool:
    """Condition (c) for power 2 and (d) for power 3, once the argument
    types are checked."""
    if not all(isinstance(p, Partition) for p in (gamma, alpha, beta)):
        require_type(Partition, gamma=gamma, alpha=alpha, beta=beta)
    e, nu = as_int(e, "e"), as_int(nu, "nu")
    target = _moment_targets(alpha, beta, e, nu)[power - 2]
    return _shifted_power_sum(gamma, nu - 1, power) == target


def _moment_targets(
    alpha: Partition, beta: Partition, e: int, nu: int
) -> tuple[int, int]:
    """The right-hand sides of (c) and (d)."""
    pairs = sum(math.comb(a, 2) for a in alpha) + sum(math.comb(b, 2) for b in beta)
    triples = sum(math.comb(a, 3) for a in alpha) + sum(math.comb(b, 3) for b in beta)
    return 2 * pairs - 4 * (e - nu + 1), 6 * triples + 8 * (e - nu + 1)


def _shifted_power_sum(gamma: Partition, length: int, power: int) -> int:
    if gamma.length > length:
        raise InputError(
            f"gamma has {gamma.length} parts but only {brief(length)} are allowed"
        )
    return sum((g - 2) ** power for g in gamma.padded(length))


@dataclass(frozen=True)
class CandidateSet:
    """P(alpha, beta): all candidate shifted spectra, descending lex."""

    alpha: Partition
    beta: Partition
    members: tuple[Partition, ...]
    e: int
    nu: int

    @property
    def max_distinct_parts(self) -> Optional[int]:
        if not self.members:
            return None
        return max(g.distinct_parts for g in self.members)

    def __contains__(self, gamma: Partition) -> bool:
        return gamma in self.members

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


def enumerate_p(alpha: Partition, beta: Partition) -> CandidateSet:
    """Compute P(alpha, beta) by a depth-first search cut by (c) and (d).

    The parts of gamma are placed largest first, each at most the one
    before, so members come out in descending lexicographic order. Each
    part is at most its Weyl cap (see `_weyl_caps`: a positive LR
    coefficient forces gamma_{i+j-1} <= alpha_i + beta_j), so the first
    is at most alpha_1 + beta_1, and the second is below the first,
    which is (b). A prefix is cut once the parts still to place cannot
    bring its sums of (g - 2)^2 and (g - 2)^3 to the values fixed by (c)
    and (d) (see `_next_parts`), so every tuple found meets (b), (c),
    (d) and the caps. LR positivity is tested last.
    """
    if not (isinstance(alpha, Partition) and isinstance(beta, Partition)):
        require_type(Partition, alpha=alpha, beta=beta)
    if alpha.size != beta.size:
        raise InputError(
            f"partitions must have equal size, got {brief(alpha.size)} and {brief(beta.size)}"
        )
    if alpha.size == 0:
        raise InputError("the common size e must be positive")
    e = alpha.size
    nu = alpha.length + beta.length
    need2, need3 = _moment_targets(alpha, beta, e, nu)
    members = []
    for parts in _moment_search(_weyl_caps(alpha, beta, nu - 1), 2 * e, need2, need3):
        gamma = Partition(parts)
        if lr_positive(alpha, beta, gamma):
            members.append(gamma)
    return CandidateSet(alpha, beta, tuple(members), e, nu)


def _weyl_caps(alpha: Partition, beta: Partition, length: int) -> tuple[int, ...]:
    """Upper bounds on gamma_1, ..., gamma_length (0-based position p)
    for every gamma with a positive LR coefficient in alpha * beta.

    Such a gamma obeys Weyl's inequalities gamma_{i+j-1} <= alpha_i +
    beta_j (Klyachko: then alpha, beta and gamma are the spectra of
    Hermitian A, B and A + B, for which Weyl proved them). Four rows of
    them, each O(1) per position, give the cap at p: i = 1 and j = 1,
    alpha_1 + beta_{p+1} and alpha_{p+1} + beta_1; and i = l(alpha) + 1,
    where alpha_i = 0, giving beta_{p+1-l(alpha)}, and likewise
    alpha_{p+1-l(beta)}. Parts past a partition's length read as 0. Each
    row is nonincreasing in p, so the caps are too. The minimum over
    every i + j = p + 2 prunes little more on the search's inputs and
    costs O(length^2).
    """
    a, b = alpha.parts, beta.parts
    la, lb = len(a), len(b)
    a += (0,) * length
    b += (0,) * length
    caps = []
    for p in range(length):
        cap = a[0] + b[p]
        if a[p] + b[0] < cap:
            cap = a[p] + b[0]
        if p >= la and b[p - la] < cap:
            cap = b[p - la]
        if p >= lb and a[p - lb] < cap:
            cap = a[p - lb]
        caps.append(cap)
    return tuple(caps)


def _moment_search(
    caps: tuple[int, ...], total: int, need2: int, need3: int
) -> Iterator[tuple[int, ...]]:
    """Descending tuples of len(caps) positive parts summing to `total`,
    the part at each position p at most caps[p] and the first, when
    there are two or more, above the second, with sum((g - 2)^2) ==
    need2 and sum((g - 2)^3) == need3; in descending lexicographic
    order."""
    length = len(caps)
    # after[k - 1] caps the part that follows one placed with k parts left
    after = (0,) + caps[:0:-1]
    return _descending_parts(
        length, _next_parts(length, total, caps[0], need2, need3, length >= 2, after)
    )


def _next_parts(
    k: int, total: int, top: int, need2: int, need3: int, strict: bool, after: tuple[int, ...]
):
    """Values g for the next of k parts that sum to `total`, each at most
    `top`, largest first, after which the remaining k - 1 parts can still
    add need2 - (g - 2)^2 to the sum of (g - 2)^2, for (c), and then
    need3 - (g - 2)^3 to the sum of (g - 2)^3, for (d). At the last part
    nothing remains, the range is (0, 0) and both tests are exact. Yields
    each g with the choices for the part after it (see
    `_descending_parts`), which is at most g, or g - 1 when `strict`,
    and at most its cap after[k - 1]. Parts never increase, so that
    bound holds for every later part too, and the early return and the
    Karamata ranges below use it.
    """
    next_cap = after[k - 1]
    for g in range(min(top, total - k + 1), 0, -1):
        rest = total - g
        cap = g - 1 if strict else g
        if cap > next_cap:
            cap = next_cap
        if rest > (k - 1) * cap:
            return  # a smaller g leaves more to place under a cap no higher
        rest2 = need2 - (g - 2) ** 2
        low, high = _power_sum_range(k - 1, rest, cap, 2)
        if low <= rest2 <= high:
            rest3 = need3 - (g - 2) ** 3
            low, high = _power_sum_range(k - 1, rest, cap, 3)
            if low <= rest3 <= high:
                yield g, (
                    _next_parts(k - 1, rest, cap, rest2, rest3, False, after) if k > 1 else None
                )


def _power_sum_range(k: int, total: int, top: int, power: int) -> tuple[int, int]:
    """Smallest and largest sum((g - 2)^power), power 2 or 3, over k
    integers in [1, top] with sum `total`, for k <= total <= k * top.

    On the integers g >= 1 both powers have nondecreasing differences
    (1, 1, 3, 5, ... and 1, 1, 7, 19, ...), so by Karamata the smallest
    comes from the balanced split (total mod k parts ceil(total / k), the
    rest floor(total / k)) and the largest from as many parts `top` as
    fit, one middle part and the rest 1s, each adding (-1)^power: those
    splits are majorized by, and majorize, every other one. When all k
    parts are `top`, the middle part 1 and the count -1 of 1s cancel.
    """
    if k == 0:
        return 0, 0
    q, r = divmod(total, k)
    low = r * (q - 1) ** power + (k - r) * (q - 2) ** power
    full, middle = divmod(total - k, top - 1) if top > 1 else (0, 0)
    return low, full * (top - 2) ** power + (middle - 1) ** power + (k - full - 1) * (-1) ** power


@dataclass(frozen=True)
class RamanujanVerdict:
    """Spectral-gap report for a k-regular graph.

    Two readings of the defining bound are reported side by side:
    `second_largest_ok` bounds |lambda_2| by 2*sqrt(k-1);
    `all_nontrivial_ok` bounds every eigenvalue except one Perron copy
    of k and, on bipartite graphs, one copy of -k; bipartiteness is read
    exactly from the multiplicities of k and -k. Both come
    from one descending eigenvalue list: exact integers, compared as
    squares, when the spectrum is integral (`exact`), and floats from
    the numeric eigensolver, compared within a tolerance, otherwise.
    """

    degree: int
    second_largest: Union[int, float]
    least: Union[int, float]
    bound: float
    second_largest_ok: bool
    all_nontrivial_ok: bool
    exact: bool

    @property
    def is_ramanujan(self) -> bool:
        """Verdict under the second-largest reading (the weaker bound is
        reported separately; nothing downstream silently picks one)."""
        return self.second_largest_ok


def ramanujan_verdict(g: Graph, *, tol: Optional[float] = DEFAULT_TOL) -> RamanujanVerdict:
    """Evaluate the spectral-gap bounds for a regular graph of degree k.

    k >= 1 is required so that the bound and a second eigenvalue exist (a
    k-regular graph has at least k + 1 vertices). `tol` widens the bound
    on a numeric spectrum; None means DEFAULT_TOL, and it must be a real
    number on every graph.

    The verdict reads only the graph's spectral record: the integer
    multiplicities found on the factor det(xI - M) (`integer_spectrum`,
    `_multiplicity`), which the graph builds once and keeps. For a line
    graph made by `line_graph(bg)` that factor has degree nu, and the
    characteristic polynomial of degree e is never built.
    """
    if not isinstance(g, Graph):
        require_type(Graph, g=g)
    tol = as_tolerance(tol)
    k = g.regular_degree()
    if k is None:
        raise InputError("Ramanujan verdicts require a regular graph")
    if k < 1:
        raise InputError("degree must be at least 1")
    return _verdict(g, k, _eigenvalues(g, integer_spectrum(g)), tol)


def _eigenvalues(
    g: Graph, roots: Optional[tuple[tuple[int, int], ...]]
) -> list:
    """Descending eigenvalues of g: the integer root multiset expanded,
    or numeric floats when it is None (g not integral)."""
    return expand_root_multiset(roots) if roots is not None else numeric_spectrum(g)


def _verdict(g: Graph, k: int, eigs: list, tol: float = DEFAULT_TOL) -> RamanujanVerdict:
    """The verdict for the k-regular graph g, k >= 1, from its descending
    eigenvalues `eigs`: ints when the spectrum is integral, floats
    otherwise.

    The largest eigenvalue is the Perron copy of k and, on a bipartite
    graph, the least is -k, so the nontrivial eigenvalues are a slice of
    `eigs`; each reading applies the same test to its eigenvalues.

    The graph is bipartite exactly when -k has the same multiplicity as
    k, both looked up in the graph's spectral record (`_multiplicity`),
    so the test costs no division. Each component is
    k-regular and connected, so k is a simple eigenvalue of it (Perron-
    Frobenius), and -k is one exactly when the component is bipartite:
    flipping the sign on one colour class maps A to -A, and an
    eigenvector for -k alternates in sign along every edge, so its signs
    2-colour the component. The test is exact, on integral and
    non-integral graphs alike.
    """
    bound = 2.0 * math.sqrt(k - 1)
    exact = isinstance(eigs[0], int)
    if exact:
        bound_sq = 4 * (k - 1)
        within = lambda v: v * v <= bound_sq
    else:
        within = lambda v: abs(v) <= bound + tol
    bipartite = _multiplicity(g, -k) == _multiplicity(g, k)
    nontrivial = eigs[1:-1] if bipartite else eigs[1:]
    return RamanujanVerdict(
        degree=k,
        second_largest=eigs[1],
        least=eigs[-1],
        bound=bound,
        second_largest_ok=within(eigs[1]),
        all_nontrivial_ok=all(map(within, nontrivial)),
        exact=exact,
    )


@dataclass(frozen=True)
class SpectrumReport:
    """Everything `analyze_line_graph` establishes about one graph."""

    alpha: Partition
    beta: Partition
    e: int
    nu: int
    is_integral: bool
    char_poly: tuple[int, ...]
    spectrum_int: Optional[tuple[tuple[int, int], ...]]
    spectrum_float: Optional[tuple[float, ...]]
    gamma_matched: Optional[Partition]
    p_set: Optional[CandidateSet]
    minus_two_multiplicity: int
    diameter: int
    max_k_gamma: Optional[int]
    two_omega: int
    ramanujan: Optional[RamanujanVerdict]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        """Canonical JSON form: fixed key order, exact integers kept as
        integers, floats rounded to 12 significant digits so that a
        parse/re-serialize cycle is byte-identical."""
        if self.is_integral:
            spectrum = [[v, m] for v, m in (self.spectrum_int or ())]
        else:
            spectrum = [_json_float(v) for v in (self.spectrum_float or ())]
        ram = None
        if self.ramanujan is not None:
            r = self.ramanujan
            ram = {
                "degree": r.degree,
                "second_largest": _json_number(r.second_largest),
                "least": _json_number(r.least),
                "bound": _json_float(r.bound),
                "ramanujan_second_largest": r.second_largest_ok,
                "ramanujan_all_nontrivial": r.all_nontrivial_ok,
                "exact": r.exact,
            }
        return {
            "is_integral": self.is_integral,
            "spectrum": spectrum,
            "gamma": list(self.gamma_matched) if self.gamma_matched is not None else None,
            "p_set": [list(g) for g in self.p_set.members] if self.p_set is not None else None,
            "minus_two_multiplicity": self.minus_two_multiplicity,
            "diameter": self.diameter,
            "max_k_gamma": self.max_k_gamma,
            "two_omega": self.two_omega,
            "ramanujan": ram,
            "alpha": list(self.alpha),
            "beta": list(self.beta),
            "e": self.e,
            "nu": self.nu,
            "char_poly": list(self.char_poly),
            "violations": list(self.violations),
        }


def _json_float(x: float) -> float:
    return float(f"{x:.12g}")


def _json_number(x):
    return x if isinstance(x, int) else _json_float(x)


def analyze_line_graph(bg: BipartiteGraph, include_p_set: bool = False) -> SpectrumReport:
    """Verify the integral-line-graph laws on one connected bipartite graph.

    Builds the line graph and its exact spectrum. When integral, the
    shifted spectrum (+2 on every eigenvalue above -2) is recovered and
    required to be a member of P(alpha, beta); the -2 multiplicity must
    equal e - nu + 1 (this one holds for every connected bipartite
    graph, integral or not, and is checked unconditionally); the
    diameter must respect both the distinct-part bound and twice the
    clique number. Failures land in `violations` rather than raising, so
    corpus runs can keep going; callers treat a non-empty list as a bug.

    P(alpha, beta) is computed for every integral graph, where the
    membership check needs it, and for a non-integral one only when
    `include_p_set` is true. A regular line graph's Ramanujan verdict
    reads the spectrum computed here: integral roots or the numeric one.
    The -2 multiplicity and the verdict's bipartiteness are looked up in
    the line graph's spectral record, which holds the multiplicities
    found on the degree-nu factor (`_multiplicity`); only the report's
    `char_poly` is the expanded polynomial.
    """
    if not isinstance(bg, BipartiteGraph):
        require_type(BipartiteGraph, bg=bg)
    if not bg.is_connected():
        raise InputError("analysis requires a connected bipartite graph")
    alpha, beta = degree_partitions(bg)
    lg, _ = line_graph(bg)
    e = lg.order
    nu = bg.order
    spec = exact_spectrum(lg)
    is_integral = spec.integer_roots is not None
    eigs = _eigenvalues(lg, spec.integer_roots)
    violations: list[str] = []

    minus_two = _multiplicity(lg, -2)
    if minus_two != e - nu + 1:
        violations.append(
            f"-2 multiplicity {minus_two} differs from e-nu+1 = {e - nu + 1}"
        )

    diam = diameter(lg)
    assert isinstance(diam, int)  # connected by construction
    omega = clique_number(lg)
    two_omega = 2 * omega
    degree = lg.regular_degree()
    ram = None
    if degree is not None and degree >= 1:
        ram = _verdict(lg, degree, eigs)

    gamma_matched: Optional[Partition] = None
    p_set: Optional[CandidateSet] = None
    max_k: Optional[int] = None
    spectrum_float: Optional[tuple[float, ...]] = None

    if not is_integral:
        spectrum_float = tuple(eigs)
        if include_p_set:
            p_set = enumerate_p(alpha, beta)
            max_k = p_set.max_distinct_parts
    else:
        if eigs[-1] < -2:
            violations.append(f"line graph eigenvalue {eigs[-1]} below -2")
        gamma_matched = Partition(v + 2 for v in eigs if v > -2)
        p_set = enumerate_p(alpha, beta)
        max_k = p_set.max_distinct_parts
        if not p_set.members:
            violations.append("candidate set P(alpha, beta) is empty")
        elif gamma_matched not in p_set:
            violations.append(
                f"recovered gamma {gamma_matched} not in P(alpha, beta)"
            )
        if max_k is not None and diam > max_k:
            violations.append(f"diameter {diam} exceeds max distinct parts {max_k}")
        if diam > two_omega:
            violations.append(f"diameter {diam} exceeds twice the clique number {two_omega}")

    return SpectrumReport(
        alpha=alpha,
        beta=beta,
        e=e,
        nu=nu,
        is_integral=is_integral,
        char_poly=spec.char_poly,
        spectrum_int=spec.integer_roots,
        spectrum_float=spectrum_float,
        gamma_matched=gamma_matched,
        p_set=p_set,
        minus_two_multiplicity=minus_two,
        diameter=diam,
        max_k_gamma=max_k,
        two_omega=two_omega,
        ramanujan=ram,
        violations=tuple(violations),
    )


_CASE_RANGES = {0: ("lambda0", 10), 1: ("lambda1", 8), 2: ("lambda2", 6)}


def classify_regular_ramanujan_case(bg: BipartiteGraph) -> str:
    """Case label for a connected s-regular bipartite graph whose line
    graph is integral and Ramanujan.

    The label records the second largest eigenvalue lambda of the base
    graph (0, 1 or 2) and the associated degree window is asserted:
    s <= 10, 8 or 6 respectively. The spectral-gap notion starts at
    degree 3, so s >= 3 is a precondition. lambda is read off the line
    spectrum: for an s-regular base, A(L) + 2I = B^T B shares its nonzero
    eigenvalues with B B^T = Q = A + sI, so every base eigenvalue t gives
    the line eigenvalue t + s - 2 and the rest are -2; the second largest
    line eigenvalue is lambda + s - 2, and the base spectrum is integral
    exactly when the line spectrum is. The two Ramanujan readings always
    agree here: the least line eigenvalue is -2, and
    2 < 2*sqrt(2s - 3). Out-of-window degrees or a second eigenvalue
    outside {0, 1, 2} would falsify a theorem and raise.
    """
    if not isinstance(bg, BipartiteGraph):
        require_type(BipartiteGraph, bg=bg)
    if not bg.is_connected():
        raise InputError("classification requires a connected graph")
    s = bg.regular_degree()
    if s is None:
        raise InputError("classification requires an s-regular bipartite graph")
    if s < 3:
        raise InputError(
            f"line graph degree 2s-2 = {2 * s - 2} is below the Ramanujan range (s >= 3)"
        )
    lg, _ = line_graph(bg)
    roots = integer_spectrum(lg)
    if roots is None:
        raise InputError("line graph is not integral")
    verdict = _verdict(lg, 2 * s - 2, expand_root_multiset(roots))
    if not verdict.second_largest_ok:
        raise InputError("line graph is not Ramanujan")
    lam = verdict.second_largest - (s - 2)
    if lam not in _CASE_RANGES:
        raise TheoremViolation(
            f"second largest base eigenvalue {lam} outside {{0, 1, 2}}"
        )
    label, s_max = _CASE_RANGES[lam]
    if s > s_max:
        raise TheoremViolation(
            f"case {label} admits 3 <= s <= {s_max}, got s = {s}"
        )
    return label
