import math
import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import hornlr
from hornlr import (
    IndexTriple,
    InputError,
    Partition,
    find_horn_violation,
    generate_t,
    generate_u,
    horn_compatible,
    lr_positive,
    sample_necessity,
    weyl_bounds,
)
from hornlr.horn import (
    _SAMPLE_BLOCK,
    _horn_system,
    _screen_block,
    _t_family,
    _u_sets,
)

from oracles import (
    all_partitions,
    filtered_t,
    horn_matrix_by_triples,
    recursive_t,
    row_within,
    sample_by_trial,
    scan_first_violation,
    t_by_lr,
    trace_within,
)


def _sets(family):
    return {(t.i, t.j, t.k) for t in family}


def test_generate_u_2_1():
    assert _sets(generate_u(2, 1)) == {
        ((1,), (1,), (1,)),
        ((1,), (2,), (2,)),
        ((2,), (1,), (2,)),
    }


def test_generate_u_trivial_cases():
    assert _sets(generate_u(1, 1)) == {((1,), (1,), (1,))}
    for n in range(1, 7):
        full = tuple(range(1, n + 1))
        assert _sets(generate_u(n, n)) == {(full, full, full)}


def test_generate_u_lexicographic_order():
    triples = [(t.i, t.j, t.k) for t in generate_u(4, 2)]
    assert triples == sorted(triples)


def test_t_equals_u_at_r_1():
    for n in range(1, 7):
        assert generate_t(n, 1) == generate_u(n, 1)


def test_generate_t_3_1_hand_enumeration():
    assert _sets(generate_t(3, 1)) == {
        ((1,), (1,), (1,)),
        ((1,), (2,), (2,)),
        ((2,), (1,), (2,)),
        ((1,), (3,), (3,)),
        ((3,), (1,), (3,)),
        ((2,), (2,), (3,)),
    }


def test_t_subset_of_u():
    for n in range(1, 7):
        for r in range(1, n + 1):
            assert _sets(generate_t(n, r)) <= _sets(generate_u(n, r))
    # the filter removes something at n=4, r=2
    assert len(generate_t(4, 2)) < len(generate_u(4, 2))


def test_generate_t_matches_recursive_oracle():
    # T(n, r) from the matrix of T(r) is Horn's recursion written out
    # triple by triple, order included
    for n in range(1, 8):
        for r in range(1, n + 1):
            assert generate_t(n, r) == recursive_t(n, r), (n, r)


def test_generate_t_matches_lr_positivity():
    # by saturation, T(n, r) is the set of triples with a positive LR
    # coefficient; r = 1 and r = n included
    for n in range(1, 9):
        for r in range(1, n + 1):
            assert generate_t(n, r) == t_by_lr(n, r), (n, r)


def test_t_family_matches_filtering_every_r():
    # T(n, r) for n/2 < r < n is taken as the conjugates of T(n, n - r);
    # filtering U(n, r) with T(r) gives the same triples, order, index
    # array, dtype and read-only flag
    for n in range(1, 10):
        for r in range(1, n + 1):
            family, sets = _t_family(n, r)
            expected, expected_sets = filtered_t(n, r)
            assert family == expected, (n, r)
            assert sets.dtype == expected_sets.dtype, (n, r)
            assert np.array_equal(sets, expected_sets), (n, r)
            assert not sets.flags.writeable, (n, r)


def test_generated_triples_pass_the_public_constructor():
    # generated triples skip IndexTriple's validation; each must equal the
    # triple its public constructor builds (which stores plain ints)
    for n in range(1, 9):
        for r in range(1, n + 1):
            for t in (*generate_u(n, r), *generate_t(n, r)):
                assert t == IndexTriple(t.i, t.j, t.k, t.n), (n, r, t)
    # conjugated rows share one tuple per distinct index set
    family = generate_t(8, 5)
    sets = {s for t in family for s in (t.i, t.j, t.k)}
    assert len({id(s) for t in family for s in (t.i, t.j, t.k)}) == len(sets)


def test_t_n_n_without_the_matrix_of_t_n(monkeypatch):
    # T(n, n) is U(n, n): one triple, whose shapes are all zero, so no row
    # of T(n) is needed to keep it
    def refuse(n):
        raise AssertionError(f"_horn_system({n}) built")

    _t_family.cache_clear()
    monkeypatch.setattr(hornlr.horn, "_horn_system", refuse)
    for n in range(1, 13):
        full = tuple(range(1, n + 1))
        assert generate_t(n, n) == (IndexTriple(full, full, full, n),), n


def test_generation_skips_the_validator(monkeypatch):
    # U(n, r) and T(n, r), by filtering or by conjugation, are built
    # without running IndexTriple's __init__ or __post_init__, and the
    # matrix of T(n) is filled from the cached index arrays without
    # reading an attribute of any IndexTriple
    def refuse(*args, **kwargs):
        raise AssertionError("IndexTriple validated a generated triple")

    for r in range(2, 7):
        _horn_system(r)
    with monkeypatch.context() as patch:
        patch.setattr(IndexTriple, "__init__", refuse)
        patch.setattr(IndexTriple, "__post_init__", refuse)
        made = {(n, r): _t_family.__wrapped__(n, r) for n in range(3, 8) for r in range(1, n + 1)}
        u = {(n, r): generate_u(n, r) for n in range(3, 8) for r in range(1, n + 1)}
    for (n, r), (family, sets) in made.items():
        assert family == generate_t(n, r), (n, r)
        assert np.array_equal(sets, _t_family(n, r)[1]), (n, r)
        assert [(t.i, t.j, t.k) for t in u[n, r]] == list(_u_sets(n, r)), (n, r)
    reads = 0
    read = IndexTriple.__getattribute__

    def counting(self, name):
        nonlocal reads
        reads += 1
        return read(self, name)

    for n in range(3, 8):
        families = [generate_t(n, r) for r in range(1, n)]
        with monkeypatch.context() as patch:
            patch.setattr(IndexTriple, "__getattribute__", counting)
            triples, _ = _horn_system.__wrapped__(n)
        assert reads == 0, n
        assert triples == sum(families, ())


def test_horn_system_matches_fill_by_triples():
    # the matrix of T(n) from the index arrays cached with T(n, r) equals
    # the one filled from each IndexTriple's attributes; both are shared
    for n in range(1, 9):
        triples, matrix = _horn_system(n)
        expected_triples, expected = horn_matrix_by_triples(n)
        assert triples == expected_triples, n
        assert (matrix.shape, matrix.dtype) == (expected.shape, expected.dtype), n
        assert np.array_equal(matrix, expected), n
        with pytest.raises(ValueError):
            matrix[...] = 0
        for r in range(1, n):
            sets = _t_family(n, r)[1]
            assert sets.dtype == np.min_scalar_type(3 * n), (n, r)
            assert np.array_equal(sets, [t.i + t.j + t.k for t in generate_t(n, r)]), (n, r)
            with pytest.raises(ValueError):
                sets[0, 0] = 1


def test_invalid_dimensions_rejected():
    generate_t(1, 1)  # cached: a later bool 1 must not hit this entry
    # lists too: the cache of generate_t must not hash them before the check
    for bad in [(0, 1), (3, 0), (3, 4), (-1, 1), (2.5, 1), ("3", 1), (True, 1), (3, 1.0), ([8], 1), (8, [1])]:
        with pytest.raises(InputError):
            generate_u(*bad)
        with pytest.raises(InputError):
            generate_t(*bad)
    with pytest.raises(InputError):
        IndexTriple((1,), (1,), (1,), 1.5)
    with pytest.raises(InputError):
        IndexTriple((1,), (1,), (1,), "3")
    for bad in [((1.5,), (1,), (1,)), ((1,), ("1",), (1,)), ((1,), (1,), (True,))]:
        with pytest.raises(InputError):
            IndexTriple(*bad, 2)
    # index sets must be tuples: a list would be accepted, then fail to hash
    for bad in [(1, 1, 1), (None, None, None), ([1], [1], [1]), ((1,), [1], (1,)), ((1,), (1,), range(1, 2))]:
        with pytest.raises(InputError, match="must be tuples"):
            IndexTriple(*bad, 2)
    for k in (1.5, True, "1"):
        with pytest.raises(InputError):
            weyl_bounds((1, 0), (1, 0), k)
    with pytest.raises(InputError, match="equal length"):
        horn_compatible((1, 0), (1, 0), (2,))
    with pytest.raises(InputError, match="equal length"):
        find_horn_violation((1, 0), (1,), (2, 0))
    with pytest.raises(InputError, match="equal length"):
        weyl_bounds((1, 0), (1,), 1)


NOT_SEQUENCES = [None, 2, 2.0, iter([1, 0]), {1, 0}, {1: 0}, np.array(1)]


@pytest.mark.parametrize(
    "call",
    [
        lambda v: find_horn_violation(v, [1, 0], [2, 0]),
        lambda v: horn_compatible([1, 0], v, [2, 0]),
        lambda v: find_horn_violation([1, 0], [1, 0], v),
        lambda v: weyl_bounds(v, [1, 0], 1),
        lambda v: weyl_bounds([1, 0], v, 1),
        lambda v: find_horn_violation([1, 0], v, [2, 0]),
    ],
    ids=["find_horn_violation", "horn_compatible", "find_horn_violation_gamma", "weyl_alpha", "weyl_beta", "find_horn_violation_beta"],
)
def test_non_sequence_spectra_rejected(call):
    for bad in NOT_SEQUENCES:
        with pytest.raises(InputError, match="must be a sequence"):
            call(bad)
    # a numpy array of one dimension is a sequence here
    call(np.array([1, 0]))


def test_index_triple_validation():
    with pytest.raises(InputError):
        IndexTriple((1, 1), (1, 2), (1, 2), 3)
    with pytest.raises(InputError):
        IndexTriple((1,), (4,), (1,), 3)
    with pytest.raises(InputError):
        IndexTriple((1,), (1, 2), (1,), 3)  # unequal cardinalities
    assert str(IndexTriple((1, 2), (1, 3), (2, 4), 4)) == "I={1,2} J={1,3} K={2,4}"


def test_single_inequality_examples():
    # T(2, 1) is {1}{1}{1}, {1}{2}{2}, {2}{1}{2}: gamma_1 <= alpha_1 + beta_1
    # is its first row, and (2, 0) meets every row
    t = IndexTriple((1,), (1,), (1,), 2)
    assert find_horn_violation((1, 0), (1, 0), (2, 0)) is None
    assert find_horn_violation((1, 0), (1, 0), (3, -1)) == t
    with pytest.raises(InputError):
        find_horn_violation((1, 0, 0), (1, 0), (2, 0))


def test_trace_condition_examples():
    assert find_horn_violation((1, 0), (1, 0), (2, 0)) != "trace"
    assert find_horn_violation((1, 0), (1, 0), (2, 1)) == "trace"
    assert find_horn_violation((3, 0, 0, 0), (1, 1, 1, 0), (4, 1, 1, 0)) != "trace"
    # numeric mode tolerates float fuzz
    assert find_horn_violation((1.0, 0.0), (1.0, 0.0), (2.0 + 1e-12, 0.0)) != "trace"
    assert find_horn_violation((1, 0), (1, 0), (2 + 1, 0)) == "trace"


def test_horn_compatible_dimension_one():
    assert horn_compatible((5,), (7,), (12,))
    assert not horn_compatible((5,), (7,), (11,))


def test_horn_compatible_padded_partition_triples():
    assert horn_compatible((3, 0, 0, 0), (1, 1, 1, 0), (4, 1, 1, 0))
    assert not horn_compatible((3, 0, 0, 0), (1, 1, 1, 0), (6, 0, 0, 0))


def test_find_horn_violation_reports_trace_first():
    assert find_horn_violation((1, 0), (1, 0), (3, 0)) == "trace"
    witness = find_horn_violation((3, 0, 0, 0), (1, 1, 1, 0), (6, 0, 0, 0))
    assert isinstance(witness, IndexTriple)


def _int_triple(rng, n):
    """gamma = alpha + beta is compatible; moving units between its
    entries (trace kept) may break that."""
    alpha = sorted((rng.randint(-6, 6) for _ in range(n)), reverse=True)
    beta = sorted((rng.randint(-6, 6) for _ in range(n)), reverse=True)
    gamma = [a + b for a, b in zip(alpha, beta)]
    for _ in range(rng.randint(0, 3) if n >= 2 else 0):
        up, down = rng.sample(range(n), 2)
        gamma[up] += 1
        gamma[down] -= 1
    gamma.sort(reverse=True)
    return alpha, beta, gamma


def _float_triple(rng, np_rng, n):
    """Spectra of A, B and A + B, then the same kind of move."""
    a_mat, b_mat = (np_rng.uniform(-1, 1, (n, n)) for _ in range(2))
    a_mat, b_mat = a_mat + a_mat.T, b_mat + b_mat.T
    alpha, beta, gamma = (
        sorted(np.linalg.eigvalsh(m).tolist(), reverse=True) for m in (a_mat, b_mat, a_mat + b_mat)
    )
    if n >= 2 and rng.random() < 0.7:
        up, down = sorted(rng.sample(range(n), 2))
        step = rng.uniform(0, 2)
        gamma[up] += step
        gamma[down] -= step
        gamma.sort(reverse=True)
    return alpha, beta, gamma


def _assert_same_witnesses(triples, tol=None):
    found = [find_horn_violation(*triple, tol=tol) for triple in triples]
    assert found == [scan_first_violation(*triple, tol=tol) for triple in triples]
    return found


def test_find_horn_violation_returns_first_failed_triple():
    rng = random.Random(17)
    np_rng = np.random.default_rng(17)
    witnesses = {"exact": [], "float": []}
    for n in range(0, 9):
        for _ in range(30 if n <= 6 else 5):
            witnesses["exact"].append(_int_triple(rng, n))
            witnesses["float"].append(_float_triple(rng, np_rng, n))
    for kind, triples in witnesses.items():
        found = _assert_same_witnesses(triples)
        assert None in found, kind
        assert sum(isinstance(w, IndexTriple) for w in found) >= 10, kind
        assert any(isinstance(w, IndexTriple) and w.n == 8 for w in found), kind


def test_find_horn_violation_exact_beyond_float64():
    # 3n * max|v| > 2**53: the float64 screen with its margin flags rows
    # and exact comparisons decide them (entries of 2**70 are past the
    # screen and compared row by row); a one-unit move stays visible
    # next to entries of 2**70
    rng = random.Random(23)
    triples = []
    for n in (2, 4, 6, 8):
        for big in (2**70, 2**53 // (3 * n) + 1):
            for _ in range(6):
                alpha, beta, gamma = _int_triple(rng, n)
                shift = [big * (n - i) for i in range(n)]
                triples.append(
                    ([a + s for a, s in zip(alpha, shift)], beta, [g + s for g, s in zip(gamma, shift)])
                )
    found = _assert_same_witnesses(triples)
    assert None in found and any(isinstance(w, IndexTriple) for w in found)
    assert find_horn_violation((2**70, 0), (0, 0), (2**70 + 1, -1)) == IndexTriple((1,), (1,), (1,), 2)


def test_find_horn_violation_fractions_and_number_kinds():
    rng = random.Random(29)
    np_rng = np.random.default_rng(29)
    kinds = {
        "fraction": lambda v, i: Fraction(v, 1 + i % 5),
        "mixed int and fraction": lambda v, i: Fraction(v, 3) if i % 2 else v,
        "float": lambda v, i: float(v) / 4,
        "mixed int and float": lambda v, i: v / 4 if i % 3 == 0 else v,
        "np.int64": lambda v, i: np.int64(v),
        "np.float64": lambda v, i: np.float64(v) / 3,
        "np.float32": lambda v, i: np.float32(v) / 2,
        # sums past 2**63 would wrap in int64: numpy integers are summed as
        # Python ints, in the library and in the scan
        "np.int64 near 2**63": lambda v, i: np.int64(v) * np.int64(2**59),
    }
    for name, convert in kinds.items():
        triples = []
        for n in range(0, 8):
            for _ in range(12):
                alpha, beta, gamma = _int_triple(rng, n)
                # sorted again: converting entry by entry may break the order
                triples.append(
                    tuple(
                        sorted((convert(v, i) for i, v in enumerate(vec)), reverse=True)
                        for vec in (alpha, beta, gamma)
                    )
                )
        with np.errstate(over="raise"):
            found = _assert_same_witnesses(triples)
        assert any(isinstance(w, IndexTriple) for w in found), name
    floats = [_float_triple(rng, np_rng, n) for n in range(1, 8) for _ in range(8)]
    _assert_same_witnesses([tuple(np.array(v) for v in triple) for triple in floats])
    for tol in (0.0, 1e-3, Fraction(1, 10), np.float32(1e-6), -1e-6):
        _assert_same_witnesses(floats, tol=tol)
    # a float32 tolerance rounds the comparison to single precision: the
    # excess 2**-26 is within the tolerance 2**-25, yet gamma_1 rounds up
    # and alpha_1 + beta_1 + tol down to the neighbouring float32 values
    u = 2.0**-27
    alpha, beta, gamma = (1 + 7 * u, 0.0), (0.0, 0.0), (1 + 9 * u, -2 * u)
    found = _assert_same_witnesses([(alpha, beta, gamma)], tol=np.float32(2.0**-25))
    assert found == [IndexTriple((1,), (1,), (1,), 2)]


def test_find_horn_violation_ties_at_the_tolerance():
    # gamma = alpha + beta holds T(n, 1)'s first inequality with equality;
    # moving `excess` from gamma_n to gamma_1 makes it fail by `excess`
    def moved(alpha, beta, excess):
        gamma = [a + b for a, b in zip(alpha, beta)]
        gamma[0] += excess
        gamma[-1] -= excess
        return alpha, beta, gamma

    first = IndexTriple((1,), (1,), (1,), 4)
    alpha, beta = [3.5, 1.25, 0.5, -2.0], [2.0, 0.75, -1.0, -1.5]
    # dyadic values: every sum is exact, so the verdict at the tie is known
    tol, eps = 2.0**-30, 2.0**-50
    cases = [moved(alpha, beta, tol + d) for d in (-eps, 0.0, eps)]
    assert _assert_same_witnesses(cases, tol=tol) == [None, None, first]
    # the default tolerance is not dyadic: rounding decides, as in the scan
    triples = [moved(alpha, beta, 1e-9 + d) for d in (-1e-15, 0.0, 1e-15)]
    found = _assert_same_witnesses(triples)
    assert found[0] is None and found[2] == first
    # within a few ulps of the tolerance the float64 product and the
    # scalar sums round differently; the screen's margin must cover that
    rng = np.random.default_rng(31)
    for n in (3, 6):
        for _ in range(25):
            a, b = (sorted(rng.uniform(-1, 1, n).tolist(), reverse=True) for _ in range(2))
            _assert_same_witnesses([moved(a, b, 1e-9 + d * 2.0**-53) for d in range(-4, 5)])


def test_horn_symmetry_in_the_summands():
    rng = random.Random(5)
    pool = [p for p in all_partitions(8, max_part=5, max_length=4)]
    for _ in range(200):
        a, b = rng.choice(pool), rng.choice(pool)
        g = rng.choice(pool)
        pa, pb, pg = (tuple(v) + (0,) * (4 - len(v)) for v in (a, b, g))
        assert horn_compatible(pa, pb, pg) == horn_compatible(pb, pa, pg)


def test_weyl_bounds_examples():
    zeros = (0, 0, 0)
    for k in (1, 2, 3):
        assert weyl_bounds(zeros, zeros, k) == (0, 0)
    alpha, beta = (5, 2, 1), (4, 4, 0)
    lower, upper = weyl_bounds(alpha, beta, 1)
    assert upper == alpha[0] + beta[0]
    assert lower <= upper
    with pytest.raises(InputError):
        weyl_bounds(alpha, beta, 0)
    with pytest.raises(InputError):
        weyl_bounds(alpha, beta, 4)


def test_weyl_windows_ordered_for_sorted_inputs():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randint(1, 6)
        alpha = tuple(sorted((rng.randint(-9, 9) for _ in range(n)), reverse=True))
        beta = tuple(sorted((rng.randint(-9, 9) for _ in range(n)), reverse=True))
        for k in range(1, n + 1):
            lower, upper = weyl_bounds(alpha, beta, k)
            assert lower is not None and upper is not None
            assert lower <= upper


def test_lr_horn_equivalence_small():
    # small slice of the acceptance sweep: parts <= 3, sizes <= 6, n = 3
    pool = all_partitions(6, max_part=3, max_length=3)
    for a in pool:
        for b in pool:
            if sum(a) + sum(b) > 6:
                continue
            for g in pool:
                if sum(g) != sum(a) + sum(b):
                    continue
                pa, pb, pg = (tuple(v) + (0,) * (3 - len(v)) for v in (a, b, g))
                assert lr_positive(Partition(a), Partition(b), Partition(g)) == horn_compatible(
                    pa, pb, pg
                ), (a, b, g)


def test_sample_necessity_smoke():
    report = sample_necessity(3, 100, tol=1e-9, seed=0)
    assert report.trials == 100
    assert report.total_violations == 0


def test_sample_necessity_matches_per_trial_oracle():
    # trials = 0, 1 and more than one block; negative tolerances make
    # every kind of count nonzero; a float32 one and one too large to
    # screen get an infinite margin, so every row of every trial is confirmed
    for n in range(1, 7):
        for trials in (0, 1, _SAMPLE_BLOCK + 5):
            for tol in (1e-9, 0.0, -0.05, np.float32(1e-9)) + ((10**30,) if n <= 4 else ()):
                seed = 100 * n + trials
                assert sample_necessity(n, trials, tol, seed) == sample_by_trial(n, trials, tol, seed)
    report = sample_necessity(2, _SAMPLE_BLOCK + 5, -0.05, 205)
    assert report.trace_violations and report.inequality_violations and report.weyl_violations


def test_sampling_leaves_numpy_random_unimported():
    # numpy imports numpy.random lazily, at a cost of milliseconds and
    # megabytes in every fresh interpreter; the sampler draws without it
    src = os.path.dirname(os.path.dirname(hornlr.__file__))
    code = (
        "import sys; from hornlr import sample_necessity; "
        "report = sample_necessity(5, 60, seed=1); "
        "print(report.total_violations, 'numpy.random' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == "0 False\n"


def test_sample_screen_flags_every_failure():
    # alpha, beta descending, gamma = alpha + beta moved by multiples of
    # 0.75 tol: many conditions sit near their bounds. Every trial that a
    # scalar check rejects must be a suspect, and every rejected row flagged;
    # a trial outside a Weyl window must have one of the Weyl rows, which
    # follow the rows of T(n), flagged. T(1) has no rows, but n = 1 has a
    # Weyl window. A float32 tolerance, whose scalar sums round in single
    # precision, cannot be screened, so its margin must be infinite.
    rng = np.random.default_rng(37)
    seen = set()
    for tol in (1e-9, np.float32(1e-9)):
        for n in (1, 2, 3, 4, 5):
            triples, matrix = _horn_system(n)
            alpha, beta = (-np.sort(-rng.uniform(-1, 1, (300, n)), axis=1) for _ in range(2))
            gamma = alpha + beta + rng.integers(-2, 3, (300, n)) * 0.75 * tol
            spectra = np.hstack((alpha, beta, gamma))
            flagged, suspects = _screen_block(spectra, matrix, n, tol)
            for s, row in enumerate(spectra.tolist()):
                a, b, g = row[:n], row[n : 2 * n], row[2 * n :]
                trace = trace_within(a, b, g, tol)
                rejected = {i for i, t in enumerate(triples) if not row_within(t, a, b, g, tol)}
                windows = [weyl_bounds(a, b, k) for k in range(1, n + 1)]
                weyl = all(low - tol <= gk <= up + tol for gk, (low, up) in zip(g, windows))
                assert rejected <= set(np.flatnonzero(flagged[s]).tolist())
                assert weyl or flagged[s, len(triples) :].any()
                assert suspects[s] or (trace and weyl and not rejected)
                seen.add((trace, not rejected, weyl))
    # trials that only the trace, or only a Weyl window, rejects
    assert {(False, True, True), (True, True, False)} <= seen


def test_sample_necessity_rejects_bad_args():
    for n, trials in [(0, 10), (3, -1), (2.5, 1), (3, 1.5), (True, 1), (3, "10")]:
        with pytest.raises(InputError):
            sample_necessity(n, trials)


def test_sample_necessity_rejects_bad_seeds():
    for seed in (-1, 1.5, "x", None, True, np.True_):
        with pytest.raises(InputError, match="seed"):
            sample_necessity(2, 1, seed=seed)
    assert sample_necessity(2, 3, seed=np.int64(3)) == sample_necessity(2, 3, seed=3)
    assert sample_necessity(2, 1, seed=2**70).trials == 1


def test_exact_mode_ignores_tolerance():
    # an exact off-by-one is never forgiven, whatever tol says
    assert find_horn_violation((1, 0), (1, 0), (3, 0), tol=10.0) == "trace"
    t = IndexTriple((1,), (1,), (1,), 2)
    assert find_horn_violation((1, 0), (1, 0), (3, -1), tol=10.0) == t


def test_spectra_must_decrease_weakly():
    # diag(1, 0) + 0 realises ((1, 0), (0, 0), (1, 0)); listed in increasing
    # order, the triple read "incompatible" and gave the window (1, 0)
    for call in (
        lambda: horn_compatible((0, 1), (0, 0), (0, 1)),
        lambda: find_horn_violation((1, 0), (0, 0), (0, 1)),
        lambda: weyl_bounds((0, 1), (0, 0), 1),
        lambda: weyl_bounds((1.0, 0.0), (0.0, 0.5), 1),
        # exact entries are ordered exactly, whatever the tolerance
        lambda: find_horn_violation((1, 2), (0, 0), (1, 2), tol=10.0),
    ):
        with pytest.raises(InputError, match="weakly decreasing"):
            call()
    assert horn_compatible((1, 0), (0, 0), (1, 0))
    # inexact entries inverted by less than the tolerance are accepted,
    # and equal entries under a negative one
    assert horn_compatible((1.0, 1.0 + 1e-10), (0.0, 0.0), (1.0, 1.0 + 1e-10))
    assert find_horn_violation((1.0, 1.5), (0.0, 0.0), (1.0, 1.5), tol=1.0) is None
    assert weyl_bounds((1.0, 1.0 + 1e-10), (0.0, 0.0), 2) == (1.0 + 1e-10, 1.0)
    assert find_horn_violation((1.0, 1.0), (0, 0), (1.0, 1.0), tol=-0.5) == "trace"
    with pytest.raises(InputError, match="weakly decreasing"):
        find_horn_violation((1.0, 1.5), (0.0, 0.0), (1.0, 1.5), tol=0.25)


def test_non_real_entries_and_tolerances_rejected():
    non_finite = [math.inf, -math.inf, math.nan, np.float32("inf")]
    for bad in ["a", None, 1j, Decimal(1), [1], *non_finite]:
        gamma = (2, bad)
        with pytest.raises(InputError):
            horn_compatible((1, 0), (1, 0), gamma)
        with pytest.raises(InputError):
            find_horn_violation((1, 0), (1, 0), gamma)
    with pytest.raises(InputError):
        weyl_bounds((1, "a"), (1, 0), 1)
    with pytest.raises(InputError):
        weyl_bounds((1, None), (1, 0), 2)
    # not a "trace" witness, an inverted window or a NaN one
    for bad in non_finite:
        with pytest.raises(InputError, match="finite"):
            weyl_bounds((bad, 0.0), (1.0, 0.0), 1)
        with pytest.raises(InputError, match="finite"):
            find_horn_violation((bad, 0.0), (1.0, 0.0), (bad, 1.0))
        with pytest.raises(InputError, match="finite"):
            find_horn_violation((bad, 0.0), (0.0, 0.0), (0.0, 0.0))
    for tol in ["x", 1j, [1e-9], math.nan, math.inf, -math.inf, np.float64("nan")]:
        with pytest.raises(InputError):
            horn_compatible((1, 0), (1, 0), (2, 0), tol=tol)
        with pytest.raises(InputError):
            horn_compatible((1.0, 0), (1.0, 0), (2.0, 0), tol=tol)
        with pytest.raises(InputError):
            find_horn_violation((1.0, 0.0), (1.0, 0.0), (2.0, 0.0), tol=tol)
        with pytest.raises(InputError):
            find_horn_violation((1, 0), (1, 0), (2, 0), tol=tol)
        with pytest.raises(InputError):
            sample_necessity(2, 3, tol=tol)


def test_numpy_integers_sum_without_wrapping():
    big, zero = np.int64(2**62), np.int64(0)
    assert horn_compatible((big, zero), (big, zero), (big, big))
    assert horn_compatible((2**62, 0), (2**62, 0), (2**62, 2**62))
    assert weyl_bounds((big, zero), (big, zero), 1) == (2**62, 2**63)
    # the same answers as for Python ints, near 2**63 included, where
    # int64 sums would wrap
    rng = random.Random(37)
    for n in range(1, 8):
        for scale in (1, 2**57, 2**59):
            for _ in range(6):
                triple = [[v * scale for v in vec] for vec in _int_triple(rng, n)]
                as_numpy = [[np.int64(v) for v in vec] for vec in triple]
                with np.errstate(over="raise"):
                    assert find_horn_violation(*as_numpy) == find_horn_violation(*triple)
                    assert horn_compatible(*as_numpy) == horn_compatible(*triple)


def test_floats_whose_sums_overflow_rejected():
    # diag(1e308, 0) + diag(0, 1e308) realises this triple, and its int
    # copy is compatible, but the float sums overflow to inf: a float
    # entry is bounded like an int mixed with floats
    huge = (1e308, 0.0), (1e308, 0.0), (1e308, 1e308)
    assert find_horn_violation(*([int(v) for v in vec] for vec in huge)) is None
    calls = (
        lambda: find_horn_violation(*huge),
        lambda: horn_compatible(*huge),
        lambda: weyl_bounds((1e308, 1e308), (1e308, 1e308), 1),
    )
    for call in calls:
        with pytest.raises(InputError, match="magnitude"):
            call()
    # the largest float over (entries + 1) is still taken
    edge = sys.float_info.max / 7
    assert find_horn_violation((edge, 0.0), (edge, 0.0), (edge, edge)) is None


def test_huge_exact_entries_mixed_with_floats_rejected():
    # 10**400 + 0.5 raises OverflowError; the check comes before any sum
    huge = (10**400, 0), (0.5, -0.5), (10**400, 0)
    with pytest.raises(InputError):
        horn_compatible(*huge)
    with pytest.raises(InputError):
        find_horn_violation(*huge)
    with pytest.raises(InputError):
        weyl_bounds(huge[0], huge[1], 1)
    for big in (10**400, Fraction(10**400, 3)):
        with pytest.raises(InputError):
            find_horn_violation((big, 0.5), (0, 0), (big, 0.5))
        with pytest.raises(InputError):
            weyl_bounds((big, 0.5), (0, 0), 1)
    with pytest.raises(InputError):
        horn_compatible((0.5, 0.5), (0.5, 0.5), (1.0, 1.0), tol=10**400)
    # a tolerance beyond the float range, which the sampler adds to
    # floats, is rejected on exact input too; 10**5000 has more digits
    # than Python 3.11+ converts to a decimal string
    for tol in (10**400, -(10**400), Fraction(10**400, 3), 10**5000):
        with pytest.raises(InputError, match="tolerance") as info:
            sample_necessity(2, 3, tol=tol)
        assert len(str(info.value)) < 200  # the value is abbreviated
        with pytest.raises(InputError, match="tolerance"):
            horn_compatible((1, 0), (1, 0), (2, 0), tol=tol)
        with pytest.raises(InputError, match="tolerance"):
            find_horn_violation((1, 0), (1, 0), (2, 0), tol=tol)
    assert sample_necessity(2, 3, tol=int(sys.float_info.max)).total_violations == 0
    # other messages that show such an int abbreviate it too
    for call in (
        lambda: weyl_bounds((1, 0), (1, 0), 10**5000),
        lambda: generate_u(1, 10**5000),
        lambda: IndexTriple((1,), (1,), (1,), -(10**5000)),
        lambda: IndexTriple((10**5000,), (1,), (1,), 3),
    ):
        with pytest.raises(InputError) as info:
            call()
        assert len(str(info.value)) < 200
    # partial sums of entries within range can still pass the float range
    with pytest.raises(InputError):
        horn_compatible((10**308, 10**308), (0.5, -0.5), (10**308, 10**308))
    # without floats the arithmetic is exact, whatever the size
    assert horn_compatible((10**400, 0), (1, -1), (10**400 + 1, -1))
    assert weyl_bounds((10**400, 0), (0, 0), 1) == (10**400, 10**400)
    assert horn_compatible((10**300, 0), (0.5, -0.5), (10**300, 0))


def test_real_number_kinds_still_accepted():
    for kind in [int, Fraction, float, np.int64, np.float64, np.float32]:
        alpha, beta = (kind(3), kind(0), kind(0)), (kind(1), kind(1), kind(0))
        assert horn_compatible(alpha, beta, (kind(4), kind(1), kind(0)))
        assert not horn_compatible(alpha, beta, (kind(5), kind(0), kind(0)))
    assert horn_compatible((1, 0), (1, 0), (2, 0), tol=Fraction(1, 10**9))
    assert horn_compatible((1.0, 0.0), (1.0, 0.0), (2.0, 0.0), tol=np.float64(1e-9))
    assert sample_necessity(2, 3, tol=None).tol == 1e-9
