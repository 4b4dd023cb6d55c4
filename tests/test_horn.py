import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from hornlr import (
    IndexTriple,
    InputError,
    Partition,
    check_inequality,
    find_horn_violation,
    generate_t,
    generate_u,
    horn_compatible,
    lr_positive,
    sample_necessity,
    trace_condition,
    weyl_bounds,
)

from oracles import all_partitions, recursive_t


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
    # T(n, r) from LR positivity is Horn's recursive family, order included
    for n in range(1, 8):
        for r in range(1, n + 1):
            assert generate_t(n, r) == recursive_t(n, r), (n, r)


def test_invalid_dimensions_rejected():
    generate_t(1, 1)  # cached: a later bool 1 must not hit this entry
    for bad in [(0, 1), (3, 0), (3, 4), (-1, 1), (2.5, 1), ("3", 1), (True, 1), (3, 1.0)]:
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
    for k in (1.5, True, "1"):
        with pytest.raises(InputError):
            weyl_bounds((1, 0), (1, 0), k)


def test_index_triple_validation():
    with pytest.raises(InputError):
        IndexTriple((1, 1), (1, 2), (1, 2), 3)
    with pytest.raises(InputError):
        IndexTriple((1,), (4,), (1,), 3)
    assert str(IndexTriple((1, 2), (1, 3), (2, 4), 4)) == "I={1,2} J={1,3} K={2,4}"


def test_check_inequality_examples():
    t = IndexTriple((1,), (1,), (1,), 2)
    assert check_inequality(t, (1, 0), (1, 0), (2, 0))
    assert not check_inequality(t, (1, 0), (1, 0), (3, -1))
    t2 = IndexTriple((2,), (1,), (2,), 2)
    assert check_inequality(t2, (1, 0), (1, 0), (2, 0))
    with pytest.raises(InputError):
        check_inequality(t, (1, 0, 0), (1, 0), (2, 0))


def test_trace_condition_examples():
    assert trace_condition((1, 0), (1, 0), (2, 0))
    assert not trace_condition((1, 0), (1, 0), (2, 1))
    assert trace_condition((3, 0, 0, 0), (1, 1, 1, 0), (4, 1, 1, 0))
    # numeric mode tolerates float fuzz
    assert trace_condition((1.0, 0.0), (1.0, 0.0), (2.0 + 1e-12, 0.0))
    assert not trace_condition((1, 0), (1, 0), (2 + 1, 0))


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


def _first_failed(alpha, beta, gamma):
    """find_horn_violation's answer by a plain loop over T(n, r), r < n."""
    if not trace_condition(alpha, beta, gamma):
        return "trace"
    n = len(alpha)
    for r in range(1, n):
        for t in generate_t(n, r):
            if not check_inequality(t, alpha, beta, gamma):
                return t
    return None


def test_find_horn_violation_returns_first_failed_triple():
    rng = random.Random(17)
    np_rng = np.random.default_rng(17)
    witnesses = {"exact": [], "float": []}
    for n in (4, 5, 6):
        for _ in range(30):
            # exact: gamma = alpha + beta is compatible; moving units
            # between its entries (trace kept) may break that
            alpha = sorted((rng.randint(-6, 6) for _ in range(n)), reverse=True)
            beta = sorted((rng.randint(-6, 6) for _ in range(n)), reverse=True)
            gamma = [a + b for a, b in zip(alpha, beta)]
            for _ in range(rng.randint(0, 3)):
                up, down = rng.sample(range(n), 2)
                gamma[up] += 1
                gamma[down] -= 1
            gamma.sort(reverse=True)
            witnesses["exact"].append((alpha, beta, gamma))
            # float: spectra of A, B and A + B, then the same kind of move
            a_mat, b_mat = (np_rng.uniform(-1, 1, (n, n)) for _ in range(2))
            a_mat, b_mat = a_mat + a_mat.T, b_mat + b_mat.T
            alpha, beta, gamma = (
                sorted(np.linalg.eigvalsh(m).tolist(), reverse=True)
                for m in (a_mat, b_mat, a_mat + b_mat)
            )
            if rng.random() < 0.7:
                up, down = sorted(rng.sample(range(n), 2))
                step = rng.uniform(0, 2)
                gamma[up] += step
                gamma[down] -= step
                gamma.sort(reverse=True)
            witnesses["float"].append((alpha, beta, gamma))
    for kind, triples in witnesses.items():
        found = [find_horn_violation(*triple) for triple in triples]
        assert found == [_first_failed(*triple) for triple in triples], kind
        assert None in found, kind
        assert sum(isinstance(w, IndexTriple) for w in found) >= 10, kind


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


def test_sample_necessity_rejects_bad_args():
    for n, trials in [(0, 10), (3, -1), (2.5, 1), (3, 1.5), (True, 1), (3, "10")]:
        with pytest.raises(InputError):
            sample_necessity(n, trials)


def test_exact_mode_ignores_tolerance():
    # an exact off-by-one is never forgiven, whatever tol says
    assert not trace_condition((1, 0), (1, 0), (3, 0), tol=10.0)
    t = IndexTriple((1,), (1,), (1,), 2)
    assert not check_inequality(t, (1, 0), (1, 0), (3, -1), tol=10.0)


def test_non_real_entries_and_tolerances_rejected():
    t = IndexTriple((1,), (1,), (1,), 2)
    for bad in ["a", None, 1j, Decimal(1), [1]]:
        gamma = (2, bad)
        with pytest.raises(InputError):
            horn_compatible((1, 0), (1, 0), gamma)
        with pytest.raises(InputError):
            find_horn_violation((1, 0), (1, 0), gamma)
        with pytest.raises(InputError):
            trace_condition((1, 0), (1, 0), gamma)
        with pytest.raises(InputError):
            check_inequality(t, (1, 0), (1, 0), gamma)
    for tol in ["x", 1j, [1e-9]]:
        with pytest.raises(InputError):
            horn_compatible((1, 0), (1, 0), (2, 0), tol=tol)
        with pytest.raises(InputError):
            trace_condition((1.0, 0.0), (1.0, 0.0), (2.0, 0.0), tol=tol)
        with pytest.raises(InputError):
            check_inequality(t, (1, 0), (1, 0), (2, 0), tol=tol)
        with pytest.raises(InputError):
            sample_necessity(2, 3, tol=tol)


def test_real_number_kinds_still_accepted():
    for kind in [int, Fraction, float, np.int64, np.float64, np.float32]:
        alpha, beta = (kind(3), kind(0), kind(0)), (kind(1), kind(1), kind(0))
        assert horn_compatible(alpha, beta, (kind(4), kind(1), kind(0)))
        assert not horn_compatible(alpha, beta, (kind(5), kind(0), kind(0)))
    assert horn_compatible((1, 0), (1, 0), (2, 0), tol=Fraction(1, 10**9))
    assert horn_compatible((1.0, 0.0), (1.0, 0.0), (2.0, 0.0), tol=np.float64(1e-9))
    assert sample_necessity(2, 3, tol=None).tol == 1e-9
