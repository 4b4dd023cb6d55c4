import random

import pytest

from hornlr import InputError, Partition, lr_coefficient, lr_positive

from oracles import all_partitions, brute_force_lr, pieri_coefficient


P = Partition


def test_coefficient_examples():
    # values frozen from the brute-force oracle
    assert lr_coefficient(P([3]), P([1, 1, 1]), P([4, 1, 1])) == 1
    assert lr_coefficient(P([2, 2]), P([2, 2]), P([4, 2, 2])) == 1
    assert lr_coefficient(P([3]), P([1]), P([5])) == 0  # size mismatch
    for lam in (P([3]), P([2, 1]), P([5, 4, 1]), P()):
        assert lr_coefficient(lam, P(), lam) == 1


def test_positive_examples():
    assert lr_positive(P([3]), P([1, 1, 1]), P([4, 1, 1]))
    assert not lr_positive(P([3]), P([1, 1, 1]), P([6]))
    assert lr_positive(P([1]), P([1]), P([1, 1]))


def test_matches_brute_force_exhaustively():
    partitions = [p for p in all_partitions(6, max_part=4, max_length=3)]
    for a in partitions:
        for b in partitions:
            if sum(a) + sum(b) > 6:
                continue
            for g in partitions:
                if sum(g) != sum(a) + sum(b):
                    continue
                expected = brute_force_lr(g, a, b)
                assert lr_coefficient(P(a), P(b), P(g)) == expected, (a, b, g)
                assert lr_positive(P(a), P(b), P(g)) == (expected > 0)


def test_neighbour_indexing_edge_cases():
    # the kernel finds the neighbours of a cell by arithmetic on row offsets
    shapes = [
        ((3, 2, 1), (3, 1)),  # gamma's row equals alpha's: at the top
        ((4, 2, 1), (3, 2)),  # in the middle
        ((3, 2, 1), (2, 1, 1)),  # at the bottom
        ((3, 3, 3, 1), (3, 1, 1, 1)),  # at the top and at the bottom
        ((5, 3, 3, 2), (4, 3, 1)),  # in the middle, with cells on both sides
        ((4, 3), (2, 1)),  # (1, 1) lies under alpha, (1, 2) under a cell
        ((4, 4, 2), (3, 1)),  # under alpha in two rows
        ((3, 3, 3), (2, 2, 2)),  # one column
        ((2, 1, 1, 1), (2,)),  # one column below alpha
        ((1, 1, 1, 1), ()),  # one column, alpha empty
        ((3, 2, 1), (2, 1)),  # one cell per row, none adjacent
    ]
    for gamma, alpha in shapes:
        cells = sum(gamma) - sum(alpha)
        for beta in all_partitions(cells):
            if sum(beta) != cells:
                continue
            expected = brute_force_lr(gamma, alpha, beta)
            assert lr_coefficient(P(alpha), P(beta), P(gamma)) == expected, (gamma, alpha, beta)
            assert lr_positive(P(alpha), P(beta), P(gamma)) == (expected > 0)


def test_symmetry_in_the_factors():
    rng = random.Random(3)
    pool = all_partitions(7, max_part=5, max_length=4)
    for _ in range(300):
        a, b = rng.choice(pool), rng.choice(pool)
        gs = [g for g in all_partitions(sum(a) + sum(b), max_length=6) if sum(g) == sum(a) + sum(b)]
        g = rng.choice(gs) if gs else ()
        assert lr_coefficient(P(a), P(b), P(g)) == lr_coefficient(P(b), P(a), P(g))


def test_nonzero_forces_containment_and_size():
    pool = all_partitions(6, max_part=4, max_length=4)
    for a in pool:
        for b in pool:
            for g in pool:
                if lr_coefficient(P(a), P(b), P(g)) > 0:
                    assert sum(g) == sum(a) + sum(b)
                    assert P(g).contains(P(a))
                    assert P(g).contains(P(b))


def test_pieri_rule_for_one_row_factors():
    for a in range(0, 6):
        for b in range(0, 6):
            for g in all_partitions(a + b, max_length=3):
                if sum(g) != a + b:
                    continue
                assert lr_coefficient(P([a]), P([b]), P(g)) == pieri_coefficient(a, b, g), (a, b, g)


def test_long_pieri_rows_on_the_pure_backend():
    # one cell per search step: a recursive search would exceed the
    # interpreter's recursion limit here. The benchmark's Pieri products
    # (k = 1000, 1100) are also checked against the brute force, for which
    # content of one value is one placement.
    assert lr_coefficient(P([1200]), P([1200]), P([2400])) == 1
    assert lr_coefficient(P([1200]), P([1200]), P([1200, 1200])) == 1
    for k in (1000, 1100):
        for gamma in ((2 * k,), (k, k), (2 * k - 1, 1)):
            expected = brute_force_lr(gamma, (k,), (k,))
            assert expected == pieri_coefficient(k, k, gamma)
            assert lr_coefficient(P([k]), P([k]), P(gamma)) == expected
            assert lr_positive(P([k]), P([k]), P(gamma)) == (expected > 0)


def test_a_coefficient_bigger_than_one():
    # c((2,1),(2,1);(3,2,1)) = 2, the classic smallest example
    assert brute_force_lr((3, 2, 1), (2, 1), (2, 1)) == 2
    assert lr_coefficient(P([2, 1]), P([2, 1]), P([3, 2, 1])) == 2


@pytest.mark.parametrize("wrong", [[3], (1, 1, 1), None])
def test_coefficient_rejects_wrong_argument_types(wrong):
    for args in ((wrong, P([1]), P([4])), (P([3]), wrong, P([4])), (P([3]), P([1]), wrong)):
        with pytest.raises(InputError, match="must be a Partition"):
            lr_coefficient(*args)


@pytest.mark.parametrize("wrong", [[3], (1, 1, 1), None])
def test_positive_rejects_wrong_argument_types(wrong):
    for args in ((wrong, P([1]), P([4])), (P([3]), wrong, P([4])), (P([3]), P([1]), wrong)):
        with pytest.raises(InputError, match="must be a Partition"):
            lr_positive(*args)


def test_gamma_longer_than_both_factors_is_zero():
    assert lr_coefficient(P([2]), P([2]), P([1, 1, 1, 1])) == 0
    assert not lr_positive(P([2, 1]), P([1]), P([1, 1, 1, 1]))
