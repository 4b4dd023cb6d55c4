import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from hornlr import InputError, Partition, enumerate_partitions

from oracles import partition_count


def test_size_examples():
    assert Partition([3]).size == 3
    assert Partition([4, 1, 1]).size == 6
    assert Partition().size == 0


def test_length_examples():
    assert Partition([4, 1, 1]).length == 3
    assert Partition().length == 0
    assert Partition([5, 5, 5, 5]).length == 4


def test_distinct_parts_examples():
    assert Partition([4, 1, 1]).distinct_parts == 2
    assert Partition([4, 2, 2]).distinct_parts == 2
    assert Partition().distinct_parts == 0


def test_canonical_form():
    rng = random.Random(7)
    for _ in range(200):
        parts = [rng.randint(1, 9) for _ in range(rng.randint(0, 6))]
        shuffled = parts[:]
        rng.shuffle(shuffled)
        with_zeros = shuffled + [0] * rng.randint(0, 3)
        rng.shuffle(with_zeros)
        assert Partition(parts) == Partition(with_zeros)
        assert hash(Partition(parts)) == hash(Partition(with_zeros))


def test_invalid_parts_rejected():
    with pytest.raises(InputError):
        Partition([3, -1])
    with pytest.raises(InputError):
        Partition([2.5])
    for bad in (float("inf"), float("nan"), "a", None, True):
        with pytest.raises(InputError):
            Partition([bad])
    for bad in (np.True_, np.False_):  # numpy's bool is no int subclass
        with pytest.raises(InputError):
            Partition([bad, 2])
    # not an iterable at all: InputError, not the TypeError of iterating it
    for bad in (3, None, True, np.int64(3), 3.0):
        with pytest.raises(InputError, match="iterable"):
            Partition(bad)
    assert Partition([np.int64(3), np.int32(2)]).parts == (3, 2)
    assert all(type(p) is int for p in Partition([np.int64(3), np.uint8(2)]))
    # whole numbers of other kinds are not integers
    for bad in (2.0, Fraction(2), Decimal(2)):
        with pytest.raises(InputError, match="parts"):
            Partition([3, bad])


def test_part_access_and_padding():
    lam = Partition([4, 1, 1])
    assert [lam.part(i) for i in range(1, 6)] == [4, 1, 1, 0, 0]
    assert lam.padded(5) == (4, 1, 1, 0, 0)
    with pytest.raises(InputError):
        lam.padded(2)
    with pytest.raises(InputError):
        lam.part(0)
    for bad in (1.5, "a", True):
        with pytest.raises(InputError):
            lam.part(bad)
    with pytest.raises(InputError):
        lam.padded(2.5)


def test_text_round_trip():
    for text in ("4,1,1", "3", "-"):
        assert Partition.from_text(text).to_text() == text


def test_enumerate_examples():
    got = [p.parts for p in enumerate_partitions(6, 3, 4)]
    assert got == [(4, 1, 1), (3, 2, 1), (2, 2, 2)]
    # a cap beyond the feasible first part changes nothing
    assert [p.parts for p in enumerate_partitions(6, 3, 100)] == got
    assert list(enumerate_partitions(2, 3, 5)) == []
    assert [p.parts for p in enumerate_partitions(0, 0, 1)] == [()]
    for bad in ((4.5, 2, 3), ("4", 2, 3)):
        with pytest.raises(InputError):
            list(enumerate_partitions(*bad))


def test_enumerate_beyond_recursion_limit():
    # one level per part, kept on an explicit stack
    assert [p.parts for p in enumerate_partitions(2000, 1000, 2)] == [(2,) * 1000]


def test_enumerate_constraints_and_order():
    for total, length, cap in [(10, 3, 4), (12, 5, 6), (9, 2, 9), (7, 7, 3)]:
        seen = list(enumerate_partitions(total, length, cap))
        assert len(set(seen)) == len(seen)
        for lam in seen:
            assert lam.size == total
            assert lam.length == length
            assert lam.part(1) <= cap
        as_tuples = [p.parts for p in seen]
        assert as_tuples == sorted(as_tuples, reverse=True)


def test_enumerate_count_matches_recurrence():
    for total in range(0, 16):
        for length in range(1, total + 1):
            got = sum(1 for _ in enumerate_partitions(total, length, total))
            assert got == partition_count(total, length), (total, length)


def test_contains_examples():
    assert Partition([4, 1, 1]).contains(Partition([3]))
    assert not Partition([4, 1, 1]).contains(Partition([3, 2]))
    lam = Partition([5, 3, 1])
    assert lam.contains(lam)


def test_contains_is_partial_order():
    rng = random.Random(11)
    sample = [
        Partition(sorted((rng.randint(1, 5) for _ in range(rng.randint(0, 4))), reverse=True))
        for _ in range(40)
    ]
    for a in sample:
        assert a.contains(a)
        for b in sample:
            if a.contains(b) and b.contains(a):
                assert a == b
            for c in sample:
                if a.contains(b) and b.contains(c):
                    assert a.contains(c)
