"""Integer partitions: weakly decreasing tuples of positive integers.

Every other module speaks in partitions: degree sequences of bipartite
graphs, contents and shapes of Littlewood-Richardson tableaux, integral
Hermitian spectra. A :class:`Partition` stores its parts in canonical
form (sorted descending, trailing zeros stripped), so equal multisets of
parts compare equal no matter how they were supplied.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .errors import FormatError, InputError, as_int, brief


class Partition:
    """Canonical immutable partition.

    Parts may be given in any order and may include zeros; the stored
    value is the sorted, zero-stripped tuple. Each part must be an integer
    by the rule of `as_int`: a numpy integer is one; a bool, a float or a
    Fraction is not, even when whole. Parts are stored as plain Python
    integers, so sizes and downstream moment formulas never overflow.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int] = ()):
        cleaned = []
        try:
            for p in parts:
                if type(p) is not int or p < 0:
                    p = as_int(p, "a part in parts", 0)
                if p > 0:
                    cleaned.append(p)
        except TypeError:  # `parts` is not iterable
            raise InputError(
                f"partition parts must be an iterable of integers, got {brief(parts)}"
            ) from None
        cleaned.sort(reverse=True)
        self._parts = tuple(cleaned)

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def size(self) -> int:
        """Sum of the parts."""
        return sum(self._parts)

    @property
    def length(self) -> int:
        """Number of positive parts."""
        return len(self._parts)

    @property
    def distinct_parts(self) -> int:
        """Number of distinct positive part values."""
        return len(set(self._parts))

    def part(self, i: int) -> int:
        """1-based part access; indices past the length read as 0."""
        if type(i) is not int or i < 1:
            i = as_int(i, "part index i", 1)
        return self._parts[i - 1] if i <= len(self._parts) else 0

    def contains(self, inner: "Partition") -> bool:
        """Containment of Young diagrams: inner_i <= outer_i for all i."""
        if inner.length > self.length:
            return False
        return all(inner._parts[i] <= self._parts[i] for i in range(inner.length))

    def padded(self, n: int) -> tuple[int, ...]:
        """Parts extended with zeros to length n; n must fit the partition."""
        if type(n) is not int or n < len(self._parts):
            n = as_int(n, "padded length n", len(self._parts))
        return self._parts + (0,) * (n - len(self._parts))

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse the CLI form: comma-separated parts, `-` for the empty one."""
        text = text.strip()
        if text == "-":
            return cls()
        try:
            return cls(int(tok) for tok in text.split(","))
        except (ValueError, InputError) as exc:
            raise FormatError(f"bad partition literal {brief(text)}: {exc}") from None

    def to_text(self) -> str:
        return ",".join(str(p) for p in self._parts) if self._parts else "-"

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __lt__(self, other: "Partition") -> bool:
        return self._parts < other._parts

    def __le__(self, other: "Partition") -> bool:
        return self._parts <= other._parts

    def __repr__(self) -> str:
        return f"Partition({list(self._parts)!r})"

    def __str__(self) -> str:
        return self.to_text()


def enumerate_partitions(
    total: int, exact_length: int, max_first_part: int
) -> Iterator[Partition]:
    """Yield partitions of `total` with exactly `exact_length` positive parts
    and first part at most `max_first_part`, in descending lexicographic order.

    Streamed so callers can stop early; yields nothing when the constraints
    are unsatisfiable. The arguments must be integers (`as_int`); others
    raise InputError on iteration.
    """
    total = as_int(total, "total")
    exact_length = as_int(exact_length, "exact_length")
    max_first_part = as_int(max_first_part, "max_first_part")
    if total < 0 or exact_length < 1 or max_first_part < 1:
        if total == 0 and exact_length == 0:
            yield Partition()
        return
    choices = _parts_at_most(exact_length, total, max_first_part)
    for parts in _descending_parts(exact_length, choices):
        yield Partition(parts)


# a choice of one part: the part, and the choices for the next part (None
# after the last part)
_Choices = Iterator[tuple[int, Optional["_Choices"]]]


def _parts_at_most(k: int, total: int, top: int) -> _Choices:
    """Choices for the next of k positive parts that sum to `total`, each
    at most `top`, largest first (see `_descending_parts`)."""
    # each of the k parts is >= 1, so this one is >= ceil(total / k)
    for p in range(min(top, total - k + 1), -(-total // k) - 1, -1):
        yield p, (_parts_at_most(k - 1, total - p, p) if k > 1 else None)


def _descending_parts(length: int, choices: _Choices) -> Iterator[tuple[int, ...]]:
    """Tuples of `length` parts, placed first to last, in the order the
    choices are offered. `choices` iterates the choices for the first
    part; a choice is a pair (part, the choices for the next part), with
    None in place of the choices after the last part.

    One iterator of choices per level, kept on an explicit stack, so the
    depth is not bounded by Python's recursion limit.
    """
    parts = [0] * length
    stack = [choices]
    while stack:
        depth = len(stack) - 1
        for parts[depth], below in stack[-1]:
            if depth + 1 == length:
                yield tuple(parts)
            else:
                stack.append(below)
                break
        else:
            stack.pop()
