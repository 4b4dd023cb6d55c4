"""The public surface of hornlr: what `from hornlr import *` binds, and
what every public callable does with an argument of the wrong kind."""

import math
from collections.abc import Iterator
from dataclasses import fields
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

import hornlr
from hornlr import (
    FormatError,
    InputError,
    Partition,
    TheoremViolation,
    analyze_line_graph,
    complete_bipartite,
    enumerate_p,
    even_cycle,
    exact_spectrum,
    line_graph,
    matching,
    ramanujan_verdict,
)

# removed after 0.1.0 (see the README's "Changes since 0.1.0")
REMOVED = ["SkewShape", "check_inequality", "trace_condition", "star_decomposition", "regular_line_spectrum_template"]


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from hornlr import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(hornlr.__all__)
    assert len(hornlr.__all__) == len(set(hornlr.__all__))


def test_every_public_name_resolves():
    for name in hornlr.__all__:
        assert hasattr(hornlr, name), name


def test_removed_names_are_gone():
    for name in REMOVED:
        assert not hasattr(hornlr, name), name
    assert not hasattr(hornlr.Graph, "adjacency_rows")
    assert not hasattr(hornlr.graphs, "graph_to_json_dict")
    assert not hasattr(hornlr.horn, "is_weakly_decreasing")


def _fields(obj):
    return tuple(getattr(obj, f.name) for f in fields(obj))


P = Partition
K22, K23 = complete_bipartite(2, 2), complete_bipartite(2, 3)
L23 = line_graph(K23)[0]
REPORT = analyze_line_graph(K22)

# one valid call per public callable: positional arguments, keyword
# arguments. Each argument is replaced in turn by every value of HOSTILE.
VALID_CALLS = {
    "BipartiteGraph": ((2, 2, [(0, 0), (1, 1)]), {}),
    "CandidateSet": (_fields(enumerate_p(P([2, 2]), P([2, 2]))), {}),
    "ExactSpectrum": (_fields(exact_spectrum(L23)), {}),
    "FormatError": (("message",), {}),
    "Graph": ((3, [(0, 1), (1, 2)]), {}),
    "IndexTriple": (((1,), (1,), (1,), 2), {}),
    "InputError": (("message",), {}),
    "Partition": (([3, 1],), {}),
    "RamanujanVerdict": (_fields(ramanujan_verdict(L23)), {}),
    "SpectrumReport": (_fields(REPORT), {}),
    "TheoremViolation": (("message",), {}),
    "analyze_line_graph": ((K22, False), {}),
    "bipartite_complement": ((matching(3),), {}),
    "char_poly_exact": ((even_cycle(6).as_graph(),), {}),
    "classify_regular_ramanujan_case": ((complete_bipartite(3, 3),), {}),
    "clique_number": ((L23,), {}),
    "complete_bipartite": ((2, 3), {}),
    "connected_bipartite_graphs": ((4, 2), {}),
    "degree_partitions": ((K23,), {}),
    "diameter": ((L23,), {}),
    "disjoint_union": (([K22, K23],), {}),
    "enumerate_p": ((P([2, 2]), P([2, 2])), {}),
    "enumerate_partitions": ((6, 3, 4), {}),
    "even_cycle": ((6,), {}),
    "exact_spectrum": ((L23,), {}),
    "find_horn_violation": (((1, 0), (1, 0), (2, 0), None), {}),
    "generate_t": ((3, 1), {}),
    "generate_u": ((3, 1), {}),
    "horn_compatible": (((1, 0), (1, 0), (2, 0), None), {}),
    "integer_spectrum": ((L23,), {}),
    "line_graph": ((K23,), {}),
    "lr_coefficient": ((P([2, 1]), P([2, 1]), P([3, 2, 1])), {}),
    "lr_positive": ((P([2, 1]), P([2, 1]), P([3, 2, 1])), {}),
    "matching": ((3,), {}),
    "moment_c": ((REPORT.gamma_matched, REPORT.alpha, REPORT.beta, REPORT.e, REPORT.nu), {}),
    "moment_d": ((REPORT.gamma_matched, REPORT.alpha, REPORT.beta, REPORT.e, REPORT.nu), {}),
    "numeric_spectrum": ((L23,), {}),
    "ramanujan_verdict": ((L23,), {"tol": 1e-9}),
    "sample_necessity": ((2, 3, 1e-9, 0), {}),
    "weyl_bounds": (((1, 0), (1, 0), 1), {}),
}

HOSTILE = [True, np.True_, np.int64(3), 3.0, 2.5, math.nan, -1, None, [1, 2], "3", Fraction(1, 2)]


def _call(func, args, kwargs):
    result = func(*args, **kwargs)
    if isinstance(result, Iterator):
        list(islice(result, 50))


def test_contract_table_covers_every_public_callable():
    public = {name for name in hornlr.__all__ if callable(getattr(hornlr, name))}
    assert set(VALID_CALLS) == public


@pytest.mark.parametrize("name", sorted(VALID_CALLS))
def test_wrong_argument_kinds_answer_or_raise_typed_errors(name):
    """Each public callable, with one argument at a time replaced by a
    value of another kind, either returns (a generator is drained to at
    most 50 items) or raises InputError, FormatError or TheoremViolation;
    nothing else escapes. Sizes past the machine's memory are left out:
    how the library treats them is not decided yet."""
    func = getattr(hornlr, name)
    args, kwargs = VALID_CALLS[name]
    _call(func, args, kwargs)
    variants = [(args[:p] + (bad,) + args[p + 1 :], kwargs) for p in range(len(args)) for bad in HOSTILE]
    variants += [(args, {**kwargs, key: bad}) for key in kwargs for bad in HOSTILE]
    for bad_args, bad_kwargs in variants:
        try:
            _call(func, bad_args, bad_kwargs)
        except (InputError, FormatError, TheoremViolation):
            pass
        except Exception as exc:
            pytest.fail(f"{name}(*{bad_args!r}, **{bad_kwargs!r}) raised {exc!r}")
