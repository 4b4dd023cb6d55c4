"""The public surface of hornlr: what `from hornlr import *` binds, what
every public callable does with an argument of the wrong kind, and the
one rule each for an integer and a real-valued argument."""

import inspect
import math
import re
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
    connected_bipartite_graphs,
    enumerate_p,
    enumerate_partitions,
    even_cycle,
    exact_spectrum,
    find_horn_violation,
    generate_t,
    generate_u,
    horn_compatible,
    line_graph,
    matching,
    moment_c,
    moment_d,
    ramanujan_verdict,
    sample_necessity,
    weyl_bounds,
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


# every integer argument of every public callable and method, by
# (callable, argument): a call with the int v in that argument's place,
# and v. Lists and generators are compared drained.
INTEGER_ARGUMENTS = {
    ("BipartiteGraph", "x_size"): (lambda v: hornlr.BipartiteGraph(v, 2, [(0, 0)]), 2),
    ("BipartiteGraph", "y_size"): (lambda v: hornlr.BipartiteGraph(2, v, [(0, 0)]), 2),
    ("BipartiteGraph", "edges"): (lambda v: hornlr.BipartiteGraph(2, 2, [(0, 0), (1, v)]), 1),
    ("Graph", "order"): (lambda v: hornlr.Graph(v, [(0, 1)]), 3),
    ("Graph", "edges"): (lambda v: hornlr.Graph(3, [(0, 1), (v, 2)]), 1),
    ("Graph.neighbors", "v"): (lambda v: L23.neighbors(v), 2),
    ("Graph.degree", "v"): (lambda v: L23.degree(v), 2),
    ("IndexTriple", "i"): (lambda v: hornlr.IndexTriple((v,), (2,), (2,), 3), 1),
    ("IndexTriple", "j"): (lambda v: hornlr.IndexTriple((1,), (v,), (2,), 3), 2),
    ("IndexTriple", "k"): (lambda v: hornlr.IndexTriple((1,), (2,), (v,), 3), 2),
    ("IndexTriple", "n"): (lambda v: hornlr.IndexTriple((1,), (2,), (2,), v), 3),
    ("Partition", "parts"): (lambda v: P([v, 1]), 3),
    ("Partition.part", "i"): (lambda v: P([3, 1]).part(v), 2),
    ("Partition.padded", "n"): (lambda v: P([3, 1]).padded(v), 3),
    ("complete_bipartite", "s"): (lambda v: complete_bipartite(v, 2), 3),
    ("complete_bipartite", "t"): (lambda v: complete_bipartite(2, v), 3),
    ("connected_bipartite_graphs", "max_order"): (lambda v: connected_bipartite_graphs(v), 5),
    ("connected_bipartite_graphs", "min_order"): (lambda v: connected_bipartite_graphs(5, v), 3),
    ("enumerate_partitions", "total"): (lambda v: enumerate_partitions(v, 3, 4), 6),
    ("enumerate_partitions", "exact_length"): (lambda v: enumerate_partitions(6, v, 4), 3),
    ("enumerate_partitions", "max_first_part"): (lambda v: enumerate_partitions(6, 3, v), 4),
    ("even_cycle", "length"): (lambda v: even_cycle(v), 6),
    ("generate_t", "n"): (lambda v: generate_t(v, 2), 4),
    ("generate_t", "r"): (lambda v: generate_t(4, v), 3),
    ("generate_u", "n"): (lambda v: generate_u(v, 2), 4),
    ("generate_u", "r"): (lambda v: generate_u(4, v), 3),
    ("matching", "n"): (lambda v: matching(v), 3),
    ("moment_c", "e"): (lambda v: moment_c(P([4, 1, 1]), P([3]), P([1, 1, 1]), v, 4), 3),
    ("moment_c", "nu"): (lambda v: moment_c(P([4, 1, 1]), P([3]), P([1, 1, 1]), 3, v), 4),
    ("moment_d", "e"): (lambda v: moment_d(P([4, 1, 1]), P([3]), P([1, 1, 1]), v, 4), 3),
    ("moment_d", "nu"): (lambda v: moment_d(P([4, 1, 1]), P([3]), P([1, 1, 1]), 3, v), 4),
    ("sample_necessity", "n"): (lambda v: sample_necessity(v, 5), 3),
    ("sample_necessity", "trials"): (lambda v: sample_necessity(3, v), 5),
    ("sample_necessity", "seed"): (lambda v: sample_necessity(3, 5, seed=v), 7),
    ("weyl_bounds", "k"): (lambda v: weyl_bounds((3, 1, 0), (2, 2, 1), v), 2),
}

# result records: the library builds them, and their fields are answers,
# not arguments it checks
RECORDS = {"CandidateSet", "ExactSpectrum", "RamanujanVerdict", "SpectrumReport"}

NOT_INTEGERS = [True, np.True_, 3.0, Fraction(3)]


def _answer(build, v):
    result = build(v)
    return list(result) if isinstance(result, Iterator) else result


def _integer_parameters(name, func):
    return {(name, p.name) for p in inspect.signature(func).parameters.values() if "int" in str(p.annotation)}


def test_integer_table_covers_every_integer_argument():
    # a parameter annotated with int, or with a container of ints
    found = set()
    for name in hornlr.__all__:
        obj = getattr(hornlr, name)
        if name in RECORDS or not callable(obj) or isinstance(obj, type) and issubclass(obj, Exception):
            continue
        found |= _integer_parameters(name, obj)
        if isinstance(obj, type):
            for method, func in vars(obj).items():
                if not method.startswith("_") and inspect.isfunction(func):
                    found |= _integer_parameters(f"{name}.{method}", func)
    assert found == set(INTEGER_ARGUMENTS)


@pytest.mark.parametrize("key", sorted(INTEGER_ARGUMENTS), ids=".".join)
def test_one_integer_rule(key):
    """A numpy integer gives the answer its int gives, down to the repr,
    so no numpy scalar is kept; a bool of either kind, a whole float and a
    Fraction raise InputError, and the message names the argument."""
    build, v = INTEGER_ARGUMENTS[key]
    expected = _answer(build, v)
    for kind in (np.int64, np.int32):
        answer = _answer(build, kind(v))
        assert answer == expected and repr(answer) == repr(expected), kind
    for bad in NOT_INTEGERS:
        with pytest.raises(InputError) as info:
            _answer(build, bad)
        assert re.search(rf"\b{key[1]}\b", str(info.value)), (bad, str(info.value))


TOLERANCES = (None, 10.0, -0.5)
# the triple (3, 0, 0), (1, 1, 0), (5, 0, 0) fails gamma_1 <= alpha_1 + beta_1
# by 1, exactly, whatever the tolerance; read as floats, it holds at
# tol = 10.0, and its trace fails at tol = -0.5
TRIPLE = ((3, 0, 0), (1, 1, 0), (5, 0, 0))


def _horn(func, position, slot):
    """Answers of func on TRIPLE with the entry at (vector, slot) replaced,
    at each of TOLERANCES."""

    def build(v):
        triple = [list(vec) for vec in TRIPLE]
        triple[position][slot] = v
        return [func(*triple, tol) for tol in TOLERANCES]

    return build, TRIPLE[position][slot]


# every real-valued argument of every public callable, by (callable,
# argument): a call with the value v in that argument's place (in one
# entry of a spectrum), and v. Lists are compared as they are.
REAL_ARGUMENTS = {
    ("find_horn_violation", "alpha"): _horn(find_horn_violation, 0, 0),
    ("find_horn_violation", "beta"): _horn(find_horn_violation, 1, 1),
    ("find_horn_violation", "gamma"): _horn(find_horn_violation, 2, 0),
    ("find_horn_violation", "tol"): (lambda v: find_horn_violation((3.0, 0.0), (1.0, 0.0), (5.0, -1.0), v), 1),
    ("horn_compatible", "alpha"): _horn(horn_compatible, 0, 0),
    ("horn_compatible", "beta"): _horn(horn_compatible, 1, 1),
    ("horn_compatible", "gamma"): _horn(horn_compatible, 2, 0),
    ("horn_compatible", "tol"): (lambda v: horn_compatible((3.0, 0.0), (1.0, 0.0), (5.0, -1.0), v), 1),
    ("weyl_bounds", "alpha"): (lambda v: weyl_bounds((v, 1, 0), (2, 2, 1), 2), 3),
    ("weyl_bounds", "beta"): (lambda v: weyl_bounds((3, 1, 0), (2, v, 1), 2), 2),
    ("sample_necessity", "tol"): (lambda v: sample_necessity(3, 5, v), 0),
    ("ramanujan_verdict", "tol"): (lambda v: ramanujan_verdict(L23, tol=v), 0),
}

NOT_REALS = [True, np.True_, "1", 1j, math.nan, math.inf]


def test_real_table_covers_every_real_argument():
    # a parameter named tol, or annotated with the spectrum type Number
    found = set()
    for name in hornlr.__all__:
        obj = getattr(hornlr, name)
        if callable(obj) and not isinstance(obj, type):
            for p in inspect.signature(obj).parameters.values():
                if p.name == "tol" or "Number" in str(p.annotation):
                    found.add((name, p.name))
    assert found == set(REAL_ARGUMENTS)


@pytest.mark.parametrize("key", sorted(REAL_ARGUMENTS), ids=".".join)
def test_one_real_number_rule(key):
    """A numpy integer gives the answer its int gives, down to the repr:
    it is exact, so the tolerance does not apply to it, and no numpy
    scalar is kept. A bool of either kind, a string, a complex number,
    NaN and inf raise InputError."""
    build, v = REAL_ARGUMENTS[key]
    expected = build(v)
    answer = build(np.int64(v))
    assert answer == expected and repr(answer) == repr(expected)
    for bad in NOT_REALS:
        with pytest.raises(InputError):
            build(bad)
