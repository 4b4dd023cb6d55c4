"""Self-test of the benchmark's checks (``run.py --self-test``).

Each workload runs on a few inputs. Its checks must accept the real
answers and reject each deliberately corrupted copy: a perturbed
polynomial coefficient, a dropped candidate, a flipped Horn verdict and
so on. Exit status 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import hornlr  # noqa: E402

import oracles  # noqa: E402
import workloads as W  # noqa: E402


def _bump(values, index: int, by: int = 1) -> tuple:
    out = list(values)
    out[index] += by
    return tuple(out)


def corpus_cases():
    graphs = list(hornlr.connected_bipartite_graphs(5))
    outcomes = [("graph", True, (bg, hornlr.analyze_line_graph(bg))) for bg in graphs]
    bg, rep = next(v for _k, _ok, v in outcomes if v[1].is_integral and v[0].edge_count > 3)
    yield "corpus8 report", W.check_report(bg, rep), {
        "flipped is_integral": W.check_report(bg, replace(rep, is_integral=not rep.is_integral)),
        "-2 multiplicity off by one": W.check_report(bg, replace(rep, minus_two_multiplicity=rep.minus_two_multiplicity + 1)),
        "two_omega off by two": W.check_report(bg, replace(rep, two_omega=rep.two_omega + 2)),
        "a reported violation": W.check_report(bg, replace(rep, violations=("x",))),
    }
    yield "corpus8 counts", None, {"orders 2..5 only": W.corpus_check({"tail": []}, outcomes)}


def line_cases():
    rng = random.Random(0)
    irregular = W.random_connected_bipartite(rng, 4, 6, 12)
    label, res = "random", W._line_op(irregular)
    order, spec, diam, omega = res
    yield "line_spectra irregular", W.check_line(label, irregular, res), {
        "perturbed polynomial coefficient": W.check_line(label, irregular, (order, replace(spec, char_poly=_bump(spec.char_poly, 3)), diam, omega)),
        "diameter off by one": W.check_line(label, irregular, (order, spec, diam + 1, omega)),
        "clique number off by one": W.check_line(label, irregular, (order, spec, diam, omega + 1)),
        "integer roots invented": W.check_line(label, irregular, (order, replace(spec, integer_roots=((1, order),)), diam, omega)),
    }
    # an integral line graph that is not regular, from the small corpus
    bg = next(
        g for g in hornlr.connected_bipartite_graphs(6)
        if hornlr.line_graph(g)[0].regular_degree() is None and hornlr.integer_spectrum(hornlr.line_graph(g)[0])
    )
    res = W._line_op(bg)
    order, spec, diam, omega = res
    yield "line_spectra integral", W.check_line(label, bg, res), {
        "integer root moved": W.check_line(label, bg, (order, replace(spec, integer_roots=((spec.integer_roots[0][0] + 1, spec.integer_roots[0][1]),) + spec.integer_roots[1:]), diam, omega)),
        "integer roots dropped": W.check_line(label, bg, (order, replace(spec, integer_roots=None), diam, omega)),
    }
    for s in (4, 11):
        kss = hornlr.complete_bipartite(s, s)
        order, verdict, diam, omega = W._line_op(kss)
        label = f"K{s},{s}"
        yield f"line_spectra {label}", W.check_line(label, kss, (order, verdict, diam, omega)), {
            "flipped Ramanujan verdict": W.check_line(label, kss, (order, replace(verdict, second_largest_ok=not verdict.second_largest_ok), diam, omega)),
            "second eigenvalue off by one": W.check_line(label, kss, (order, replace(verdict, second_largest=verdict.second_largest + 1), diam, omega)),
        }


def candidate_cases():
    for parts, nu in (((3, 3, 3), 6), ((4, 4, 4, 4), 8)):
        alpha = beta = hornlr.Partition(parts)
        cset = hornlr.enumerate_p(alpha, beta)
        e = alpha.size
        intruder = next(g for g in oracles.partitions(2 * e, nu - 1) if hornlr.Partition(g) not in cset)
        yield f"candidate_sets P({alpha}, {beta})", W.check_candidates(alpha, beta, nu, cset), {
            "dropped candidate": W.check_candidates(alpha, beta, nu, replace(cset, members=cset.members[1:])),
            "added non-candidate": W.check_candidates(alpha, beta, nu, replace(cset, members=cset.members + (hornlr.Partition(intruder),))),
        }
    # (a) on shapes too long for Horn's tables, even conjugated, goes through
    # LR matrices: alpha + beta has coefficient 1, a box moved up gives 0
    hook = (9,) + (1,) * 8
    total = tuple(2 * p for p in hook)
    moved = (total[0] + 1,) + total[1:-1] + (1,)
    yield "candidate_sets (a) by LR matrices", [] if W.lr_positive_checked(hook, hook, total) else ["rejected"], {
        "a box moved up": [] if W.lr_positive_checked(hook, hook, moved) else ["rejected"],
    }


def horn_cases():
    rng = random.Random(0)
    for compatible in (True, False):
        triple = W.compatible_triple(rng, 6) if compatible else W.incompatible_triple(rng, 6, 2)
        horn, lr = W._triple_op(*triple)
        yield f"horn_lr triple built {'compatible' if compatible else 'incompatible'}", W.check_triple(compatible, (horn, lr)), {
            "flipped Horn verdict": W.check_triple(compatible, (not horn, lr)),
            "both verdicts flipped": W.check_triple(compatible, (not horn, not lr)),
        }
    alpha, beta = (3, 2, 1), (2, 2)
    coefficients = W._sweep_op(alpha, beta)
    first = next(iter(coefficients))
    yield "horn_lr sweep", W.check_sweep(alpha, beta, coefficients), {
        "a coefficient off by one": W.check_sweep(alpha, beta, {**coefficients, first: coefficients[first] + 1}),
        "a shape dropped": W.check_sweep(alpha, beta, {g: c for g, c in coefficients.items() if g != first}),
    }
    report = hornlr.sample_necessity(W.SAMPLE_N, W.SAMPLE_TRIALS, seed=0)
    yield "horn_lr sample", W.check_sample(report), {
        "one violation": W.check_sample(replace(report, inequality_violations=1)),
    }
    inputs = {"triples": [], "sweeps": [], "samples": []}
    yield "horn_lr Pieri", W.horn_check(inputs, [("pieri", True, 1), ("pieri", False, RecursionError())]), {
        "coefficient 2": W.horn_check(inputs, [("pieri", True, 2)]),
        "another error": W.horn_check(inputs, [("pieri", False, ValueError())]),
    }


def main() -> int:
    bad = 0
    for group in (corpus_cases, line_cases, candidate_cases, horn_cases):
        for name, real, corrupted in group():
            if real:
                bad += 1
                print(f"FAIL {name}: real answer rejected: {real[:2]}")
            for what, problems in corrupted.items():
                status = "ok  " if problems else "FAIL"
                bad += not problems
                print(f"{status} {name}: {what} -> {'rejected' if problems else 'accepted'}")
    print(f"self-test: {'all checks behave' if not bad else f'{bad} checks misbehave'}")
    return 1 if bad else 0
