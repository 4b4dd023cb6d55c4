"""One round of one workload, in a fresh interpreter.

    python3 e2ebench/round.py --workload NAME --seed N [--check] [--traced] [--setup-only]

Set-up (importing hornlr, building the inputs and tables) is timed from
the first line after the speed clock starts. The workload's operations
then run one by one, each timed. Every time is given twice, from
`speed.Clock`: in raw seconds and in reference seconds, the work done at
the machine's speed of the moment; probe time is in neither. Traced
rounds run no speed probe.
With --check, every answer is checked afterwards, outside the timed
region. The last line of output is one JSON object describing the round,
with a digest of all answers so that rounds on the same inputs can be
compared.
"""

import sys
import time

import speed

CLOCK = speed.Clock(0 if "--traced" in sys.argv else speed.PROBE_EVERY_S)
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hornlr  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    tracer = spans.installed(args.traced)
    inputs = workload.build(args.seed)
    ready = time.perf_counter()
    info = {"backend": hornlr.kernel_backend, "python": platform.python_version()}
    if args.setup_only:
        CLOCK.stop()
        (ref0, raw0), (ref1, raw1) = CLOCK.readings([T0, ready])
        info.update(ref_setup_s=ref1 - ref0, setup_s=raw1 - raw0, probes_s=[p[2] for p in CLOCK.probes])
        print(json.dumps(info))
        return

    outcomes, bounds = [], []  # bounds: (start, end) of each op
    start = time.perf_counter()
    for kind, call in workload.ops(inputs):
        t = time.perf_counter()
        try:
            value, ok = call(), True
        except Exception as exc:  # a failed op is counted, the round goes on
            value, ok = exc, False
        bounds.append((t, time.perf_counter()))
        outcomes.append((kind, ok, value))
    # the generator's own work after the last op (corpus8's tail) counts too
    end = time.perf_counter()
    CLOCK.stop()
    (ref0, raw0), (ref1, raw1), (ref2, raw2), (ref3, raw3), *ops = CLOCK.readings(
        [T0, ready, start, end] + [t for pair in bounds for t in pair]
    )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before any check
    import zlib  # only now, so that it adds nothing to set-up or peak memory

    digest = 0
    for _kind, _ok, value in outcomes:
        digest = zlib.crc32(repr(value).encode(), digest)

    layers = None
    if tracer is not None:
        tracer.active = False
        layers = tracer.layer_metrics(since=start)
    problems = workload.check(inputs, outcomes) if args.check else []
    failed = [(kind, value) for kind, ok, value in outcomes if not ok]
    problems += [
        f"unexpected failure in a {kind} op: {value!r}"
        for kind, value in failed
        if not workloads.expected_failure(kind, value)
    ]
    info.update(
        ref_setup_s=ref1 - ref0,
        setup_s=raw1 - raw0,
        ref_wall_s=ref3 - ref2,
        wall_s=raw3 - raw2,
        ref_latencies_s=[b[0] - a[0] for a, b in zip(ops[::2], ops[1::2])],
        latencies_s=[b[1] - a[1] for a, b in zip(ops[::2], ops[1::2])],
        probes_s=[p[2] for p in CLOCK.probes],
        attempted=len(outcomes),
        failed=len(failed),
        problems=problems[:20],
        problem_count=len(problems),
        digest=digest,
        rss_mb=rss_mb,
        layers=layers,
    )
    print(json.dumps(info))


if __name__ == "__main__":
    main()
