"""End-to-end benchmark of hornlr: four workloads, exact checks, traces.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test

Run from the root of a checkout. Each round of a workload runs in a fresh
interpreter (`round.py`), one at a time, on the pure kernel backend with
numpy's BLAS pinned to one thread. End-to-end times are in reference
seconds, scaled by a speed probe that samples the machine (`speed.py`). Rounds repeat while the next one is
expected to end within S seconds, and at least twice. The first round's
answers are checked; later rounds must reproduce them exactly. The last line of
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` rounds alternate untraced and traced, and the metrics
are the per-layer ones. The full record of the run is written to
``e2ebench/out/``. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("corpus8", "line_spectra", "candidate_sets", "horn_lr")
MIN_ROUNDS = 2
SETUPS = 5  # fresh set-ups per run, for the setup_s median
RUN_LIMIT_S = 170.0  # a run ends within 180 s whatever happens
ENV = {
    "HORNLR_PURE": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class RunFailed(Exception):
    pass


def run_round(workload: str, seed: int, mode: str, deadline: float, check: bool = False) -> dict:
    """One child interpreter; mode is "timed", "traced" or "setup"."""
    cmd = [sys.executable, os.path.join(HERE, "round.py"), "--workload", workload, "--seed", str(seed)]
    if check:
        cmd.append("--check")
    if mode == "traced":
        cmd.append("--traced")
    elif mode == "setup":
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("out of time before a round could start")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **ENV}, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"a {mode} round of {workload} did not end in time") from None
    if proc.returncode != 0:
        raise RunFailed(f"a {mode} round of {workload} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise RunFailed(f"a {mode} round of {workload} printed no result:\n{proc.stderr[-3000:]}") from None


def percentile(values: list[float], share: float) -> float:
    """The value below which `share` of the samples lie (nearest rank)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(timed: list[dict], setups: list[float]) -> dict:
    """Times in reference seconds (see speed.py), each the median over the
    run's rounds: an operation's latency is its median over the rounds,
    and wall_s the median round's."""
    latencies = [statistics.median(times) for times in zip(*(r["ref_latencies_s"] for r in timed))]
    above_p90 = len(latencies) - math.ceil(0.9 * len(latencies))
    if above_p90 < 10:
        raise RunFailed(f"{len(latencies)} operations leave {above_p90} above the 90th percentile")
    return {
        "wall_s": (statistics.median(r["ref_wall_s"] for r in timed), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in timed), "MB"),
        "op_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "op_p90_ms": (1000.0 * percentile(latencies, 0.9), "ms"),
    }


def per_layer(timed: list[dict], traced: list[dict]) -> dict:
    units = {}
    for layer, kind in spans.TIMES:
        units[f"{layer}.{kind}"] = "s"
    for name in spans.COUNTS:
        units[name] = "count"
    out = {name: (statistics.median(r["layers"][name] for r in traced), unit) for name, unit in units.items()}
    out["trace.overhead_s"] = (min(r["wall_s"] for r in traced) - min(r["wall_s"] for r in timed), "s")
    out["trace.covered_share"] = (
        statistics.median(r["layers"]["trace.covered_s"] / r["wall_s"] for r in traced),
        "ratio",
    )
    return out


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def bench(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    modes = ["timed", "traced"] if trace else ["timed"]
    rounds: list[tuple[str, dict]] = []
    durations: list[float] = []
    while True:
        mode = modes[len(rounds) % len(modes)]
        began = time.monotonic()
        rounds.append((mode, run_round(workload, seed, mode, deadline, check=not rounds)))
        durations.append(time.monotonic() - began)
        rounds[-1][1]["duration_s"] = durations[-1]
        expected_end = time.monotonic() + statistics.median(durations) - start
        if len(rounds) >= MIN_ROUNDS and len(rounds) % len(modes) == 0 and expected_end > seconds:
            break
    timed = [r for mode, r in rounds if mode == "timed"]
    traced = [r for mode, r in rounds if mode == "traced"]
    setups = [r["ref_setup_s"] for r in timed]
    if not trace:
        while len(setups) < SETUPS:
            setups.append(run_round(workload, seed, "setup", deadline)["ref_setup_s"])
    problems = [p for _, r in rounds for p in r["problems"]]
    # the first round's answers are checked; every later round must give the same answers
    if len({r["digest"] for _, r in rounds}) > 1:
        problems.append("rounds on the same inputs gave different answers")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "backend": sorted({r["backend"] for _, r in rounds}),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "rounds": [{"mode": mode, **r} for mode, r in rounds],
        "setups_s": setups,
        "correct": not problems,
        "problems": problems[:20],
        "attempted": sum(r["attempted"] for _, r in rounds),
        "failed": sum(r["failed"] for _, r in rounds),
        "metrics": per_layer(timed, traced) if trace else end_to_end(timed, setups),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check that every check rejects a corrupted answer")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "hornlr", "__init__.py")):
        print(f"hornlr sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        record = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunFailed as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"run": {k: record[k] for k in ("workload", "seed", "backend", "python", "git_sha")}}))
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
