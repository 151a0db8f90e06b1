"""The vlink benchmark: one seeded workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 40 --trace 0

Run from the repository root, with the interpreter the library is used
with and never under ``python -O``, which would strip the library's own
``assert`` checks.  Each round runs the workload's fixed list of
operations in a fresh interpreter (``worker.py``), so caches start cold
as they do for every command-line call.  A run makes a fixed number of
rounds, ``--seconds`` over the workload's nominal round length, and each
round draws its own inputs from the seed and its index, so the same seed
and ``--seconds`` always run the same operations.  With ``--trace 0``
the rounds run untraced: ``wall_s`` and ``op_tail_ms`` are medians over
rounds, and ``op_p50_ms`` is the median of all the run's operation
latencies pooled.  With ``--trace 1`` untraced and traced rounds
alternate; the per-layer metrics come from the traced rounds and the
untraced ones give the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation
that raises, or whose answer fails its check, counts as failed; a wrong
answer also makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("orbit", "classify", "invariants")
SETUP_SAMPLES = 9
# seconds per round, interpreter start and checks included, on a 2-vCPU
# Xeon VM at 2.1 GHz on a shared host in one of its slower hours; a run
# makes --seconds / ROUND_S rounds, at least MIN_ROUNDS
ROUND_S = {"orbit": 10.0, "classify": 6.5, "invariants": 9.0}
MIN_ROUNDS = 2
# a run must end within 180 s; a round still going past this is an error
HARD_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least 10
    samples beyond it; with 10 or fewer samples, the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def run_worker(workload: str, seed: int, round_: int, mode: str, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONOPTIMIZE", None)
    spans = HERE / "traces" / f"{workload}-seed{seed}-round{round_}"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(round_), mode,
           str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} round of {workload} did not finish before the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{mode} round of {workload} exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def n_rounds(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / ROUND_S[workload]))


def run_rounds(workload: str, seed: int, seconds: float, traced: bool) -> dict[str, list]:
    """A fixed number of rounds; with tracing, untraced and traced rounds
    alternate, each traced round on the inputs of the untraced one before
    it.  Set-up-only interpreters, on the first rounds' inputs, top the
    set-up samples up to ``SETUP_SAMPLES``."""
    deadline = time.monotonic() + HARD_LIMIT_S
    modes = ("plain", "traced") if traced else ("plain",)
    rounds: dict[str, list] = {m: [] for m in modes}
    n = n_rounds(workload, seconds)
    for k in range(n):
        mode = modes[k % len(modes)]
        rounds[mode].append(run_worker(workload, seed, k // len(modes), mode, deadline))
    for k in range(SETUP_SAMPLES - n):
        rounds.setdefault("setup", []).append(run_worker(workload, seed, k, "setup", deadline))
    return rounds


def end_to_end(plain: list[dict], all_rounds: list[dict]) -> tuple[dict, list[str]]:
    latencies = [x for r in plain for x in r["latencies"]]
    tails = [tail(r["latencies"]) for r in plain]
    n_ops = len(plain[0]["latencies"])
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in all_rounds),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": statistics.median(1000 * v for v, _ in tails),
        "decided_ratio": (sum(r["decided"] for r in plain)
                          / sum(r["attempted"] for r in plain)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    notes = [
        f"setup_s is the median of {len(all_rounds)} set-ups; wall_s and op_tail_ms are "
        f"medians over {len(plain)} untraced round(s) of {n_ops} operations; op_p50_ms is "
        f"the median of their {len(latencies)} latencies",
        f"op_tail_ms is the p{tails[0][1]:.1f} latency of each round's {n_ops} operations"
        + (" (too few for 10 beyond: the maximum)" if n_ops <= 10 else ""),
        "wall_s of each untraced round: " + ", ".join(f"{r['wall_s']:.3f}" for r in plain),
    ]
    return values, notes


def per_layer(workload: str, names: list[str], traced: list[dict],
              plain: list[dict]) -> tuple[dict, list[str]]:
    layers = [r["layers"] for r in traced]

    def med(key: str) -> float:
        return statistics.median(l[key] for l in layers)

    plain_wall = statistics.median(r["wall_s"] for r in plain)
    derived = {
        "invariants.bracket.calls": (med("invariants.bracket.small.calls")
                                     + med("invariants.bracket.large.calls")),
        "moves.useful_ratio": (med("search.states") / med("moves.apply.calls")
                               if med("moves.apply.calls") else 0.0),
        "search.states_per_s": med("search.states") / plain_wall,
        "trace.overhead_ratio": statistics.median(r["wall_s"] for r in traced) / plain_wall,
    }
    values = {k: derived[k] if k in derived else med(k) for k in names}

    share = {k: med(k) / med("traced_s") for k in names if k.endswith(".self_s")}
    top = sorted(share, key=share.get, reverse=True)
    notes = ["self-time shares of traced operation time: "
             + ", ".join(f"{k.removesuffix('.self_s')} {share[k]:.2f}" for k in top[:5])]
    if workload != "orbit":
        return values, notes
    canon = share["diagram.canonical_string.self_s"]
    valid = share["diagram.require_valid.self_s"]
    reparse = share["codec.parse_gauss.self_s"] + share["codec.to_diagram.self_s"]
    holds = top[0] == "diagram.canonical_string.self_s" and canon > valid > reparse
    notes.append("ROADMAP orbit profile order (canonical_string largest, then require_valid, "
                 f"then re-parse): {'holds' if holds else 'differs'}; "
                 f"shares {canon:.2f}, {valid:.2f}, {reparse:.2f}")
    return values, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O: it strips the library's assert checks",
              file=sys.stderr)
        return 2
    for needed in (ROOT / "BENCHMARK.json", ROOT / "src" / "vlink" / "__init__.py",
                   ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"missing {needed.relative_to(ROOT)}: run from a vlink checkout",
                  file=sys.stderr)
            return 2
    # metric names and units come from the benchmark's declaration
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        rounds = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    measured = rounds["plain"] + rounds.get("traced", [])
    all_rounds = measured + rounds.get("setup", [])
    e2e, notes = end_to_end(rounds["plain"], all_rounds)
    attempted = sum(r["attempted"] for r in measured)
    raised = sum(r["raised"] for r in measured)
    wrong = sum(r["wrong"] for r in measured)
    failed = raised + wrong

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for k, unit in units.items():
        print(f"  {k:<14} {e2e[k]:.6g} {unit}")
    print(f"  {'fail_ratio':<14} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations: {raised} raised, {wrong} wrong)")
    for note in notes:
        print(f"  {note}")
    errors = Counter(e.split(": ", 1)[1] for r in measured for e in r["errors"])
    for message, count in errors.most_common(5):
        print(f"  raised x{count}: {message}")
    for problem in [p for r in measured for p in r["problems"]][:10]:
        print(f"  WRONG: {problem}")

    values = e2e
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, layer_notes = per_layer(args.workload, list(units), rounds["traced"],
                                        rounds["plain"])
        for k, unit in units.items():
            print(f"  {k:<40} {values[k]:.6g} {unit}")
        for note in layer_notes:
            print(f"  {note}")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
