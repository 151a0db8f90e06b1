"""One round of a workload in a fresh interpreter, so every cache in
``vlink`` starts empty, as it does for each command-line call.

    python3 perfbench/worker.py WORKLOAD SEED ROUND MODE [SPANS_PATH]

ROUND is the round's index, which with SEED picks its inputs.  MODE is
``setup`` (build the inputs and stop), ``plain`` (run the operations) or
``traced`` (run them with a span on each layer entry point).  The last
line of standard output is a JSON record of the round.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).resolve().parent)]


def main() -> None:
    workload_name, mode = sys.argv[1], sys.argv[4]
    seed, round_ = int(sys.argv[2]), int(sys.argv[3])
    t0 = perf_counter()
    import workloads  # imports vlink

    workload = workloads.WORKLOADS[workload_name]
    ops = workload.inputs(seed, round_)
    record = {"setup_s": perf_counter() - t0}
    if mode == "setup":
        print(json.dumps(record))
        return

    import vlink.search
    from tracing import Tracer, rebind

    run = workload.run
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install()
        run = tracer.span("op", run)

    # keep every (d1, d2, outcome) of equivalent() for the replay check
    calls = []
    equivalent = vlink.search.equivalent

    def recorded_equivalent(d1, d2, *args, **kwargs):
        outcome = equivalent(d1, d2, *args, **kwargs)
        calls.append((d1, d2, outcome))
        return outcome

    rebind({equivalent: recorded_equivalent})

    results, latencies, errors, first_call = [], [], [], []
    start = perf_counter()
    for op in ops:
        first_call.append(len(calls))
        t = perf_counter()
        try:
            results.append(run(op))
        except Exception:
            results.append(None)
            errors.append(f"{op.label}: {traceback.format_exc(limit=1).splitlines()[-1]}")
        latencies.append(perf_counter() - t)
    first_call.append(len(calls))
    record["wall_s"] = perf_counter() - start
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        record["layers"] = tracer.summary()
        tracer.write(Path(sys.argv[5]))

    problems, wrong, decided = [], 0, 0
    for i, (op, result) in enumerate(zip(ops, results)):
        if result is None:
            continue
        found = workload.check(op, result)
        found += workloads.replay_problems(calls[first_call[i]:first_call[i + 1]])
        if found:
            wrong += 1
            problems += [f"{op.label}: {p}" for p in found]
        elif workload.decided(op, result):
            decided += 1
    record.update(latencies=latencies, attempted=len(ops), raised=len(errors), wrong=wrong,
                  decided=decided, errors=errors, problems=problems)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
