"""One set-up or one pass of one workload, in a fresh interpreter.

``run.py`` starts this file once per sample, so every pass begins with the
program's process-wide caches empty.  It prints one JSON object: the set-up
time measured from ``--t0`` (the parent's monotonic clock just before the
spawn), and for a pass the wall time, per-query latencies, peak resident
memory, process CPU time, the answer's sha256, and -- when asked -- the
answer checks, the corrupted-answer self-test and the per-layer trace.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time
from pathlib import Path


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--size", choices=("full", "quick"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    import workloads  # imports alttree: part of the set-up time

    setup, run, canonical, ops = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install([workloads])
    inp = setup(args.seed, args.size)
    out = {"setup_s": time.monotonic() - args.t0}
    if args.setup_only:
        print(json.dumps(out))
        return

    cpu = time.process_time()
    t = time.perf_counter()
    ans, lat, failed = run(inp)
    out["wall_s"] = time.perf_counter() - t
    out["cpu_s"] = time.process_time() - cpu
    out["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["lat_s"] = lat
    out["attempted"] = ops(inp)
    out["failed"] = failed
    out["sha256"] = hashlib.sha256(canonical(ans)).hexdigest()
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        traces = Path(__file__).resolve().parent / "traces"
        traces.mkdir(exist_ok=True)
        tracer.save(traces / f"{args.workload}-{args.size}-seed{args.seed}.npz")
        tracer.uninstall()
    if args.check or args.selftest:
        import checks

        def check(answer) -> list[str]:
            try:
                return checks.CHECKS[args.workload](inp, answer)
            except Exception as exc:  # a malformed answer fails its check
                return [f"check raised {exc!r}"]

        t = time.perf_counter()
        out["failures"] = check(ans)
        out["check_s"] = time.perf_counter() - t
        if args.selftest:
            out["corruptions"] = {
                label: bool(check(bad)) for label, bad in checks.corruptions(args.workload, inp, ans)
            }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
