"""Benchmark entry point.

    python3 perfbench/run.py --workload {separation,codes,algebra} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --quick

Run from the root of a checkout that holds ``src/alttree``.  Every sample is
a fresh interpreter (``child.py``) started one at a time, with a fixed
``PYTHONHASHSEED`` and single-threaded BLAS, so the load stays at one core.

``--trace 0`` makes full passes until ``--seconds`` of them have been
measured (a pass is never cut, so the last one may end past it), with
set-up-only samples before and after them, and prints the end-to-end
metrics as medians over those samples.  ``--trace 1`` alternates untraced
and traced passes the same way and prints the per-layer metrics of the
traced ones plus the tracing overhead.  Answer checks run once per run,
on the first pass, and do not count towards ``--seconds``.  The last line of
standard output is the JSON result, holding the metrics that
``BENCHMARK.json`` names; the lines before it give the sample counts and the
answer's sha256, and a fuller record with every metric is written under
``perfbench/runs/``.

``--quick`` runs every workload at a tiny size, traced and untraced, checks
the answers, and confirms that each check rejects a corrupted answer.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("separation", "codes", "algebra")
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload: str, seed: int, deadline: float, *flags: str, size: str = "full") -> dict:
    """Run one child to completion and return its JSON result."""
    t0 = time.monotonic()
    remaining = deadline - t0
    if remaining <= 0:
        raise ChildFailed("out of time before the sample could start")
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed),
           "--size", size, "--t0", repr(t0), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} sample exceeded the {DEADLINE_S:.0f} s run limit") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} sample exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe_setups(workload: str, seed: int, deadline: float) -> list[float]:
    """Set-up-only samples: at least 2, then more while they take under 1.5 s."""
    out: list[float] = []
    while len(out) < 2 or (sum(out) < 1.5 and len(out) < 6):
        out.append(spawn(workload, seed, deadline, "--setup-only")["setup_s"])
    return out


def repeat(seconds: int, sample) -> list:
    """Call ``sample(first)`` until ``seconds`` of samples have been measured
    (answer checks not counted).  A sample is never cut, so the last one may
    end past ``seconds``; there is always at least one."""
    out, spent = [], 0.0
    while spent < seconds:
        t = time.monotonic()
        out.append(sample(not out))
        spent += time.monotonic() - t - out[-1][-1].get("check_s", 0.0)
    return out


def measure(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict]:
    # set-up probes before and after the passes, so that they see the
    # machine at both ends of the run
    setups = probe_setups(workload, seed, deadline)
    passes = [r[0] for r in repeat(seconds, lambda first: [
        spawn(workload, seed, deadline, *(("--check",) if first else ()))])]
    setups += probe_setups(workload, seed, deadline) + [p["setup_s"] for p in passes]
    lat = [x for p in passes for x in p["lat_s"]]
    percentiles = statistics.quantiles(lat, n=100) if len(lat) > 1 else []
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "peak_rss_mib": (statistics.median(p["rss_mib"] for p in passes), "MiB"),
    }
    record = {
        "samples": {"setup_s": len(setups), "wall_s": len(passes), "op_p50_ms": len(lat),
                    "peak_rss_mib": len(passes)},
        "reference": {
            "cpu_s_per_pass": statistics.median(p["cpu_s"] for p in passes),
            "op_p90_ms": percentiles[89] * 1e3 if len(lat) > 1 else None,
            "op_p99_ms": percentiles[98] * 1e3 if len(lat) > 1 else None,
            "setup_s_all": setups,
            "wall_s_all": [p["wall_s"] for p in passes],
        },
    }
    return metrics, summarize(passes, passes[0]["failures"], record)


def measure_traced(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict]:
    pairs = repeat(seconds, lambda first: [
        spawn(workload, seed, deadline),
        spawn(workload, seed, deadline, "--trace", *(("--check",) if first else ()))])
    plain, traced = [p for p, _ in pairs], [t for _, t in pairs]
    metrics = {}
    for name, unit in layer_units(traced[0]["layers"]).items():
        metrics[name] = (statistics.median(p["layers"][name] for p in traced), unit)
    untraced_wall = statistics.median(p["wall_s"] for p in plain)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall - 1, "ratio")
    record = {"samples": {"traced_passes": len(traced), "untraced_passes": len(plain)}}
    return metrics, summarize(plain + traced, traced[0]["failures"], record)


def layer_units(layers: dict) -> dict:
    def unit(name):
        if name.endswith("_s"):
            return "s"
        if ".p50_ms." in name:
            return "ms"
        return "ratio" if name.endswith("_ratio") else "count"
    return {name: unit(name) for name in layers}


def summarize(passes: list, failures: list, record: dict) -> dict:
    shas = sorted({p["sha256"] for p in passes})
    return {
        **record,
        "correct": not failures and len(shas) == 1,
        "failures": failures[:20],
        "answer_sha256": shas,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
    }


def listed_metrics(kind: str) -> set | None:
    """Names of the ``kind`` metrics in ``BENCHMARK.json``, or None without one."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec.get(kind, [])}


def quick() -> int:
    """Every workload at a tiny size: answers checked, corruptions caught."""
    deadline = time.monotonic() + DEADLINE_S
    ok = True
    for workload in WORKLOADS:
        res = spawn(workload, 1, deadline, "--selftest", size="quick")
        traced = spawn(workload, 1, deadline, "--trace", "--check", size="quick")
        missed = [label for label, caught in res["corruptions"].items() if not caught]
        good = not res["failures"] and not traced["failures"] and not missed and res["sha256"] == traced["sha256"]
        ok &= good
        print(f"{workload}: {'ok' if good else 'FAILED'}  failures={res['failures'] + traced['failures']}"
              f"  corruptions caught={sum(res['corruptions'].values())}/{len(res['corruptions'])}"
              f"  missed={missed}  spans={traced['layers']['trace.spans']}")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "alttree" / "__init__.py").is_file():
        print(f"no src/alttree under {ROOT}: run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        if args.quick:
            return quick()
        if args.workload is None:
            ap.error("--workload is required")
        deadline = time.monotonic() + DEADLINE_S
        measure_fn = measure_traced if args.trace else measure
        metrics, record = measure_fn(args.workload, args.seed, args.seconds, deadline)
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              **record, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    runs = BENCH / "runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(f"# {args.workload} seed={args.seed} samples={json.dumps(record['samples'])}")
    print(f"# answer_sha256={','.join(record['answer_sha256'])} failures={record['failures'][:3]}")
    listed = listed_metrics("per_layer" if args.trace else "end_to_end")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: v for k, v in record["metrics"].items() if listed is None or k in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
