"""Repo benchmark: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 bench/run.py                                # all four workloads
    python3 bench/run.py --workload boot-e2e --seed 3   # one workload
    python3 bench/run.py --workload price-mix --trace 1 # per-layer metrics
    python3 bench/run.py --quick                        # short smoke run

Each metric prints as ``workload  metric  value  unit``.  A single-workload
run ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}`` holding the ``end_to_end`` metrics of ``BENCHMARK.json``
(untraced) or its ``per_layer`` metrics (``--trace 1``).  Results are
written to ``bench/results/`` (see ``--out``); compare two sets of them
with ``bench/compare.py``.  Several workloads run one after another,
each in a fresh process, so peak memory and caches belong to one
workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"
WORKLOADS = ("boot-e2e", "helr-train", "price-mix", "serve-open")


def _prepare_imports() -> None:
    """Pin numeric libraries to one thread (the benchmark is one
    single-threaded client) and import ``repro`` from this checkout's
    sources only."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no repro sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", "--workloads", dest="workloads",
                   default=",".join(WORKLOADS),
                   help="comma-separated workload names (default: all)")
    p.add_argument("--seed", type=_seed, default=0,
                   help="workload seed: the only source of inputs")
    p.add_argument("--seconds", type=float, default=None,
                   help="timed phase per workload (default: run_seconds "
                        "of BENCHMARK.json, 1 with --quick)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1),
                   help="1: traced run reporting the per-layer metrics")
    p.add_argument("--quick", action="store_true",
                   help="short run with small deterministic samples and "
                        "one set-up (tests and smoke checks)")
    p.add_argument("--out", type=Path, default=None,
                   help="result JSON (default: bench/results/...)")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    args.workloads = [w for w in args.workloads.split(",") if w]
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown or not args.workloads:
        p.error(f"unknown workload(s) {unknown}; one of {WORKLOADS}")
    return args


def _default_out(label: str, args) -> Path:
    suffix = "-trace" if args.trace else ""
    return RESULTS / f"{label}-seed{args.seed}{suffix}.json"


def print_metrics(result: dict) -> None:
    name = result["workload"]
    for section in ("metrics", "layer_metrics"):
        for metric, m in result.get(section, {}).items():
            print(f"{name:<11} {metric:<44} {m['value']:>16.6g} "
                  f"{m['unit']}")
    for failure in result["failures"]:
        print(f"{name:<11} FAILED {failure}")
    for target in result.get("unresolved_targets", ()):
        print(f"{name:<11} unresolved trace target {target}")


def contract_line(result: dict, benchmark: dict) -> str:
    """The last stdout line: the BENCHMARK.json metric set of this run."""
    if result["trace"]:
        metrics = result["layer_metrics"]
    else:
        metrics = {m["name"]: result["metrics"][m["name"]]
                   for m in benchmark["end_to_end"]}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def _write(path: Path, document: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1) + "\n")


def run_one(args, seconds: float) -> int:
    from bench import harness, spec

    name = args.workloads[0]
    result = harness.run_workload(
        name, seed=args.seed, seconds=seconds, trace=bool(args.trace),
        quick=args.quick, trace_file=RESULTS / f"{name}.trace.json")
    out = args.out or _default_out(name, args)
    _write(out, {"seed": args.seed, "host": harness.host_info(),
                 "workloads": {name: result}})
    print_metrics(result)
    print(contract_line(result, spec.load_benchmark()))
    return 0


def run_many(args, seconds: float) -> int:
    """Each workload in a fresh process; results merged into one file."""
    from bench import harness

    merged = {}
    for name in args.workloads:
        part = _default_out(name, args)
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace),
               "--out", str(part)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write("".join(proc.stdout.splitlines(True)[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        merged[name] = json.loads(part.read_text())["workloads"][name]
    out = args.out or _default_out("all", args)
    _write(out, {"seed": args.seed, "host": harness.host_info(),
                 "workloads": merged})
    print(f"wrote {out}")
    return 0 if all(r["correct"] for r in merged.values()) else 1


def main(argv=None) -> int:
    args = _parse(argv)
    _prepare_imports()
    from bench import spec, workloads

    if args.setup_only:
        workload = workloads.make(args.workloads[0])
        t0 = time.perf_counter()
        workload.setup()
        print(time.perf_counter() - t0)
        return 0
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.quick else spec.load_benchmark()["run_seconds"]
    if len(args.workloads) == 1:
        return run_one(args, seconds)
    return run_many(args, seconds)


if __name__ == "__main__":
    sys.exit(main())
