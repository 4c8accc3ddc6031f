"""Compare two sets of benchmark results metric by metric.

Usage::

    python3 bench/compare.py A/*.json B/*.json
    python3 bench/compare.py A B --claim wall_p50_ms@boot-e2e

Result files are grouped by directory: the first directory named holds
the parent's runs (A), the second the change's (B).  Runs pair up in
file-name order, so name them by run number when the two sides were
run alternately.

For every workload x bounded metric it prints each side's quartiles and
a verdict:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — A's own spread (q3 - q1) is wider than the bound and
  not every B run beats every A run;
* ``within bound`` — otherwise.

Metrics that are deterministic for a seed (sim metrics, precision) are
judged run against run instead: ``worse`` if any B run is worse than
its A partner by more than the bound.  ``=`` marks a metric whose runs
read identically on both sides.

``--claim metric@workload`` applies the gain rule: B wins at least 90%
of the A/B pairs (ties count for neither) and the medians differ by more
than A's spread.  Exit status: 1 if any metric is worse or a claim is
not met, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

if __package__ in (None, ""):  # run as a script: make ``bench`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import spec  # noqa: E402
from bench.stats import median, quartiles  # noqa: E402


def load_groups(paths: List[Path]) -> Dict[Path, List[dict]]:
    """Result documents per directory, in first-named order."""
    groups: Dict[Path, List[dict]] = {}
    for path in paths:
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for f in files:
            doc = json.loads(f.read_text())
            if "workloads" in doc:  # skips Perfetto traces
                groups.setdefault(path if path.is_dir() else f.parent,
                                  []).append(doc)
    return groups


def metric_values(docs: List[dict]) -> Dict[tuple, List[float]]:
    """``(workload, metric) -> values`` over the runs, in run order."""
    out = defaultdict(list)
    for doc in docs:
        for workload, result in doc["workloads"].items():
            for name, m in result["metrics"].items():
                out[(workload, name)].append(m["value"])
    return out


def _sign(m: spec.MetricSpec) -> int:
    """+1 when larger is worse."""
    return 1 if m.better == "lower" else -1


def verdict(m: spec.MetricSpec, a: List[float], b: List[float]) -> str:
    s = _sign(m)
    if m.paired:
        return ("worse" if any(s * (y - x) > m.allowed(x)
                               for x, y in zip(a, b)) else "within bound")
    q1, med_a, q3 = quartiles(a)
    allowed = m.allowed(med_a)
    b_beats_all = all(s * (y - x) < 0 for y in b for x in a)
    if q3 - q1 > allowed and not b_beats_all:
        return "unresolved"
    if s * (median(b) - med_a) > allowed:
        return "worse"
    return "within bound"


def claim(m: spec.MetricSpec, a: List[float], b: List[float]) -> dict:
    """The gain rule over the A/B pairs (see module docstring)."""
    s = _sign(m)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if s * (y - x) < 0)
    q1, med_a, q3 = quartiles(a)
    gap = s * (med_a - median(b))
    return {"pairs": len(pairs), "wins": wins,
            "win_rate": wins / len(pairs) if pairs else 0.0,
            "gap": gap, "parent_spread": q3 - q1,
            "met": bool(pairs) and wins >= 0.9 * len(pairs)
            and gap > q3 - q1}


def _fmt(values: List[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:11.5g} [{q1:.5g}, {q3:.5g}]"


def host_summary(label: str, docs: List[dict]) -> str:
    probes, loads, revs = [], [], set()
    for doc in docs:
        revs.add((doc.get("host") or {}).get("git_rev"))
        for result in doc["workloads"].values():
            probes.append(result["host"]["host_probe_ms"])
            loads += [result["host"]["loadavg_before"][0],
                      result["host"]["loadavg_after"][0]]
    revs = ", ".join(sorted(str(r)[:12] for r in revs))
    return (f"{label}: {len(docs)} run(s), rev {revs}; host probe median "
            f"{median(probes):.0f} ms; 1-min load {min(loads):.2f}.."
            f"{max(loads):.2f}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("paths", nargs="+", type=Path,
                   help="result files or directories of both sides")
    p.add_argument("--claim", action="append", default=[],
                   metavar="METRIC@WORKLOAD")
    args = p.parse_args(argv)

    groups = load_groups(args.paths)
    if len(groups) != 2:
        p.error(f"need results from exactly two directories, got "
                f"{[str(g) for g in groups] or 'none'}")
    (dir_a, docs_a), (dir_b, docs_b) = groups.items()
    specs = spec.bounded_metrics(spec.load_benchmark())
    va, vb = metric_values(docs_a), metric_values(docs_b)

    print(host_summary(f"A {dir_a}", docs_a))
    print(host_summary(f"B {dir_b}", docs_b))
    print(f"{'workload':<11} {'metric':<20} {'unit':<6} "
          f"{'A median [q1, q3]':<34} {'B median [q1, q3]':<34} "
          f"{'change':>8}  verdict")
    worse = 0
    for key in sorted(set(va) & set(vb)):
        workload, name = key
        m = specs.get(name)
        if m is None:
            continue
        a, b = va[key], vb[key]
        v = verdict(m, a, b)
        worse += v == "worse"
        med_a = median(a)
        change = (f"{100 * (median(b) - med_a) / abs(med_a):+7.2f}%"
                  if med_a else f"{median(b) - med_a:+8.3g}")
        same = "=" if a == b else " "
        print(f"{workload:<11} {name:<20} {m.unit:<6} {_fmt(a):<34} "
              f"{_fmt(b):<34} {change:>8} {same}{v}")

    failed_claims = 0
    for text in args.claim:
        name, _, workload = text.partition("@")
        key = (workload, name)
        if name not in specs or key not in va or key not in vb:
            p.error(f"--claim {text}: no bounded metric {name!r} on "
                    f"workload {workload!r} in both sides")
        c = claim(specs[name], va[key], vb[key])
        failed_claims += not c["met"]
        print(f"claim {text}: B wins {c['wins']}/{c['pairs']} pairs "
              f"({100 * c['win_rate']:.0f}%, need 90%); median gain "
              f"{c['gap']:.5g} vs parent spread {c['parent_spread']:.5g}"
              f" -> {'met' if c['met'] else 'NOT met'}")
    return 1 if worse or failed_claims else 0


if __name__ == "__main__":
    sys.exit(main())
