"""Measurement harness: set-up timing, the timed request loop, metrics.

One :func:`run_workload` call measures one workload in this process:

1. host probe and load average (reported only, never used to
   normalise);
2. set-up, timed; ``setup_s`` is the median of this set-up and
   :data:`SETUP_REPEATS` - 1 more, each in a fresh process so caches
   start cold every time;
3. one warm-up request, then requests until ``seconds`` have passed
   and the workload's deterministic sample is complete;
4. metrics from the timed requests.

Traced runs alternate untraced and traced requests, so the tracing
overhead is measured on the same host at the same time.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from bench import spec, workloads
from bench.stats import median, percentile
from bench.tracer import ROOT as ROOT_SPAN, Tracer
from bench.workloads import CheckFailed

SETUP_REPEATS = 3
#: Traced requests whose spans go to the Perfetto file (totals cover
#: all of them).
KEEP_SPANS = 4
#: Fixed work of the host probe (about 0.5 s on a 2-core VM).
PROBE_ITERS = 3500

#: ``cache.<name>.hit_pct`` sources: hit/miss counter functions.
CACHE_STATS = (
    ("tables", "repro.ntt.tables:table_cache_stats"),
    ("reducers", "repro.ckks.poly:reducer_cache_stats"),
    ("twiddle_stacks", "repro.ntt.twiddles:twiddle_stack_cache_stats"),
    ("contexts", "repro.ckks.rns_context:rns_context_cache_stats"),
    ("shoup_stacks", "repro.ntt.stacked:shoup_stack_cache_stats"),
    ("gpusim_profile", "repro.gpusim.streams:profile_cache_stats"),
)


@dataclass
class Record:
    latency_s: float
    failure: Optional[str]
    obs: Dict[str, Any] = field(default_factory=dict)
    traced: bool = False


def _timed(req, tracer: Optional[Tracer] = None, request_id: int = 0):
    """Run and check one request; returns ``(record, output)`` with the
    output ``None`` when the request failed."""
    failure = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = req.run()
        else:
            with tracer.patched(), tracer.request_span(
                    request_id, keep=request_id <= KEEP_SPANS):
                out = req.run()
    except Exception as exc:  # noqa: BLE001 - a raising request is a
        # failed one; the run goes on and reports it.
        out, failure = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    obs = {}
    if failure is None:
        try:
            obs = req.check(out)
        except CheckFailed as exc:
            out, failure = None, str(exc)
    return Record(latency, failure, obs, tracer is not None), out


def measure(workload, state, seed: int, seconds: float,
            tracer: Optional[Tracer] = None) -> List[Record]:
    """Run the workload's request stream: request 0 is the warm-up, the
    timed phase lasts ``seconds``, rounded up to whole quanta, and
    covers at least the sample.  With
    a tracer, every timed request runs a second time traced, right after
    its untraced run, so the two form a pair."""
    gen = workload.stream(state, seed)
    records: List[Record] = []
    out = None
    deadline = math.inf
    i = 0
    while (i < max(workload.sample, 2) or time.perf_counter() < deadline
           or (i - 1) % workload.quantum):
        req = gen.send(out) if i else next(gen)
        record, out = _timed(req)
        records.append(record)
        if tracer is not None and i > 0:
            records.append(_timed(req, tracer, i)[0])
        if i == 0:
            deadline = time.perf_counter() + seconds
        i += 1
    return records


# -- host ---------------------------------------------------------------------


def git_rev() -> Optional[str]:
    """Commit of the checkout, read from ``.git`` (None outside git)."""
    git = spec.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_info() -> Dict[str, Any]:
    from repro.backend import backend_name

    return {
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": backend_name(),
    }


def host_probe_ms() -> float:
    """Wall time of a fixed numpy loop: shows a slow or busy host."""
    a = np.arange(1 << 15, dtype=np.uint64)
    mul, mod = np.uint64(2654435761), np.uint64(4294967291)
    t0 = time.perf_counter()
    for _ in range(PROBE_ITERS):
        a = (a * mul + np.uint64(1)) % mod
    return (time.perf_counter() - t0) * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cache_counters() -> Dict[str, tuple]:
    """``{name: (hits, misses)}`` of every cache-stat source that still
    resolves."""
    out = {}
    for name, target in CACHE_STATS:
        module, _, func = target.partition(":")
        try:
            stats = getattr(importlib.import_module(module), func)()
            out[name] = (stats["hits"], stats["misses"])
        except (ImportError, AttributeError, KeyError):
            continue
    return out


def setup_in_fresh_process(name: str, seed: int) -> float:
    """Set-up seconds of ``name`` measured by a new interpreter."""
    proc = subprocess.run(
        [sys.executable, str(spec.ROOT / "bench" / "run.py"),
         "--workload", name, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


# -- metrics ------------------------------------------------------------------


def _ms(values):
    return [v * 1e3 for v in values]


def end_to_end(latencies_s: List[float], setup_samples: List[float]
               ) -> Dict[str, tuple]:
    ms = _ms(latencies_s)
    return {
        "setup_s": (median(setup_samples), "s"),
        "wall_p50_ms": (percentile(ms, 50), "ms"),
        "wall_p90_ms": (percentile(ms, 90), "ms"),
        "ops_per_s": (len(ms) / sum(latencies_s), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def layer_table(stats, n_requests: int, root_ns: int) -> Dict[str, dict]:
    """Per-request calls, self and total ms, and shares of request time,
    per span name."""
    return {
        name: {
            "calls": st.calls / n_requests,
            "self_ms": st.self_ns / 1e6 / n_requests,
            "total_ms": st.total_ns / 1e6 / n_requests,
            "self_pct": 100.0 * st.self_ns / root_ns,
            "total_pct": 100.0 * st.total_ns / root_ns,
        }
        for name, st in sorted(stats.items())
    }


def traced_layer_metrics(tracer_stats, setup_stats, caches_before,
                         caches_after) -> Dict[str, float]:
    stats, pairs, counters = tracer_stats
    root = stats[ROOT_SPAN]
    n = root.calls
    out: Dict[str, float] = {}
    for name, row in layer_table(stats, n, root.total_ns).items():
        for key in ("calls", "self_pct", "total_pct"):
            out[f"{name}.{key}"] = row[key]
    for name, value in counters.items():
        out[name] = value / n
    setup = setup_stats[0]
    keygen = setup.get("ckks.keys.generate")
    if keygen is not None:
        out["ckks.keys.generate.setup_pct"] = (
            100.0 * keygen.total_ns / setup[ROOT_SPAN].total_ns)
    for name, (hits, misses) in caches_after.items():
        h0, m0 = caches_before.get(name, (0, 0))
        lookups = (hits - h0) + (misses - m0)
        out[f"cache.{name}.hit_pct"] = (
            100.0 * (hits - h0) / lookups if lookups else 0.0)
    catalog = stats.get("serving.catalog")
    if catalog is not None:
        misses = pairs[("serving.catalog", "trace.lower_trace")]
        out["serving.catalog.hit_pct"] = 100.0 * (1 - misses / catalog.calls)
    return out


def run_workload(name: str, *, seed: int, seconds: float, trace: bool,
                 quick: bool, trace_file=None) -> Dict[str, Any]:
    """Measure one workload; returns its result record (see README)."""
    workload = workloads.make(name, quick=quick)
    benchmark = spec.load_benchmark()
    host = {"loadavg_before": list(os.getloadavg()),
            "host_probe_ms": host_probe_ms()}

    tracer = Tracer() if trace else None
    t0 = time.perf_counter()
    if tracer:
        with tracer.patched(), tracer.request_span("setup", keep=False):
            state = workload.setup()
        setup_stats = tracer.take()
    else:
        state = workload.setup()
    setup_samples = [time.perf_counter() - t0]

    caches_before = cache_counters()
    records = measure(workload, state, seed, seconds, tracer)
    caches_after = cache_counters()

    if not (quick or trace):
        setup_samples += [setup_in_fresh_process(name, seed)
                          for _ in range(SETUP_REPEATS - 1)]

    # Failed requests keep their latency: a failure misses any limit.
    untraced = [r for r in records if not r.traced]
    plain = untraced[1:]
    failures = [r.failure for r in records if r.failure is not None]
    sample = untraced[:workload.sample]
    sample_ok = all(r.failure is None for r in sample)

    metrics = end_to_end([r.latency_s for r in plain], setup_samples)
    metrics["fail_ratio"] = (len(failures) / len(records), "ratio")
    if sample_ok:
        metrics.update(workload.extras(
            state, [r.obs for r in sample],
            [(r.latency_s, r.obs) for r in plain if r.failure is None]))

    result = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": trace, "quick": quick,
        "correct": not failures, "attempted": len(records),
        "failed": len(failures), "failures": failures[:5],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "setup_samples_s": setup_samples,
        "latencies_ms": _ms(r.latency_s for r in plain),
    }

    if tracer:
        tracer_stats = tracer.take()
        values = traced_layer_metrics(tracer_stats, setup_stats,
                                      caches_before, caches_after)
        # records run [warm-up, u1, t1, u2, t2, ...]: pair each traced
        # run with the untraced run of the same request.
        values["trace_overhead_pct"] = 100.0 * (median(
            [t.latency_s / u.latency_s
             for u, t in zip(records[1::2], records[2::2])]) - 1.0)
        if sample_ok:
            values.update(workload.layer_metrics(
                state, seed, [r.obs for r in sample]))
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        result["layer_metrics"] = {
            k: {"value": values.get(k, 0.0), "unit": u}
            for k, u in units.items()}
        stats = tracer_stats[0]
        result["layers"] = layer_table(stats, stats[ROOT_SPAN].calls,
                                       stats[ROOT_SPAN].total_ns)
        result["unresolved_targets"] = tracer.unresolved
        if trace_file is not None:
            trace_file.parent.mkdir(parents=True, exist_ok=True)
            trace_file.write_text(json.dumps(tracer.chrome_trace(name)))
            result["perfetto_trace"] = str(trace_file)

    host["loadavg_after"] = list(os.getloadavg())
    result["host"] = host
    return result
