"""The four benchmark workloads.

Each workload has a ``setup`` (timed as ``setup_s``) and a request
``stream``: a generator, seeded only by the benchmark seed, that yields
:class:`Request` objects and receives each request's output back
(``gen.send(output)``, ``None`` when the request raised), so a workload
may choose its next request from the last result (serve-open's
bisection).  The harness times ``Request.run`` alone and then calls
``Request.check``, which returns the request's observations or raises
:class:`CheckFailed`.

A stream's first request is the untimed warm-up.  The first ``sample``
requests (warm-up included) feed the workload's deterministic metrics
(precision, simulated A100 numbers), so those repeat exactly for a seed
however fast the host is.  A mixed workload times whole rounds of its
mix (``quantum`` requests), so every run times the same mix and the
seed only orders it.  Why each workload exists is in ``BENCHMARK.json``
and ``bench/README.md``.

Layer functions are called through their modules
(``lowering.lower_trace``), never through names bound here, so the
tracer's rebinding of ``repro.*`` module attributes reaches these calls.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterator, List, Tuple

import numpy as np

from repro.analysis.dagcheck import memory as dag_memory
from repro.ckks import CkksContext, CkksParams, ParameterSets
from repro.ckks.bootstrap import BootstrapConfig, Bootstrapper
from repro.core.scheduler import OperationScheduler
from repro.gpusim import A100_PCIE_80G
from repro.serving import (DEFAULT_JOB_KINDS, ServingConfig,
                           ServingSimulator, default_catalog)
from repro.trace import lowering
from repro.trace import opt as trace_opt
from repro.trace import recorder
from repro.workloads.helr import (EncryptedLogisticRegression,
                                  plaintext_reference)

from bench.stats import geomean, median

#: Kernel classes of the simulated per-kind split, by trace event kind
#: (a fused launch is classed by its first constituent).
KERNEL_CLASSES = ("ntt", "bconv", "inprod", "automorphism", "elementwise")
_KIND_CLASS = {
    "ntt": "ntt", "intt": "ntt", "modup": "bconv", "moddown": "bconv",
    "inner_product": "inprod", "automorphism": "automorphism",
    "modadd": "elementwise", "modmul": "elementwise",
    "tensor_product": "elementwise", "divide": "elementwise",
    "fused_elementwise": "elementwise",
}


class CheckFailed(Exception):
    """A request's output failed its workload's correctness check."""


@dataclass
class Request:
    run: Callable[[], Any]
    check: Callable[[Any], Dict[str, Any]]


def event_counts(trace) -> Counter:
    return Counter(event.kind for event in trace.events)


class Workload:
    name = ""
    #: Leading requests that feed the deterministic metrics, full / quick.
    SAMPLE = QUICK_SAMPLE = 1
    #: The timed request count is a multiple of this (one round of the
    #: workload's mix).
    quantum = 1

    def __init__(self, *, quick: bool = False):
        self.sample = self.QUICK_SAMPLE if quick else self.SAMPLE

    def setup(self) -> Any:
        raise NotImplementedError

    def stream(self, state: Any, seed: int) -> Iterator[Request]:
        raise NotImplementedError

    def extras(self, state: Any, sample: List[dict],
               timed: List[Tuple[float, dict]]) -> Dict[str, tuple]:
        """Workload-specific end-to-end metrics: ``{name: (value,
        unit)}``.  ``sample`` holds the observations of the leading
        requests, all of which passed their check; ``timed`` pairs each
        passing timed request's latency (s) with its observations."""
        return {}

    def layer_metrics(self, state: Any, seed: int,
                      sample: List[dict]) -> Dict[str, float]:
        """Per-layer metrics the workload itself can report (traced
        runs only); a per-layer metric no one reports reads 0."""
        return {}


def _recorded_events(workload: Workload, state: Any, seed: int,
                     params) -> Dict[str, float]:
    """``trace.events.<kind>`` of one extra request run under the trace
    recorder (the first request of a fresh stream)."""
    req = next(workload.stream(state, seed))
    with recorder.record(workload.name, params=params) as rec:
        req.run()
    return {f"trace.events.{k}": float(v)
            for k, v in event_counts(rec.trace).items()}


# -- boot-e2e -----------------------------------------------------------------

#: ``boot-mid``, the functional bootstrap set of benchmarks/bench_bootstrap.py.
BOOT_PARAMS = dict(n=512, max_level=16, num_special=2, dnum=17,
                   scale_bits=26, secret_hamming_weight=8, name="boot-mid")
BOOT_CONFIG = dict(sine_degree=63, eval_range=4.5, fft_factored=True, fuse=2)


class BootE2E(Workload):
    """Encrypt 8 slots, slim bootstrap, decrypt."""

    name = "boot-e2e"
    SAMPLE, QUICK_SAMPLE = 8, 2
    MAX_ERROR = 0.2

    def setup(self):
        ctx = CkksContext.create(CkksParams(**BOOT_PARAMS), seed=0)
        boot = Bootstrapper(ctx, BootstrapConfig(**BOOT_CONFIG))
        keys = ctx.keygen(rotations=boot.required_rotations(),
                          conjugation=True)
        return SimpleNamespace(ctx=ctx, boot=boot, keys=keys)

    def stream(self, state, seed):
        rng = np.random.default_rng(seed)
        ctx, boot, keys = state.ctx, state.boot, state.keys
        while True:
            vals = np.zeros(ctx.slots)
            vals[:8] = rng.uniform(-0.75, 0.75, 8)

            def run(vals=vals):
                ct = ctx.encrypt(vals, keys, level=boot.stc_levels)
                return ctx.decrypt_decode_real(boot.bootstrap(ct, keys), keys)

            yield Request(run, lambda out, vals=vals: _slot_error(
                out, vals, self.MAX_ERROR))

    def extras(self, state, sample, timed):
        return {"precision_bits": _precision_bits(sample)}

    def layer_metrics(self, state, seed, sample):
        return _recorded_events(self, state, seed, state.ctx.params)


def _slot_error(out, expected, limit: float) -> Dict[str, float]:
    err = float(np.max(np.abs(np.asarray(out) - expected)))
    if not err <= limit:  # also rejects NaN
        raise CheckFailed(f"max error {err:.3g} > {limit}")
    return {"error": err}


def _precision_bits(sample: List[dict]) -> tuple:
    worst = max(obs["error"] for obs in sample)
    return (-math.log2(max(worst, 2.0 ** -64)), "bits")


# -- helr-train ---------------------------------------------------------------


class HelrTrain(Workload):
    """One encrypted logistic-regression iteration on 2 x 4 samples."""

    name = "helr-train"
    SAMPLE, QUICK_SAMPLE = 8, 2
    MAX_ERROR = 1e-2

    def setup(self):
        ctx = CkksContext.create(ParameterSets.small(), seed=0)
        keys = ctx.keygen(
            rotations=EncryptedLogisticRegression.required_rotations(
                ctx.slots))
        return SimpleNamespace(ctx=ctx,
                               model=EncryptedLogisticRegression(ctx, keys))

    def stream(self, state, seed):
        rng = np.random.default_rng(seed)
        while True:
            x = rng.uniform(-1.0, 1.0, size=(2, 4))
            y = (x.sum(axis=1) > 0).astype(float)
            want = plaintext_reference(x, y, iterations=1)
            yield Request(
                lambda x=x, y=y: state.model.train(x, y, iterations=1),
                lambda out, want=want: _slot_error(out, want,
                                                   self.MAX_ERROR),
            )

    def extras(self, state, sample, timed):
        return {"precision_bits": _precision_bits(sample)}

    def layer_metrics(self, state, seed, sample):
        return _recorded_events(self, state, seed, state.ctx.params)


# -- price-mix ----------------------------------------------------------------

PRICE_DEVICE = A100_PCIE_80G
#: (kind, lowering style, batch, optimize) — the 64 request types.
COMBOS = tuple(itertools.product(DEFAULT_JOB_KINDS, ("pe", "kf"),
                                 (1, 2, 4, 8), (False, True)))


class PriceMix(Workload):
    """Record -> (optimize) -> lower -> price -> certify, over a mix of
    recorded catalog traces."""

    name = "price-mix"
    SAMPLE, QUICK_SAMPLE = 32, 8
    quantum = len(COMBOS)

    def setup(self):
        classes = default_catalog().classes
        state = SimpleNamespace(
            traces={k: c.recorder() for k, c in classes.items()},
            schedulers={k: OperationScheduler(c.params, device=PRICE_DEVICE)
                        for k, c in classes.items()},
            reference={},
        )
        # Price every request type once: warms the lowering caches and
        # gives each type the reference outputs requests must reproduce.
        for combo in COMBOS:
            trace, dag, sim_us, cert, result = self._price(state, combo)
            if result is None:  # schedule_search kept no run of its pick
                result = dag.run(PRICE_DEVICE)
            state.reference[combo] = SimpleNamespace(
                sim_us=sim_us, cert_bytes=cert, kernels=dag.kernel_count,
                observed_bytes=dag_memory.observed_peak_bytes(result),
                class_us=_class_us(trace, dag, result),
                events=event_counts(trace),
            )
        return state

    @staticmethod
    def _price(state, combo):
        kind, style, batch, optimize = combo
        trace = state.traces[kind]
        sched = state.schedulers[kind]
        if optimize:
            trace, _ = trace_opt.optimize_trace(trace)
        dag = lowering.lower_trace(
            trace, params=sched.params, style=style, device=PRICE_DEVICE,
            ntt_variant=sched.ntt.variant, geometry=sched.geometry,
            batch=batch,
        )
        result = None
        if optimize:
            dag, scores = trace_opt.schedule_search(dag, PRICE_DEVICE)
            sim_us = min(scores.values())
        else:
            result = dag.run(PRICE_DEVICE)
            sim_us = result.elapsed_us
        cert = dag_memory.static_hbm_certificate(dag, PRICE_DEVICE)
        return trace, dag, sim_us, cert.peak_bytes, result

    def stream(self, state, seed):
        # A random warm-up, then seeded permutations of all 64 types,
        # round after round: the seed moves the order, not the share of
        # heavy requests.
        rng = np.random.default_rng(seed)
        yield self._request(state, COMBOS[rng.integers(len(COMBOS))])
        while True:
            for i in rng.permutation(len(COMBOS)):
                yield self._request(state, COMBOS[i])

    def _request(self, state, combo) -> Request:
        def run():
            _, dag, sim_us, cert, _ = self._price(state, combo)
            return sim_us, cert, dag.kernel_count

        return Request(run, lambda out: self._check(
            state.reference[combo], combo, out))

    @staticmethod
    def _check(ref, combo, out) -> Dict[str, Any]:
        sim_us, cert, kernels = out
        if not (math.isfinite(sim_us) and sim_us > 0):
            raise CheckFailed(f"{combo}: sim latency {sim_us!r}")
        if (sim_us, cert, kernels) != (ref.sim_us, ref.cert_bytes,
                                       ref.kernels):
            raise CheckFailed(f"{combo}: pricing is not deterministic")
        if not ref.cert_bytes >= ref.observed_bytes:
            raise CheckFailed(
                f"{combo}: certificate {ref.cert_bytes:.0f} B below the "
                f"observed peak {ref.observed_bytes:.0f} B")
        return {"combo": combo, "sim_us": sim_us, "cert_bytes": cert}

    def extras(self, state, sample, timed):
        return {
            "sim_us_geomean": (geomean([o["sim_us"] for o in sample]), "us"),
            "sim_hbm_mib_geomean": (
                geomean([o["cert_bytes"] / 2 ** 20 for o in sample]),
                "MiB"),
        }

    def layer_metrics(self, state, seed, sample):
        refs = [state.reference[o["combo"]] for o in sample]
        out = {"sim.kernels_geomean": geomean([r.kernels for r in refs])}
        class_us = {c: sum(r.class_us.get(c, 0.0) for r in refs)
                    for c in KERNEL_CLASSES}
        total = sum(sum(r.class_us.values()) for r in refs)
        for c in KERNEL_CLASSES:
            out[f"sim.kind.{c}.share_pct"] = 100.0 * class_us[c] / total
        events = sum((r.events for r in refs), Counter())
        for kind, count in events.items():
            out[f"trace.events.{kind}"] = count / len(refs)
        return out


def _class_us(trace, dag, result) -> Dict[str, float]:
    """Simulated kernel time per kernel class (entries joined to the
    DAG node and its primary trace event)."""
    events = {e.eid: e for e in trace.events}
    out: Dict[str, float] = {}
    for entry in result.entries:
        event = events[dag.nodes[entry.index].eids[0]]
        if event.kind == "fused_launch":
            event = event.fused[0]
        cls = _KIND_CLASS.get(event.kind, "other")
        out[cls] = out.get(cls, 0.0) + entry.duration_us
    return out


# -- serve-open ---------------------------------------------------------------


class ServeOpen(Workload):
    """Open-loop serving on 4 simulated A100s; one request is one
    :class:`ServingSimulator` run."""

    name = "serve-open"
    #: Seed units (two fixed-rate runs + a rate bisection) in the sample.
    UNITS, QUICK_UNITS = 8, 2
    RATES = (120.0, 200.0)
    BISECT = (100.0, 400.0, 2.0)  # low, high, resolution (jobs/s)
    P99_LIMIT_US = 250_000.0
    HORIZON_US = 10_000_000.0

    def __init__(self, *, quick: bool = False):
        lo, hi, res = self.BISECT
        self.quantum = len(self.RATES) + math.ceil(math.log2((hi - lo) / res))
        units = self.QUICK_UNITS if quick else self.UNITS
        self.sample = 1 + units * self.quantum

    def setup(self):
        catalog = default_catalog()
        for kind in catalog.kinds:
            for batch in range(1, catalog.max_batch(kind) + 1):
                catalog.price(kind, batch)
        return catalog

    def stream(self, catalog, seed):
        def derive(*key):
            return int(np.random.SeedSequence([seed, *key])
                       .generate_state(1)[0])

        yield self._request(catalog, derive(), self.RATES[0], -1, "warm-up")
        for unit in itertools.count():
            unit_seed = derive(unit)
            for rate in self.RATES:
                yield self._request(catalog, unit_seed, rate, unit,
                                    f"r{rate:g}")
            lo, hi, res = self.BISECT
            while hi - lo > res:
                mid = (lo + hi) / 2
                report = yield self._request(catalog, unit_seed, mid, unit,
                                             "bisect")
                if report is not None and self._meets(report):
                    lo = mid
                else:
                    hi = mid

    def _request(self, catalog, seed, rate, unit, tag) -> Request:
        config = ServingConfig(gpus=4, rate_per_s=rate,
                               horizon_us=self.HORIZON_US, seed=seed)
        return Request(
            lambda: ServingSimulator(config, catalog).run(),
            lambda report: dict(_check_report(report), unit=unit, tag=tag,
                                rate=rate, met=self._meets(report)),
        )

    def _meets(self, report) -> bool:
        return (report.latency["p99_us"] <= self.P99_LIMIT_US
                and report.rejections == 0
                and report.completed_by_horizon >= 0.99 * report.submitted)

    def extras(self, catalog, sample, timed):
        out = {}
        sample = [o for o in sample if o["unit"] >= 0]
        for rate in self.RATES:
            p99 = [o["p99_ms"] for o in sample if o["tag"] == f"r{rate:g}"]
            out[f"sim_p99_ms.r{rate:g}"] = (median(p99), "ms")
        lo = self.BISECT[0]
        best: Dict[int, float] = {}
        for o in sample:
            best.setdefault(o["unit"], lo)
            if o["tag"] == "bisect" and o["met"]:
                best[o["unit"]] = max(best[o["unit"]], o["rate"])
        out["sim_max_rate_per_s"] = (median(list(best.values())), "1/s")
        jobs = sum(obs["jobs"] for _, obs in timed)
        host_s = sum(lat for lat, _ in timed)
        out["host_us_per_sim_job"] = (1e6 * host_s / jobs, "us")
        return out

    def layer_metrics(self, catalog, seed, sample):
        def mean(key):
            return sum(o[key] for o in sample) / len(sample)

        return {
            "serving.batches.mean_size": mean("mean_batch"),
            "serving.queue.mean_depth": mean("mean_depth"),
            "serving.device.utilization_pct": mean("utilization_pct"),
            "serving.rejections_pct": mean("rejections_pct"),
        }


def _check_report(report) -> Dict[str, float]:
    """Internal consistency of one serving report."""
    lat = report.latency
    problems = []
    if report.submitted <= 0:
        problems.append("no jobs submitted")
    if not report.completed_by_horizon <= report.completed <= \
            report.submitted:
        problems.append("completed counts exceed submitted")
    if lat["count"] != report.completed:
        problems.append("latency sample size != completed")
    if not 0.0 <= lat["p50_us"] <= lat["p99_us"] <= lat["max_us"]:
        problems.append("latency percentiles out of order")
    if report.rejections < 0 or report.batches["count"] <= 0:
        problems.append("negative rejections or no batches")
    if problems:
        raise CheckFailed("; ".join(problems))
    batches = report.batches["count"]
    return {
        "p99_ms": lat["p99_us"] / 1e3,
        "jobs": report.submitted,
        "mean_batch": report.batches["mean_size"],
        "mean_depth": report.queue["mean_depth"],
        "utilization_pct": 100.0 * sum(
            d["utilization"] for d in report.devices) / len(report.devices),
        "rejections_pct": 100.0 * report.rejections / batches,
    }


WORKLOADS = {w.name: w for w in (BootE2E, HelrTrain, PriceMix, ServeOpen)}


def make(name: str, *, quick: bool = False) -> Workload:
    try:
        return WORKLOADS[name](quick=quick)
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; one of "
                         f"{', '.join(WORKLOADS)}") from None
