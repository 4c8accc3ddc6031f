"""Recorded workload pricing: price what the functional layer launched.

The hand-counted schedules of this package approximate workloads as op
lists; this module closes the loop the trace layer opens — it *runs* the
functional bootstrap under :mod:`repro.trace`, lowers the recording to a
kernel DAG at the target ring degree, and prices the DAG on the
dependency-aware scheduler. The hand-counted lists stay around as
cross-check oracles (``benchmarks/test_table14_workloads.py`` asserts the
two price within 10% of each other).

**Proxy recording.** Trace events carry ring-degree-free shapes (rows,
primes, digits, steps), so a run at a small proxy ring that shares the
target's chain structure (``max_level``, ``num_special``, ``dnum``,
``rescale_primes``) lowers to the *same* launch DAG as a full-ring run —
only the per-kernel geometry changes at lowering time. Recording at
``n = 2**proxy_log2n`` makes tracing a 46-prime bootstrap a seconds-scale
operation instead of an hours-scale one.

The recorded bootstrap's configuration is calibrated to the published
hand count (see :data:`RECORDED_BOOT_CONFIG` and DESIGN.md §10): the
proxy slot count gives the same number of FFT stages as the hand
schedule's 3-stage radix decomposition, and ``sine_degree`` is chosen so
the Chebyshev product-recurrence issues about as many HMULTs as the hand
count's deg-63 BSGS evaluation.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np

from ..ckks.bootstrap import BootstrapConfig, Bootstrapper
from ..ckks.context import CkksContext
from ..ckks.params import CkksParams, ParameterSets
from ..core.scheduler import OperationScheduler
from ..trace.lowering import chain_key, lower_trace, proxy_params_for
from ..trace.ir import OpTrace
from ..trace.recorder import record
from ..tuning.knobs import IntRange, KnobSpec, knob_default, register_knob
from .schedules import WorkloadSchedule, WorkloadTiming

# -- declared tuning knobs (DESIGN.md §14) ----------------------------------
#
# The recorded-workload layer owns the calibrated recording knobs of the
# proxy bootstrap (module docstring).  These are the exact co-design
# point ``repro.gym`` searches — ``BENCH_gym.json`` asserts the searched
# assignment matches or beats these hand-picked defaults.

register_knob(KnobSpec(
    name="recorded.proxy_log2n", layer="workloads",
    domain=IntRange(7, 12), default=10,
    doc="log2 ring degree of the proxy functional recording.",
    observe=lambda pipe: pipe.config["recorded.proxy_log2n"],
))
register_knob(KnobSpec(
    name="recorded.fuse", layer="workloads",
    domain=IntRange(1, 8, grid=(1, 2, 3, 4, 5)), default=3,
    doc="FFT stage fusion of the recorded bootstrap (calibrated to the "
        "hand count's 3-stage radix decomposition).",
    observe=lambda pipe: pipe.config["recorded.fuse"],
))
register_knob(KnobSpec(
    name="recorded.sine_degree", layer="workloads",
    domain=IntRange(7, 255, grid=(15, 31, 63)), default=31,
    doc="Sine degree of the recorded bootstrap (calibrated to issue "
        "about as many HMULTs as the hand count's deg-63 BSGS).",
    observe=lambda pipe: pipe.config["recorded.sine_degree"],
))


def _recorded_boot_config() -> Dict[str, int]:
    """The calibrated recording knobs, resolved from the registry."""
    return {
        "proxy_log2n": knob_default("recorded.proxy_log2n"),
        "fuse": knob_default("recorded.fuse"),
        "sine_degree": knob_default("recorded.sine_degree"),
    }


#: Calibrated recording knobs (see module docstring): proxy ring degree,
#: FFT stage fusion, and sine degree of the recorded bootstrap.  Kept as
#: a module attribute for the benchmark harness; the values are the
#: ``recorded.*`` knob defaults, not an independent copy.
RECORDED_BOOT_CONFIG: Dict[str, int] = _recorded_boot_config()

_trace_cache: Dict[tuple, OpTrace] = {}
_factor_cache: Dict[tuple, float] = {}


def record_bootstrap_trace(params: CkksParams = None, *,
                           proxy_log2n: int = None, fuse: int = None,
                           sine_degree: int = None,
                           seed: int = 0) -> OpTrace:
    """Run one functional slim bootstrap at proxy scale and record it.

    The knobs default to :data:`RECORDED_BOOT_CONFIG`. Traces are cached
    per chain structure and knob set — the expensive functional run
    happens once per parameter family per process.
    """
    params = params or ParameterSets.boot()
    cfg = _recorded_boot_config()
    if proxy_log2n is not None:
        cfg["proxy_log2n"] = proxy_log2n
    if fuse is not None:
        cfg["fuse"] = fuse
    if sine_degree is not None:
        cfg["sine_degree"] = sine_degree
    proxy = proxy_params_for(params, cfg["proxy_log2n"])
    key = (chain_key(params), proxy.n, cfg["fuse"], cfg["sine_degree"],
           seed)
    cached = _trace_cache.get(key)
    if cached is not None:
        return cached

    ctx = CkksContext.create(proxy, seed=seed)
    boot = Bootstrapper(ctx, BootstrapConfig(
        sine_degree=cfg["sine_degree"], fft_factored=True,
        fuse=cfg["fuse"],
    ))
    rotations = boot.required_rotations()
    keys = ctx.keygen(rotations=rotations, conjugation=True)
    vals = np.zeros(ctx.slots)
    vals[:4] = [0.5, -0.25, 0.125, 0.75]
    ct = ctx.encrypt(vals, keys, level=boot.stc_levels)
    with record(f"boot[{params.name or 'params'}]", params=proxy,
                n=proxy.n) as rec:
        boot.bootstrap(ct, keys)
    trace = dataclasses.replace(
        rec.trace, rotations=tuple(sorted(set(rotations))) + (-1,)
    )
    _trace_cache[key] = trace
    return trace


def record_helr_iteration_trace(params: CkksParams = None, *,
                                proxy_log2n: int = 8, samples: int = 2,
                                features: int = 4,
                                seed: int = 0) -> OpTrace:
    """Record one functional mini-HELR training iteration at proxy scale.

    The recording covers the per-sample dot product, the rotation
    all-reduce, the polynomial sigmoid and the masked gradient update of
    :class:`~repro.workloads.helr.EncryptedLogisticRegression` — the
    dataflow the hand-counted ``helr_iteration_schedule`` approximates.
    Cached per chain structure and knob set.
    """
    from .helr import EncryptedLogisticRegression

    params = params or ParameterSets.helr()
    proxy = proxy_params_for(params, proxy_log2n)
    key = ("helr", chain_key(params), proxy.n, samples, features, seed)
    cached = _trace_cache.get(key)
    if cached is not None:
        return cached

    ctx = CkksContext.create(proxy, seed=seed)
    rotations = EncryptedLogisticRegression.required_rotations(ctx.slots)
    keys = ctx.keygen(rotations=rotations)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(samples, features))
    y = (x.sum(axis=1) > 0).astype(float)
    model = EncryptedLogisticRegression(ctx, keys)
    with record(f"helr[{params.name or 'params'}]", params=proxy,
                n=proxy.n) as rec:
        model.train(x, y, iterations=1)
    trace = dataclasses.replace(
        rec.trace, rotations=tuple(sorted(set(rotations)))
    )
    _trace_cache[key] = trace
    return trace


def record_resnet_block_trace(params: CkksParams = None, *,
                              proxy_log2n: int = 8, height: int = 4,
                              width: int = 4, seed: int = 0) -> OpTrace:
    """Record one functional ResNet basic block at proxy scale.

    Conv -> square activation -> conv -> residual add, all under
    encryption via :class:`~repro.workloads.resnet.EncryptedConv2d`
    (hoisted kernel-position rotations, wide-accumulator mask reduce).
    Cached per chain structure and knob set.
    """
    from .resnet import EncryptedConv2d

    params = params or ParameterSets.resnet()
    proxy = proxy_params_for(params, proxy_log2n)
    key = ("resnet", chain_key(params), proxy.n, height, width, seed)
    cached = _trace_cache.get(key)
    if cached is not None:
        return cached

    ctx = CkksContext.create(proxy, seed=seed)
    rotations = EncryptedConv2d.required_rotations(width, ctx.slots)
    keys = ctx.keygen(rotations=rotations)
    rng = np.random.default_rng(seed)
    kernel = rng.uniform(-0.5, 0.5, size=(3, 3))
    conv1 = EncryptedConv2d(ctx, keys, kernel)
    conv2 = EncryptedConv2d(ctx, keys, kernel.T.copy())
    img = np.zeros(ctx.slots)
    img[: height * width] = rng.uniform(-1, 1, size=height * width)
    ct = ctx.encrypt(img, keys)
    ev = ctx.evaluator
    with record(f"resnet-block[{params.name or 'params'}]", params=proxy,
                n=proxy.n) as rec:
        mid = conv1.forward(ct, height, width, square_activation=True)
        out = conv2.forward(mid, height, width)
        ev.hadd_matched(ev.level_down(ct, out.level), out)  # residual
    trace = dataclasses.replace(
        rec.trace, rotations=tuple(sorted(set(rotations)))
    )
    _trace_cache[key] = trace
    return trace


def record_transcipher_block_trace(params: CkksParams = None, *,
                                   proxy_log2n: int = 8,
                                   sbox_degree: int = 7,
                                   seed: int = 0) -> OpTrace:
    """Record one byte-slice AES transcipher round block at proxy scale.

    The homomorphic kernel of the Table XV transcipher workload, run
    functionally: SubBytes as a packed Chebyshev interpolation of the
    S-box over one byte-slice ciphertext (``sbox_degree`` stands in for
    the full deg-254 GF(2^8) interpolation, which only changes HMULT
    count, not dataflow), ShiftRows/MixColumns as masked slot rotations
    combined under encryption, and AddRoundKey as a plaintext add.
    Cached per chain structure and knob set.
    """
    from ..ckks.polyeval import PolynomialEvaluator

    params = params or ParameterSets.aes()
    proxy = proxy_params_for(params, proxy_log2n)
    key = ("aes-block", chain_key(params), proxy.n, sbox_degree, seed)
    cached = _trace_cache.get(key)
    if cached is not None:
        return cached

    ctx = CkksContext.create(proxy, seed=seed)
    rotations = [1, 2, 3]  # the byte-lane shifts of ShiftRows/MixColumns
    keys = ctx.keygen(rotations=rotations)
    ev = ctx.evaluator
    poly = PolynomialEvaluator(ev)
    coeffs = PolynomialEvaluator.chebyshev_fit(
        np.tanh, sbox_degree  # any smooth stand-in for the S-box fit
    )
    rng = np.random.default_rng(seed)
    slice_vals = rng.uniform(-0.9, 0.9, size=ctx.slots)
    round_key = rng.uniform(-0.5, 0.5, size=ctx.slots)
    ct = ctx.encrypt(slice_vals, keys)
    with record(f"aes-block[{params.name or 'params'}]", params=proxy,
                n=proxy.n) as rec:
        sub = poly.eval_chebyshev(ct, coeffs, keys)        # SubBytes
        mixed = sub
        for step in rotations:                             # ShiftRows+MC
            rot = ev.hrotate(sub, step, keys)
            mask = np.zeros(ctx.slots)
            mask[step::4] = 1.0
            masked = ev.pmult(rot, ctx.encode(
                mask, level=rot.level, scale=rot.scale))
            masked = ev.rescale(masked)
            mixed = ev.hadd_matched(ev.level_down(mixed, masked.level),
                                    masked)
        pt_key = ctx.encode(round_key, level=mixed.level,
                            scale=mixed.scale)
        ev.add_plain(mixed, pt_key)                        # AddRoundKey
    trace = dataclasses.replace(
        rec.trace, rotations=tuple(sorted(set(rotations)))
    )
    _trace_cache[key] = trace
    return trace


def _lower_for(trace: OpTrace, scheduler: OperationScheduler, *,
               style: str = "pe", batch: int = 1, optimize: bool = False,
               search: bool = False):
    """Lower ``trace`` at the scheduler's params/device/geometry.

    ``optimize`` runs the :mod:`repro.trace.opt` pass pipeline over the
    recording first; ``search`` re-orders the lowered DAG with
    :func:`~repro.trace.opt.schedule_search` (both off by default so the
    recorded numbers stay directly comparable to the hand counts).
    """
    if optimize:
        from ..trace.opt import optimize_trace

        trace, _ = optimize_trace(trace)
    dag = lower_trace(
        trace, params=scheduler.params, style=style,
        device=scheduler.device, ntt_variant=scheduler.ntt.variant,
        geometry=scheduler.geometry, batch=batch,
    )
    if search:
        from ..trace.opt import schedule_search

        dag, _ = schedule_search(dag, scheduler.device)
    return dag


def simulate_recorded_bootstrap(params: CkksParams = None, *,
                                batch: int = 1,
                                scheduler: OperationScheduler = None,
                                style: str = "pe",
                                proxy_log2n: int = None, fuse: int = None,
                                sine_degree: int = None,
                                optimize: bool = False,
                                search: bool = False,
                                seed: int = 0) -> WorkloadTiming:
    """Record one bootstrap functionally and price the lowered DAG.

    The drop-in recorded counterpart of
    :func:`~repro.workloads.bootstrap_workload.simulate_bootstrap`; the
    breakdown buckets kernel time by recorded phase (StC / ModRaise /
    CtS / EvalMod). Under SM-level overlap the buckets sum to slightly
    more than the wall-clock ``total_us``.
    """
    params = params or ParameterSets.boot()
    scheduler = scheduler or OperationScheduler(params)
    trace = record_bootstrap_trace(
        params, proxy_log2n=proxy_log2n, fuse=fuse,
        sine_degree=sine_degree, seed=seed,
    )
    dag = _lower_for(trace, scheduler, style=style, batch=batch,
                     optimize=optimize, search=search)
    result = dag.run(scheduler.device)
    breakdown: Dict[str, float] = {}
    for entry in result.entries:
        group = dag.nodes[entry.index].group
        breakdown[group] = breakdown.get(group, 0.0) + entry.duration_us
    suffix = "+opt" if optimize or search else ""
    return WorkloadTiming(
        name=f"Boot-recorded[{style}{suffix}]", total_us=result.elapsed_us,
        batch=batch, breakdown=breakdown,
    )


def recorded_workload_timing(schedule: WorkloadSchedule,
                             scheduler: OperationScheduler, *,
                             batch: int = 1,
                             recorded_boot: WorkloadTiming,
                             ) -> WorkloadTiming:
    """Price ``schedule`` with its embedded bootstraps swapped for a
    recorded one.

    Hand-counted workload schedules embed bootstraps as ``boot*``-noted
    items (one ``ModRaise`` per bootstrap, scaled by the amortization
    count). This prices every non-boot item exactly as
    :meth:`WorkloadSchedule.price` would, then adds
    ``bootstraps x recorded_boot.total_us`` — the recorded DAG replacing
    the hand count.
    """
    core = WorkloadSchedule(schedule.name)
    bootstraps = 0.0
    for item in schedule.items:
        note = item.note or item.op
        if note.startswith("boot"):
            if note.endswith("ModRaise"):
                bootstraps += item.count
            continue
        core.items.append(item)
    timing = core.price(scheduler, batch=batch)
    boot_us = bootstraps * recorded_boot.total_us
    timing.breakdown["boot(recorded)"] = boot_us
    return WorkloadTiming(
        name=f"{schedule.name}-recorded",
        total_us=timing.total_us + boot_us, batch=batch,
        breakdown=timing.breakdown,
    )


def simulate_recorded_helr_iteration(params: CkksParams = None, *,
                                     batch: int = 1,
                                     scheduler: OperationScheduler = None,
                                     style: str = "pe",
                                     boot_period: int = 2
                                     ) -> WorkloadTiming:
    """HELR iteration with the amortized bootstrap recorded, not counted."""
    from .helr import helr_iteration_schedule

    params = params or ParameterSets.helr()
    scheduler = scheduler or OperationScheduler(params)
    boot = simulate_recorded_bootstrap(
        params, batch=batch, scheduler=scheduler, style=style
    )
    return recorded_workload_timing(
        helr_iteration_schedule(params, boot_period=boot_period),
        scheduler, batch=batch, recorded_boot=boot,
    )


def simulate_recorded_resnet20(params: CkksParams = None, *,
                               batch: int = 1,
                               scheduler: OperationScheduler = None,
                               style: str = "pe") -> WorkloadTiming:
    """ResNet-20 inference with every bootstrap recorded, not counted."""
    from .resnet import resnet20_schedule

    params = params or ParameterSets.resnet()
    scheduler = scheduler or OperationScheduler(params)
    boot = simulate_recorded_bootstrap(
        params, batch=batch, scheduler=scheduler, style=style
    )
    return recorded_workload_timing(
        resnet20_schedule(params), scheduler, batch=batch,
        recorded_boot=boot,
    )


# -- derived hoisting factor ------------------------------------------------


def derived_hoisted_rotation_factor(scheduler: OperationScheduler, *,
                                    steps: int = 8,
                                    proxy_log2n: int = 8,
                                    seed: int = 0) -> float:
    """Per-extra-rotation cost of a hoisted group, derived from a trace.

    Records one functional ``hoisted_rotations`` call over ``steps``
    rotation steps and one plain HROTATE at proxy scale, lowers both at
    the scheduler's parameters, and solves

        ``C_hoisted(S) = C_hrotate * (1 + factor * (S - 1))``

    for ``factor``, the discount :meth:`WorkloadSchedule.price` applies
    to hoisted rotations. Cached per (chain, device, variant); raises on
    a degenerate trace.
    """
    params = scheduler.params
    key = (chain_key(params), params.n, scheduler.device.name,
           scheduler.ntt.variant, steps, proxy_log2n, seed)
    cached = _factor_cache.get(key)
    if cached is not None:
        return cached

    from ..ckks.hoisting import hoisted_rotations

    proxy = proxy_params_for(params, proxy_log2n)
    ctx = CkksContext.create(proxy, seed=seed)
    rotations = [s + 1 for s in range(steps)]
    keys = ctx.keygen(rotations=rotations)
    vals = np.zeros(ctx.slots)
    vals[:2] = [0.5, -0.25]
    ct = ctx.encrypt(vals, keys)
    ev = ctx.evaluator

    with record("hoisted", params=proxy, n=proxy.n) as rec:
        hoisted_rotations(ev, ct, rotations, keys)
    hoisted_trace = rec.trace
    with record("hrotate", params=proxy, n=proxy.n) as rec:
        ev.hrotate(ct, 1, keys)
    single_trace = rec.trace

    cost_hoisted = _lower_for(hoisted_trace, scheduler).run(
        scheduler.device).elapsed_us
    cost_single = _lower_for(single_trace, scheduler).run(
        scheduler.device).elapsed_us
    if cost_single <= 0 or steps < 2:
        raise ValueError("degenerate hoisting trace")
    factor = (cost_hoisted - cost_single) / ((steps - 1) * cost_single)
    if not 0.0 < factor < 1.0:
        raise ValueError(
            f"derived hoisting factor {factor:.3f} outside (0, 1)"
        )
    _factor_cache[key] = factor
    return factor
