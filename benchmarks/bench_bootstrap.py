"""Benchmark: dense per-diagonal bootstrap vs the batched factored pipeline.

The slim bootstrap spends most of its time in the SlotToCoeff /
CoeffToSlot linear transforms. This bench measures the two optimizations
of the batched slot pipeline:

* **batched linear transforms** — ``LinearTransform.apply`` (cached
  eval-form diagonal stacks + one wide-accumulator pass per giant group)
  against the per-diagonal ``linear_transform_looped`` reference,
  asserted bit-identical before timing;
* **FFT-factored bootstrapping** — the full slim bootstrap with
  SlotToCoeff/CoeffToSlot as O(log s) sparse radix stages
  (``BootstrapConfig(fft_factored=True)``) against the dense
  per-diagonal path, asserted to land inside the dense path's precision
  envelope before timing.  The dense baseline runs
  ``linear_transform_looped`` transforms — the pre-batching pipeline
  (with its plaintexts already memoized, so the baseline is
  conservative).

The reference pipeline is a test oracle (``tests/oracles``), so run from
the repo root with the root on ``PYTHONPATH``::

    PYTHONPATH=src:. python benchmarks/bench_bootstrap.py            # full run
    PYTHONPATH=src:. python benchmarks/bench_bootstrap.py --reps 1   # CI smoke

Results land in ``BENCH_bootstrap.json`` (see ``--out``); the committed
headline is the dense-vs-factored full-bootstrap speedup at the
``boot-mid`` set (``n=2^9, s=2^8, fuse=2``).
"""

from __future__ import annotations

import argparse
import json
import os
import time

# One BLAS thread, pinned as bench/run.py pins it: the numpy NTT runs as
# dgemm, and a multithreaded BLAS sharing the host with another process
# turns its timings into scheduler noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from repro.ckks import CkksContext, CkksParams
from repro.ckks.bootstrap import BootstrapConfig, Bootstrapper
from repro.ckks.linear_transform import LinearTransform
from tests.oracles import linear_transform_looped

#: Functional mid-size bootstrap set: big enough that the dense
#: transforms dominate, small enough for CI.
BOOT_PARAMS = dict(n=512, max_level=16, num_special=2, dnum=17,
                   scale_bits=26, secret_hamming_weight=8, name="boot-mid")
SINE_DEGREE = 63
EVAL_RANGE = 4.5
FUSE = 2
#: Absolute slot-error budget of the toy-scale slim bootstrap (see
#: tests/ckks/test_bootstrap.py); the factored path must stay inside
#: max(3x the dense error, this).
PRECISION_ENVELOPE = 5e-2


def best_of(fn, reps):
    """Best-of-``reps`` wall time in seconds (one untimed warmup)."""
    fn()
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _bootstrap_dense_looped(boot, ct, keys):
    """The dense bootstrap with per-diagonal transform applies — the
    pre-batching pipeline, stage for stage like ``Bootstrapper.bootstrap``."""
    ev = boot.ctx.evaluator
    ct = linear_transform_looped(boot._stc, ct, keys)
    ct = ev.level_down(ct, 0)
    raised_scale = ct.scale
    ct = boot.mod_raise(ct)
    conj = ev.conjugate(ct, keys)
    ct = ev.hadd_matched(
        linear_transform_looped(boot._cts1, ct, keys),
        linear_transform_looped(boot._cts2, conj, keys),
    )
    return boot.eval_mod(ct, keys, raised_scale=raised_scale)


def _assert_bit_equal(a, b, what):
    if not (np.array_equal(a.c0.data, b.c0.data)
            and np.array_equal(a.c1.data, b.c1.data)
            and a.scale == b.scale and a.level == b.level):
        raise AssertionError(
            f"batched {what} disagrees with the looped reference"
        )


def bench_linear_transform(ctx, keys, reps, rng):
    """Batched vs per-diagonal apply on one dense BSGS transform."""
    s = ctx.slots
    mat = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
    lt = LinearTransform(ctx, mat, bsgs=True)
    missing = [r for r in lt.required_rotations() if r not in keys.rotation]
    if missing:
        raise AssertionError(f"benchmark keys missing rotations {missing}")
    ct = ctx.encrypt(rng.normal(size=s) * 0.3, keys)

    looped = lambda: linear_transform_looped(lt, ct, keys)
    batched = lambda: lt.apply(ct, keys)
    _assert_bit_equal(looped(), batched(), "linear transform")

    t_looped = best_of(looped, reps)
    t_batched = best_of(batched, reps)
    return {
        "op": "linear_transform",
        "set": ctx.params.name,
        "n": ctx.params.n,
        "slots": s,
        "bit_exact": True,
        "looped_ms": t_looped * 1e3,
        "batched_ms": t_batched * 1e3,
        "speedup": t_looped / t_batched,
    }


def bench_bootstrap(ctx, keys, reps, rng):
    """Dense per-diagonal bootstrap vs the FFT-factored batched one."""
    dense = Bootstrapper(ctx, BootstrapConfig(
        sine_degree=SINE_DEGREE, eval_range=EVAL_RANGE
    ))
    factored = Bootstrapper(ctx, BootstrapConfig(
        sine_degree=SINE_DEGREE, eval_range=EVAL_RANGE,
        fft_factored=True, fuse=FUSE,
    ))
    vals = np.zeros(ctx.slots)
    vals[:8] = rng.uniform(-0.75, 0.75, 8)
    ct_dense = ctx.encrypt(vals, keys, level=1)
    ct_fact = ctx.encrypt(vals, keys, level=factored.stc_levels)

    run_dense = lambda: _bootstrap_dense_looped(dense, ct_dense, keys)
    run_fact = lambda: factored.bootstrap(ct_fact, keys)

    err_dense = float(np.max(np.abs(
        ctx.decrypt_decode_real(run_dense(), keys) - vals
    )))
    err_fact = float(np.max(np.abs(
        ctx.decrypt_decode_real(run_fact(), keys) - vals
    )))
    budget = max(3 * err_dense, PRECISION_ENVELOPE)
    if err_fact > budget:
        raise AssertionError(
            f"factored bootstrap error {err_fact:.2e} outside the dense "
            f"precision envelope (dense {err_dense:.2e}, budget "
            f"{budget:.2e})"
        )

    t_dense = best_of(run_dense, reps)
    t_fact = best_of(run_fact, reps)
    return {
        "op": "bootstrap",
        "set": ctx.params.name,
        "n": ctx.params.n,
        "slots": ctx.slots,
        "fuse": FUSE,
        "stc_stages": factored.stc_levels,
        "dense_error": err_dense,
        "factored_error": err_fact,
        "dense_ms": t_dense * 1e3,
        "factored_ms": t_fact * 1e3,
        "speedup": t_dense / t_fact,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=3,
                        help="timed repetitions per config (best-of)")
    parser.add_argument(
        "--out",
        default=os.path.join(os.path.dirname(__file__), os.pardir,
                             "BENCH_bootstrap.json"),
        help="output JSON path",
    )
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error(f"--reps must be >= 1, got {args.reps}")

    rng = np.random.default_rng(0)
    params = CkksParams(**BOOT_PARAMS)
    ctx = CkksContext.create(params, seed=7)
    steps = set(Bootstrapper.required_rotations_for(params))
    steps.update(Bootstrapper.required_rotations_for(
        params, fft_factored=True, fuse=FUSE
    ))
    # The random-matrix transform benchmark uses dense BSGS steps too.
    keys = ctx.keygen(rotations=sorted(steps), conjugation=True)

    report = {
        "bench": "bench_bootstrap",
        "description": (
            "per-diagonal dense bootstrap vs cached-stack batched "
            "transforms and FFT-factored StC/CtS"
        ),
        "reps": args.reps,
        "configs": [],
    }

    cfg = bench_linear_transform(ctx, keys, args.reps, rng)
    report["configs"].append(cfg)
    print(f"linear-transform {cfg['set']:8s} s={cfg['slots']}:  "
          f"looped {cfg['looped_ms']:8.1f} ms  "
          f"batched {cfg['batched_ms']:8.1f} ms  "
          f"speedup {cfg['speedup']:.2f}x  (bit-exact)")

    cfg = bench_bootstrap(ctx, keys, args.reps, rng)
    report["configs"].append(cfg)
    print(f"bootstrap        {cfg['set']:8s} s={cfg['slots']} "
          f"fuse={cfg['fuse']}:  "
          f"dense {cfg['dense_ms']:8.1f} ms  "
          f"factored {cfg['factored_ms']:8.1f} ms  "
          f"speedup {cfg['speedup']:.2f}x  "
          f"(err {cfg['dense_error']:.1e} -> {cfg['factored_error']:.1e})")

    report["headline_speedup"] = cfg["speedup"]
    print(f"\nheadline (full bootstrap, {cfg['set']}): "
          f"{cfg['speedup']:.2f}x")

    out = os.path.abspath(args.out)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out}")
    return report


if __name__ == "__main__":
    main()
