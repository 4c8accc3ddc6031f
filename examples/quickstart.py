#!/usr/bin/env python
"""Quickstart: encrypt, compute, decrypt with the functional CKKS layer,
then price the same operations on the simulated A100.

Run: python examples/quickstart.py
"""

import numpy as np

from repro.ckks import CkksContext, ParameterSets
from repro.core import OperationScheduler


def functional_demo():
    print("=" * 64)
    print("1. Functional CKKS (toy ring, N=64)")
    print("=" * 64)
    ctx = CkksContext.create(ParameterSets.toy(), seed=0)
    keys = ctx.keygen(rotations=[1])

    a = np.array([1.5, 2.5, -3.0, 0.25])
    b = np.array([2.0, -1.0, 0.5, 4.0])
    ct_a = ctx.encrypt(a, keys)
    ct_b = ctx.encrypt(b, keys)

    ct_sum = ctx.hadd(ct_a, ct_b)
    ct_prod = ctx.hmult(ct_a, ct_b, keys)
    ct_rot = ctx.hrotate(ct_a, 1, keys)

    print(f"  a           = {a}")
    print(f"  b           = {b}")
    print(f"  dec(a + b)  = "
          f"{np.round(ctx.decrypt_decode_real(ct_sum, keys)[:4], 4)}")
    print(f"  dec(a * b)  = "
          f"{np.round(ctx.decrypt_decode_real(ct_prod, keys)[:4], 4)}")
    print(f"  dec(rot(a)) = "
          f"{np.round(ctx.decrypt_decode_real(ct_rot, keys)[:4], 4)}")
    print(f"  levels: fresh={ct_a.level}, after HMULT+rescale="
          f"{ct_prod.level}")


def performance_demo():
    print()
    print("=" * 64)
    print("2. Simulated A100 performance (paper parameter set SET-C)")
    print("=" * 64)
    params = ParameterSets.set_c()
    sched = OperationScheduler(params)
    ntt = sched.ntt  # the WarpDriveNtt engine the scheduler prices with
    print(f"  parameters    : {params.name} (N=2^{params.n.bit_length() - 1}, "
          f"L={params.max_level}, K={params.num_special}, "
          f"dnum={params.dnum})")
    print(f"  NTT variant   : {ntt.variant} "
          f"({'dual' if ntt.uses_dual_kernel else 'single'}-kernel, "
          f"plan {ntt.plan.describe()})")
    print(f"  threads/block : {sched.geometry.threads_per_block} "
          f"on the {sched.device.name}")
    print()
    print(f"  {'operation':<12} {'latency (us)':>14}")
    for op in ("hadd", "pmult", "rescale", "hrotate", "hmult"):
        print(f"  {op:<12} {sched.latency_us(op):>14.1f}")
    print(f"\n  NTT throughput (batch 1024): "
          f"{ntt.throughput_kops(1024):,.0f} KOPS")
    print(f"  KeySwitch kernel launches  : "
          f"{sched.kernel_count('keyswitch')} "
          f"(the paper's fixed 11-kernel PE design)")


if __name__ == "__main__":
    functional_demo()
    performance_demo()
