#!/usr/bin/env python
"""Slim bootstrapping, end to end and for real (toy ring).

Encrypts a message, burns the ciphertext down to its last level, then
*bootstraps* it — SlotToCoeff, ModRaise, CoeffToSlot and a homomorphic
Chebyshev sine (EvalMod) — recovering a high-level ciphertext that can be
multiplied again. This is the full pipeline behind the paper's Boot
workload (Table XIV), run functionally at N=64.

Run: python examples/bootstrapping_demo.py   (takes ~1-2 minutes)
"""

import numpy as np

from repro.ckks import CkksContext, CkksParams
from repro.ckks.bootstrap import BootstrapConfig, Bootstrapper
from repro.workloads import simulate_recorded_bootstrap


def main():
    params = CkksParams(n=64, max_level=14, num_special=2, dnum=15,
                        scale_bits=26, secret_hamming_weight=8,
                        name="boot-demo")
    ctx = CkksContext.create(params, seed=7)
    print("Generating keys (all rotations + conjugation for the linear "
          "transforms)...")
    keys = ctx.keygen(
        rotations=Bootstrapper.required_rotations_for(params), conjugation=True
    )
    boot = Bootstrapper(ctx, BootstrapConfig(sine_degree=63,
                                             eval_range=4.5))

    message = np.zeros(ctx.slots)
    message[:4] = [0.5, -0.25, 0.125, 0.75]
    ct = ctx.encrypt(message, keys, level=1)
    print(f"\nfresh ciphertext level : {ct.level} (nearly exhausted)")

    print("bootstrapping (StC -> ModRaise -> CtS -> EvalMod)...")
    refreshed = boot.bootstrap(ct, keys)
    decoded = ctx.decrypt_decode_real(refreshed, keys)
    print(f"refreshed level        : {refreshed.level}")
    print(f"message error          : "
          f"{np.max(np.abs(decoded - message)):.2e}")

    print("squaring the refreshed ciphertext (impossible before)...")
    squared = ctx.hmult(refreshed, refreshed, keys)
    dec_sq = ctx.decrypt_decode_real(squared, keys)
    print(f"square error           : "
          f"{np.max(np.abs(dec_sq - message**2)):.2e}")

    print("\nFull-scale cost (simulated A100, Boot parameter set, "
          "recorded bootstrap):")
    for bs in (1, 16):
        timing = simulate_recorded_bootstrap(batch=bs)
        paper = 121 if bs == 1 else 97
        print(f"  BS={bs:<3} amortized {timing.amortized_ms:6.1f} ms "
              f"(paper: {paper} ms)")


if __name__ == "__main__":
    main()
