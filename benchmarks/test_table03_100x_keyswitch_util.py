"""Table III: utilization of the 100x KeySwitch kernels (§III-C).

Profiles the kernel-fused (KF) 100x KeySwitch at the paper's two
configurations and checks the motivating observations: no kernel class
except InnerProduct exceeds ~61% utilization, and INTT sits lowest.
"""

import pytest

from repro.analysis import format_table
from repro.baselines import HundredXOps
from repro.baselines.published import TABLE_III_100X_UTILIZATION
from repro.ckks import CkksParams
from repro.gpusim import aggregate

CONFIGS = {
    "N=2^15": CkksParams(n=2**15, max_level=24, num_special=1, dnum=25,
                         name="t3-a"),
    "N=2^16": CkksParams(n=2**16, max_level=34, num_special=1, dnum=35,
                         name="t3-b"),
}

KINDS = {"ntt": "NTT", "modup": "ModUP", "intt": "INTT",
         "moddown": "ModDown", "inner_product": "InProd"}


def profile_kernel_classes(params):
    """Utilization per kernel class of the 100x_opt KeySwitch."""
    ops = HundredXOps(params)
    result = ops.simulate("keyswitch")
    groups = {}
    for entry in result.entries:
        name = entry.name
        if "intt" in name:
            kind = "INTT"
        elif "ntt" in name:
            kind = "NTT"
        elif "modup" in name:
            kind = "ModUP"
        elif "moddown" in name:
            kind = "ModDown"
        elif "mac" in name or "inner" in name:
            kind = "InProd"
        else:
            continue
        groups.setdefault(kind, []).append(entry.profile)
    return {kind: aggregate(profs) for kind, profs in groups.items()}


def build_table():
    rows = []
    all_profiles = {}
    for label, params in CONFIGS.items():
        profiles = profile_kernel_classes(params)
        all_profiles[label] = profiles
        published = TABLE_III_100X_UTILIZATION[label]
        kinds = ["NTT", "ModUP", "INTT", "ModDown", "InProd"]
        rows.append([f"{label} memory % (sim)"]
                    + [round(profiles[k].memory_utilization, 1)
                       for k in kinds])
        rows.append(["  paper"]
                    + [published["memory_util"][k] for k in kinds])
        rows.append([f"{label} compute % (sim)"]
                    + [round(profiles[k].compute_utilization, 1)
                       for k in kinds])
        rows.append(["  paper"]
                    + [published["compute_util"][k] for k in kinds])
    table = format_table(
        ["config / metric", "NTT", "ModUP", "INTT", "ModDown", "InProd"],
        rows,
        title="Table III — 100x KeySwitch kernel utilization",
    )
    return table, all_profiles


def test_table03_keyswitch_utilization(benchmark, record_table):
    table, all_profiles = benchmark(build_table)
    record_table("table03_100x_keyswitch_util", table)

    for label, profiles in all_profiles.items():
        # §III-C: InnerProduct saturates memory; everything else is
        # underutilized.
        inprod_mem = profiles["InProd"].memory_utilization
        for kind in ("NTT", "ModUP", "ModDown"):
            assert profiles[kind].compute_utilization < 61, (
                f"{label} {kind}: paper reports <61% compute utilization"
            )
        assert inprod_mem >= max(
            p.memory_utilization for p in profiles.values()
        ) - 0.1, "InnerProduct must be among the most memory-saturated"
