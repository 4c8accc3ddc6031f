"""The process-wide kernel-profile memo (``engine.profile_kernel``).

Its key must spell out every field a profile depends on, a device
override must get its own entries, eviction at the bound must not change
a result, and a shared profile must be immutable.
"""

import dataclasses

import pytest

from repro.gpusim import (
    A100_PCIE_80G,
    KernelSpec,
    StallReason,
    profile_cache_stats,
    profile_kernel,
    reset_cache_stats,
    run_serial,
    simulate_kernel,
    spec_cache_key,
)
from repro.gpusim import engine

DEV = A100_PCIE_80G

#: Every field set to a non-default, non-zero value, so halving a float,
#: bumping an int or suffixing a string yields a different, valid spec.
BASE = KernelSpec(
    name="memo", blocks=256, warps_per_block=8, int32_ops=4e6,
    tensor_macs=2e6, gmem_read_bytes=3e5, gmem_write_bytes=2e5,
    smem_read_bytes=1e5, smem_write_bytes=5e4, smem_per_block_bytes=4096,
    regs_per_thread=48, barriers=2, coalescing=0.5, efficiency=0.8,
    tags={"stage": "GEMM", "kind": "ntt"},
)


def perturbed_specs():
    """``(label, spec)`` pairs, each differing from BASE in one place."""
    for f in dataclasses.fields(KernelSpec):
        value = getattr(BASE, f.name)
        if isinstance(value, dict):
            continue
        if isinstance(value, str):
            new = value + "_"
        elif isinstance(value, int):
            new = value + 1
        else:
            new = value * 0.5
        yield f.name, dataclasses.replace(BASE, **{f.name: new})
    for name, tag in BASE.tags.items():
        rest = {k: v for k, v in BASE.tags.items() if k != name}
        yield (f"tags[{name}] value",
               dataclasses.replace(BASE, tags={**rest, name: tag + "_"}))
        yield (f"tags[{name}] key",
               dataclasses.replace(BASE, tags={**rest, name + "_": tag}))


def same_profile(a, b):
    return (a.elapsed_us == b.elapsed_us and a.exec_cycles == b.exec_cycles
            and a.bound_by == b.bound_by and a.occupancy == b.occupancy
            and a.resource_cycles == b.resource_cycles
            and a.stalls.cycles == b.stalls.cycles and a.spec == b.spec
            and a.device == b.device)


@pytest.fixture(autouse=True)
def cold_memo():
    reset_cache_stats()


class TestMemoKey:
    def test_every_field_and_entry_changes_the_key(self):
        labels = [label for label, _ in perturbed_specs()]
        # Every dataclass field is covered, dict fields entry by entry.
        assert {label.split("[")[0] for label in labels} == {
            f.name for f in dataclasses.fields(KernelSpec)}
        base_key = spec_cache_key(BASE)
        for label, spec in perturbed_specs():
            assert spec_cache_key(spec) != base_key, label

    def test_perturbed_specs_get_their_own_profiles(self):
        profile_kernel(BASE, DEV)
        for label, spec in perturbed_specs():
            before = profile_cache_stats()["misses"]
            prof = profile_kernel(spec, DEV)
            assert profile_cache_stats()["misses"] == before + 1, label
            assert prof.spec == spec, label

    def test_equal_specs_share_one_profile(self):
        first = profile_kernel(BASE, DEV)
        twin = dataclasses.replace(BASE, tags=dict(BASE.tags))
        assert profile_kernel(twin, DEV) is first
        assert profile_cache_stats()["hits"] == 1

    def test_device_override_gets_its_own_entry(self):
        big = dataclasses.replace(BASE, int32_ops=4e9)
        on_a100 = profile_kernel(big, DEV)
        half = DEV.with_overrides(sm_count=54)
        on_half = profile_kernel(big, half)
        stats = profile_cache_stats()
        assert (stats["misses"], stats["currsize"]) == (2, 2)
        assert on_half.device == half
        assert same_profile(on_half, simulate_kernel(big, half))
        assert on_half.elapsed_us > on_a100.elapsed_us
        # The key is the device's value, not its identity.
        assert profile_kernel(big, DEV.with_overrides()) is on_a100


class TestMemoBound:
    def test_eviction_keeps_results_unchanged(self, monkeypatch):
        monkeypatch.setattr(engine, "PROFILE_MEMO_SIZE", 3)
        specs = [dataclasses.replace(BASE, blocks=64 * (i + 1))
                 for i in range(6)]
        for _ in range(3):
            for spec in specs + specs[::-1]:
                assert same_profile(profile_kernel(spec, DEV),
                                    simulate_kernel(spec, DEV))
                assert profile_cache_stats()["currsize"] <= 3

    def test_least_recently_used_entry_goes_first(self, monkeypatch):
        monkeypatch.setattr(engine, "PROFILE_MEMO_SIZE", 3)
        a, b, c, d = (dataclasses.replace(BASE, name=n) for n in "abcd")
        for spec in (a, b, c, a, d):  # touching a leaves b the oldest
            profile_kernel(spec, DEV)
        misses = profile_cache_stats()["misses"]
        profile_kernel(a, DEV)
        assert profile_cache_stats()["misses"] == misses
        profile_kernel(b, DEV)
        assert profile_cache_stats()["misses"] == misses + 1


class TestSharedProfileIsImmutable:
    def test_profile_and_occupancy_are_frozen(self):
        prof = profile_kernel(BASE, DEV)
        with pytest.raises(dataclasses.FrozenInstanceError):
            prof.exec_cycles = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            prof.occupancy.sm_used = 1

    def test_merged_stalls_do_not_alias_the_memo(self):
        run_serial([BASE], DEV).total_stalls().add(StallReason.WAIT, 1.0)
        assert (profile_kernel(BASE, DEV).stalls.cycles
                == simulate_kernel(BASE, DEV).stalls.cycles)
