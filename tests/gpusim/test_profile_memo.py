"""The process-wide kernel-profile memo (``engine.profile_kernel``).

Its key must spell out every cost field a profile depends on and leave
out the labels (``name``, ``tags``), which stay on the launch; a device
override must get its own entries, eviction at the bound must not change
a result, and a shared profile must be immutable.
"""

import dataclasses

import pytest

from repro.gpusim import (
    A100_PCIE_80G,
    DagKernel,
    KernelSpec,
    StallReason,
    profile_cache_stats,
    profile_kernel,
    reset_cache_stats,
    run_dag,
    run_serial,
    simulate_kernel,
    spec_cache_key,
    to_chrome_trace,
)
from repro.gpusim import engine

DEV = A100_PCIE_80G

#: Every field set to a non-default, non-zero value, so halving a float
#: or bumping an int yields a different, valid spec.
BASE = KernelSpec(
    name="memo", blocks=256, warps_per_block=8, int32_ops=4e6,
    tensor_macs=2e6, gmem_read_bytes=3e5, gmem_write_bytes=2e5,
    smem_read_bytes=1e5, smem_write_bytes=5e4, smem_per_block_bytes=4096,
    regs_per_thread=48, barriers=2, coalescing=0.5, efficiency=0.8,
    tags={"stage": "GEMM", "kind": "ntt"},
)


#: The labels a launch carries beside its cost.
LABELS = ("name", "tags")


def perturbed_specs():
    """``(field, spec)`` pairs, each differing from BASE in one cost
    field."""
    for f in dataclasses.fields(KernelSpec):
        if f.name in LABELS:
            continue
        value = getattr(BASE, f.name)
        new = value + 1 if isinstance(value, int) else value * 0.5
        yield f.name, dataclasses.replace(BASE, **{f.name: new})


def relabelled_specs():
    """``(label, spec)`` pairs, each differing from BASE only in its
    name or in one tag."""
    yield "name", dataclasses.replace(BASE, name=BASE.name + "_")
    yield "tags emptied", dataclasses.replace(BASE, tags={})
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
            and a.stalls.cycles == b.stalls.cycles
            and a.device == b.device)


@pytest.fixture(autouse=True)
def cold_memo():
    reset_cache_stats()


class TestMemoKey:
    def test_every_cost_field_changes_the_key_and_labels_do_not(self):
        # Every dataclass field is covered: cost fields one by one, the
        # name and tags (entry by entry) as labels.
        costs = [label for label, _ in perturbed_specs()]
        labels = {label.split("[")[0].split()[0]
                  for label, _ in relabelled_specs()}
        assert set(costs) | labels == {
            f.name for f in dataclasses.fields(KernelSpec)}
        base_key = spec_cache_key(BASE)
        for label, spec in perturbed_specs():
            assert spec_cache_key(spec) != base_key, label
        for label, spec in relabelled_specs():
            assert spec_cache_key(spec) == base_key, label

    def test_perturbed_specs_get_their_own_profiles(self):
        profile_kernel(BASE, DEV)
        for label, spec in perturbed_specs():
            before = profile_cache_stats()["misses"]
            prof = profile_kernel(spec, DEV)
            assert profile_cache_stats()["misses"] == before + 1, label
            assert same_profile(prof, simulate_kernel(spec, DEV)), label

    def test_relabelled_specs_share_one_entry_and_keep_their_labels(self):
        fused = dataclasses.replace(
            BASE, name="fused", tags={"fused": "3", "fold_pre": "1"})
        folded = dataclasses.replace(BASE, name="folded",
                                     tags={"fold_post": "2"})
        assert profile_kernel(fused, DEV) is profile_kernel(folded, DEV)
        stats = profile_cache_stats()
        assert (stats["misses"], stats["hits"], stats["currsize"]) == (
            1, 1, 1)
        result = run_dag([DagKernel(fused), DagKernel(folded, (0,))], DEV)
        assert [e.name for e in result.entries] == ["fused", "folded"]
        assert [e.spec for e in result.entries] == [fused, folded]
        slices = [ev for ev in to_chrome_trace(result)["traceEvents"]
                  if ev["ph"] == "X"]
        assert [ev["name"] for ev in slices] == ["fused", "folded"]
        provenance = [{k: ev["args"][k] for k in ev["args"]
                       if k in ("fused", "fold_pre", "fold_post")}
                      for ev in slices]
        assert provenance == [{"fused": "3", "fold_pre": "1"},
                              {"fold_post": "2"}]

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
        a, b, c, d = (dataclasses.replace(BASE, blocks=blocks)
                      for blocks in (1, 2, 3, 4))
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
