"""KernelSpec.validate(): schema errors fail at the construction site."""

import dataclasses

import pytest

from repro.gpusim import A100_PCIE_80G, KernelSpec, simulate_kernel


def make_kernel(**kwargs):
    defaults = dict(name="k", blocks=64, warps_per_block=8)
    defaults.update(kwargs)
    return KernelSpec(**defaults)


class TestValidate:
    def test_valid_spec_is_chainable(self):
        spec = make_kernel()
        assert spec.validate() is spec

    def test_construction_validates(self):
        with pytest.raises(ValueError, match="at least one warp"):
            make_kernel(blocks=0)

    @pytest.mark.parametrize("fname", [
        "int32_ops", "tensor_macs", "gmem_read_bytes", "gmem_write_bytes",
        "smem_read_bytes", "smem_write_bytes", "barriers",
    ])
    def test_negative_counts_rejected(self, fname):
        with pytest.raises(ValueError, match="non-negative"):
            make_kernel(**{fname: -1})

    @pytest.mark.parametrize("value", [0.0, -0.5, 1.5])
    def test_coalescing_range(self, value):
        with pytest.raises(ValueError, match="coalescing"):
            make_kernel(coalescing=value)

    @pytest.mark.parametrize("value", [0.0, 2.0])
    def test_efficiency_range(self, value):
        with pytest.raises(ValueError, match="efficiency"):
            make_kernel(efficiency=value)

    def test_replace_revalidates(self):
        spec = make_kernel()
        with pytest.raises(ValueError, match="non-negative"):
            dataclasses.replace(spec, int32_ops=-1.0)


class TestEngineBackstop:
    def test_submit_revalidates_corrupted_spec(self):
        """A spec mutated after construction (bypassing the frozen
        dataclass) is still caught by the engine's submit-time check."""
        spec = make_kernel(int32_ops=1000.0)
        object.__setattr__(spec, "int32_ops", -1000.0)
        with pytest.raises(ValueError, match="non-negative"):
            simulate_kernel(spec, A100_PCIE_80G)
