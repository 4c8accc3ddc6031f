"""The Karatsuba limb-product ablation (§IV-A-4).

The uint8 limb dataflow executes schoolbook (``repro.ntt.bitsplit``);
Karatsuba is priced, not executed, by :class:`repro.core.WarpDriveNtt`.
"""

import pytest

from repro.core import WarpDriveNtt


class TestCostClaims:
    """The paper's §IV-A-4 number: 16 -> 9 limb multiplications."""

    def test_multiplication_reduction(self):
        plain, kara = (
            WarpDriveNtt(2**14, variant="wd-tensor", use_karatsuba=k)
            .kernel_plan(1)[0].tensor_macs for k in (False, True))
        assert kara / plain == pytest.approx(9 / 16)
