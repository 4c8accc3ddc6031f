"""BGV [13] parameter sets: the shared integer-slot fields
(``repro.intslot``) plus BGV's check that ``t`` is not a chain prime."""

from __future__ import annotations

from ..intslot import IntSlotParams
from ..numtheory import PrimeChain


class BgvParams(IntSlotParams):
    """Static parameters of one BGV instantiation."""

    def chain(self) -> PrimeChain:
        """The modulus chain; rejects a ``t`` equal to a chain or special
        prime, since the t-preserving ModDown inverts those primes mod t."""
        chain = super().chain()
        if self.plain_modulus in chain.all_moduli:
            raise ValueError(
                "plaintext prime collided with the modulus chain; pick a "
                "different plain_bits"
            )
        return chain

    @classmethod
    def toy(cls) -> "BgvParams":
        return cls(n=64, max_level=3, num_special=2, dnum=2,
                   plain_bits=17, modulus_bits=26, name="bgv-toy")

    @classmethod
    def small(cls) -> "BgvParams":
        return cls(n=1024, max_level=5, num_special=2, dnum=3,
                   plain_bits=17, modulus_bits=28, name="bgv-small")
