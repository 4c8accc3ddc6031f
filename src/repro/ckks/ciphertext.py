"""Ciphertext and plaintext containers."""

from __future__ import annotations

from dataclasses import dataclass

from .poly import EVAL, RnsPoly


@dataclass
class Plaintext:
    """An encoded message: one RNS polynomial plus its scale."""

    poly: RnsPoly
    scale: float
    level: int

    @property
    def n(self) -> int:
        return self.poly.n


@dataclass
class Ciphertext:
    """An RLWE ciphertext ``(c0, c1)`` with level and scale bookkeeping.

    Both components live in the eval domain over the level's modulus chain
    ``q_0..q_level``. ``Dec(ct) = c0 + c1 * s ≈ scale * message``.
    """

    c0: RnsPoly
    c1: RnsPoly
    level: int
    scale: float

    def __post_init__(self):
        if self.c0.moduli != self.c1.moduli:
            raise ValueError("ciphertext components disagree on moduli")
        if self.c0.domain != EVAL or self.c1.domain != EVAL:
            raise ValueError("ciphertext components must be in eval domain")
        if len(self.c0.moduli) != self.level + 1:
            raise ValueError(
                f"level {self.level} implies {self.level + 1} primes, "
                f"found {len(self.c0.moduli)}"
            )
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def n(self) -> int:
        return self.c0.n

    @property
    def moduli(self):
        return self.c0.moduli

    def copy(self) -> "Ciphertext":
        return Ciphertext(self.c0.copy(), self.c1.copy(), self.level,
                          self.scale)
