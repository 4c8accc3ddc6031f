"""User-facing CKKS facade.

Bundles parameters, encoder, key generation and the evaluator behind the
handful of calls an application needs; the quickstart example uses nothing
else.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .ciphertext import Ciphertext, Plaintext
from .encoding import Encoder
from .keys import KeyGenerator, KeySet, SecretKey
from .ops import Evaluator
from .params import CkksParams
from .poly import RnsPoly


class CkksContext:
    """One CKKS instantiation: parameters + encoder + evaluator."""

    def __init__(self, params: CkksParams, *, seed: int = None):
        self.params = params
        self.rng = np.random.default_rng(seed)
        self.encoder = Encoder(params)
        self.evaluator = Evaluator(params, self.rng)
        self._keygen = KeyGenerator(params, self.rng)

    @classmethod
    def create(cls, params: CkksParams, *, seed: int = None) -> "CkksContext":
        return cls(params, seed=seed)

    # -- keys ------------------------------------------------------------------

    def keygen(self, *, rotations: List[int] = None,
               conjugation: bool = False) -> KeySet:
        return self._keygen.generate(
            rotations=rotations, conjugation=conjugation
        )

    def add_rotation_key(self, keys: KeySet, step: int) -> None:
        """Generate one more rotation key in place."""
        keys.rotation[step] = self._keygen.generate_rotation(
            keys.secret, step
        )

    # -- encode / encrypt ----------------------------------------------------------

    def encode(self, values: Sequence, *, level: int = None,
               scale: float = None) -> Plaintext:
        level = self.params.max_level if level is None else level
        if not 0 <= level <= self.params.max_level:
            raise ValueError(
                f"level {level} outside 0..{self.params.max_level}"
            )
        scale = self.params.scale if scale is None else scale
        coeffs = self.encoder.encode(values, scale)
        moduli = self.evaluator.moduli_at(level)
        return Plaintext(
            poly=RnsPoly.from_signed(coeffs, moduli), scale=scale,
            level=level,
        )

    def encrypt(self, values: Sequence, keys_or_public, *,
                level: int = None, scale: float = None) -> Ciphertext:
        public = getattr(keys_or_public, "public", keys_or_public)
        return self.evaluator.encrypt(
            self.encode(values, level=level, scale=scale), public
        )

    # -- decrypt / decode -----------------------------------------------------------

    def decrypt_decode(self, ct: Ciphertext, secret_or_keys,
                       ) -> np.ndarray:
        """Decrypt and decode to complex slot values."""
        secret = self._as_secret(secret_or_keys)
        coeffs = self.evaluator.decrypt_coefficients(ct, secret)
        return self.encoder.decode(coeffs, ct.scale)

    def decrypt_decode_real(self, ct: Ciphertext, secret_or_keys,
                            ) -> np.ndarray:
        return np.real(self.decrypt_decode(ct, secret_or_keys))

    @staticmethod
    def _as_secret(secret_or_keys) -> SecretKey:
        return getattr(secret_or_keys, "secret", secret_or_keys)

    # -- shortcuts to the evaluator ---------------------------------------------------

    def hadd(self, a, b):
        return self.evaluator.hadd(a, b)

    def hsub(self, a, b):
        return self.evaluator.hsub(a, b)

    def hmult(self, a, b, keys, **kw):
        return self.evaluator.hmult(a, b, keys, **kw)

    def pmult(self, ct, pt):
        return self.evaluator.pmult(ct, pt)

    def hrotate(self, ct, steps, keys):
        return self.evaluator.hrotate(ct, steps, keys)

    def rescale(self, ct):
        return self.evaluator.rescale(ct)

    @property
    def slots(self) -> int:
        return self.params.slots
