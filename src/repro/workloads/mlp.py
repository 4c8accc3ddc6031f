"""Private MLP inference — dense layers + polynomial activations.

The composition pattern behind every CKKS inference workload (HELR's
single layer, ResNet's convolutions): a *linear transform* on slots
followed by a *polynomial activation*, repeated. This module provides an
:class:`EncryptedMlp` that runs a small multi-layer perceptron entirely
under encryption, using the library's BSGS linear transforms and
Chebyshev activation evaluation — and is validated against the identical
plaintext network in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..ckks import CkksContext
from ..ckks.keys import KeySet
from ..ckks.linear_transform import LinearTransform
from ..ckks.polyeval import PolynomialEvaluator

#: Chebyshev coefficients of a smooth squashing activation on [-1, 1]:
#: 0.5 + 0.625 T1 - 0.125 T3 equals the cubic 0.5 + 0.5x*(1.5 - 0.5x^2)
#: restricted to [-1, 1] — a classic smooth-sign/sigmoid-like polynomial.
SQUASH_CHEB = (0.5, 0.625, 0.0, -0.125)


@dataclass
class DenseLayer:
    """One dense layer: ``activation(W x + b)`` (activation optional)."""

    weights: np.ndarray  # (out, in)
    bias: np.ndarray     # (out,)
    activate: bool = True


class EncryptedMlp:
    """Runs an MLP on encrypted feature vectors.

    Weight matrices are embedded into ``slots x slots`` transforms
    (zero-padded), so hidden widths up to the slot count are supported.
    Each layer costs one BSGS linear transform, one plaintext bias
    addition, and (optionally) one Chebyshev activation.
    """

    def __init__(self, ctx: CkksContext, layers: Sequence[DenseLayer]):
        self.ctx = ctx
        self.layers = list(layers)
        s = ctx.slots
        self._transforms: List[LinearTransform] = []
        for layer in self.layers:
            out_dim, in_dim = layer.weights.shape
            if max(out_dim, in_dim) > s:
                raise ValueError(
                    f"layer {layer.weights.shape} exceeds {s} slots"
                )
            padded = np.zeros((s, s), dtype=np.complex128)
            padded[:out_dim, :in_dim] = layer.weights
            self._transforms.append(LinearTransform(ctx, padded))
        self._polyeval = PolynomialEvaluator(ctx.evaluator)

    def required_rotations(self) -> List[int]:
        steps = set()
        for lt in self._transforms:
            steps.update(lt.required_rotations())
        return sorted(steps)

    def levels_needed(self) -> int:
        """Multiplicative depth: 1 per transform; each degree-3 Chebyshev
        activation costs ceil(log2(3)) + 1 = 3 levels (T2, then T3 at the
        deeper level, then the coefficient-combination rescale)."""
        import math

        degree = len(SQUASH_CHEB) - 1
        act_depth = math.ceil(math.log2(degree)) + 1
        depth = 0
        for layer in self.layers:
            depth += 1
            if layer.activate:
                depth += act_depth
        return depth

    def infer(self, ct, keys: KeySet):
        """Forward pass on an encrypted (zero-padded) feature vector."""
        ev = self.ctx.evaluator
        for layer, lt in zip(self.layers, self._transforms):
            ct = lt.apply(ct, keys)
            bias = np.zeros(self.ctx.slots)
            bias[: len(layer.bias)] = layer.bias
            pt = self.ctx.encode(bias, level=ct.level, scale=ct.scale)
            ct = ev.add_plain(ct, pt)
            if layer.activate:
                ct = self._polyeval.eval_chebyshev(ct, SQUASH_CHEB, keys)
        return ct


def plaintext_mlp(layers: Sequence[DenseLayer],
                  x: np.ndarray) -> np.ndarray:
    """The identical network in the clear (test oracle)."""
    from numpy.polynomial import chebyshev as _cheb

    act = _cheb.Chebyshev(SQUASH_CHEB)
    v = np.asarray(x, dtype=float)
    for layer in layers:
        v = layer.weights @ v + layer.bias
        if layer.activate:
            v = act(v)
    return v


def random_mlp(rng: np.random.Generator, dims: Sequence[int],
               *, weight_scale: float = 0.4) -> List[DenseLayer]:
    """Random small MLP with bounded weights (keeps activations inside
    the Chebyshev domain)."""
    layers = []
    for i in range(len(dims) - 1):
        last = i == len(dims) - 2
        layers.append(DenseLayer(
            weights=rng.normal(size=(dims[i + 1], dims[i]))
            * weight_scale / np.sqrt(dims[i]),
            bias=rng.normal(size=dims[i + 1]) * 0.1,
            activate=not last,
        ))
    return layers
