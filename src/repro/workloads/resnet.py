"""ResNet-20 over CKKS (Table XIV "ResNet").

Schedule layer: the multiplexed-parallel-convolution pipeline of Lee et
al. [35] — per convolution, the 9 kernel-position rotations (hoisted after
the first), channel-packing PMULTs and additions; per activation, a
polynomial ReLU; bootstrapping inserted on a level budget. Priced at the
paper's ResNet parameter set (N=2^16, L=37, K=13).

Functional layer: :class:`EncryptedConv2d` — a real homomorphic 2-D
convolution plus polynomial activation on an encrypted image at toy ring
size, validated against a numpy reference in tests.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from ..ckks import CkksContext, ParameterSets
from ..ckks.ciphertext import Ciphertext, Plaintext
from ..ckks.hoisting import hoisted_rotations
from ..ckks.ks_common import wide_dot
from ..ckks.params import CkksParams
from ..ckks.poly import EVAL, RnsPoly
from ..ckks.rns_context import get_rns_context
from ..core.scheduler import OperationScheduler
from ..ntt.stacked import get_shoup_stack, stacked_negacyclic_ntt
from .bootstrap_workload import bootstrap_schedule
from .schedules import WorkloadSchedule, WorkloadTiming

#: ResNet-20 structure: (blocks, channels) per stage on 32x32 CIFAR.
RESNET20_STAGES: Tuple[Tuple[int, int], ...] = ((3, 16), (3, 32), (3, 64))

#: Degree of the polynomial ReLU approximation (composite minimax [35]).
RELU_POLY_DEGREE = 27

#: Ciphertext products per composite-minimax ReLU (three composed
#: polynomials of ~deg 7/15/27 evaluated BSGS-style).
_RELU_HMULTS = 14

#: Multiplexing factor of the packed convolution (kernel positions are
#: replicated across the multiplexed channel layout [35]).
_CONV_MULTIPLEX = 8

#: Levels consumed per residual block (two convs + two deep ReLUs).
_LEVELS_PER_BLOCK = 16


def resnet20_schedule(params: CkksParams = None, *,
                      fft_factored: bool = False,
                      fuse: int = 1) -> WorkloadSchedule:
    """The full ResNet-20 inference schedule.

    ``fft_factored``/``fuse`` select the sparse-factorized bootstrap
    schedule; the defaults keep the published pricing.
    """
    params = params or ParameterSets.resnet()
    top = params.max_level
    sched = WorkloadSchedule("ResNet-20")
    level = top
    relu_mults = _RELU_HMULTS

    def conv(name: str, channels: int, lvl: int) -> None:
        # 9 kernel positions replicated over the multiplexed channel
        # layout [35]: the first rotation pays the ModUp, the rest are
        # hoisted; channel mixing adds log2(channels) accumulations.
        positions = 9 * _CONV_MULTIPLEX
        ch_rot = int(math.log2(channels))
        sched.add("hrotate", lvl, 1, note=f"{name}.rot")
        sched.add("hrotate", lvl, positions - 1 + ch_rot, hoisted=True,
                  note=f"{name}.rot")
        sched.add("pmult", lvl, positions, note=f"{name}.pmult")
        sched.add("hadd", lvl, positions + ch_rot, note=f"{name}.add")
        sched.add("rescale", lvl, 1, note=f"{name}.rescale")

    # Stem convolution.
    conv("stem", 16, level)
    level -= 1

    boots = 0
    for stage_idx, (blocks, channels) in enumerate(RESNET20_STAGES):
        for block in range(blocks):
            name = f"s{stage_idx}b{block}"
            if level < _LEVELS_PER_BLOCK + 2:
                # Bootstrap both residual-path ciphertexts.
                boot = bootstrap_schedule(
                    params, fft_factored=fft_factored, fuse=fuse
                )
                for item in boot.items:
                    sched.add(item.op, item.level, item.count * 2,
                              hoisted=item.hoisted,
                              note=f"boot{boots}.{item.note or item.op}")
                boots += 1
                level = top - 4
            conv(f"{name}.conv1", channels, level)
            sched.add("hmult", level - 1, relu_mults,
                      note=f"{name}.relu1")
            conv(f"{name}.conv2", channels, level - 2)
            sched.add("hadd", level - 3, 1, note=f"{name}.residual")
            sched.add("hmult", level - 3, relu_mults,
                      note=f"{name}.relu2")
            level -= _LEVELS_PER_BLOCK
    # Global average pool + fully connected layer.
    sched.add("hrotate", max(1, level), 5, hoisted=True, note="pool.rot")
    sched.add("pmult", max(1, level), 2, note="fc.pmult")
    sched.add("hadd", max(1, level), 2, note="fc.add")
    return sched


def simulate_resnet20(params: CkksParams = None, *, batch: int = 1,
                      scheduler: OperationScheduler = None) -> WorkloadTiming:
    """Amortized seconds per image (the Table XIV ResNet metric)."""
    params = params or ParameterSets.resnet()
    scheduler = scheduler or OperationScheduler(params)
    return resnet20_schedule(params).price(scheduler, batch=batch)


class EncryptedConv2d:
    """Functional homomorphic 2-D convolution (toy scale).

    Packs a ``h x w`` single-channel image row-major into slots and
    evaluates a ``3x3`` convolution as 9 rotations + plaintext masks +
    additions — exactly the multiplexed-convolution dataflow, minus the
    channel multiplexing that needs big rings. Validated against numpy in
    tests; an optional square activation demonstrates conv + nonlinearity
    under encryption.

    :meth:`forward` is batched like the linear transforms: the weighted
    boundary masks are compiled once per (image shape, level) into a
    cached eval-form plaintext stack, the kernel-position rotations share
    one hoisted ModUp, and the mask multiplies + accumulation run as one
    wide-accumulator pass. :meth:`forward_looped` keeps the per-position
    rotate/PMULT pipeline (reading the same compiled stack, so repeated
    calls never re-encode) as the reference; the two decrypt identically
    but are not bit-equal, since hoisted rotations and plain HROTATEs
    take different reduction paths.
    """

    def __init__(self, ctx: CkksContext, keys, kernel: np.ndarray):
        if kernel.shape != (3, 3):
            raise ValueError("toy conv supports 3x3 kernels")
        self.ctx = ctx
        self.keys = keys
        self.kernel = kernel
        self._mask_plans = {}

    @staticmethod
    def required_rotations(width: int, slots: int) -> List[int]:
        """Rotation steps for a row-major packed image of this width
        (negative shifts become complementary positive rotations)."""
        steps = set()
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                step = dy * width + dx
                if step == 0:
                    continue
                steps.add(step if step > 0 else slots + step)
        return sorted(steps)

    def _compile_masks(self, height: int, width: int, level: int):
        """The (rotation steps, eval-form mask stack) plan of one image
        shape at one level; memoized.  Masks of kernel positions landing
        on the same rotation step (degenerate widths) are summed — same
        algebra, one stack lane."""
        key = (height, width, level)
        plan = self._mask_plans.get(key)
        if plan is not None:
            return plan
        slots = self.ctx.slots
        by_step = {}
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                weight = float(self.kernel[dy + 1, dx + 1])
                if weight == 0.0:
                    continue
                step = (dy * width + dx) % slots
                mask = self._valid_mask(height, width, dy, dx) * weight
                if step in by_step:
                    by_step[step] = by_step[step] + mask
                else:
                    by_step[step] = mask
        steps = sorted(by_step)
        ev = self.ctx.evaluator
        moduli = tuple(ev.moduli_at(level))
        scale = self.ctx.params.scale
        n = self.ctx.params.n
        coeffs = self.ctx.encoder.encode_many(
            np.stack([by_step[s] for s in steps]), scale
        )
        q_col = np.array(moduli, dtype=np.int64)[:, None, None]
        residues = np.mod(coeffs[None, :, :], q_col).astype(np.uint64)
        stack = stacked_negacyclic_ntt(
            residues, get_shoup_stack(moduli, n)
        )
        stack.setflags(write=False)
        plan = (steps, moduli, scale, stack)
        self._mask_plans[key] = plan
        return plan

    def forward(self, ct, height: int, width: int, *,
                square_activation: bool = False):
        """Convolve the encrypted image (zero boundary conditions).

        Batched: one hoisted-rotation pass over the kernel positions, one
        wide-accumulator reduction against the cached mask stack.
        """
        steps, moduli, pt_scale, stack = self._compile_masks(
            height, width, ct.level
        )
        ev = self.ctx.evaluator
        rotated = hoisted_rotations(ev, ct, steps, self.keys)
        rot0 = np.stack([rotated[s].c0.data for s in steps], axis=1)
        rot1 = np.stack([rotated[s].c1.data for s in steps], axis=1)
        reducer = get_rns_context(moduli, ct.n).barrett
        acc = Ciphertext(
            RnsPoly(wide_dot(rot0, stack, reducer), moduli, EVAL),
            RnsPoly(wide_dot(rot1, stack, reducer), moduli, EVAL),
            ct.level, ct.scale * pt_scale,
        )
        out = ev.rescale(acc)
        if square_activation:
            out = ev.hmult(out, out, self.keys)
        return out

    def forward_looped(self, ct, height: int, width: int, *,
                       square_activation: bool = False):
        """The per-position reference pipeline (plain rotations, one
        PMULT per kernel position, memoized mask plaintexts)."""
        steps, moduli, pt_scale, stack = self._compile_masks(
            height, width, ct.level
        )
        ev = self.ctx.evaluator
        acc = None
        for i, step in enumerate(steps):
            shifted = ct if step == 0 else ev.hrotate(ct, step, self.keys)
            pt = Plaintext(
                poly=RnsPoly(stack[:, i, :], moduli, EVAL),
                scale=pt_scale, level=ct.level,
            )
            term = ev.pmult(shifted, pt)
            acc = term if acc is None else ev.hadd_matched(acc, term)
        out = ev.rescale(acc)
        if square_activation:
            out = ev.hmult(out, out, self.keys)
        return out

    def _valid_mask(self, height: int, width: int, dy: int,
                    dx: int) -> np.ndarray:
        """1.0 where the shifted pixel is inside the image, else 0."""
        mask = np.zeros(self.ctx.slots)
        for y in range(height):
            for x in range(width):
                sy, sx = y + dy, x + dx
                if 0 <= sy < height and 0 <= sx < width:
                    mask[y * width + x] = 1.0
        return mask


def conv2d_reference(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Plain 3x3 convolution with zero padding (the test oracle)."""
    height, width = image.shape
    out = np.zeros_like(image, dtype=float)
    for y in range(height):
        for x in range(width):
            acc = 0.0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    sy, sx = y + dy, x + dx
                    if 0 <= sy < height and 0 <= sx < width:
                        acc += image[sy, sx] * kernel[dy + 1, dx + 1]
            out[y, x] = acc
    return out
