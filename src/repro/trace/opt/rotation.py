"""Rotation optimization: duplicate and dead automorphism elimination.

A Galois automorphism is fully determined by its source buffer and its
step (recorded in ``TraceEvent.args``; ``-1`` is conjugation), so two
automorphism events with equal replay tokens — same step, transitively
identical inputs — compute the same permutation.  The pass keeps the
first, drops the rest, and re-points consumers at the survivor; the
legality checker re-derives token equality independently, so a buggy
dedup cannot slip through.

Dead elimination removes automorphism events whose output nothing in
the trace reads — the kernel-level signature of a silently generated
but unused rotation (key) — and reports them in ``PassStats.removed``;
narrowing the observable output set is never silent.

Downstream key-switch work of a deduplicated rotation is deliberately
*not* CSE'd: ``inner_product`` events read key material the recorder
does not track as buffers, so token equality there would not imply
semantic equality.  Duplicate rotations share one gather; their
key-switches stay.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Set, Tuple

from ..ir import OpTrace, TraceEvent
from .graphs import event_reads
from .pipeline import PassStats, TracePass
from .replay import replay_tokens


def observed_rotation_steps(trace: OpTrace) -> List[int]:
    """Slot rotation steps an automorphism event actually applied.

    Sorted and deduplicated; the conjugation sentinel ``-1`` is included
    when a conjugation was observed.  This is what
    :meth:`repro.ckks.bootstrap.Bootstrapper.assert_rotations_consistent`
    audits the generated key set against.
    """
    steps: Set[int] = set()
    for e in trace.events:
        for p in (e.fused if e.fused else (e,)):
            if p.kind == "automorphism":
                steps.update(int(a) for a in p.args)
    steps.discard(0)
    return sorted(steps)


def _rewrite(event: TraceEvent, remap: Dict[int, int]) -> TraceEvent:
    def _deps(deps: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(sorted({remap.get(d, d) for d in deps}))

    if not any(d in remap for d in event.deps) and not any(
            d in remap for c in event.fused for d in c.deps):
        return event
    fused = tuple(
        dataclasses.replace(c, deps=_deps(c.deps)) if any(
            d in remap for d in c.deps) else c
        for c in event.fused
    )
    return dataclasses.replace(event, deps=_deps(event.deps), fused=fused)


class RotationDedupPass(TracePass):
    """Drop duplicate automorphisms; optionally eliminate dead ones."""

    name = "dedup-rotations"

    def __init__(self, eliminate_dead: bool = True):
        self.eliminate_dead = eliminate_dead

    def run(self, trace: OpTrace) -> Tuple[OpTrace, PassStats]:
        return self.run_with_tokens(trace, replay_tokens(trace))

    def run_with_tokens(self, trace: OpTrace, tokens: Dict[int, str],
                        ) -> Tuple[OpTrace, PassStats]:
        events = trace.events
        survivors: Dict[str, int] = {}
        remap: Dict[int, int] = {}
        drop: Set[int] = set()
        dropped_dups: List[TraceEvent] = []
        for pos, e in enumerate(events):
            if e.kind != "automorphism" or e.fused or "split" in e.shape:
                continue
            tok = tokens[e.eid]
            if tok in survivors:
                remap[e.eid] = survivors[tok]
                drop.add(pos)
                dropped_dups.append(e)
            else:
                survivors[tok] = e.eid

        out_events: List[TraceEvent] = [
            _rewrite(e, remap) if remap else e
            for pos, e in enumerate(events) if pos not in drop
        ]

        removed: List[TraceEvent] = []
        if self.eliminate_dead:
            consumed: Set[int] = set()
            for e in out_events:
                consumed.update(event_reads(e))
            kept: List[TraceEvent] = []
            for e in out_events:
                if (e.kind == "automorphism" and not e.fused
                        and e.eid not in consumed):
                    removed.append(e)
                else:
                    kept.append(e)
            out_events = kept

        out = dataclasses.replace(trace, events=tuple(out_events))
        return out, PassStats(
            self.name, len(events), len(out.events),
            deduped=len(drop), dead=len(removed),
            removed=tuple(dropped_dups) + tuple(removed),
        )
