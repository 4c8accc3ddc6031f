"""Pass manager for the trace-DAG optimizer.

Every pass is a pure ``OpTrace -> OpTrace`` transform with a
machine-checkable legality contract, enforced here after each pass when
``verify=True`` (the default — passes are cheap next to lowering):

1. **Structure** — :func:`repro.trace.ir.validate_trace`: kinds in
   vocabulary, deps reference earlier events, fused payloads well formed.
2. **Data deps preserved** — expanding the optimized trace back to
   primitive granularity yields the *same* primitive event set (minus
   events the pass explicitly removed) with per-eid replay tokens
   unchanged, so every surviving computation still sees transitively
   identical inputs (see :mod:`repro.trace.opt.replay`).
3. **Shape accounting conserved** — per-kind work totals over the
   primitive view are exactly ``before == after + removed``: fusion may
   re-partition launches but can neither create nor destroy work.
4. **Removal is dead-or-duplicate only** — a removed event either has a
   token-identical survivor (dedup) or was a sink (dead elimination);
   anything else fails check 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir import OpTrace, TraceEvent, validate_trace
from .replay import event_work, replay_tokens, work_counts

__all__ = [
    "OptimizationError", "PassStats", "OptReport", "TracePass",
    "PassPipeline", "optimize_trace", "default_passes",
]


class OptimizationError(ValueError):
    """A pass broke its legality contract (optimizer bug, never data)."""


@dataclass
class PassStats:
    """What one pass did to one trace."""

    name: str
    events_before: int
    events_after: int
    fused_groups: int = 0
    merged_launches: int = 0
    deduped: int = 0
    dead: int = 0
    #: Primitive events the pass removed (duplicates and dead ones) —
    #: the legality check books their work and the report keeps removal
    #: from ever being silent.
    removed: Tuple[TraceEvent, ...] = ()
    notes: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        bits = [f"{self.name}: {self.events_before} -> {self.events_after}"]
        if self.fused_groups:
            bits.append(f"{self.fused_groups} fused")
        if self.merged_launches:
            bits.append(f"{self.merged_launches} merged")
        if self.deduped:
            bits.append(f"{self.deduped} deduped")
        if self.dead:
            bits.append(f"{self.dead} dead")
        for k, v in self.notes.items():
            bits.append(f"{k}={v:g}")
        return ", ".join(bits)


@dataclass
class OptReport:
    """The composed pipeline's ledger."""

    label: str
    passes: List[PassStats] = field(default_factory=list)

    @property
    def events_before(self) -> int:
        return self.passes[0].events_before if self.passes else 0

    @property
    def events_after(self) -> int:
        return self.passes[-1].events_after if self.passes else 0

    def summary(self) -> str:
        lines = [f"optimize({self.label!r}): "
                 f"{self.events_before} -> {self.events_after} events"]
        lines += [f"  {p.summary()}" for p in self.passes]
        return "\n".join(lines)


class TracePass:
    """Base class: a named pure trace transform."""

    name = "pass"

    def run(self, trace: OpTrace) -> Tuple[OpTrace, PassStats]:
        raise NotImplementedError

    def run_with_tokens(self, trace: OpTrace, tokens: Dict[int, str],
                        ) -> Tuple[OpTrace, PassStats]:
        """:meth:`run`, given ``replay_tokens(trace)`` the verifying
        pipeline already holds; a pass that reads tokens overrides it."""
        return self.run(trace)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


def _ledger(name: str, trace: OpTrace,
            ) -> Tuple[Dict[int, str], Dict[str, int]]:
    """Replay tokens and work counts of one trace (a pass's output is the
    next pass's input, so each trace in the pipeline is tokenised once)."""
    try:
        return replay_tokens(trace), work_counts(trace)
    except KeyError as exc:
        raise OptimizationError(
            f"pass {name!r}: dependency on undefined event {exc}"
        )


def _verify(name: str, before: Tuple[Dict[int, str], Dict[str, int]],
            after: OpTrace, stats: PassStats,
            ) -> Tuple[Dict[int, str], Dict[str, int]]:
    """Check one pass against the ``before`` ledger of its input and
    return the ledger of its output."""
    try:
        validate_trace(after)
    except ValueError as exc:
        raise OptimizationError(f"pass {name!r} broke structure: {exc}")
    tok_before, work_before = before
    tok_after, work_after = ledger = _ledger(name, after)
    removed_eids = {e.eid for e in stats.removed}
    expected = set(tok_before) - removed_eids
    got = set(tok_after)
    if got != expected:
        missing = sorted(expected - got)[:5]
        extra = sorted(got - expected)[:5]
        raise OptimizationError(
            f"pass {name!r} changed the primitive event set "
            f"(missing {missing}, extra {extra})"
        )
    for eid in got:
        if tok_after[eid] != tok_before[eid]:
            raise OptimizationError(
                f"pass {name!r} changed the computation of event {eid} "
                "(replay token mismatch)"
            )
    booked = dict(work_after)
    for e in stats.removed:
        booked[e.kind] = booked.get(e.kind, 0) + event_work(e)
    if work_before != booked:
        raise OptimizationError(
            f"pass {name!r} broke work conservation: "
            f"{work_before} != {booked}"
        )
    return ledger


class PassPipeline:
    """Run passes in order, verifying each one's legality contract."""

    def __init__(self, passes: Sequence[TracePass], *, verify: bool = True):
        self.passes = list(passes)
        self.verify = verify

    def run(self, trace: OpTrace) -> Tuple[OpTrace, OptReport]:
        report = OptReport(label=trace.label)
        current = trace
        ledger = None
        if self.verify and self.passes:
            ledger = _ledger(self.passes[0].name, trace)
        for p in self.passes:
            if ledger is None:
                nxt, stats = p.run(current)
            else:
                nxt, stats = p.run_with_tokens(current, ledger[0])
                ledger = _verify(p.name, ledger, nxt, stats)
            report.passes.append(stats)
            current = nxt
        return current, report


def default_passes() -> List[TracePass]:
    """The standard pipeline, in dependency order: rotations first (so
    fusion cannot hide duplicate automorphisms inside opaque groups),
    twist folding before chain fusion (transforms make better fusion
    hosts than sibling element-wise events), horizontal merging over
    what remains, memory-aware reordering last (a pure permutation)."""
    from .fusion import FoldTwistPass, FuseElementwisePass, MergeLaunchesPass
    from .reorder import PoolReorderPass
    from .rotation import RotationDedupPass

    return [
        RotationDedupPass(),
        FoldTwistPass(),
        FuseElementwisePass(),
        MergeLaunchesPass(),
        PoolReorderPass(),
    ]


def optimize_trace(trace: OpTrace,
                   passes: Optional[Sequence[TracePass]] = None, *,
                   verify: bool = True) -> Tuple[OpTrace, OptReport]:
    """Run the (default or given) pass pipeline over one recording."""
    pipeline = PassPipeline(
        default_passes() if passes is None else passes, verify=verify
    )
    return pipeline.run(trace)
