"""Lower a recorded :class:`~repro.trace.ir.OpTrace` to a kernel DAG.

One recording, three machine models (mirroring the plan builders the
static layer already has):

* ``"pe"`` — WarpDrive's Parallelism-Enhanced ciphertext-level kernels
  (§IV-C): independent same-kind stages of one operation instance merge
  into a single launch whose grid carries the polynomial dimension, NTT
  stage pairs fold into one launch (:func:`_merge_stages`), and stages
  the PE plan deliberately keeps per-accumulator (the KeySwitch tail)
  honor the recorded ``split`` hint.  This reproduces the Table IX launch
  counts from a functional run instead of a hand-authored list.
* ``"kf"`` — 100x-style kernel-fused polynomial-level launches: every
  stage splits into per-polynomial/per-digit kernels (the ``panes`` and
  ``polys`` hints), NTTs use the WarpDrive engine per pane.
* ``"tensorfhe"`` — like ``"kf"`` but every NTT pane lowers to the
  TensorFHE five-stage plan (35 launches per pane), reproducing the
  launch-count explosion of Table III.

The trace's shapes are ring-degree-free, so the same recording lowers at
any target ring: pass ``params`` of a parameter set sharing the recorded
modulus-chain structure and only ``n`` changes (proxy-scale recording).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.annotations import frozen
from ..core import costs
from ..core import kernels as K
from ..core.kernels import DEFAULT_GEOMETRY, GeometryConfig
from ..core.ntt_engine import WarpDriveNtt
from ..gpusim import A100_PCIE_80G, DagKernel, ExecutionResult, GpuSpec, \
    KernelSpec, run_dag
from .ir import OpTrace, TraceEvent

STYLES = ("pe", "kf", "tensorfhe")

# -- declared tuning knobs (DESIGN.md §14) ----------------------------------

from ..tuning.knobs import Boolean, Choice, KnobSpec, \
    register_knob  # noqa: E402

register_knob(KnobSpec(
    name="machine.style", layer="trace",
    domain=Choice(STYLES), default="pe",
    doc="Machine model traces lower to: WarpDrive PE ciphertext-level "
        "launches, 100x-style kernel-fused, or TensorFHE.",
    observe=lambda pipe: pipe.style,
))
register_knob(KnobSpec(
    name="dagopt.optimize", layer="trace",
    domain=Boolean(), default=False,
    doc="Run the repro.trace.opt pass pipeline over recordings before "
        "lowering (fusion, rotation dedup, twist folding).",
    observe=lambda pipe: pipe.optimize,
))
register_knob(KnobSpec(
    name="dagopt.search", layer="trace",
    domain=Boolean(), default=False,
    doc="Re-order lowered DAGs with schedule_search before pricing.",
    observe=lambda pipe: pipe.search,
))

#: Kinds that the PE grid merges across a ciphertext's polynomials when
#: the stages are mutually independent (no data path between them).
_MERGEABLE = frozenset(
    {"intt", "ntt", "modadd", "modmul", "divide", "automorphism"}
)


@frozen
@dataclass(frozen=True)
class DagNode:
    """One lowered kernel launch plus its graph context."""

    spec: KernelSpec
    deps: Tuple[int, ...]
    eids: Tuple[int, ...]  # trace events realized by this launch
    op: str                # span path of the primary event
    group: str             # top-level span (workload phase)


@frozen
@dataclass(frozen=True)
class KernelDag:
    """A lowered trace: kernel launches in topological order."""

    nodes: Tuple[DagNode, ...]
    n: int
    style: str
    label: str
    device: Any = None  # GpuSpec the lowering targeted

    @property
    def kernel_count(self) -> int:
        return len(self.nodes)

    @property
    def specs(self) -> List[KernelSpec]:
        return [node.spec for node in self.nodes]

    def to_dag_kernels(self) -> List[DagKernel]:
        return [DagKernel(spec=nd.spec, deps=nd.deps) for nd in self.nodes]

    def run(self, device: Optional[GpuSpec] = None) -> ExecutionResult:
        """Price the DAG on the simulator (dependency-aware overlap)."""
        dev = device if device is not None else self.device
        if dev is None:
            dev = A100_PCIE_80G
        return run_dag(self.to_dag_kernels(), dev)

    def groups(self) -> List[str]:
        """Workload phases in first-seen order."""
        seen: List[str] = []
        for nd in self.nodes:
            if nd.group and nd.group not in seen:
                seen.append(nd.group)
        return seen


class _Group:
    """A set of trace events lowered as one launch (mutable while built)."""

    __slots__ = ("kind", "events", "shape", "op", "span", "first")

    def __init__(self, event: TraceEvent):
        self.kind = event.kind
        self.events = [event]
        self.shape = dict(event.shape)
        self.op = event.op
        self.span = event.span
        self.first = event.eid

    def can_absorb(self, event: TraceEvent) -> bool:
        if event.kind != self.kind or event.span != self.span:
            return False
        # Optimizer-produced fused events already chose their launch
        # boundary; the PE grid merge must not re-partition them.
        if event.fused or self.events[0].fused:
            return False
        s, t = self.shape, event.shape
        if self.kind in ("intt", "ntt", "modadd", "modmul"):
            return True
        if self.kind == "divide":
            return s.get("drop") == t.get("drop")
        if self.kind == "automorphism":
            return s.get("primes") == t.get("primes")
        return False

    def absorb(self, event: TraceEvent) -> None:
        self.events.append(event)
        s, t = self.shape, event.shape
        if self.kind in ("intt", "ntt", "modadd", "modmul", "divide"):
            s["rows"] = s.get("rows", 0) + t.get("rows", 0)
            if "panes" in s or "panes" in t:
                s["panes"] = s.get("panes", 1) + t.get("panes", 1)
        elif self.kind == "automorphism":
            s["polys"] = s.get("polys", 1) + t.get("polys", 1)

    @property
    def eids(self) -> Tuple[int, ...]:
        return tuple(e.eid for e in self.events)

    @property
    def all_eids(self) -> Tuple[int, ...]:
        """Event ids realized by this launch, constituents included.

        Consumers of an event swallowed by a fused launch still name the
        constituent eid in their deps; exporting every covered id keeps
        the eid->node map total.
        """
        out: List[int] = []
        for e in self.events:
            out.append(e.eid)
            out.extend(c.eid for c in e.fused)
        return tuple(out)

    def external_deps(self) -> Tuple[int, ...]:
        mine = set(self.all_eids)
        out = set()
        for e in self.events:
            out.update(d for d in e.deps if d not in mine)
        return tuple(sorted(out))


def _event_ancestors(events: Sequence[TraceEvent]) -> Dict[int, frozenset]:
    """Transitive data-dependency closure, keyed by event id.

    A fused event's constituents resolve to the fused event itself:
    depending on a constituent is depending on the launch that realizes
    it, so the closure stays connected across optimizer-fused nodes.
    """
    anc: Dict[int, frozenset] = {}
    owner: Dict[int, int] = {}
    for e in events:
        for c in e.fused:
            owner[c.eid] = e.eid
        s: set = set()
        for d in e.deps:
            t = owner.get(d, d)
            s.add(t)
            s |= anc.get(t, frozenset())
        fs = frozenset(s)
        anc[e.eid] = fs
        for c in e.fused:
            anc[c.eid] = fs
    return anc


def _group_events(events: Sequence[TraceEvent], *, merge: bool,
                  ) -> List[_Group]:
    """Partition events into launch groups (PE merge pass when asked).

    Two stages merge only when they share a span instance (same operation
    invocation), have compatible shapes, and neither transitively depends
    on the other — a dependency path means the PE grid cannot run them as
    one launch.
    """
    anc = _event_ancestors(events) if merge else {}
    groups: List[_Group] = []
    open_groups: Dict[Tuple[str, str], List[int]] = {}
    for e in events:
        if merge and e.kind in _MERGEABLE and "split" not in e.shape \
                and not e.fused:
            placed = False
            for gi in open_groups.get((e.span, e.kind), ()):  # noqa: B007
                g = groups[gi]
                if not g.can_absorb(e):
                    continue
                if any(ge in anc[e.eid] for ge in g.eids):
                    continue
                g.absorb(e)
                placed = True
                break
            if placed:
                continue
        groups.append(_Group(e))
        open_groups.setdefault((e.span, e.kind), []).append(len(groups) - 1)
    return groups


def _toposort(groups: List[_Group]) -> List[_Group]:
    """Order groups so dependencies precede dependents.

    Merging places a group at its first member's position, but a later
    member may read a buffer written *after* that position; a stable
    Kahn pass (priority = first event id) restores a valid order.
    """
    eid_to_group: Dict[int, int] = {}
    for gi, g in enumerate(groups):
        for eid in g.all_eids:
            eid_to_group[eid] = gi
    indegree = [0] * len(groups)
    children: List[List[int]] = [[] for _ in groups]
    for gi, g in enumerate(groups):
        preds = {
            eid_to_group[d] for d in g.external_deps() if d in eid_to_group
        }
        preds.discard(gi)
        indegree[gi] = len(preds)
        for p in preds:
            children[p].append(gi)
    ready = [(groups[gi].first, gi) for gi in range(len(groups))
             if indegree[gi] == 0]
    heapq.heapify(ready)
    order: List[_Group] = []
    while ready:
        _, gi = heapq.heappop(ready)
        order.append(groups[gi])
        for c in children[gi]:
            indegree[c] -= 1
            if indegree[c] == 0:
                heapq.heappush(ready, (groups[c].first, c))
    if len(order) != len(groups):
        raise ValueError("recorded trace contains a dependency cycle")
    return order


def _distribute(total: int, parts: int) -> List[int]:
    base, extra = divmod(int(total), parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


class _Lowerer:
    def __init__(self, *, n: int, style: str, device: GpuSpec,
                 ntt_variant: str, geometry: GeometryConfig, batch: int):
        self.n = n
        self.style = style
        self.device = device
        self.geometry = geometry
        self.batch = batch
        self._wd_ntt = WarpDriveNtt(
            n, variant=ntt_variant, device=device, geometry=geometry
        )
        self._tf_ntt = None
        if style == "tensorfhe":
            from ..baselines.tensorfhe import TensorFheNtt

            self._tf_ntt = TensorFheNtt(n, device=device, geometry=geometry)
        #: (transforms, inverse) -> kernel plan; traces repeat row counts.
        self._ntt_plans: Dict[Tuple[int, bool], List[KernelSpec]] = {}

    # -- NTT stage ------------------------------------------------------
    def _ntt_chain(self, name: str, rows: int, *, inverse: bool,
                   ) -> List[KernelSpec]:
        """Kernels for one NTT pass over ``rows`` residue rows."""
        transforms = rows * self.batch
        if self.style == "tensorfhe":
            plan = self._ntt_plans.get((transforms, False))
            if plan is None:
                plan = self._tf_ntt.kernel_plan(transforms)
                self._ntt_plans[(transforms, False)] = plan
            return [s.renamed(f"{name}.{s.name}") for s in plan]
        plan = self._ntt_plans.get((transforms, inverse))
        if plan is None:
            plan = self._wd_ntt.kernel_plan(transforms, inverse=inverse)
            self._ntt_plans[(transforms, inverse)] = plan
        if self.style == "pe":
            spec = plan[0]
            for extra in plan[1:]:
                spec = _merge_stages(spec, extra)
            return [spec.renamed(name, stage=name)]
        return [s.renamed(f"{name}[{i + 1}/{len(plan)}]")
                for i, s in enumerate(plan)]

    # -- one launch group ----------------------------------------------
    def atoms(self, g: _Group) -> Tuple[List[List[KernelSpec]], str]:
        """Lower one group to launch atoms.

        Returns ``(parts, mode)``: ``parts`` is a list of kernel chains
        (each chain serializes internally); ``mode`` is ``"parallel"``
        (parts are independent) — chains of a single part cover the
        sequential NTT-stage case.
        """
        kind, shape = g.kind, g.shape
        name = f"{_leaf(g.op)}.{kind}"
        if len(g.events) == 1 and g.events[0].fused:
            return self._fused_atoms(g.events[0], name)
        split = self._split_count(kind, shape)
        if kind in ("ntt", "intt"):
            rows = shape["rows"]
            parts = []
            for i, r in enumerate(_distribute(rows, split)):
                if r <= 0:
                    continue
                part_name = name if split == 1 else f"{name}[{i}]"
                parts.append(self._ntt_chain(
                    part_name, r, inverse=(kind == "intt")
                ))
            return parts, "parallel"
        parts = []
        for i, spec in enumerate(self._split_specs(kind, shape, name, split)):
            parts.append([spec])
        return parts, "parallel"

    def _split_count(self, kind: str, shape: Dict[str, int]) -> int:
        split = shape.get("split", 1)
        if self.style == "pe":
            return split
        # Polynomial-level styles launch once per pane/polynomial/step.
        panes = shape.get("panes", 0)
        polys = shape.get("polys", 0)
        steps = shape.get("steps", 0)
        if kind in ("ntt", "intt"):
            return max(split, panes, 1)
        if kind == "inner_product":
            return max(split, steps, 1)
        if kind in ("modup", "moddown", "automorphism"):
            return max(split, polys, 1)
        return max(split, 1)

    def _split_specs(self, kind: str, shape: Dict[str, int], name: str,
                     split: int) -> List[KernelSpec]:
        n, b, geo = self.n, self.batch, self.geometry
        specs: List[KernelSpec] = []
        for i in range(split):
            part = name if split == 1 else f"{name}[{i}]"
            if kind == "modup":
                polys = _distribute(shape.get("polys", 1), split)[i]
                if polys <= 0:
                    continue
                specs.append(K.modup_kernel(
                    part, n, shape["source_primes"], shape["target_primes"],
                    polys=polys * b, geometry=geo, stage="ModUp",
                ))
            elif kind == "moddown":
                polys = _distribute(shape.get("polys", 1), split)[i]
                if polys <= 0:
                    continue
                specs.append(K.moddown_kernel(
                    part, n, shape["main_primes"], shape["special_primes"],
                    polys=polys * b, geometry=geo, stage="ModDown",
                ))
            elif kind == "inner_product":
                steps = shape.get("steps", 1)
                per = _distribute(steps, split)[i] if split > 1 else steps
                if per <= 0:
                    continue
                specs.append(K.inner_product_kernel(
                    part, n, shape["primes"] * per * b, shape["digits"],
                    accumulators=shape.get("accumulators", 2),
                    geometry=geo, stage="InProd",
                ))
            elif kind == "automorphism":
                polys = _distribute(shape.get("polys", 2), split)[i]
                if polys <= 0:
                    continue
                specs.append(K.automorphism_kernel(
                    part, n, shape["primes"], polys=polys * b, geometry=geo,
                ))
            elif kind == "modadd":
                rows = _distribute(shape["rows"], split)[i]
                if rows <= 0:
                    continue
                specs.append(K.modadd_kernel(part, n * rows * b,
                                             geometry=geo))
            elif kind == "modmul":
                rows = _distribute(shape["rows"], split)[i]
                if rows <= 0:
                    continue
                specs.append(K.modmul_kernel(part, n * rows * b,
                                             geometry=geo))
            elif kind == "tensor_product":
                rows = _distribute(shape["rows"], split)[i]
                if rows <= 0:
                    continue
                specs.append(K.elementwise_kernel(
                    part, n * rows * b,
                    ops_per_element=4 * 7 + 2 * 2,
                    read_words=4, write_words=3, geometry=geo,
                    stage="TensorProduct",
                ))
            elif kind == "divide":
                rows = _distribute(shape["rows"], split)[i]
                drop = shape.get("drop", 1)
                if rows <= 0:
                    continue
                specs.append(K.elementwise_kernel(
                    part, n * rows * b,
                    ops_per_element=drop * (7 + 2),
                    read_words=1 + drop, write_words=1, geometry=geo,
                    stage="Rescale",
                ))
            else:
                raise ValueError(f"cannot lower trace event kind {kind!r}")
        return specs

    # -- optimizer-fused events ----------------------------------------
    def _fused_atoms(self, event: TraceEvent, name: str,
                     ) -> Tuple[List[List[KernelSpec]], str]:
        """Lower an optimizer-produced fused event (DESIGN.md §12)."""
        if event.kind == "fused_elementwise":
            return [[self._fused_elementwise_spec(event, name)]], "parallel"
        if event.kind == "fused_launch":
            return [[self._fused_launch_spec(event, name)]], "parallel"
        if event.kind in ("ntt", "intt"):
            return [self._folded_ntt_chain(event, name)], "parallel"
        raise ValueError(
            f"cannot lower fused trace event kind {event.kind!r}"
        )

    def _fused_elementwise_spec(self, event: TraceEvent, name: str,
                                ) -> KernelSpec:
        """One launch for a fused element-wise chain.

        The grid covers the widest constituent; narrower links contribute
        fractional per-element work.  Intermediates consumed inside the
        chain stay in registers, so their writes and the matching
        re-reads drop out of the traffic totals.
        """
        max_rows = max(c.shape.get("rows", 1) for c in event.fused)
        internal = {c.eid for c in event.fused}
        read_inside: set = set()
        for c in event.fused:
            read_inside.update(d for d in c.deps if d in internal)
        ops = reads = writes = 0.0
        for c in event.fused:
            frac = c.shape.get("rows", 1) / max_rows
            o, r, w = _EW_COSTS[c.kind](c.shape)
            ops += o * frac
            reads += r * frac
            if c.eid in read_inside:
                reads -= w * frac  # written and re-read in registers
            else:
                writes += w * frac
        return K.elementwise_kernel(
            name, self.n * max_rows * self.batch,
            ops_per_element=ops, read_words=max(reads, 0.0),
            write_words=writes, geometry=self.geometry,
            stage="FusedElementwise", fused=len(event.fused),
        )

    def _fused_launch_spec(self, event: TraceEvent, name: str,
                           ) -> KernelSpec:
        """Concatenate independent constituents into one launch grid."""
        specs: List[KernelSpec] = []
        for c in event.fused:
            split = self._split_count(c.kind, c.shape)
            sub = f"{name}+{c.kind}{c.eid}"
            specs.extend(self._split_specs(c.kind, c.shape, sub, split))
        merged = specs[0]
        for s in specs[1:]:
            merged = _concat_specs(merged, s)
        return merged.renamed(name, fused=len(event.fused)).validate()

    def _folded_ntt_chain(self, event: TraceEvent, name: str,
                          ) -> List[KernelSpec]:
        """NTT/INTT chain with twist work folded into its end stages."""
        pre_n = event.shape.get("fold_pre", 0)
        host = event.fused[pre_n]
        chain = list(self._ntt_chain(
            name, host.shape["rows"], inverse=(event.kind == "intt")
        ))
        chain[0] = _fold_twist(chain[0], event.fused[:pre_n],
                               n=self.n, b=self.batch, side="pre")
        chain[-1] = _fold_twist(chain[-1], event.fused[pre_n + 1:],
                                n=self.n, b=self.batch, side="post")
        return chain


#: (ops_per_element, read_words, write_words) of each element-wise kind,
#: matching the builders ``_split_specs`` uses for the unfused events.
_EW_COSTS = {
    "modadd": lambda s: (costs.MODADD_OPS, 2.0, 1.0),
    "modmul": lambda s: (costs.BARRETT_MULMOD_OPS, 2.0, 1.0),
    "tensor_product": lambda s: (4 * 7 + 2 * 2, 4.0, 3.0),
    "divide": lambda s: (s.get("drop", 1) * (7 + 2),
                         1.0 + s.get("drop", 1), 1.0),
}


def _merge_stages(a: KernelSpec, b: KernelSpec) -> KernelSpec:
    """Fold a dual-kernel NTT's stages into one PE launch descriptor.

    The PE design keeps the launch count fixed regardless of N; for
    N = 2^16 the two NTT stages execute as one kernel with a grid-wide
    sync, so their work and traffic add.
    """
    return replace(
        a,
        int32_ops=a.int32_ops + b.int32_ops,
        tensor_macs=a.tensor_macs + b.tensor_macs,
        gmem_read_bytes=a.gmem_read_bytes + b.gmem_read_bytes,
        gmem_write_bytes=a.gmem_write_bytes + b.gmem_write_bytes,
        smem_read_bytes=a.smem_read_bytes + b.smem_read_bytes,
        smem_write_bytes=a.smem_write_bytes + b.smem_write_bytes,
        barriers=a.barriers + b.barriers + 1,
    )


def _concat_specs(a: KernelSpec, b: KernelSpec) -> KernelSpec:
    """Fuse two independent launches into one grid (horizontal merge).

    Work, traffic and blocks add (the merged grid carries both);
    per-block resources take the max, throughput derates take the min.
    """
    hints = dict(b.stall_hints)
    for k, v in a.stall_hints.items():
        hints[k] = max(hints.get(k, 0.0), v)
    return replace(
        a,
        blocks=a.blocks + b.blocks,
        warps_per_block=max(a.warps_per_block, b.warps_per_block),
        int32_ops=a.int32_ops + b.int32_ops,
        tensor_macs=a.tensor_macs + b.tensor_macs,
        gmem_read_bytes=a.gmem_read_bytes + b.gmem_read_bytes,
        gmem_write_bytes=a.gmem_write_bytes + b.gmem_write_bytes,
        smem_read_bytes=a.smem_read_bytes + b.smem_read_bytes,
        smem_write_bytes=a.smem_write_bytes + b.smem_write_bytes,
        smem_per_block_bytes=max(a.smem_per_block_bytes,
                                 b.smem_per_block_bytes),
        regs_per_thread=max(a.regs_per_thread, b.regs_per_thread),
        barriers=max(a.barriers, b.barriers),
        gmem_round_trips=max(a.gmem_round_trips, b.gmem_round_trips),
        coalescing=min(a.coalescing, b.coalescing),
        efficiency=min(a.efficiency, b.efficiency),
        stall_hints=hints,
    )


def _fold_twist(spec: KernelSpec, members: Sequence[TraceEvent], *,
                n: int, b: int, side: str) -> KernelSpec:
    """Fold element-wise twist work into one end of an NTT chain.

    A pre-twist's output (``w`` words/element) fed the host's input, so
    folding elides that round trip and only the member's *extra* operand
    reads remain; a post-twist re-read the host's one output word and
    writes ``w`` of its own.
    """
    if not members:
        return spec
    ops = rd = wr = 0.0
    for c in members:
        elements = n * c.shape.get("rows", 1) * b
        o, r, w = _EW_COSTS[c.kind](c.shape)
        ops += o * elements
        if side == "pre":
            rd += (r - w) * elements
        else:
            rd += (r - 1.0) * elements
            wr += (w - 1.0) * elements
    word = K.WORD_BYTES
    return replace(
        spec,
        int32_ops=spec.int32_ops + ops,
        gmem_read_bytes=max(spec.gmem_read_bytes + rd * word, 0.0),
        gmem_write_bytes=max(spec.gmem_write_bytes + wr * word, 0.0),
        tags={**spec.tags, f"fold_{side}": len(members)},
    ).validate()


def _leaf(op: str) -> str:
    return op.rsplit("/", 1)[-1] if op else "trace"


def _group_label(op: str) -> str:
    return op.split("/", 1)[0] if op else ""


def proxy_params_for(params: Any, log2n: int = 10) -> Any:
    """``params`` with the ring shrunk to ``2**log2n`` (chain unchanged).

    The chain-structure fields that determine trace shapes are preserved,
    so :func:`lower_trace` accepts the recording for the original
    ``params``. Returns ``params`` itself when already small.
    """
    n = 2 ** log2n
    if params.n <= n:
        return params
    return replace(
        params, n=n, name=f"{params.name or 'params'}-proxy{log2n}"
    )


def chain_key(params: Any) -> tuple:
    """The parameter fields a recording's shapes and scales depend on."""
    return (params.max_level, params.num_special, params.dnum,
            params.rescale_primes, params.scale_bits)


def lower_trace(trace: OpTrace, *, params: Any = None, style: str = "pe",
                device: GpuSpec = A100_PCIE_80G,
                ntt_variant: str = "wd-fuse",
                geometry: GeometryConfig = DEFAULT_GEOMETRY,
                batch: int = 1) -> KernelDag:
    """Translate a recording into a :class:`KernelDag`.

    ``params`` retargets the ring degree: it must share the recorded
    parameter set's modulus-chain structure (``max_level``,
    ``num_special``, ``dnum``) because every prime/digit/row count in the
    trace is taken at face value; only ``n`` is substituted.  ``batch``
    scales every launch to a batch of ciphertexts, exactly as the static
    plan builders do.
    """
    if style not in STYLES:
        raise ValueError(f"unknown lowering style {style!r}; one of {STYLES}")
    n = trace.n
    if params is not None:
        rec = trace.params
        if rec is not None:
            for field_name in ("max_level", "num_special", "dnum",
                               "rescale_primes"):
                a = getattr(rec, field_name, None)
                b = getattr(params, field_name, None)
                if a is not None and b is not None and a != b:
                    raise ValueError(
                        f"cannot retarget trace: {field_name} differs "
                        f"(recorded {a}, target {b}) — the trace's chain "
                        "structure must match the target parameter set"
                    )
        n = params.n
    if not n:
        raise ValueError("trace has no ring degree and no params given")

    lowerer = _Lowerer(n=n, style=style, device=device,
                       ntt_variant=ntt_variant, geometry=geometry,
                       batch=batch)
    groups = _toposort(_group_events(trace.events, merge=(style == "pe")))

    nodes: List[DagNode] = []
    #: eid -> node indices downstream readers must wait on.
    exports: Dict[int, Tuple[int, ...]] = {}
    for g in groups:
        dep_nodes = sorted({
            ni for d in g.external_deps() for ni in exports.get(d, ())
        })
        parts, _ = lowerer.atoms(g)
        tails: List[int] = []
        for chain in parts:
            prev: Optional[int] = None
            for spec in chain:
                deps = (prev,) if prev is not None else tuple(dep_nodes)
                nodes.append(DagNode(
                    spec=spec, deps=tuple(deps), eids=g.all_eids, op=g.op,
                    group=_group_label(g.op),
                ))
                prev = len(nodes) - 1
            if prev is not None:
                tails.append(prev)
        out = tuple(tails)
        for eid in g.all_eids:
            exports[eid] = out
    return KernelDag(nodes=tuple(nodes), n=n, style=style,
                     label=trace.label, device=device)
