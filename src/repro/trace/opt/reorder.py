"""Memory-aware reordering and latency-scored schedule search.

Two layers, both pure permutations (no event or kernel is created,
merged or dropped — replay parity is free by construction):

* :class:`PoolReorderPass` works on the *trace*: a greedy topological
  re-ordering that launches the node freeing the most pool bytes next,
  shrinking the peak :class:`~repro.core.memory_pool.MemoryPool`
  footprint of a double-buffered executor (a buffer is live from its
  producer to its last consumer; the recorded program order routinely
  keeps whole hoisted pane stacks alive across unrelated work).
* :func:`schedule_search` works on the *lowered* :class:`KernelDag`:
  ``run_dag`` launches ready kernels in index order, so the node order
  is the schedule.  The search prices a small set of deterministic
  candidate orders (recorded, critical-path-first, memory-greedy,
  shortest-job-first) and keeps the fastest.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..ir import OpTrace, TraceEvent
from .graphs import event_reads, owner_positions
from .pipeline import PassStats, TracePass

#: Ring-degree-free output size (residue rows written) per event kind.
_OUT_ROWS = {
    "ntt": lambda s: s.get("rows", 0),
    "intt": lambda s: s.get("rows", 0),
    "modup": lambda s: s.get("target_primes", 0) * s.get("polys", 1),
    "moddown": lambda s: s.get("main_primes", 0) * s.get("polys", 1),
    "inner_product": lambda s: s.get("primes", 0)
    * s.get("accumulators", 2) * max(s.get("steps", 1), 1),
    "automorphism": lambda s: s.get("primes", 0) * s.get("polys", 1),
    "modadd": lambda s: s.get("rows", 0),
    "modmul": lambda s: s.get("rows", 0),
    "tensor_product": lambda s: 3 * s.get("rows", 0),
    "divide": lambda s: s.get("rows", 0),
}


def event_output_rows(event: TraceEvent) -> int:
    """Residue rows the event leaves behind for consumers.

    Fused events expose the rows of their internally-unconsumed
    constituents (intermediates elided by fusion hold no pool space).
    """
    if event.fused:
        internal = {c.eid for c in event.fused}
        read_inside: Set[int] = set()
        for c in event.fused:
            read_inside.update(d for d in c.deps if d in internal)
        return sum(event_output_rows(c) for c in event.fused
                   if c.eid not in read_inside)
    fn = _OUT_ROWS.get(event.kind)
    return int(fn(event.shape)) if fn else 0


def trace_pool_peak_rows(trace: OpTrace,
                         order: Optional[Sequence[int]] = None) -> int:
    """Peak live residue rows under producer-to-last-consumer lifetimes.

    ``order`` is a permutation of top-level positions (default: program
    order).  Multiply by ``n * word_bytes`` for bytes at a target ring.
    """
    events = trace.events
    order = list(range(len(events))) if order is None else list(order)
    owner = owner_positions(events)
    remaining: Dict[int, int] = {}
    for e in events:
        for d in event_reads(e):
            p = owner.get(d)
            if p is not None:
                remaining[p] = remaining.get(p, 0) + 1
    live: Dict[int, int] = {}
    peak = 0
    total = 0
    for pos in order:
        e = events[pos]
        rows = event_output_rows(e)
        live[pos] = rows
        total += rows
        peak = max(peak, total)
        for d in event_reads(e):
            p = owner.get(d)
            if p is None:
                continue
            remaining[p] -= 1
            if remaining[p] == 0:
                total -= live.get(p, 0)
    return peak


def _greedy_topo_order(events: Sequence[TraceEvent]) -> List[int]:
    """Topological order that greedily minimizes live pool rows."""
    owner = owner_positions(events)
    preds: List[Set[int]] = []
    consumers: Dict[int, List[int]] = {}
    for pos, e in enumerate(events):
        ps = {owner[d] for d in event_reads(e) if d in owner}
        ps.discard(pos)
        preds.append(ps)
        for p in ps:
            consumers.setdefault(p, []).append(pos)
    remaining = {p: len(cs) for p, cs in consumers.items()}
    out_rows = [event_output_rows(e) for e in events]
    indegree = [len(ps) for ps in preds]
    ready = sorted(p for p, deg in enumerate(indegree) if deg == 0)
    order: List[int] = []
    done: Set[int] = set()
    while ready:
        best = None
        best_key = None
        for pos in ready:
            freed = sum(
                out_rows[p] for p in preds[pos] if remaining.get(p, 0) == 1
                and all(c == pos or c in done
                        for c in consumers.get(p, ()))
            )
            key = (out_rows[pos] - freed, pos)
            if best_key is None or key < best_key:
                best_key = key
                best = pos
        ready.remove(best)
        order.append(best)
        done.add(best)
        for p in preds[best]:
            remaining[p] = remaining.get(p, 1) - 1
        for pos, ps in enumerate(preds):
            if best in ps:
                indegree[pos] -= 1
                if indegree[pos] == 0:
                    ready.append(pos)
        ready.sort()
    if len(order) != len(events):
        raise ValueError("trace contains a dependency cycle")
    return order


class PoolReorderPass(TracePass):
    """Reorder independent events to shrink the peak pool footprint."""

    name = "pool-reorder"

    def run(self, trace: OpTrace) -> Tuple[OpTrace, PassStats]:
        events = trace.events
        before_peak = trace_pool_peak_rows(trace)
        order = _greedy_topo_order(events)
        after_peak = trace_pool_peak_rows(trace, order)
        if after_peak >= before_peak and order != list(range(len(events))):
            # Greedy did not help; keep the recorded order.
            order = list(range(len(events)))
            after_peak = before_peak
        out = dataclasses.replace(
            trace, events=tuple(events[pos] for pos in order)
        )
        return out, PassStats(
            self.name, len(events), len(out.events),
            notes={"pool_peak_rows_before": float(before_peak),
                   "pool_peak_rows_after": float(after_peak)},
        )


# -- schedule search over lowered DAGs --------------------------------------


def schedule_search(dag, device=None, *,
                    strategies: Sequence[str] = ("recorded", "critical",
                                                 "memory", "sjf"),
                    ) -> Tuple[object, Dict[str, float]]:
    """Pick the fastest legal topological order of a lowered DAG.

    Every candidate is a permutation of the same :class:`DagNode` set
    with dependencies re-indexed — ``run_dag`` launches ready nodes in
    index order, so the permutation *is* the schedule.  Candidates are
    priced as re-indexed kernel lists; only the winner is built as a
    :class:`~repro.trace.lowering.KernelDag`.  Returns it and the
    per-strategy latencies.
    """
    from ...gpusim import A100_PCIE_80G, DagKernel, profile_kernel, run_dag

    dev = device if device is not None else (dag.device or A100_PCIE_80G)
    nodes = dag.nodes
    times = [profile_kernel(nd.spec, dev).elapsed_us for nd in nodes]

    children: List[List[int]] = [[] for _ in nodes]
    for i, nd in enumerate(nodes):
        for d in nd.deps:
            children[d].append(i)

    def order_for(strategy: str) -> List[int]:
        if strategy == "recorded":
            return list(range(len(nodes)))
        if strategy == "critical":
            cp = [0.0] * len(nodes)
            for i in range(len(nodes) - 1, -1, -1):
                cp[i] = times[i] + max(
                    (cp[c] for c in children[i]), default=0.0
                )
            return _kahn(nodes, lambda i, state: (-cp[i], i))
        if strategy == "sjf":
            return _kahn(nodes, lambda i, state: (times[i], i))
        if strategy == "memory":
            def key(i: int, state: Dict) -> tuple:
                freed = sum(
                    nodes[p].spec.gmem_write_bytes
                    for p in nodes[i].deps
                    if state["remaining"].get(p, 0) == 1
                )
                return (nodes[i].spec.gmem_write_bytes - freed, i)
            return _kahn(nodes, key, track_memory=True)
        raise ValueError(f"unknown schedule strategy {strategy!r}")

    scores: Dict[str, float] = {}
    best_order: List[int] = []
    best_us = None
    for strategy in strategies:
        order = order_for(strategy)
        kernels = [DagKernel(spec=nodes[old].spec, deps=deps)
                   for old, deps in zip(order, _reindexed_deps(nodes, order))]
        elapsed = run_dag(kernels, dev).elapsed_us
        scores[strategy] = elapsed
        if best_us is None or elapsed < best_us:
            best_us = elapsed
            best_order = order
    if best_us is None:
        return dag, scores
    return permute_dag(dag, best_order), scores


def _kahn(nodes, key: Callable[[int, Dict], tuple], *,
          track_memory: bool = False) -> List[int]:
    indegree = [len(nd.deps) for nd in nodes]
    children: List[List[int]] = [[] for _ in nodes]
    consumers: Dict[int, int] = {}
    for i, nd in enumerate(nodes):
        for d in nd.deps:
            children[d].append(i)
            consumers[d] = consumers.get(d, 0) + 1
    state = {"remaining": dict(consumers)}
    ready = [i for i, deg in enumerate(indegree) if deg == 0]
    order: List[int] = []
    while ready:
        best = min(ready, key=lambda i: key(i, state))
        ready.remove(best)
        order.append(best)
        if track_memory:
            for d in nodes[best].deps:
                state["remaining"][d] -= 1
        for c in children[best]:
            indegree[c] -= 1
            if indegree[c] == 0:
                ready.append(c)
    if len(order) != len(nodes):
        raise ValueError("kernel DAG contains a cycle")
    return order


def _reindexed_deps(nodes, order: Sequence[int]) -> List[Tuple[int, ...]]:
    """Each node's deps, in ``order``, re-indexed to ``order``.

    Raises if ``order`` is not a permutation or breaks a dependency
    (a dep must land before its dependent) — the machine-checkable
    legality contract of the schedule search.
    """
    if sorted(order) != list(range(len(nodes))):
        raise ValueError("order is not a permutation of the node set")
    new_index = {old: new for new, old in enumerate(order)}
    out = []
    for old in order:
        deps = tuple(sorted(new_index[d] for d in nodes[old].deps))
        if deps and deps[-1] >= new_index[old]:
            raise ValueError("order violates a dependency edge")
        out.append(deps)
    return out


def permute_dag(dag, order: Sequence[int]):
    """Re-index a :class:`KernelDag` to a new topological order (legality
    checked as in :func:`_reindexed_deps`)."""
    nodes = dag.nodes
    new_nodes = tuple(
        dataclasses.replace(nodes[old], deps=deps)
        for old, deps in zip(order, _reindexed_deps(nodes, order)))
    return dataclasses.replace(dag, nodes=new_nodes)
