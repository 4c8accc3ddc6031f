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
import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

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
    preds: List[List[int]] = []
    consumers: List[List[int]] = [[] for _ in events]
    for pos, e in enumerate(events):
        ps = {owner[d] for d in event_reads(e) if d in owner}
        ps.discard(pos)
        preds.append(sorted(ps))
        for p in preds[-1]:
            consumers[p].append(pos)
    out_rows = [event_output_rows(e) for e in events]
    order = least_live_order(out_rows, preds, consumers)
    if len(order) != len(events):
        raise ValueError("trace contains a dependency cycle")
    return order


def least_live_order(weight: Sequence[float],
                     deps: Sequence[Sequence[int]],
                     children: Sequence[Sequence[int]]) -> List[int]:
    """Greedy topological order that keeps the fewest bytes live.

    Among ready nodes it launches the one of least key
    ``(weight[i] - freed, i)``, where ``freed`` sums the weights of the
    deps ``i`` is the last unscheduled consumer of. ``children[p]`` lists
    each consumer of ``p`` once per reference in its ``deps``. Returns a
    short order if the graph has a cycle.

    A ready node's key only falls, and only when one of its deps drops
    to a single remaining consumer (weights are non-negative). So a
    lazy-invalidation heap reproduces the min-scan order in
    O((V + E) log V): the new key is pushed when it falls, and entries
    of already scheduled nodes are dropped on pop.
    """
    n = len(deps)
    remaining = [len(cs) for cs in children]
    indegree = [len(ds) for ds in deps]
    done = [False] * n

    def key(i: int) -> Tuple[float, int]:
        freed = sum(weight[p] for p in deps[i] if remaining[p] == 1)
        return (weight[i] - freed, i)

    heap = [key(i) for i in range(n) if indegree[i] == 0]
    heapq.heapify(heap)
    order: List[int] = []
    while heap:
        _, best = heapq.heappop(heap)
        if done[best]:
            continue
        done[best] = True
        order.append(best)
        for p in deps[best]:
            remaining[p] -= 1
        for p in set(deps[best]):
            if remaining[p] == 1:
                last = next(c for c in children[p] if not done[c])
                if indegree[last] == 0:
                    heapq.heappush(heap, key(last))
        for c in children[best]:
            indegree[c] -= 1
            if indegree[c] == 0:
                heapq.heappush(heap, key(c))
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
    index order, so the permutation *is* the schedule.  Each node is
    priced once; every candidate runs the ``run_dag`` event loop over
    those profiles and is scored by its makespan (the latest finish
    time), and only the winner is built as a
    :class:`~repro.trace.lowering.KernelDag`.  Returns it and the
    per-strategy latencies.
    """
    from ...gpusim import A100_PCIE_80G, profile_kernel, run_profiled_dag

    dev = device if device is not None else (dag.device or A100_PCIE_80G)
    nodes = dag.nodes
    profiles = [profile_kernel(nd.spec, dev) for nd in nodes]
    times = [prof.elapsed_us for prof in profiles]
    out_bytes = [nd.spec.gmem_write_bytes for nd in nodes]
    deps = [nd.deps for nd in nodes]

    scores: Dict[str, float] = {}
    best = None
    for strategy in strategies:
        order = candidate_order(strategy, deps, times, out_bytes)
        new_deps = _reindexed_deps(deps, order)
        _, starts = run_profiled_dag([profiles[i] for i in order],
                                     new_deps, dev)
        elapsed = max((start + times[i] for start, i in zip(starts, order)),
                      default=0.0)
        scores[strategy] = elapsed
        if best is None or elapsed < best[0]:
            best = (elapsed, order, new_deps)
    if best is None:
        return dag, scores
    _, order, new_deps = best
    return _permuted(dag, order, new_deps), scores


def candidate_order(strategy: str, deps: Sequence[Sequence[int]],
                    times: Sequence[float],
                    out_bytes: Sequence[float]) -> List[int]:
    """One :func:`schedule_search` candidate: a topological order of the
    nodes ``deps`` describes (each dep an earlier node), from per-node
    latencies and output bytes.

    ``critical`` launches the ready node with the longest latency path to
    a sink first, ``sjf`` the shortest kernel, ``memory`` the node adding
    the fewest live bytes (:func:`least_live_order`); ties go to the lower
    index. Every order comes from a heap in O((V + E) log V).
    """
    n = len(deps)
    if strategy == "recorded":
        return list(range(n))
    children: List[List[int]] = [[] for _ in range(n)]
    for i, ds in enumerate(deps):
        for d in ds:
            children[d].append(i)
    if strategy == "memory":
        order = least_live_order(out_bytes, deps, children)
    elif strategy == "critical":
        cp = [0.0] * n
        for i in range(n - 1, -1, -1):
            cp[i] = times[i] + max((cp[c] for c in children[i]),
                                   default=0.0)
        order = _heap_kahn([(-c, i) for i, c in enumerate(cp)], deps,
                           children)
    elif strategy == "sjf":
        order = _heap_kahn([(t, i) for i, t in enumerate(times)], deps,
                           children)
    else:
        raise ValueError(f"unknown schedule strategy {strategy!r}")
    if len(order) != n:
        raise ValueError("kernel DAG contains a cycle")
    return order


def _heap_kahn(keys: Sequence[Tuple[float, int]],
               deps: Sequence[Sequence[int]],
               children: Sequence[Sequence[int]]) -> List[int]:
    """Kahn's algorithm launching the ready node of least static key
    (``keys[i]`` ends in ``i``)."""
    indegree = [len(ds) for ds in deps]
    heap = [keys[i] for i, deg in enumerate(indegree) if deg == 0]
    heapq.heapify(heap)
    order: List[int] = []
    while heap:
        best = heapq.heappop(heap)[-1]
        order.append(best)
        for c in children[best]:
            indegree[c] -= 1
            if indegree[c] == 0:
                heapq.heappush(heap, keys[c])
    return order


def _reindexed_deps(deps: Sequence[Sequence[int]], order: Sequence[int],
                    ) -> List[Tuple[int, ...]]:
    """Each node's deps, in ``order``, re-indexed to ``order``.

    Raises if ``order`` is not a permutation or breaks a dependency
    (a dep must land before its dependent) — the machine-checkable
    legality contract of the schedule search.
    """
    if sorted(order) != list(range(len(deps))):
        raise ValueError("order is not a permutation of the node set")
    new_index = [0] * len(deps)
    for new, old in enumerate(order):
        new_index[old] = new
    out = []
    for new, old in enumerate(order):
        ds = tuple(sorted(new_index[d] for d in deps[old]))
        if ds and ds[-1] >= new:
            raise ValueError("order violates a dependency edge")
        out.append(ds)
    return out


def permute_dag(dag, order: Sequence[int]):
    """Re-index a :class:`KernelDag` to a new topological order (legality
    checked as in :func:`_reindexed_deps`)."""
    order = list(order)
    deps = _reindexed_deps([nd.deps for nd in dag.nodes], order)
    return _permuted(dag, order, deps)


def _permuted(dag, order: Sequence[int], deps: Sequence[Tuple[int, ...]]):
    from ..lowering import DagNode

    nodes = dag.nodes
    return dataclasses.replace(dag, nodes=tuple(
        DagNode(spec=nd.spec, deps=ds, eids=nd.eids, op=nd.op,
                group=nd.group)
        for nd, ds in zip((nodes[old] for old in order), deps)))
