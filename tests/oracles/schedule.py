"""Min-scan schedule orders, kept as references for the heap orders.

Each function rescans every ready node at every step, which is
quadratic in the DAG, and must return exactly the order of its heap
counterpart in :mod:`repro.trace.opt.reorder`:

* :func:`kahn_min_scan` — Kahn's algorithm taking ``min(ready)`` under a
  key recomputed at every step (:func:`~repro.trace.opt.reorder.candidate_order`);
* :func:`schedule_orders_min_scan` — the ``critical``, ``sjf`` and
  ``memory`` candidate orders of
  :func:`~repro.trace.opt.reorder.schedule_search` built on it;
* :func:`greedy_topo_order_min_scan` — the pool-reorder pass's greedy
  order, which also rescans every event for the consumers of the node
  it just placed (:func:`~repro.trace.opt.reorder._greedy_topo_order`);
* :func:`dag_windows_full_scan` — the ``run_dag`` event loop that pops
  and re-pushes every blocked ready node at every event
  (:func:`~repro.gpusim.streams.run_profiled_dag`);
* :func:`dag_lanes_in_loop` — the ``run_dag`` display lanes assigned
  inside the event loop, at each launch, as the loop did before it
  returned only start times (:func:`~repro.gpusim.streams.run_dag` now
  assigns them afterwards, in launch order).
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Sequence, Set, Tuple

from repro.trace.ir import TraceEvent
from repro.trace.opt.graphs import event_reads, owner_positions
from repro.trace.opt.reorder import event_output_rows


def kahn_min_scan(nodes, key: Callable[[int, Dict], tuple], *,
                  track_memory: bool = False) -> List[int]:
    """Topological order of ``nodes`` (each with ``.deps``) that launches
    the ready node of least ``key(i, state)`` next."""
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


def schedule_orders_min_scan(nodes, times: Sequence[float],
                             ) -> Dict[str, List[int]]:
    """The ``critical``, ``sjf`` and ``memory`` orders of ``nodes``
    (each with ``.deps`` and ``.spec.gmem_write_bytes``)."""
    children: List[List[int]] = [[] for _ in nodes]
    for i, nd in enumerate(nodes):
        for d in nd.deps:
            children[d].append(i)
    cp = [0.0] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        cp[i] = times[i] + max((cp[c] for c in children[i]), default=0.0)

    def memory_key(i: int, state: Dict) -> tuple:
        freed = sum(
            nodes[p].spec.gmem_write_bytes
            for p in nodes[i].deps
            if state["remaining"].get(p, 0) == 1
        )
        return (nodes[i].spec.gmem_write_bytes - freed, i)

    return {
        "critical": kahn_min_scan(nodes, lambda i, state: (-cp[i], i)),
        "sjf": kahn_min_scan(nodes, lambda i, state: (times[i], i)),
        "memory": kahn_min_scan(nodes, memory_key, track_memory=True),
    }


def greedy_topo_order_min_scan(events: Sequence[TraceEvent]) -> List[int]:
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


def dag_windows_full_scan(latency: Sequence[float], sms: Sequence[int],
                          deps: Sequence[Sequence[int]], sm_count: int,
                          ) -> List[Tuple[float, float]]:
    """``(start, end)`` per node: ready nodes launch in index order when
    their grid fits the free SMs; every event scans the whole ready
    heap."""
    n = len(deps)
    children: List[List[int]] = [[] for _ in range(n)]
    for i, ds in enumerate(deps):
        for d in ds:
            children[d].append(i)
    indegree = [len(ds) for ds in deps]
    windows: List[Tuple[float, float]] = [(0.0, 0.0)] * n
    ready = [i for i in range(n) if indegree[i] == 0]
    heapq.heapify(ready)
    running: List[Tuple[float, int]] = []
    busy = 0
    now = 0.0
    while ready or running:
        deferred = []
        while ready:
            i = heapq.heappop(ready)
            if sm_count - busy < sms[i]:
                deferred.append(i)
                continue
            windows[i] = (now, now + latency[i])
            heapq.heappush(running, (now + latency[i], i))
            busy += sms[i]
        for i in deferred:
            heapq.heappush(ready, i)
        if not running:
            break
        now = running[0][0]
        while running and running[0][0] <= now:
            _, i = heapq.heappop(running)
            busy -= sms[i]
            for c in children[i]:
                indegree[c] -= 1
                if indegree[c] == 0:
                    heapq.heappush(ready, c)
    return windows


def dag_lanes_in_loop(latency: Sequence[float], sms: Sequence[int],
                      deps: Sequence[Sequence[int]], sm_count: int,
                      ) -> List[int]:
    """Display lane per node: the event loop frees every lane whose
    kernel ended by the current event, then each launch takes the lowest
    free lane (or opens a new one)."""
    n = len(deps)
    children: List[List[int]] = [[] for _ in range(n)]
    for i, ds in enumerate(deps):
        for d in ds:
            children[d].append(i)
    indegree = [len(ds) for ds in deps]
    lanes = [0] * n
    ready = [i for i in range(n) if indegree[i] == 0]
    heapq.heapify(ready)
    running: List[Tuple[float, int]] = []
    free_lanes: List[int] = []
    busy_lanes: List[Tuple[float, int]] = []
    num_lanes = 0
    busy = 0
    now = 0.0
    while ready or running:
        while busy_lanes and busy_lanes[0][0] <= now:
            _, lane = heapq.heappop(busy_lanes)
            heapq.heappush(free_lanes, lane)
        deferred = []
        while ready and busy < sm_count:
            i = heapq.heappop(ready)
            if sm_count - busy < sms[i]:
                deferred.append(i)
                continue
            end = now + latency[i]
            if free_lanes:
                lane = heapq.heappop(free_lanes)
            else:
                lane = num_lanes
                num_lanes += 1
            heapq.heappush(busy_lanes, (end, lane))
            heapq.heappush(running, (end, i))
            busy += sms[i]
            lanes[i] = lane
        for i in deferred:
            heapq.heappush(ready, i)
        if not running:
            break
        now = running[0][0]
        while running and running[0][0] <= now:
            _, i = heapq.heappop(running)
            busy -= sms[i]
            for c in children[i]:
                indegree[c] -= 1
                if indegree[c] == 0:
                    heapq.heappush(ready, c)
    return lanes
