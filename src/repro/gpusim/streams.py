"""Scheduling of kernel launch graphs on the SM array.

Models what the paper observes about CUDA streams (§III-A, §IV-C-2): a
kernel launches once the kernels it depends on have finished and its grid
fits in the free SMs. Launches with no dependency between them overlap
only when together they fit in the SM array — the large grids of FHE
kernels occupy every SM, so multi-stream launches degenerate to serial
execution ("stages 2 and 4, which utilize multiple streams, are executed
serially on the GPU due to the large number of SMs used").

Every plan is priced by one event loop, :func:`run_profiled_dag`: a
serial plan is a chain DAG (:func:`run_serial`), a multi-stream plan a
DAG whose edges are its stream order and data dependencies.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .device import GpuSpec
from .engine import (_PROFILE_MEMO, _PROFILE_STATS, KernelProfile,
                     profile_kernel)
from .kernel import KernelSpec
from .stalls import StallBreakdown


@dataclass
class TimelineEntry:
    """One executed kernel instance on the device timeline.

    ``spec`` is the launch's own descriptor (its name and tags), while
    ``profile`` is the price shared by every launch of the same cost
    shape. ``index`` is its node in the launch graph, ``deps`` the node
    indices it waited on and ``stream`` the display lane it was drawn on.
    """

    spec: KernelSpec
    profile: KernelProfile
    stream: int
    start_us: float
    end_us: float
    index: int
    deps: Tuple[int, ...]

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us


@dataclass
class ExecutionResult:
    """Full result of scheduling one launch graph."""

    entries: List[TimelineEntry] = field(default_factory=list)
    device: Optional[GpuSpec] = None

    @property
    def elapsed_us(self) -> float:
        return max((e.end_us for e in self.entries), default=0.0)

    @property
    def kernel_count(self) -> int:
        return len(self.entries)

    @property
    def profiles(self) -> List[KernelProfile]:
        return [e.profile for e in self.entries]

    def total_stalls(self):
        merged = None
        for e in self.entries:
            merged = (merged or StallBreakdown()).merged_with(e.profile.stalls)
        return merged

    def by_name(self) -> Dict[str, List[TimelineEntry]]:
        groups: Dict[str, List[TimelineEntry]] = {}
        for e in self.entries:
            groups.setdefault(e.name, []).append(e)
        return groups


def profile_cache_stats() -> Dict[str, int]:
    """Counters of the process-wide kernel-profile memo
    (:func:`~repro.gpusim.engine.profile_kernel`).

    ``hits``/``misses`` accumulate over every caller, ``currsize`` is
    the number of memoised ``(device, cost shape)`` profiles (launches
    that differ only in name or tags share one) and ``runs`` the number
    of :func:`run_dag` invocations.
    """
    return {**_PROFILE_STATS, "currsize": len(_PROFILE_MEMO)}


def reset_cache_stats() -> None:
    """Empty the profile memo and zero its counters, so the next
    pricing starts cold and the counts describe it alone."""
    _PROFILE_MEMO.clear()
    _PROFILE_STATS.update(dict.fromkeys(_PROFILE_STATS, 0))


class cache_stats_scope:
    """Context manager giving one block its own cache-stat window.

    Counters are zeroed on entry and *restored cumulatively* on exit
    (outer totals keep counting through the block); the memo itself stays
    warm. Read the block's own numbers with :func:`profile_cache_stats`
    before leaving, or from the ``stats`` attribute afterwards.
    """

    def __enter__(self) -> "cache_stats_scope":
        self._outer = dict(_PROFILE_STATS)
        _PROFILE_STATS.update(dict.fromkeys(_PROFILE_STATS, 0))
        self.stats: Dict[str, int] = {}
        return self

    def __exit__(self, *exc) -> bool:
        self.stats = profile_cache_stats()
        for k in _PROFILE_STATS:
            _PROFILE_STATS[k] = self._outer[k] + self.stats[k]
        return False


@dataclass(frozen=True)
class DagKernel:
    """One node of a dependency-aware launch graph.

    ``deps`` are indices into the node sequence handed to :func:`run_dag`
    and must point at earlier nodes (the sequence is a topological order,
    which is what a recorded trace naturally provides).
    """

    spec: KernelSpec
    deps: Tuple[int, ...] = ()


def run_dag(nodes: Sequence[DagKernel], device: GpuSpec) -> ExecutionResult:
    """Event-driven scheduling of a kernel DAG sharing the SM array.

    The overlap rule is §III-A's: a node is runnable once every
    dependency has finished *and* its grid fits in the free SMs —
    full-device grids therefore serialize even though the graph would
    allow them to overlap. Runnable nodes launch in index order (the
    recording's program order), so results are deterministic.

    Lanes in the returned timeline are not caller-chosen streams but a
    greedy assignment (each kernel takes the lowest lane idle at its start
    time), purely so renderers can draw overlap.

    Dependencies are validated before any node is priced; the schedule
    itself is :func:`run_profiled_dag`.
    """
    nodes = list(nodes)
    for i, node in enumerate(nodes):
        for d in node.deps:
            if not 0 <= d < i:
                raise ValueError(
                    f"node {i} depends on {d}; dependencies must reference "
                    "earlier nodes (topological order)"
                )
    profiles = [profile_kernel(node.spec, device) for node in nodes]
    _PROFILE_STATS["runs"] += 1
    order, starts = run_profiled_dag(
        profiles, [node.deps for node in nodes], device)
    result = ExecutionResult(device=device)
    # Launches come in nondecreasing start order and every latency is
    # positive, so freeing each lane that ended by a launch's start and
    # taking the lowest free one draws the lanes the loop would have.
    free_lanes: List[int] = []
    busy_lanes: List[Tuple[float, int]] = []
    for i in order:
        start = starts[i]
        end = start + profiles[i].elapsed_us
        while busy_lanes and busy_lanes[0][0] <= start:
            heapq.heappush(free_lanes, heapq.heappop(busy_lanes)[1])
        # With no free lane, every lane drawn so far is busy.
        lane = (heapq.heappop(free_lanes) if free_lanes
                else len(busy_lanes))
        heapq.heappush(busy_lanes, (end, lane))
        result.entries.append(TimelineEntry(
            spec=nodes[i].spec, profile=profiles[i], stream=lane,
            start_us=start, end_us=end, index=i, deps=tuple(nodes[i].deps),
        ))
    return result


def run_serial(kernels: Sequence[KernelSpec], device: GpuSpec,
               ) -> ExecutionResult:
    """Execute kernels back-to-back: a chain DAG where node ``i`` waits
    on node ``i - 1``."""
    return run_dag([DagKernel(k, (i - 1,) if i else ())
                    for i, k in enumerate(kernels)], device)


def run_profiled_dag(profiles: Sequence[KernelProfile],
                     deps: Sequence[Sequence[int]],
                     device: GpuSpec) -> Tuple[List[int], List[float]]:
    """The :func:`run_dag` event loop over already priced nodes.

    Returns the launch order (node indices) and each node's start time
    in microseconds; node ``i`` ends at ``starts[i] +
    profiles[i].elapsed_us``. ``deps[i]`` must reference nodes before
    ``i`` (:func:`run_dag` checks that; callers that build their own
    orders check it themselves).

    Every kernel needs at least one SM (``KernelSpec.validate`` enforces
    ``blocks >= 1``), so once the array is full no ready node can fit and
    the scan of the ready heap stops: a waiting node is popped again only
    at events that leave SMs free, and the loop costs O((V + E) log V)
    for V nodes and E edges plus those re-pops.
    """
    n = len(profiles)
    children: List[List[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    for i, ds in enumerate(deps):
        for d in ds:
            children[d].append(i)
        indegree[i] = len(ds)
    latency = [prof.elapsed_us for prof in profiles]
    sms = [prof.occupancy.sm_used for prof in profiles]
    sm_count = device.sm_count
    order: List[int] = []
    starts = [0.0] * n

    #: dep-free nodes awaiting launch, popped in index order.
    ready: List[int] = [i for i, deg in enumerate(indegree) if deg == 0]
    heapq.heapify(ready)
    #: (end_time_us, node_index) of currently running kernels.
    running: List[Tuple[float, int]] = []
    busy_sms = 0
    now = 0.0

    while ready or running:
        # Launch every ready node whose grid fits, in index order (the
        # recording's program order); the rest wait for the next event.
        deferred: List[int] = []
        while ready and busy_sms < sm_count:
            i = heapq.heappop(ready)
            if sm_count - busy_sms < sms[i]:
                deferred.append(i)
                continue
            heapq.heappush(running, (now + latency[i], i))
            busy_sms += sms[i]
            order.append(i)
            starts[i] = now
        for i in deferred:
            heapq.heappush(ready, i)
        if not ready and not running:
            break
        if not running:
            raise RuntimeError("scheduler deadlock (no runnable kernel)")
        now = running[0][0]
        while running and running[0][0] <= now:
            _, i = heapq.heappop(running)
            busy_sms -= sms[i]
            for child in children[i]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(ready, child)
    return order, starts
