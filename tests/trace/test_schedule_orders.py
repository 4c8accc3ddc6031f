"""Heap schedule orders and event loops against their min-scan references.

Random DAGs mix grids smaller and larger than the SM array (so partial
fits run beside full-device serialization), repeat a few latencies and
output sizes (so keys tie) and occasionally list a dependency twice.
On each one the heap orders of :func:`candidate_order` and the pool
reorder must equal the quadratic references in
:mod:`tests.oracles.schedule`, and ``run_dag``, dagcheck's
``predicted_schedule`` and the full-scan reference loop must give the
same windows, and ``run_dag``'s display lanes must equal the lanes the
event loop assigned in-loop before it returned only start times.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dagcheck.memory import predicted_schedule
from repro.gpusim import A100_PCIE_80G, KernelSpec, profile_kernel
from repro.trace.ir import TraceEvent
from repro.trace.lowering import DagNode, KernelDag
from repro.trace.opt.reorder import (
    _greedy_topo_order,
    candidate_order,
    permute_dag,
    schedule_search,
)
from tests.oracles import (
    dag_lanes_in_loop,
    dag_windows_full_scan,
    greedy_topo_order_min_scan,
    schedule_orders_min_scan,
)

DEV = A100_PCIE_80G
SM = DEV.sm_count
#: Grids from one block to several full waves; most leave SMs free.
BLOCKS = (1, 3, SM // 4, SM // 2, SM - 1, SM, 2 * SM, 40 * SM)
OPS = (0.0, 1e6, 4e7)
BYTES = (0.0, 4096.0, 8192.0, 12288.0, 1 << 20)
#: Nodes every odd dependency pick lands on, so some outputs have many
#: consumers and a ready node's memory key falls while it waits.
HUBS = 3


_NODE = st.tuples(st.sampled_from(BLOCKS), st.sampled_from(OPS),
                  st.sampled_from(BYTES), st.sampled_from(BYTES),
                  st.lists(st.integers(0, 1 << 16), max_size=3))


@st.composite
def kernel_dags(draw, max_nodes=40):
    nodes = []
    for i, (blocks, ops, read, write, picks) in enumerate(
            draw(st.lists(_NODE, min_size=1, max_size=max_nodes))):
        spec = KernelSpec(name=f"k{i}", blocks=blocks, warps_per_block=8,
                          int32_ops=ops, gmem_read_bytes=read,
                          gmem_write_bytes=write)
        deps = tuple(sorted(p // 2 % (i if p % 2 == 0 else min(i, HUBS))
                            for p in picks)) if i else ()
        nodes.append(DagNode(spec=spec, deps=deps, eids=(i,), op="rand",
                             group="rand"))
    return KernelDag(nodes=tuple(nodes), n=1 << 16, style="pe",
                     label="rand", device=DEV)


def _times(dag):
    return [profile_kernel(nd.spec, DEV).elapsed_us for nd in dag.nodes]


@settings(max_examples=150, deadline=None)
@given(kernel_dags())
def test_heap_orders_equal_min_scan(dag):
    times = _times(dag)
    deps = [nd.deps for nd in dag.nodes]
    out_bytes = [nd.spec.gmem_write_bytes for nd in dag.nodes]
    want = schedule_orders_min_scan(dag.nodes, times)
    for strategy, order in want.items():
        assert candidate_order(strategy, deps, times, out_bytes) == order, \
            strategy


@settings(max_examples=60, deadline=None)
@given(kernel_dags())
def test_search_scores_equal_run_dag_of_each_order(dag):
    best, scores = schedule_search(dag, DEV)
    orders = {"recorded": list(range(dag.kernel_count)),
              **schedule_orders_min_scan(dag.nodes, _times(dag))}
    runs = {s: permute_dag(dag, orders[s]).run(DEV).elapsed_us
            for s in ("recorded", "critical", "memory", "sjf")}
    assert scores == runs
    winner = min(runs, key=lambda s: (runs[s], list(runs).index(s)))
    assert best == permute_dag(dag, orders[winner])


@settings(max_examples=150, deadline=None)
@given(kernel_dags())
def test_run_dag_windows_equal_predicted_and_full_scan(dag):
    result = dag.run(DEV)
    got = {e.index: (e.start_us, e.end_us) for e in result.entries}
    assert sorted(got) == list(range(dag.kernel_count))
    windows = [got[i] for i in range(dag.kernel_count)]
    assert windows == predicted_schedule(dag, DEV)
    profiles = [profile_kernel(nd.spec, DEV) for nd in dag.nodes]
    loop_args = ([p.elapsed_us for p in profiles],
                 [p.occupancy.sm_used for p in profiles],
                 [nd.deps for nd in dag.nodes], SM)
    assert windows == dag_windows_full_scan(*loop_args)
    lanes = {e.index: e.stream for e in result.entries}
    assert ([lanes[i] for i in range(dag.kernel_count)]
            == dag_lanes_in_loop(*loop_args))


_KINDS = ("ntt", "modadd", "modmul", "automorphism")
_MEMBER = st.tuples(st.sampled_from(_KINDS), st.integers(0, 4),
                    st.lists(st.integers(0, 1 << 16), max_size=3))


@st.composite
def pool_traces(draw, max_events=30):
    """Top-level events, some of them fused pairs whose constituents are
    read by later events through their own eids."""
    events, defined = [], []
    eid = 0
    for group in draw(st.lists(st.lists(_MEMBER, min_size=1, max_size=2),
                               min_size=1, max_size=max_events)):
        members = []
        for kind, size, picks in group:
            deps = sorted({defined[p // 2 % (len(defined) if p % 2 == 0
                                             else min(len(defined), HUBS))]
                           for p in picks} if defined else ())
            shape = ({"primes": size, "polys": 2} if kind == "automorphism"
                     else {"rows": size})
            members.append(TraceEvent(eid=eid, kind=kind, op="rand",
                                      span="rand", level=0, shape=shape,
                                      deps=tuple(deps)))
            eid += 1
        if len(members) == 1:
            events.append(members[0])
        else:
            events.append(TraceEvent(
                eid=eid, kind="fused_launch", op="rand", span="rand",
                level=0, shape={}, fused=tuple(members)))
            eid += 1
        defined.extend(m.eid for m in members)
    return events


@settings(max_examples=150, deadline=None)
@given(pool_traces())
def test_pool_order_equals_min_scan(events):
    assert _greedy_topo_order(events) == greedy_topo_order_min_scan(events)
