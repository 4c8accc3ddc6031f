"""Tests for SM-capacity scheduling, timelines and the profiler."""

import pytest

from repro.gpusim import (
    A100_PCIE_80G,
    DagKernel,
    KernelSpec,
    StallReason,
    aggregate,
    render_timeline,
    run_dag,
    run_serial,
    simulate_kernel,
    summarize,
)

DEV = A100_PCIE_80G


def kernel(name, blocks=1024, **kw):
    return KernelSpec(name=name, blocks=blocks, warps_per_block=8,
                      int32_ops=1e7, gmem_read_bytes=1e6, **kw)


class TestSerial:
    def test_kernels_serialize(self):
        result = run_serial([kernel("a"), kernel("b"), kernel("c")], DEV)
        assert result.kernel_count == 3
        entries = sorted(result.entries, key=lambda e: e.start_us)
        for prev, nxt in zip(entries, entries[1:]):
            assert nxt.start_us >= prev.end_us - 1e-9

    def test_elapsed_is_sum(self):
        ks = [kernel("a"), kernel("b")]
        result = run_serial(ks, DEV)
        individual = sum(simulate_kernel(k, DEV).elapsed_us for k in ks)
        assert result.elapsed_us == pytest.approx(individual)

    def test_empty(self):
        assert run_serial([], DEV).elapsed_us == 0.0


class TestMultiStream:
    def test_large_grids_serialize_across_streams(self):
        """§III-A: independent full-device grids cannot overlap."""
        nodes = [DagKernel(kernel("a", blocks=2048)),
                 DagKernel(kernel("b", blocks=2048))]
        result = run_dag(nodes, DEV)
        entries = sorted(result.entries, key=lambda e: e.start_us)
        assert entries[1].start_us >= entries[0].end_us - 1e-9

    def test_small_grids_overlap(self):
        nodes = [DagKernel(kernel("a", blocks=40)),
                 DagKernel(kernel("b", blocks=40))]
        result = run_dag(nodes, DEV)
        entries = sorted(result.entries, key=lambda e: e.start_us)
        assert entries[0].start_us == entries[1].start_us

    def test_overlap_bounded_by_sm_capacity(self):
        nodes = [DagKernel(kernel(f"k{i}", blocks=60)) for i in range(3)]
        result = run_dag(nodes, DEV)
        # 3 x 60 SMs > 108: at most one other kernel can overlap.
        starts = sorted(e.start_us for e in result.entries)
        assert starts[2] > starts[0]

    def test_by_name_grouping(self):
        result = run_serial([kernel("x"), kernel("x"), kernel("y")], DEV)
        groups = result.by_name()
        assert len(groups["x"]) == 2
        assert len(groups["y"]) == 1


class TestStreamReadySemantics:
    """A node whose dependency finishes while an independent kernel is
    still mid-flight must launch at its true ready time (the
    dependency's end), not at the other kernel's completion."""

    @staticmethod
    def sized_kernel(name, blocks, ops):
        return KernelSpec(name=name, blocks=blocks, warps_per_block=8,
                          int32_ops=ops, gmem_read_bytes=1e6)

    def test_successor_starts_at_predecessor_end_mid_overlap(self):
        # Two small grids co-reside (40 + 40 <= 108 SMs). A chain of two
        # short kernels runs back-to-back while an independent long kernel
        # is still executing: the second short kernel's start must equal
        # the first's end, well before the long kernel finishes.
        short = self.sized_kernel("short", 40, 1e6)
        long_k = self.sized_kernel("long", 40, 5e8)
        result = run_dag([DagKernel(short), DagKernel(short, deps=(0,)),
                          DagKernel(long_k)], DEV)
        by_name = result.by_name()
        s1, s2 = sorted(by_name["short"], key=lambda e: e.start_us)
        (lk,) = by_name["long"]
        assert s1.start_us == 0.0
        assert lk.start_us == 0.0
        assert s2.start_us == pytest.approx(s1.end_us)
        assert s2.end_us < lk.end_us  # overlap really happened mid-flight

    def test_ready_stream_waits_only_for_sms(self):
        # A small kernel (40 SMs) overlaps an independent long kernel
        # (60 SMs). When the small kernel's successor becomes ready
        # mid-flight it needs 90 SMs but only 48 are free — it must start
        # exactly when the long kernel releases its SMs, not sooner or
        # later.
        small = self.sized_kernel("small", 40, 1e6)
        long_k = self.sized_kernel("long", 60, 5e8)
        follow = self.sized_kernel("follow", 90, 1e6)
        result = run_dag([DagKernel(small), DagKernel(follow, deps=(0,)),
                          DagKernel(long_k)], DEV)
        by_name = result.by_name()
        (lk,) = by_name["long"]
        (fk,) = by_name["follow"]
        (sk,) = by_name["small"]
        assert sk.start_us == 0.0 and lk.start_us == 0.0
        assert sk.end_us < lk.end_us  # successor ready mid-flight
        assert fk.start_us == pytest.approx(lk.end_us)


class TestTimelineRendering:
    def test_render_contains_streams_and_total(self):
        # Overlapping grids (60 + 40 <= 108 SMs) take two display lanes.
        result = run_dag([DagKernel(kernel("alpha", blocks=60)),
                          DagKernel(kernel("beta", blocks=40))], DEV)
        art = render_timeline(result, title="demo")
        assert "demo" in art
        assert "total:" in art
        assert "s0" in art and "s1" in art

    def test_render_empty(self):
        from repro.gpusim.streams import ExecutionResult

        assert "empty" in render_timeline(ExecutionResult())

    def test_summary_lists_all_kernels(self):
        result = run_serial([kernel("one"), kernel("two")], DEV)
        text = summarize(result)
        assert "one" in text and "two" in text


class TestProfiler:
    def test_aggregate_counts(self):
        profiles = [simulate_kernel(kernel(f"k{i}"), DEV) for i in range(4)]
        agg = aggregate(profiles)
        assert agg.kernel_count == 4
        assert agg.total_us == pytest.approx(
            sum(p.elapsed_us for p in profiles)
        )
        assert agg.issued_instructions == pytest.approx(
            sum(p.issued_instructions for p in profiles)
        )

    def test_aggregate_requires_profiles(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_total_stalls_merge(self):
        result = run_serial([kernel("a"), kernel("b")], DEV)
        merged = result.total_stalls()
        individual = sum(
            p.stalls.total for p in result.profiles
        )
        assert merged.total == pytest.approx(individual)


class TestStallBreakdownContainer:
    def test_add_and_fraction(self):
        from repro.gpusim import StallBreakdown

        b = StallBreakdown()
        b.add(StallReason.LG_THROTTLE, 75)
        b.add(StallReason.MATH_THROTTLE, 25)
        assert b.total == 100
        assert b.fraction(StallReason.LG_THROTTLE) == pytest.approx(0.75)
        assert b.memory_related == 75

    def test_negative_rejected(self):
        from repro.gpusim import StallBreakdown

        with pytest.raises(ValueError):
            StallBreakdown().add(StallReason.WAIT, -1)


class TestChromeTrace:
    def test_export_structure(self):
        import json

        from repro.gpusim import to_chrome_trace

        result = run_dag([DagKernel(kernel("alpha")),
                          DagKernel(kernel("beta", blocks=40), deps=(0,))],
                         DEV)
        trace = to_chrome_trace(result)
        assert "traceEvents" in trace
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in events} == {"alpha", "beta"}
        for e in events:
            assert e["dur"] > 0
            assert "bound_by" in e["args"]
        # The dependency is drawn as one flow arrow, alpha's end -> beta.
        flows = [e for e in trace["traceEvents"] if e.get("cat") == "dep"]
        assert [e["ph"] for e in flows] == ["s", "f"]
        json.dumps(trace)  # serializable

    def test_save_to_file(self, tmp_path):
        import json

        from repro.gpusim import save_chrome_trace

        result = run_serial([kernel("a")], DEV)
        path = tmp_path / "trace.json"
        save_chrome_trace(result, str(path))
        loaded = json.loads(path.read_text())
        assert any(e.get("ph") == "X" for e in loaded["traceEvents"])
