"""ASCII rendering of kernel execution timelines (Figure 1)."""

from __future__ import annotations

from typing import List

from .streams import ExecutionResult


def render_timeline(result: ExecutionResult, *, width: int = 72,
                    title: str = "") -> str:
    """Render an execution timeline as fixed-width ASCII art.

    One row per stream; each kernel is a labelled bar spanning its
    start..end interval, mirroring the kernel-timeline panels of Fig. 1.
    """
    if not result.entries:
        return "(empty timeline)"
    total = result.elapsed_us
    streams = sorted({e.stream for e in result.entries})
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(f"total: {total:.1f} us")
    scale = (width - 10) / total if total > 0 else 0.0
    for sid in streams:
        row = [" "] * (width - 10)
        for e in result.entries:
            if e.stream != sid:
                continue
            lo = int(e.start_us * scale)
            hi = max(lo + 1, int(e.end_us * scale))
            hi = min(hi, len(row))
            label = _shorten(e.name, hi - lo)
            for pos in range(lo, hi):
                row[pos] = "="
            for offset, ch in enumerate(label):
                if lo + offset < len(row):
                    row[lo + offset] = ch
        lines.append(f"s{sid:<2d} |" + "".join(row) + "|")
    return "\n".join(lines)


def summarize(result: ExecutionResult) -> str:
    """Per-kernel line summary: name, span, binding resource."""
    lines = [
        f"{'kernel':<28} {'stream':>6} {'start':>9} {'end':>9} "
        f"{'us':>8}  bound by"
    ]
    for e in sorted(result.entries, key=lambda x: x.start_us):
        lines.append(
            f"{e.name:<28} {e.stream:>6} {e.start_us:>9.1f} "
            f"{e.end_us:>9.1f} {e.duration_us:>8.1f}  {e.profile.bound_by}"
        )
    return "\n".join(lines)


def _shorten(name: str, space: int) -> str:
    if space <= 1:
        return ""
    return name[: space - 1]


def to_chrome_trace(result: ExecutionResult) -> dict:
    """Export a timeline as a Chrome tracing (chrome://tracing /
    Perfetto) JSON object — one complete event per kernel, one "thread"
    per stream, with the binding resource and occupancy as arguments.

    Entries carry their launch-graph dependencies; those become flow
    events (arrows between slices in Perfetto), so the pictured overlap
    can be read against the data hazards that constrain it."""
    events = []
    by_index = {e.index: e for e in result.entries}
    flow_id = 0
    for e in result.entries:
        prof = e.profile
        args = {
            "bound_by": prof.bound_by,
            "blocks": e.spec.blocks,
            "sm_used": prof.occupancy.sm_used,
            "resident_warps_per_sm":
                prof.occupancy.resident_warps_per_sm,
            "stall_per_issued":
                round(prof.stall_cycles_per_issued, 2),
        }
        # Optimizer provenance (trace/opt): fused chains and folded
        # twists tag their specs; surface them so before/after trace
        # pairs diff meaningfully in Perfetto.
        for tag in ("fused", "fold_pre", "fold_post"):
            if tag in e.spec.tags:
                args[tag] = e.spec.tags[tag]
        events.append({
            "name": e.name,
            "ph": "X",  # complete event
            "ts": e.start_us,
            "dur": e.duration_us,
            "pid": 0,
            "tid": e.stream,
            "args": args,
        })
        for dep in e.deps:
            src = by_index[dep]
            flow_id += 1
            events.append({
                "name": "dep", "cat": "dep", "ph": "s", "id": flow_id,
                "ts": src.end_us, "pid": 0, "tid": src.stream,
            })
            events.append({
                "name": "dep", "cat": "dep", "ph": "f", "bp": "e",
                "id": flow_id, "ts": e.start_us, "pid": 0, "tid": e.stream,
            })
    meta = [
        {"name": "process_name", "ph": "M", "pid": 0,
         "args": {"name": result.device.name if result.device else "gpu"}}
    ]
    for sid in sorted({e.stream for e in result.entries}):
        meta.append({
            "name": "thread_name", "ph": "M", "pid": 0, "tid": sid,
            "args": {"name": f"stream {sid}"},
        })
    return {"traceEvents": meta + events, "displayTimeUnit": "ns"}


def save_chrome_trace(result: ExecutionResult, path: str) -> None:
    """Write :func:`to_chrome_trace` output as a JSON file."""
    import json

    with open(path, "w") as fh:
        json.dump(to_chrome_trace(result), fh, indent=1)
