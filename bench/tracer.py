"""Span tracer that times the repo's layers from outside.

The traced run wraps public functions of ``repro`` in timing shims; no
file under ``src/`` changes.  Each call becomes a span with a name, a
start and end on the host clock, its parent span and the id of the
request it served.  A span's *self time* is its duration minus the time
its direct children cover (the benchmark is single-threaded, so
children never overlap).

Three kinds of target are wrapped (see :data:`TARGETS`):

* module-level functions (``"repro.numtheory.rns:mod_down"``): every
  attribute of every loaded ``repro.*`` module that *is* the function
  object is rebound, because callers bind by name
  (``repro.ckks.ops`` does ``from .keyswitch import keyswitch``);
* class methods (``"repro.ckks.ops:Evaluator.hmult"``): patched on the
  class;
* compute-backend methods (``"backend:ntt_forward"``): patched on the
  instance :func:`repro.backend.active_backend` returns, since every hot
  kernel dispatches through it.

A target that no longer resolves is listed in :attr:`Tracer.unresolved`
and skipped; it never fails a run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

_MOD_ARITH = ("mod_add", "mod_sub", "mod_mul", "mod_reduce", "mod_neg",
              "montgomery_reduce", "montgomery_mul")

#: ``(span name, target)`` pairs; several targets may share a span name.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("backend.ntt_forward", "backend:ntt_forward"),
    ("backend.ntt_inverse", "backend:ntt_inverse"),
    ("backend.wide_dot", "backend:wide_dot"),
    *(("backend.mod_arith", f"backend:{m}") for m in _MOD_ARITH),
    ("numtheory.rns.extend_basis", "repro.numtheory.rns:extend_basis"),
    ("numtheory.rns.extend_basis",
     "repro.numtheory.rns:extend_basis_stacked"),
    ("numtheory.rns.mod_down", "repro.numtheory.rns:mod_down"),
    ("ckks.keyswitch", "repro.ckks.keyswitch:keyswitch"),
    ("ckks.ops.hmult", "repro.ckks.ops:Evaluator.hmult"),
    ("ckks.ops.hrotate", "repro.ckks.ops:Evaluator.hrotate"),
    ("ckks.ops.rescale", "repro.ckks.ops:Evaluator.rescale"),
    ("ckks.ops.pmult", "repro.ckks.ops:Evaluator.pmult"),
    ("ckks.encrypt", "repro.ckks.ops:Evaluator.encrypt"),
    ("ckks.decrypt", "repro.ckks.ops:Evaluator.decrypt_coefficients"),
    ("ckks.encoding", "repro.ckks.encoding:Encoder.encode"),
    ("ckks.encoding", "repro.ckks.encoding:Encoder.decode"),
    ("ckks.hoisting", "repro.ckks.hoisting:hoisted_rotations"),
    ("ckks.linear_transform",
     "repro.ckks.linear_transform:LinearTransform.apply"),
    ("ckks.polyeval",
     "repro.ckks.polyeval:PolynomialEvaluator.eval_chebyshev"),
    ("ckks.bootstrap.slot_to_coeff",
     "repro.ckks.bootstrap:Bootstrapper.slot_to_coeff"),
    ("ckks.bootstrap.mod_raise",
     "repro.ckks.bootstrap:Bootstrapper.mod_raise"),
    ("ckks.bootstrap.coeff_to_slot",
     "repro.ckks.bootstrap:Bootstrapper.coeff_to_slot"),
    ("ckks.bootstrap.eval_mod",
     "repro.ckks.bootstrap:Bootstrapper.eval_mod"),
    ("ckks.keys.generate", "repro.ckks.keys:KeyGenerator.generate"),
    ("trace.optimize_trace", "repro.trace.opt.pipeline:optimize_trace"),
    ("trace.lower_trace", "repro.trace.lowering:lower_trace"),
    ("trace.schedule_search", "repro.trace.opt.reorder:schedule_search"),
    ("gpusim.run_dag", "repro.gpusim.streams:run_dag"),
    ("dagcheck.static_hbm_certificate",
     "repro.analysis.dagcheck.memory:static_hbm_certificate"),
    ("serving.run", "repro.serving.simulator:ServingSimulator.run"),
    ("serving.catalog", "repro.serving.jobs:JobCatalog.price"),
)

#: Span name of the harness's per-request root span.
ROOT = "request"

_MISSING = object()


def _ntt_work(tracer: "Tracer", args: tuple, out: Any) -> None:
    """NTT work from argument shapes: butterflies and bytes in + out."""
    x = args[0]
    n = x.shape[-1]
    transforms = x.size // n
    tracer.counters["backend.ntt.butterflies"] += (
        transforms * (n // 2) * (n.bit_length() - 1))
    tracer.counters["backend.ntt.bytes_computed"] += x.nbytes + out.nbytes


_ON_RESULT: Dict[str, Callable] = {
    "backend.ntt_forward": _ntt_work,
    "backend.ntt_inverse": _ntt_work,
}


@dataclass
class SpanStats:
    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0


class _Frame:
    __slots__ = ("sid", "parent", "name", "start", "child_ns")

    def __init__(self, sid, parent, name, start):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.child_ns = 0


class Tracer:
    """Keeps a span stack and per-name totals; see module docstring.

    ``clock`` returns integer nanoseconds; tests pass a fake one.  Spans
    themselves (for the Perfetto file) are kept only for requests begun
    with ``keep=True``; the totals cover every traced request.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.stats: Dict[str, SpanStats] = {}
        #: ``(parent name, child name)`` -> calls.
        self.pairs: Counter = Counter()
        #: Work counted from arguments (NTT butterflies and bytes).
        self.counters: Counter = Counter()
        #: ``(sid, parent sid, name, start ns, end ns, request)``.
        self.spans: List[tuple] = []
        self.unresolved: List[str] = []
        self.request: Any = None
        self.installed = False
        self._keep = False
        self._stack: List[_Frame] = []
        self._next_sid = 0
        self._resolved: Optional[List[tuple]] = None
        self._patches: List[tuple] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        parent = self._stack[-1].sid if self._stack else None
        frame = _Frame(self._next_sid, parent, name, self.clock())
        self._next_sid += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = self.clock()
        self._stack.pop()
        dur = end - frame.start
        st = self.stats.get(frame.name)
        if st is None:
            st = self.stats[frame.name] = SpanStats()
        st.calls += 1
        st.self_ns += dur - frame.child_ns
        st.total_ns += dur
        if self._stack:
            parent = self._stack[-1]
            parent.child_ns += dur
            self.pairs[(parent.name, frame.name)] += 1
        if self._keep:
            self.spans.append((frame.sid, frame.parent, frame.name,
                               frame.start, end, self.request))

    @contextmanager
    def request_span(self, request: Any, *, keep: bool):
        """Root span of one request; its spans go to the Perfetto file
        when ``keep``."""
        self.request, self._keep = request, keep
        frame = self._enter(ROOT)
        try:
            yield
        finally:
            self._exit(frame)
            self.request, self._keep = None, False

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if on_result is not None:
                on_result(tracer, args, out)
            return out

        return traced

    def take(self) -> Tuple[Dict[str, SpanStats], Counter, Counter]:
        """Return and reset ``(stats, pairs, counters)``."""
        out = (self.stats, self.pairs, self.counters)
        self.stats, self.pairs, self.counters = {}, Counter(), Counter()
        return out

    # -- installing the shims ------------------------------------------------

    def _resolve(self, targets) -> List[tuple]:
        """``(kind, owner, attr, original, wrapper)`` per resolvable
        target; ``owner`` is a class, the backend, or ``None`` for
        module functions (rebound wherever they are found)."""
        from repro.backend import active_backend

        resolved = []
        for name, target in targets:
            where, _, attr = target.partition(":")
            hook = _ON_RESULT.get(name)
            try:
                if where == "backend":
                    owner = active_backend()
                    original = getattr(owner, attr)
                    kind = "backend"
                else:
                    # import_module returns the module even where a
                    # package re-export shadows the submodule's name
                    # (repro.ckks.keyswitch is also a function).
                    module = importlib.import_module(where)
                    cls_name, _, meth = attr.rpartition(".")
                    if cls_name:
                        owner = getattr(module, cls_name)
                        original = owner.__dict__[meth]
                        attr, kind = meth, "method"
                    else:
                        owner, original = None, getattr(module, attr)
                        kind = "function"
                if not (callable(original) if kind == "backend"
                        else isinstance(original, types.FunctionType)):
                    raise TypeError(f"{target} is not a plain function")
            except (ImportError, AttributeError, KeyError, TypeError):
                self.unresolved.append(target)
                continue
            resolved.append((kind, owner, attr, original,
                             self.wrap(name, original, hook)))
        return resolved

    def install(self, targets=TARGETS) -> None:
        """Put every shim in place; :meth:`uninstall` restores the
        originals exactly."""
        if self.installed:
            raise RuntimeError("tracer shims are already installed")
        self.installed = True
        if self._resolved is None:
            self._resolved = self._resolve(targets)
        swap = {}
        for kind, owner, attr, original, wrapper in self._resolved:
            if kind == "function":
                swap[id(original)] = (original, wrapper)
            else:
                self._patches.append(
                    (owner, attr, vars(owner).get(attr, _MISSING)))
                setattr(owner, attr, wrapper)
        self._rebind(swap)

    @contextmanager
    def patched(self, targets=TARGETS):
        self.install(targets)
        try:
            yield
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        self.installed = False
        for owner, attr, before in reversed(self._patches):
            if before is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, before)
        self._patches = []
        # Modules imported while the shims were in place may have bound
        # a wrapper by name too; the sweep restores those as well.
        self._rebind({id(w): (w, o) for kind, _, _, o, w in
                      (self._resolved or ()) if kind == "function"})

    @staticmethod
    def _rebind(swap: Dict[int, tuple]) -> None:
        """Replace every ``repro.*`` module attribute that *is* a key
        object of ``swap`` (by identity) with its replacement."""
        for name, module in list(sys.modules.items()):
            if module is None or name.split(".", 1)[0] != "repro":
                continue
            for key, value in list(vars(module).items()):
                hit = swap.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])

    # -- Perfetto export -----------------------------------------------------

    def chrome_trace(self, label: str) -> dict:
        """Kept spans as a Chrome/Perfetto JSON trace: one host-clock
        process track, one row (thread) per request."""
        if not self.spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        t0 = min(s[3] for s in self.spans)
        names = {s[0]: s[2] for s in self.spans}
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                   "args": {"name": f"{label} (host clock)"}}]
        rows = {}
        for sid, parent, name, start, end, request in self.spans:
            tid = rows.setdefault(request, len(rows) + 1)
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": tid,
                "ts": (start - t0) / 1e3, "dur": (end - start) / 1e3,
                "args": {"span": sid, "parent": names.get(parent)},
            })
        for request, tid in rows.items():
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid, "args": {"name": f"request {request}"}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}
