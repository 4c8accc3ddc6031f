"""``validate_trace`` names the offending event in every error.

One malformed trace per check; each message is pinned verbatim, so the
error text (event index, eid, kind, then the problem) cannot drift when
the validator changes shape.
"""

import pytest

from repro.trace.ir import OpTrace, TraceEvent, validate_trace


def ev(eid, kind, deps=(), fused=(), shape=None):
    return TraceEvent(eid=eid, kind=kind, op="x/y", span="x#1/y#2",
                      level=3, shape=shape or {}, deps=deps, fused=fused)


ADD = ev(5, "modadd")
NTT = ev(1, "ntt", shape={"rows": 2})

CASES = [
    ([ev(1, "bogus")], "event #0 (eid 1, kind 'bogus'): unknown kind"),
    ([ev(1, "ntt", shape={"rows": -1})],
     "event #0 (eid 1, kind 'ntt'): shape['rows'] = -1"),
    ([ev(1, "ntt", deps=(7,))],
     "event #0 (eid 1, kind 'ntt'): dep 7 does not reference an earlier "
     "event"),
    ([ev(1, "ntt", fused=(ADD,), shape={"fold_pre": 1, "fold_post": 1})],
     "event #0 (eid 1, kind 'ntt'): fold_pre+fold_post+1 != len(fused)"),
    ([ev(1, "ntt", fused=(ADD, ev(6, "intt")), shape={"fold_pre": 1})],
     "event #0 (eid 1, kind 'ntt'): folded host kind 'intt' differs"),
    ([ev(1, "modadd", fused=(ADD,))],
     "event #0 (eid 1, kind 'modadd'): kind cannot carry constituents"),
    ([ev(1, "fused_elementwise", fused=(ev(6, "ntt"),))],
     "event #0 (eid 1, kind 'fused_elementwise'): constituent eid 6 kind "
     "'ntt' is not element-wise"),
    ([ev(1, "fused_launch", fused=(ev(6, "modadd", fused=(ADD,)),))],
     "event #0 (eid 1, kind 'fused_launch'): constituent eid 6 is itself "
     "fused"),
    ([ev(1, "fused_launch", fused=(ev(6, "fused_launch"),))],
     "event #0 (eid 1, kind 'fused_launch'): constituent eid 6 has "
     "non-primitive kind 'fused_launch'"),
    ([ev(1, "fused_launch", fused=(ev(6, "modadd", deps=(99,)),))],
     "event #0 (eid 1, kind 'fused_launch'): constituent eid 6 dep 99 is "
     "neither earlier nor inside the group"),
    ([NTT, ev(1, "ntt")], "event #1 (eid 1, kind 'ntt'): duplicate eid 1"),
    ([NTT, ev(2, "fused_launch", fused=(ev(2, "modadd"),))],
     "event #1 (eid 2, kind 'fused_launch'): duplicate eid 2"),
]


@pytest.mark.parametrize("events, message", CASES)
def test_error_names_the_event(events, message):
    with pytest.raises(ValueError) as info:
        validate_trace(OpTrace(label="t", n=16, events=tuple(events)))
    assert str(info.value) == message


def test_valid_trace_is_returned():
    trace = OpTrace(label="t", n=16,
                    events=(NTT, ev(2, "modadd", deps=(1,))))
    assert validate_trace(trace) is trace
