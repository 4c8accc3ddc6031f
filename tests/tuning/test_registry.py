"""The declarative knob registry: domains, declarations, defaults."""

import pytest

from repro.tuning import (
    Boolean,
    Choice,
    FloatRange,
    IntRange,
    KnobDomainError,
    KnobSpec,
    UnknownKnob,
    all_knobs,
    defaults,
    knob,
    knob_default,
    overriding_default,
    register_knob,
    render_registry,
)
from repro.tuning.knobs import DECLARING_MODULES


# ---- domains ---------------------------------------------------------------


def test_choice_domain():
    d = Choice(("a", "b", "c"))
    assert d.contains("b") and not d.contains("z")
    assert d.points() == ("a", "b", "c")
    assert "'b'" in d.describe()


def test_boolean_domain_rejects_ints():
    d = Boolean()
    assert d.contains(True) and d.contains(False)
    assert not d.contains(1) and not d.contains(0)
    assert d.points() == (False, True)


def test_int_range_domain():
    d = IntRange(1, 8)
    assert d.contains(1) and d.contains(8)
    assert not d.contains(0) and not d.contains(9)
    assert not d.contains(True)  # bools are not ints here
    assert not d.contains(None)
    assert d.points() == tuple(range(1, 9))


def test_int_range_optional_admits_none():
    d = IntRange(4, 512, optional=True, grid=(8, 16))
    assert d.contains(None)
    assert d.points() == (None, 8, 16)


def test_int_range_wide_subsamples():
    d = IntRange(1, 1000)
    pts = d.points()
    assert pts[0] == 1 and pts[-1] == 1000
    assert len(pts) < 20


def test_float_range_domain():
    d = FloatRange(1.0, 64.0)
    assert d.contains(6.5) and d.contains(64)
    assert not d.contains(0.5) and not d.contains(True)
    lo, mid, hi = d.points()
    assert (lo, hi) == (1.0, 64.0)


# ---- registry --------------------------------------------------------------


def test_every_declared_module_contributes_knobs():
    layers = {spec.layer for spec in all_knobs().values()}
    # One knob-owning layer per architectural tier of the stack.
    assert {"ckks", "workloads", "core", "ntt", "gpusim", "trace",
            "serving"} <= layers


def test_all_knobs_have_docs_and_valid_defaults():
    for name, spec in all_knobs().items():
        assert spec.doc, f"{name} has no doc"
        spec.validate(spec.resolve_default())


def test_unknown_knob_raises_with_known_names():
    with pytest.raises(UnknownKnob, match="boot.fuse"):
        knob("no.such.knob")


def test_cross_layer_redeclaration_rejected():
    spec = knob("boot.fuse")
    clone = KnobSpec(name="boot.fuse", layer="not-ckks",
                     domain=spec.domain, doc="x", default=1)
    with pytest.raises(ValueError, match="already declared"):
        register_knob(clone)
    assert knob("boot.fuse") is spec


def test_registration_validates_default():
    with pytest.raises(KnobDomainError):
        register_knob(KnobSpec(
            name="test.bad_default", layer="test",
            domain=IntRange(1, 4), doc="x", default=9,
        ))
    with pytest.raises(UnknownKnob):
        knob("test.bad_default")


def test_defaults_covers_every_knob():
    d = defaults()
    assert set(d) == set(all_knobs())
    assert d["boot.fuse"] == 1
    assert d["ntt.variant"] == "wd-fuse"


def test_overriding_default_scopes_and_restores():
    assert knob_default("boot.fuse") == 1
    with overriding_default("boot.fuse", 4):
        assert knob_default("boot.fuse") == 4
    assert knob_default("boot.fuse") == 1


def test_overriding_default_validates():
    with pytest.raises(KnobDomainError):
        with overriding_default("boot.fuse", 99):
            pass


def test_render_registry_lists_every_knob():
    table = render_registry()
    for name in all_knobs():
        assert name in table


def test_declaring_modules_list_is_exhaustive():
    """Every layer string maps back to a module in DECLARING_MODULES —
    a knob declared from an unlisted module would vanish from fresh
    processes that import repro.tuning first."""
    import sys

    for module in DECLARING_MODULES:
        assert module in sys.modules  # all_knobs() imported them
