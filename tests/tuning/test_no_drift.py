"""Default-duplication regression: one registry default, every consumer.

``BootstrapConfig`` and a second bootstrap cost model once held
independent literal copies of the same defaults (and drifted).  Every
consumer now resolves through :func:`repro.tuning.knob_default`, which
these tests prove by overriding a default and watching *all* consumers
move together — a reintroduced literal copy fails here immediately.
"""

from repro.ckks.bootstrap import BootstrapConfig
from repro.tuning import (all_knobs, build_pipeline, knob_default,
                          overriding_default)
from repro.workloads.recorded import RECORDED_BOOT_CONFIG, _recorded_boot_config


def test_bootstrap_config_and_schedule_share_fuse_default():
    """Override ``boot.fuse`` once: the dataclass default and the built
    pipeline both move."""
    with overriding_default("boot.fft_factored", True), \
            overriding_default("boot.fuse", 4):
        assert BootstrapConfig().fuse == 4
        assert build_pipeline().boot_config.fuse == 4
    # Scoped: everything snaps back after the context exits.
    assert BootstrapConfig().fuse == 1


def test_sine_degree_default_single_source():
    with overriding_default("boot.sine_degree", 127):
        assert BootstrapConfig().sine_degree == 127


def test_schedule_defaults_move_with_registry():
    """A default changed in the registry changes the *built* bootstrap
    configuration — no call site holds a stale literal."""
    baseline = build_pipeline().boot_config
    with overriding_default("boot.fft_factored", True):
        assert BootstrapConfig().fft_factored
        factored = build_pipeline().boot_config
    assert factored != baseline
    assert factored.fft_factored and not baseline.fft_factored


def test_recorded_boot_config_is_registry_view():
    """The calibrated recording dict is the ``recorded.*`` defaults —
    not an independent copy that could drift. The recording has no sine
    degree of its own: it evaluates ``boot.sine_degree``."""
    assert RECORDED_BOOT_CONFIG == {
        "proxy_log2n": knob_default("recorded.proxy_log2n"),
        "fuse": knob_default("recorded.fuse"),
    }
    assert "recorded.sine_degree" not in all_knobs()
    with overriding_default("recorded.fuse", 2):
        assert _recorded_boot_config()["fuse"] == 2


def test_bootstrap_config_fields_track_registry():
    for field_name, knob_name in (
        ("sine_degree", "boot.sine_degree"),
        ("eval_range", "boot.eval_range"),
        ("bsgs", "boot.bsgs"),
        ("fft_factored", "boot.fft_factored"),
        ("fuse", "boot.fuse"),
    ):
        assert getattr(BootstrapConfig(), field_name) == \
            knob_default(knob_name)
