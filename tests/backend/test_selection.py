"""The one kernel instance every hot path dispatches through."""

from repro.backend import NumpyBackend, active_backend, backend_name


def test_default_backend_is_numpy():
    assert backend_name() == "numpy"
    assert isinstance(active_backend(), NumpyBackend)
    assert active_backend() is active_backend()
