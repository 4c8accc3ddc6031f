"""Backend selection, fallback and self-check gating."""

import os
import warnings

import numpy as np
import pytest

import repro.backend as B
from repro.backend import (
    ArrayBackend,
    BackendUnavailable,
    NumpyBackend,
    available_backends,
    backend_name,
    resolve_backend,
    set_backend,
    use_backend,
)


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    os.environ.pop(B.BACKEND_ENV, None)
    set_backend(None)


def test_default_backend_is_numpy():
    os.environ.pop(B.BACKEND_ENV, None)
    set_backend(None)
    assert backend_name() == "numpy"
    assert isinstance(B.active_backend(), NumpyBackend)


def test_numpy_always_available():
    avail = available_backends()
    assert avail["numpy"] is True
    assert set(avail) == {"numpy", "numba"}


def test_env_var_selects_backend():
    os.environ[B.BACKEND_ENV] = "numpy"
    backend = resolve_backend()
    assert backend.name == "numpy"


def test_unknown_name_falls_back_with_warning():
    with pytest.warns(RuntimeWarning, match="falling back to numpy"):
        backend = resolve_backend("no-such-backend-ever")
    assert backend.name == "numpy"


def test_unknown_name_raises_internally():
    with pytest.raises(BackendUnavailable, match="unknown backend"):
        B.base._construct("no-such-backend-ever")


def test_unavailable_backend_falls_back_with_warning():
    missing = [n for n, ok in available_backends().items() if not ok]
    if not missing:
        pytest.skip("every optional backend is installed here")
    with pytest.warns(RuntimeWarning, match="falling back to numpy"):
        backend = resolve_backend(missing[0])
    assert backend.name == "numpy"


def test_env_var_fallback_never_raises():
    missing = [n for n, ok in available_backends().items() if not ok]
    if not missing:
        pytest.skip("every optional backend is installed here")
    os.environ[B.BACKEND_ENV] = missing[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        backend = set_backend(None)
    assert backend.name == "numpy"


def test_auto_resolves_to_something_working():
    backend = resolve_backend("auto")
    assert isinstance(backend, ArrayBackend)
    backend.self_check()


def test_use_backend_restores_previous():
    before = backend_name()
    with use_backend("numpy") as installed:
        assert backend_name() == "numpy"
        assert installed is B.active_backend()
    assert backend_name() == before


def test_set_backend_accepts_instance():
    inst = NumpyBackend()
    assert set_backend(inst) is inst
    assert B.active_backend() is inst


def test_self_check_rejects_wrong_arithmetic():
    class Broken(NumpyBackend):
        name = "broken"

        def mod_add(self, a, b, q):
            out = super().mod_add(a, b, q)
            return out ^ np.uint64(1)  # corrupt one bit

    with pytest.raises(BackendUnavailable, match="mod_add"):
        Broken().self_check()


def test_self_check_rejects_wrong_transform():
    class Broken(NumpyBackend):
        name = "broken-ntt"

        def ntt_forward(self, x, stack, *, lazy=False):
            out = super().ntt_forward(x, stack, lazy=lazy)
            out[..., 0] += np.uint64(1)
            return out

    with pytest.raises(BackendUnavailable, match="ntt"):
        Broken().self_check()


def test_interface_methods_are_abstract():
    be = ArrayBackend()
    q = np.array([97], dtype=np.uint64)
    a = np.zeros((1, 4), dtype=np.uint64)
    for call in [
        lambda: be.mod_add(a, a, q),
        lambda: be.mod_sub(a, a, q),
        lambda: be.mod_neg(a, q),
        lambda: be.mod_reduce(a, q),
        lambda: be.mod_mul(a, a, q),
        lambda: be.ntt_forward(a, None),
        lambda: be.ntt_inverse(a, None),
        lambda: be.wide_dot(a, a, q),
    ]:
        with pytest.raises(NotImplementedError):
            call()
