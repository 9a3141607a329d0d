"""Kernel tier: compiled (Numba) and vectorized (NumPy) hot-path backends.

The chunk directory's hottest per-call loops — scalar splice-and-repair,
the middle-rejection and rank-resolution sampling passes, and the
weighted two-level cumulative draw — are expressed as a
small set of *pure array functions* with two interchangeable
implementations:

* :mod:`repro.core.kernels.numpy_backend` — the always-available
  vectorized reference implementation (plain NumPy, no compilation);
* :mod:`repro.core.kernels.numba_backend` — ``@njit(cache=True)`` twins
  compiled lazily on first call, so a scalar update or a sampling fill is
  a single Python→native transition.

Backend selection happens once, lazily, on the first kernel use:

* ``REPRO_KERNELS=numpy`` forces the vectorized fallback;
* ``REPRO_KERNELS=numba`` requires the compiled tier and raises
  :class:`~repro.errors.KernelBackendError` if ``numba`` is missing;
* unset: ``numba`` is probed and used when importable, with a silent
  fallback to NumPy otherwise.

Byte-identity across backends is a structural property, not a testing
aspiration: every function here is a deterministic pure function of its
array arguments (searches, element moves, sequential cumulative sums),
and **all randomness and all float reductions stay in the shared driver
code** (Philox streams are generated in NumPy and *consumed* by the
kernels; boundary-run masses stay ``math.fsum`` in the samplers).  The
parity suite in ``tests/test_kernels.py`` runs the stateful machines and
the cross-process seed audit under each available backend and asserts
identical draws and identical final states.
"""

from __future__ import annotations

import os

from ...errors import KernelBackendError

__all__ = [
    "get",
    "backend_name",
    "backend_info",
    "available_backends",
    "set_backend",
]

_ACTIVE = None  # the selected backend module (lazy)
_NUMBA_VERSION: str | None = None
_NUMBA_ERROR: str | None = None


def _probe_numba():
    """Import the numba backend; record version or failure reason."""
    global _NUMBA_VERSION, _NUMBA_ERROR
    try:
        import numba  # noqa: F401

        from . import numba_backend
    except Exception as exc:  # pragma: no cover - exercised without numba
        _NUMBA_ERROR = f"{type(exc).__name__}: {exc}"
        return None
    _NUMBA_VERSION = numba.__version__
    return numba_backend


def _select():
    """Resolve the backend module from ``REPRO_KERNELS`` (once)."""
    from . import numpy_backend

    requested = os.environ.get("REPRO_KERNELS", "").strip().lower()
    if requested in ("", "auto"):
        return _probe_numba() or numpy_backend
    if requested == "numpy":
        return numpy_backend
    if requested == "numba":
        backend = _probe_numba()
        if backend is None:
            raise KernelBackendError(
                "REPRO_KERNELS=numba but the numba backend failed to load "
                f"({_NUMBA_ERROR}); install the [compiled] extra or unset "
                "REPRO_KERNELS"
            )
        return backend
    raise KernelBackendError(
        f"unknown REPRO_KERNELS value {requested!r}; expected 'numba' or 'numpy'"
    )


def get():
    """Return the active kernel backend module (selecting it on first use)."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = _select()
    return _ACTIVE


def backend_name() -> str:
    """Name of the active backend: ``"numba"`` or ``"numpy"``."""
    return get().NAME


def available_backends() -> list[str]:
    """Backends importable in this environment (numpy is always there)."""
    out = []
    if _probe_numba() is not None:
        out.append("numba")
    out.append("numpy")
    return out


def set_backend(name: str) -> str:
    """Force the active backend; return the previous backend's name.

    The test seam behind the backend-parametrized parity suite.  Existing
    structures pick the change up immediately — they resolve the backend
    through :func:`get` on every operation, never caching function
    references.  Raises :class:`~repro.errors.KernelBackendError` for an
    unknown name or an unavailable compiled tier.
    """
    global _ACTIVE
    previous = backend_name()
    name = name.strip().lower()
    if name == "numpy":
        from . import numpy_backend

        _ACTIVE = numpy_backend
    elif name == "numba":
        backend = _probe_numba()
        if backend is None:
            raise KernelBackendError(
                f"numba backend unavailable ({_NUMBA_ERROR})"
            )
        _ACTIVE = backend
    else:
        raise KernelBackendError(
            f"unknown kernel backend {name!r}; expected 'numba' or 'numpy'"
        )
    return previous


def backend_info() -> dict:
    """Describe the kernel tier: active backend, availability, versions.

    The dict is JSON-serializable (the ``repro info`` CLI prints it) and
    stable-keyed: ``backend``, ``available``, ``numba_version``,
    ``numba_error``, ``numpy_version``, ``env_override``.
    """
    import numpy

    active = get()
    return {
        "backend": active.NAME,
        "available": available_backends(),
        "numba_version": _NUMBA_VERSION,
        "numba_error": None if _NUMBA_VERSION else _NUMBA_ERROR,
        "numpy_version": numpy.__version__,
        "env_override": os.environ.get("REPRO_KERNELS") or None,
    }
