"""Optional big-integer backend selection (``REPRO_BIGINT``).

CPython's arbitrary-precision integers are the default backend.  Setting
``REPRO_BIGINT=gmpy2`` switches the :class:`~repro.fields.prime_field.
PrimeField` hot operations onto GMP via `gmpy2 <https://pypi.org/project/
gmpy2/>`_ when it is importable: the field keeps its modulus as a ``mpz``,
so every ``%`` against it (and every product that touches a previous
result) runs in GMP, and inversion uses ``gmpy2.invert`` instead of
``pow(a, -1, p)``.

The selection is **gracefully degradable**: if gmpy2 is not installed the
flag is ignored and the pure-Python backend runs — no import error, no
behavior change.  Results are bit-identical either way (``mpz`` and
``int`` agree on every arithmetic result, hash, and serialization), which
the differential suite relies on.

The environment variable is read once at import; :func:`select_backend` is
the pure resolution function the tests drive directly.
"""

from __future__ import annotations

import os

__all__ = ["BACKEND", "select_backend", "wrap_modulus", "invmod"]


def select_backend(name):
    """Resolve backend *name* to ``(label, wrap, invert)``.

    ``wrap`` lifts an ``int`` into the backend's native type; ``invert``
    is the modular-inverse callable (``None`` means "use the Python
    builtin").  Unknown names and a missing gmpy2 both fall back to the
    pure-Python backend.
    """
    if name == "gmpy2":
        try:
            import gmpy2
        except ImportError:
            return "python", int, None
        return "gmpy2", gmpy2.mpz, gmpy2.invert
    return "python", int, None


BACKEND, _WRAP, _INVERT = select_backend(
    os.environ.get("REPRO_BIGINT", "python").strip().lower()
)


def wrap_modulus(m):
    """Lift a modulus into the active backend's native integer type."""
    return _WRAP(m)


def invmod(a, m):
    """Modular inverse of *a* mod *m* through the active backend.

    *a* must be invertible (the field layer guards zero before calling).
    """
    if _INVERT is not None:
        return _INVERT(a, m)
    return pow(a, -1, m)

