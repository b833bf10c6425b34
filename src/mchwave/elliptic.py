"""Complete elliptic integrals and Jacobi elliptic functions.

Every routine here takes the elliptic MODULUS ``k``, never the parameter
``m = k**2``.  Mixing the two conventions is the classic source of silent
errors with these functions (scipy, for instance, works in ``m``), so the
convention is stated once more on each public entry point.

``K`` and ``E`` are evaluated with the arithmetic-geometric mean; ``sn``,
``cn``, ``dn`` with the descending AGM ladder and the ascending amplitude
recursion.  Both converge quadratically, so full double precision costs a
handful of iterations and no external special-function library is needed.

Moduli with ``k > 1 - 1e-12`` are rejected outright: ``K`` diverges
logarithmically at ``k = 1`` and the wave formulas downstream only ever
need moduli bounded away from 1.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError

# Reject moduli this close to the logarithmic singularity of K.
MODULUS_CUTOFF = 1.0 - 1e-12

_AGM_TOL = 1e-17
_AGM_MAX_ITER = 64


def _check_modulus(k: float) -> float:
    k = float(k)
    if not math.isfinite(k):
        raise DomainError(f"modulus must be finite, got {k!r}")
    if k < 0.0:
        raise DomainError(f"modulus must be >= 0, got {k}")
    return k


def _agm_k_e(k: float | complex) -> tuple[float, float] | tuple[complex, complex]:
    """AGM evaluation of (K(k), E(k)) for 0 <= k < 1.

    A complex k (the complex-step k-derivatives of :mod:`mchwave.wave`) runs
    the same iteration with the principal complex square root.
    """
    sqrt = cmath.sqrt if isinstance(k, complex) else math.sqrt
    a, b = 1.0, sqrt((1.0 - k) * (1.0 + k))
    c = k
    # E(k) = K(k) * (1 - sum_{n>=0} 2**(n-1) c_n**2) with c_0 = k.
    s = 0.5 * c * c
    pow2 = 0.5
    for _ in range(_AGM_MAX_ITER):
        if abs(c) <= _AGM_TOL:
            break
        a, b, c = 0.5 * (a + b), sqrt(a * b), 0.5 * (a - b)
        pow2 *= 2.0
        s += pow2 * c * c
    big_k = math.pi / (2.0 * a)
    return big_k, big_k * (1.0 - s)


def complete_k(k: float) -> float:
    """Complete elliptic integral of the first kind, K(k).

    ``k`` is the modulus (not the parameter m = k**2).  Defined by
    ``K(k) = int_0^{pi/2} dtheta / sqrt(1 - k^2 sin^2 theta)`` and
    strictly increasing on [0, 1).

    Raises:
        DomainError: if ``k < 0`` or ``k > 1 - 1e-12`` (K diverges at 1).
    """
    k = _check_modulus(k)
    if k > MODULUS_CUTOFF:
        raise DomainError(
            f"complete_k requires k <= {MODULUS_CUTOFF!r} (diverges at k=1), got {k}"
        )
    return _agm_k_e(k)[0]


def complete_e(k: float) -> float:
    """Complete elliptic integral of the second kind, E(k).

    ``k`` is the modulus (not the parameter m = k**2).  Defined by
    ``E(k) = int_0^{pi/2} sqrt(1 - k^2 sin^2 theta) dtheta``; strictly
    decreasing on [0, 1], with E(0) = pi/2 and E(1) = 1.

    Raises:
        DomainError: if ``k`` lies outside [0, 1].
    """
    k = _check_modulus(k)
    if k > 1.0:
        raise DomainError(f"complete_e requires k <= 1, got {k}")
    if k == 1.0:
        return 1.0
    return _agm_k_e(k)[1]


def complete_k_e(k: float | complex) -> tuple[float, float] | tuple[complex, complex]:
    """Both K(k) and E(k) from a single AGM run (k is the modulus).

    A complex k, as used for complex-step derivatives, is range-checked on
    its real part and gives complex (K, E).
    """
    k_real = _check_modulus(k.real if isinstance(k, complex) else k)
    if k_real > MODULUS_CUTOFF:
        raise DomainError(
            f"complete_k_e requires k <= {MODULUS_CUTOFF!r}, got {k_real}"
        )
    return _agm_k_e(k if isinstance(k, complex) else k_real)


def jacobi(u, k: float):
    """Jacobi elliptic functions sn(u; k), cn(u; k), dn(u; k).

    ``k`` is the modulus.  ``u`` may be a scalar or an ndarray; the three
    returned values match its shape.  sn and cn have period 4K(k), dn has
    period 2K(k).

    The amplitude phi is recovered by the descending AGM ladder, then
    ``sn = sin(phi)``, ``cn = cos(phi)`` and ``dn = sqrt(1 - k^2 sn^2)``
    (the positive root is correct for all u when k < 1).  Accuracy
    degrades linearly in |u|; the package only ever needs a few periods.

    Raises:
        DomainError: if ``k`` is outside [0, 1 - 1e-12] or u is not finite.
    """
    k = _check_modulus(k)
    if k > MODULUS_CUTOFF:
        raise DomainError(f"jacobi requires k <= {MODULUS_CUTOFF!r}, got {k}")
    u_arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u_arr)):
        raise DomainError("jacobi requires finite u")

    # Descending AGM: a_n, b_n, c_n until c_n underflows.
    a_seq = [1.0]
    c_seq = [k]
    b = math.sqrt((1.0 - k) * (1.0 + k))
    while abs(c_seq[-1]) > _AGM_TOL and len(a_seq) < _AGM_MAX_ITER:
        a_prev = a_seq[-1]
        a_seq.append(0.5 * (a_prev + b))
        c_seq.append(0.5 * (a_prev - b))
        b = math.sqrt(a_prev * b)
    n_steps = len(a_seq) - 1

    phi = (2.0 ** n_steps) * a_seq[-1] * u_arr
    for i in range(n_steps, 0, -1):
        ratio = c_seq[i] / a_seq[i]
        phi = 0.5 * (phi + np.arcsin(np.clip(ratio * np.sin(phi), -1.0, 1.0)))

    sn = np.sin(phi)
    cn = np.cos(phi)
    dn = np.sqrt(1.0 - (k * sn) ** 2)
    if u_arr.ndim == 0:
        return float(sn), float(cn), float(dn)
    return sn, cn, dn
