"""Complete elliptic integrals and Jacobi elliptic functions.

Every routine here takes the elliptic MODULUS ``k``, never the parameter
``m = k**2``.  Mixing the two conventions is the classic source of silent
errors with these functions (scipy, for instance, works in ``m``), so the
convention is stated once more on each public entry point.

``K`` and ``E`` are evaluated with the arithmetic-geometric mean (DLMF
19.8); ``sn``, ``cn``, ``dn`` with the descending AGM ladder and the
ascending amplitude recursion.  Both converge quadratically, so full double
precision costs a handful of iterations and no external special-function
library is needed.

Both iterations stop once |c_n| <= eps |a_n|: a_n and b_n then agree to
rounding, and the next c_n would be c_n^2 / (4 a_n), below eps^2.  An
absolute stop such as |c_n| <= 1e-17 lies below half an ulp of a_n (which
is between 0.1 and 1), so for about a quarter of the moduli a_n and b_n
settle one ulp apart and c_n never gets there: the iteration ran to its cap
of 64 steps and each of them added rounding to E.  ``K`` and ``E`` take an
array of moduli, real or complex (the complex-step k-derivatives of
:mod:`mchwave.wave`), and take each element's value at its own stop, so it
does not depend on the others in its array.

Moduli with ``k > 1 - 1e-12`` are rejected outright: ``K`` diverges
logarithmically at ``k = 1`` and the wave formulas downstream only ever
need moduli bounded away from 1.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# Reject moduli this close to the logarithmic singularity of K.
MODULUS_CUTOFF = 1.0 - 1e-12

_EPS = float(np.finfo(float).eps)
_AGM_MAX_ITER = 64


def _check_modulus(k: float) -> float:
    k = float(k)
    if not math.isfinite(k):
        raise DomainError(f"modulus must be finite, got {k!r}")
    if k < 0.0:
        raise DomainError(f"modulus must be >= 0, got {k}")
    return k


def _agm_k_e(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """AGM evaluation of (K(k), E(k)) over a 1-d array, for 0 <= Re k < 1.

    A complex k runs the same iteration with the principal square root.
    Each element stops at its own step n, the first with
    |c_n| <= eps |a_n|, however long the others run.
    """
    a, b, c = np.ones_like(k), np.sqrt((1.0 - k) * (1.0 + k)), k
    a_n, c2_n, live_n = [a], [c * c], []
    for _ in range(_AGM_MAX_ITER):
        live = np.abs(c) > _EPS * np.abs(a)
        live_n.append(live)
        if not live.any():
            break
        c = 0.5 * (a - b)
        a, b = a - c, np.sqrt(a * b)
        a_n.append(a)
        c2_n.append(c * c)
    live_n.append(np.zeros(k.shape, bool))  # an element still live at the cap stops there
    # E(k) = K(k) * (1 - sum_{n>=0} 2**(n-1) c_n**2) with c_0 = k, summed in
    # order up to each element's own stop.
    at_stop = np.argmin(np.array(live_n), axis=0), np.arange(k.size)
    weights = 2.0 ** np.arange(-1.0, len(c2_n) - 1.0)[:, np.newaxis]
    s = np.cumsum(weights * np.array(c2_n), axis=0)[at_stop]
    big_k = math.pi / (2.0 * np.array(a_n)[at_stop])
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
    return float(_agm_k_e(np.array([k]))[0][0])


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
    return float(_agm_k_e(np.array([k]))[1][0])


def complete_k_e(k):
    """Both K(k) and E(k) from a single AGM run (k is the modulus).

    ``k`` is a scalar or an array, real or complex (complex moduli serve the
    complex-step derivatives and give complex K and E); the range is checked
    on the real part.  A scalar k gives Python numbers, an array k arrays.

    Raises:
        DomainError: unless every Re k lies in [0, MODULUS_CUTOFF].
    """
    k_arr = np.asarray(k)
    if k_arr.dtype.kind != "c":
        k_arr = k_arr.astype(float)
    if not ((k_arr.real >= 0.0) & (k_arr.real <= MODULUS_CUTOFF)).all():  # NaN fails too
        raise DomainError(f"complete_k_e requires 0 <= k <= {MODULUS_CUTOFF!r}, got {k!r}")
    big_k, big_e = _agm_k_e(k_arr.reshape(-1))
    if k_arr.ndim == 0:
        return big_k.item(), big_e.item()
    return big_k.reshape(k_arr.shape), big_e.reshape(k_arr.shape)


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

    # Descending AGM: a_n, b_n, c_n until c_n is rounding relative to a_n.
    a_seq = [1.0]
    c_seq = [k]
    b = math.sqrt((1.0 - k) * (1.0 + k))
    while abs(c_seq[-1]) > _EPS * a_seq[-1] and len(a_seq) < _AGM_MAX_ITER:
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
