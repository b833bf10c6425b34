"""Complete elliptic integrals and Jacobi elliptic functions.

Every routine here takes the elliptic MODULUS ``k``, never the parameter
``m = k**2``.  Mixing the two conventions is the classic source of silent
errors with these functions (scipy, for instance, works in ``m``), so the
convention is stated once more on each public entry point.

One descending AGM ladder a_n, c_n (DLMF 19.8, 22.20) serves both entry
points: :func:`complete_k_e` reads ``K`` and ``E`` off it, and
:func:`jacobi` walks its ratios c_n / a_n up the ascending amplitude
recursion to ``sn``, ``cn``, ``dn``; a wave profile, which needs K to
form its argument, reads both off one ladder.  It converges
quadratically, so full double precision costs a handful of steps.  It
runs over an array of moduli, real or complex (the complex-step
k-derivatives of :mod:`mchwave.wave`), and each element freezes at its
own first step with |c_n| <= eps |a_n|, where a_n and b_n agree to
rounding; an absolute stop below half an ulp of a_n never came for about
a quarter of the moduli.

One modulus rule serves both: 0 <= Re k <= ``MODULUS_CUTOFF``, NaN failing.
``K`` diverges logarithmically at ``k = 1`` and the wave formulas
downstream only ever need moduli bounded away from 1.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# Reject moduli this close to the logarithmic singularity of K.
MODULUS_CUTOFF = 1.0 - 1e-12

_EPS = float(np.finfo(float).eps)
_AGM_MAX_ITER = 64


def _moduli(k) -> np.ndarray:
    """``k`` as a float or complex array, after the one modulus rule."""
    k_arr = np.asarray(k)
    if k_arr.dtype.kind != "c":
        k_arr = k_arr.astype(float)
    if not ((k_arr.real >= 0.0) & (k_arr.real <= MODULUS_CUTOFF)).all():
        raise DomainError(f"modulus must satisfy 0 <= Re k <= {MODULUS_CUTOFF!r}, got {k!r}")
    return k_arr


def _agm(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending AGM ladder over a 1-d array of moduli, real or complex.

    Returns a_n and c_n, each of shape (steps + 1, k.size), with a_0 = 1,
    c_0 = k.  A complex k takes the principal square root.  Each element
    freezes at its own first step with |c_n| <= eps |a_n|: every later row
    has c_n = 0 and the same a_n.
    """
    a, b, c = np.ones_like(k), np.sqrt((1.0 - k) * (1.0 + k)), k
    a_n, c_n = [a], [c]
    for _ in range(_AGM_MAX_ITER):
        live = np.abs(c) > _EPS * np.abs(a)
        if not live.any():
            break
        c = np.where(live, 0.5 * (a - b), 0.0)
        a, b = a - c, np.sqrt(a * b)
        a_n.append(a)
        c_n.append(c)
    return np.array(a_n), np.array(c_n)


def complete_k_e(k):
    """Complete elliptic integrals K(k) and E(k) of the first and second
    kind (k is the modulus, not m = k**2), from one AGM ladder.

    K = int_0^{pi/2} (1 - k^2 sin^2 t)^(-1/2) dt increases and E, the same
    with exponent +1/2, decreases on [0, 1), both from pi/2 at k = 0.
    ``k`` is a scalar or an array, real or complex (complex moduli give
    complex K and E for the complex-step derivatives).  A scalar k gives
    Python numbers, an array k arrays.

    Raises:
        DomainError: unless every Re k lies in [0, MODULUS_CUTOFF].
    """
    k_arr = _moduli(k)
    big_k, big_e = _k_e(*_agm(k_arr.reshape(-1)))
    if k_arr.ndim == 0:
        return big_k.item(), big_e.item()
    return big_k.reshape(k_arr.shape), big_e.reshape(k_arr.shape)


def _k_e(a_n: np.ndarray, c_n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K = pi / (2 a_N) and E = K (1 - sum_{n>=0} 2**(n-1) c_n**2), summed in
    order, off a ladder of :func:`_agm`."""
    big_k = math.pi / (2.0 * a_n[-1])
    weights = 2.0 ** np.arange(-1.0, len(c_n) - 1.0)[:, np.newaxis]
    return big_k, big_k * (1.0 - np.cumsum(weights * (c_n * c_n), axis=0)[-1])


def jacobi(u, k: float):
    """Jacobi elliptic functions sn(u; k), cn(u; k), dn(u; k).

    ``k`` is one real modulus (a complex or array k is refused).  ``u`` may
    be a scalar or an ndarray; the three returned values match its shape.
    sn and cn have period 4K(k), dn has period 2K(k).

    The amplitude phi is recovered from the AGM ladder of k by the ascending
    recursion, then ``sn = sin(phi)``, ``cn = cos(phi)`` and
    ``dn = sqrt(1 - k^2 sn^2)`` (the positive root is correct for all u
    when k < 1).  Accuracy degrades linearly in |u|; the package only ever
    needs a few periods.

    Raises:
        DomainError: if ``k`` is not one real modulus in [0, MODULUS_CUTOFF] or u is not finite.
    """
    return _k_e_jacobi(k)[2](u)


def _k_e_jacobi(k: float) -> tuple:
    """K(k), E(k) and the map u -> (sn, cn, dn)(u; k) of :func:`jacobi`, for
    one real modulus, from one ladder: the wave profile needs K before it
    can form the argument u = 2 K x / L."""
    k_arr = _moduli(k)
    if k_arr.ndim or k_arr.dtype.kind == "c":
        raise DomainError(f"jacobi takes one real modulus, got {k!r}")
    a_n, c_n = _agm(k_arr.reshape(1))
    big_k, big_e = _k_e(a_n, c_n)
    return big_k.item(), big_e.item(), lambda u: _descend(float(k_arr), a_n, c_n, u)


def _descend(k: float, a_n: np.ndarray, c_n: np.ndarray, u):
    """sn, cn, dn at u by the ascending amplitude recursion over the ladder
    a_n, c_n of the one modulus k (:func:`jacobi`)."""
    u_arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u_arr)):
        raise DomainError("jacobi requires finite u")

    n_steps = len(a_n) - 1  # one element: the last row is its stop
    phi = (2.0 ** n_steps) * a_n[-1, 0] * u_arr
    for i in range(n_steps, 0, -1):
        ratio = c_n[i, 0] / a_n[i, 0]
        phi = 0.5 * (phi + np.arcsin(np.clip(ratio * np.sin(phi), -1.0, 1.0)))

    sn = np.sin(phi)
    cn = np.cos(phi)
    dn = np.sqrt(1.0 - (k * sn) ** 2)
    if u_arr.ndim == 0:
        return float(sn), float(cn), float(dn)
    return sn, cn, dn
