"""Spectral and finite-difference derivative kernels on periodic unit grids.

Conventions used package-wide:

* every grid axis discretizes [0, 1) with uniform spacing 1/N and periodic
  wrap-around; a complex coordinate pairs two consecutive axes as z = x + iy;
* d/dz = (d/dx - i d/dy)/2 and d/dzbar = (d/dx + i d/dy)/2;
* spectral first derivatives zero the Nyquist mode so derivatives of real
  fields stay real;
* mixed second derivatives are built as products of the first-derivative
  symbols.  This makes operator identities exact at grid level, e.g.
  (d1 d1bar)(d2 d2bar) == (d1 d2bar)(d2 d1bar) as Fourier multipliers, which
  the curvature and Gauduchon checks rely on;
* the plain Laplacian used by the Poisson solver keeps the full -(2 pi k)^2
  symbol so it is invertible on every nonzero mode.

The finite-difference backend of the 2-d kernels uses centered second-order
stencils so convergence-order checks have something to converge.  The 4-d
kernel is spectral only, since the stencils break the identity above.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np
from scipy import fft as _fft

SPECTRAL = "spectral"
FINITE_DIFFERENCE = "fd"
_BACKENDS = (SPECTRAL, FINITE_DIFFERENCE)


def thread_workers() -> int:
    """Worker count for FFT calls.

    The SCALARFLAT_THREADS variable sets it (values below one mean one);
    unset or empty, it is the number of CPUs this process may run on.
    """
    cap = os.environ.get("SCALARFLAT_THREADS")
    if cap:
        try:
            return max(1, int(cap))
        except ValueError:
            raise ValueError(
                f"SCALARFLAT_THREADS={cap!r} is not an integer worker count") from None
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_backend(backend: str) -> None:
    if backend not in _BACKENDS:
        raise ValueError(f"unknown differentiation backend {backend!r}; expected one of {_BACKENDS}")


def wavenumbers(n: int) -> np.ndarray:
    """Integer wavenumbers of an n-point periodic unit-interval grid."""
    return np.fft.fftfreq(n, 1.0 / n)


def wavenumbers_no_nyquist(n: int) -> np.ndarray:
    """Wavenumbers with the (sign-ambiguous) Nyquist mode removed."""
    k = wavenumbers(n)
    if n % 2 == 0:
        k = k.copy()
        k[n // 2] = 0.0
    return k


# ---------------------------------------------------------------------------
# finite differences (centered, second order, periodic)

def _dx_fd(field: np.ndarray, axis: int) -> np.ndarray:
    n = field.shape[axis]
    return (np.roll(field, -1, axis) - np.roll(field, 1, axis)) * (n / 2.0)


def _dxx_fd(field: np.ndarray, axis: int) -> np.ndarray:
    n = field.shape[axis]
    return (np.roll(field, -1, axis) - 2.0 * field + np.roll(field, 1, axis)) * float(n) ** 2


# ---------------------------------------------------------------------------
# one complex dimension (2-d grids, axes (0, 1) = (x, y))

@lru_cache(maxsize=32)
def _symbols_2d(nx: int, ny: int):
    kx = wavenumbers_no_nyquist(nx)[:, None]
    ky = wavenumbers_no_nyquist(ny)[None, :]
    mu_z = np.pi * (ky + 1j * kx)        # symbol of d/dz
    mu_zbar = np.pi * (-ky + 1j * kx)    # symbol of d/dzbar
    return mu_z, mu_zbar, mu_z * mu_zbar


def _apply_symbol_2d(field: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    spec = _fft.fft2(field, workers=thread_workers())
    return _fft.ifft2(symbol * spec, workers=thread_workers())


def dz(field: np.ndarray, backend: str = SPECTRAL) -> np.ndarray:
    """Holomorphic derivative d/dz on a 2-d periodic grid (complex output)."""
    _check_backend(backend)
    if backend == FINITE_DIFFERENCE:
        return 0.5 * (_dx_fd(field, 0) - 1j * _dx_fd(field, 1))
    return _apply_symbol_2d(field, _symbols_2d(*field.shape[:2])[0])


def dzbar(field: np.ndarray, backend: str = SPECTRAL) -> np.ndarray:
    """Anti-holomorphic derivative d/dzbar on a 2-d periodic grid."""
    _check_backend(backend)
    if backend == FINITE_DIFFERENCE:
        return 0.5 * (_dx_fd(field, 0) + 1j * _dx_fd(field, 1))
    return _apply_symbol_2d(field, _symbols_2d(*field.shape[:2])[1])


def ddbar(field: np.ndarray, backend: str = SPECTRAL) -> np.ndarray:
    """Mixed second derivative d^2/(dz dzbar) = Laplacian/4 on a 2-d grid.

    Real input produces real output (the symbol is real and even).
    """
    _check_backend(backend)
    if backend == FINITE_DIFFERENCE:
        out = 0.25 * (_dxx_fd(field, 0) + _dxx_fd(field, 1))
        return out
    out = _apply_symbol_2d(field, _symbols_2d(*field.shape[:2])[2])
    if np.isrealobj(field):
        return out.real
    return out


# ---------------------------------------------------------------------------
# Poisson inverse (any number of axes, full Laplacian symbol)

def laplacian_symbol(shape: tuple[int, ...]) -> np.ndarray:
    """Symbol of the flat Laplacian sum_i d^2/dx_i^2 on the periodic unit cube."""
    total = np.zeros(shape)
    for axis, n in enumerate(shape):
        k = wavenumbers(n)
        sl = [None] * len(shape)
        sl[axis] = slice(None)
        total = total + (-((2.0 * np.pi * k) ** 2))[tuple(sl)]
    return total


def laplacian(field: np.ndarray) -> np.ndarray:
    """Flat Laplacian with the full spectral symbol (matches poisson_inverse)."""
    spec = _fft.fftn(field, workers=thread_workers())
    out = _fft.ifftn(laplacian_symbol(field.shape) * spec, workers=thread_workers())
    return out.real if np.isrealobj(field) else out


def poisson_inverse(rho: np.ndarray) -> np.ndarray:
    """Solve Laplacian(u) = rho on the periodic unit cube; u has zero mean.

    The zero mode of rho is dropped (the caller is responsible for checking
    the compatibility condition mean(rho) = 0).
    """
    symbol = laplacian_symbol(rho.shape)
    inv = np.zeros_like(symbol)
    nonzero = symbol != 0.0
    inv[nonzero] = 1.0 / symbol[nonzero]
    spec = _fft.fftn(rho, workers=thread_workers())
    out = _fft.ifftn(inv * spec, workers=thread_workers())
    return out.real if np.isrealobj(rho) else out


# ---------------------------------------------------------------------------
# two complex dimensions (4-d grids, axes (0, 1, 2, 3) = (x1, y1, x2, y2))

@lru_cache(maxsize=8)
def half_symbols_4d(n: int):
    """Real symbols (m11, m22, Re m12, Im m12) of the mixed second derivatives
    d^2 / (dz^i dzbar^j) on the rfftn half-spectrum of an n^4 grid.

    Every symbol is real and even in k, so a real field's derivatives come
    from one rfftn and one irfftn per symbol: d11 and d22 directly, and
    d12 = irfftn(Re m12 * F) + i irfftn(Im m12 * F).  m11 and m22 are
    broadcastable, the m12 parts dense; the arrays are read-only.
    """
    kz = wavenumbers_no_nyquist(n)
    zx1 = kz[:, None, None, None]
    zy1 = kz[None, :, None, None]
    zx2 = kz[None, None, :, None]
    zy2 = kz[None, None, None, : n // 2 + 1]
    pi2 = np.pi ** 2
    table = (-pi2 * (zx1 ** 2 + zy1 ** 2),
             -pi2 * (zx2 ** 2 + zy2 ** 2),
             -pi2 * (zx1 * zx2 + zy1 * zy2),
             pi2 * (zy1 * zx2 - zx1 * zy2))
    for symbol in table:
        symbol.setflags(write=False)
    return table


def _ddbar4_real(field: np.ndarray):
    m11, m22, m12_re, m12_im = half_symbols_4d(field.shape[0])
    workers = thread_workers()
    spec = _fft.rfftn(field, workers=workers)

    def inverse(symbol):
        return _fft.irfftn(symbol * spec, s=field.shape, workers=workers)

    d12 = np.empty(field.shape, dtype=complex)
    d12.real = inverse(m12_re)
    d12.imag = inverse(m12_im)
    return inverse(m11), inverse(m22), d12


def ddbar4_components(field: np.ndarray):
    """All mixed second derivatives of a field on a 4-d periodic grid.

    Returns (d11, d22, d12) with dij = d^2 field / (dz^i dzbar^j); the missing
    d21 is conj(d12) for real input and is never materialized.  d11 and d22
    are returned real for real input.  A complex field is transformed as its
    real and imaginary parts.
    """
    if field.ndim != 4 or field.shape != (field.shape[0],) * 4:
        raise ValueError(f"expected an equal-resolution 4-d grid, got shape {field.shape}")
    if np.iscomplexobj(field):
        re, im = _ddbar4_real(field.real), _ddbar4_real(field.imag)
        return tuple(a + 1j * b for a, b in zip(re, im))
    return _ddbar4_real(field)

