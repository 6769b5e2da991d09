"""Spectral derivative kernels on periodic unit grids.

Conventions used package-wide:

* every grid axis discretizes [0, 1) with uniform spacing 1/N and periodic
  wrap-around; a complex coordinate pairs two consecutive axes as z = x + iy;
* d/dz = (d/dx - i d/dy)/2 and d/dzbar = (d/dx + i d/dy)/2;
* spectral first derivatives zero the Nyquist mode so derivatives of real
  fields stay real;
* mixed second derivatives are built as products of the first-derivative
  symbols, multiplied out so that every real symbol is a real array.  This
  makes operator identities exact at grid level, e.g.
  (d1 d1bar)(d2 d2bar) == (d1 d2bar)(d2 d1bar) as Fourier multipliers, which
  the curvature and Gauduchon checks rely on;
* the plain Laplacian used by the Poisson solver keeps the full -(2 pi k)^2
  symbol so it is invertible on every nonzero mode.

Every derivative in the package is spectral, on the 2-d and 4-d grids.

Every transform goes through ``_fft``, which runs it on thread_workers()
workers and imports scipy on first use (see _SciPyFFT), so the theory
commands, which never transform, load no scipy.  Callers look ``_fft`` up at
call time, so swapping it reaches every transform.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np

from .geom_core import _real, _require_finite, _require_grid


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


class _SciPyFFT:
    """scipy.fft's transforms, each run on thread_workers() workers, read at
    every call.  scipy.fft is imported on the first attribute read together
    with scipy.sparse.linalg, which the conformal solver needs: imported
    later, in the middle of a solve, it fragments the heap the solve has built."""

    def __getattr__(self, name):
        import scipy.fft
        import scipy.sparse.linalg  # noqa: F401
        transform = getattr(scipy.fft, name)

        def on_workers(*args, **kwargs):
            return transform(*args, workers=thread_workers(), **kwargs)

        setattr(self, name, on_workers)    # later reads skip __getattr__
        return on_workers


_fft = _SciPyFFT()


def wavenumbers(n: int) -> np.ndarray:
    """Exact integer wavenumbers of an n-point periodic unit grid, in fftfreq's order."""
    return np.fft.ifftshift(np.arange(n, dtype=float) - n // 2)


def wavenumbers_no_nyquist(n: int) -> np.ndarray:
    """Wavenumbers with the (sign-ambiguous) Nyquist mode removed."""
    return np.where(2 * np.arange(n) == n, 0.0, wavenumbers(n))


def _apply_symbol(field: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """ifftn(symbol * fftn(field)) over the symbol's axes, the leading axes of
    field, entry by entry over any trailing axes; the result is real exactly
    when field and symbol both are."""
    axes = tuple(range(symbol.ndim))
    symbol = symbol.reshape(symbol.shape + (1,) * (field.ndim - symbol.ndim))
    out = _fft.ifftn(symbol * _fft.fftn(field, axes=axes), axes=axes)
    return out.real if np.isrealobj(field) and np.isrealobj(symbol) else out


# ---------------------------------------------------------------------------
# one complex dimension (2-d grids, axes (0, 1) = (x, y))

def _symbols_2d(nx: int, ny: int):
    """Symbols of d/dz, d/dzbar and the real d^2/(dz dzbar) on an nx x ny grid."""
    kx, ky = np.ix_(wavenumbers_no_nyquist(nx), wavenumbers_no_nyquist(ny))
    mu_z = np.pi * (ky + 1j * kx)        # symbol of d/dz
    mu_zbar = np.pi * (-ky + 1j * kx)    # symbol of d/dzbar
    return mu_z, mu_zbar, -np.pi ** 2 * (kx ** 2 + ky ** 2)


def dz(field: np.ndarray) -> np.ndarray:
    """Spectral holomorphic derivative d/dz on the 2-d periodic grid of axes
    (0, 1), entry by entry over any trailing axes (complex output)."""
    return _apply_symbol(field, _symbols_2d(*field.shape[:2])[0])


def dzbar(field: np.ndarray) -> np.ndarray:
    """Spectral anti-holomorphic derivative d/dzbar on axes (0, 1), as dz."""
    return _apply_symbol(field, _symbols_2d(*field.shape[:2])[1])


def ddbar(field: np.ndarray) -> np.ndarray:
    """Spectral mixed second derivative d^2/(dz dzbar) = Laplacian/4 on axes
    (0, 1), as dz; the symbol is real, so real input gives real output."""
    return _apply_symbol(field, _symbols_2d(*field.shape[:2])[2])


# ---------------------------------------------------------------------------
# Poisson inverse (any number of axes, full Laplacian symbol)

def laplacian_symbol(shape: tuple[int, ...]) -> np.ndarray:
    """Symbol of the flat Laplacian sum_i d^2/dx_i^2 on the periodic unit cube."""
    return sum((-((2.0 * np.pi * k) ** 2) for k in np.ix_(*map(wavenumbers, shape))),
               np.zeros(shape))


def laplacian(field: np.ndarray) -> np.ndarray:
    """Flat Laplacian with the full spectral symbol (matches poisson_inverse)."""
    return _apply_symbol(field, laplacian_symbol(field.shape))


def poisson_inverse(rho: np.ndarray) -> np.ndarray:
    """Solve Laplacian(u) = rho on the periodic unit cube; u has zero mean.

    The zero mode of rho is dropped (the caller is responsible for checking
    the compatibility condition mean(rho) = 0).
    """
    symbol = laplacian_symbol(rho.shape)
    inverse = np.divide(1.0, symbol, out=np.zeros(rho.shape), where=symbol != 0.0)
    return _apply_symbol(rho, inverse)


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
    zx1, zy1, zx2, zy2 = np.ix_(kz, kz, kz, kz[: n // 2 + 1])
    pi2 = np.pi ** 2
    table = (-pi2 * (zx1 ** 2 + zy1 ** 2),
             -pi2 * (zx2 ** 2 + zy2 ** 2),
             -pi2 * (zx1 * zx2 + zy1 * zy2),
             pi2 * (zy1 * zx2 - zx1 * zy2))
    for symbol in table:
        symbol.setflags(write=False)
    return table


def ddbar4_components(field: np.ndarray):
    """All mixed second derivatives of a real field on a 4-d periodic grid.

    Returns (d11, d22, d12) with dij = d^2 field / (dz^i dzbar^j); the missing
    d21 is conj(d12) and is never materialized.  d11 and d22 are real.  A
    complex field is a DescriptorError, and so are a NaN or infinite entry
    and a field whose sum overflows; a derivative past the float64 range
    comes back inf or NaN, never as a numpy warning.
    """
    field = _real(field)
    m11, m22, m12_re, m12_im = half_symbols_4d(_require_grid(field.shape))
    _require_finite(field)    # before the first read of _fft
    spec = _fft.rfftn(field)
    # the zero mode, the sum of every entry, meets a zero symbol in every product, so
    # its overflow is refused here; one elsewhere is inf or NaN for the result's admission
    _require_finite(spec[0, 0, 0, 0], "field sum")

    def inverse(symbol):
        with np.errstate(over="ignore", invalid="ignore"):
            return _fft.irfftn(symbol * spec, s=field.shape)

    d12 = np.empty(field.shape, dtype=complex)
    d12.real = inverse(m12_re)
    d12.imag = inverse(m12_im)
    return inverse(m11), inverse(m22), d12
