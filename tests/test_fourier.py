import os

import numpy as np
import pytest
from conftest import complex_symbols_4d, trig_field4

from scalarflat import fourier
from scalarflat.geom_core import grid_coordinates


def test_wavenumbers_and_nyquist_zeroing():
    k = fourier.wavenumbers(8)
    assert k[1] == 1.0 and k[-1] == -1.0
    kz = fourier.wavenumbers_no_nyquist(8)
    assert kz[4] == 0.0
    assert np.array_equal(fourier.wavenumbers_no_nyquist(9), fourier.wavenumbers(9))


def test_dz_convention_on_plane_wave():
    # for f = exp(2 pi i (x + y)): df/dz = pi (1 + i) f  under dz = (dx - i dy)/2
    n = 32
    x, y = grid_coordinates(n)
    f = np.exp(2j * np.pi * (x + y)) * np.ones((n, n))
    out = fourier.dz(f)
    assert np.max(np.abs(out - np.pi * (1 + 1j) * f)) < 1e-10
    out_bar = fourier.dzbar(f)
    assert np.max(np.abs(out_bar - np.pi * (1j - 1) * f)) < 1e-10


def test_ddbar_equals_quarter_laplacian():
    n = 32
    x, y = grid_coordinates(n)
    f = (np.sin(2 * np.pi * x) + np.cos(4 * np.pi * y)) * np.ones((n, n))
    expected = 0.25 * (-(2 * np.pi) ** 2 * np.sin(2 * np.pi * x)
                       - (4 * np.pi) ** 2 * np.cos(4 * np.pi * y)) * np.ones((n, n))
    assert np.max(np.abs(fourier.ddbar(f) - expected)) < 1e-10
    assert fourier.ddbar(f).dtype.kind == "f"


def test_fd_backend_agrees_on_smooth_data():
    n = 128
    x, y = grid_coordinates(n)
    f = np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) * np.ones((n, n))
    spectral = fourier.ddbar(f)
    fd = fourier.ddbar(f, backend="fd")
    assert np.max(np.abs(spectral - fd)) < 0.05
    with pytest.raises(ValueError):
        fourier.ddbar(f, backend="mystery")


def test_ddbar4_mixed_symbol_identity():
    # d1 d1bar . d2 d2bar == |d1 d2bar|^2 as symbols: checked via a Kahler-type
    # cancellation on a random band-limited potential
    rng = np.random.default_rng(1)
    phi = trig_field4(16, rng)
    d11, d22, d12 = fourier.ddbar4_components(phi)
    lhs = fourier.ddbar4_components(d22)[0]          # d1 d1bar d2 d2bar phi
    rhs = fourier.ddbar4_components(np.conj(d12))[2]  # d1 d2bar d2 d1bar phi
    assert np.max(np.abs(lhs - rhs.real)) < 1e-10
    assert np.max(np.abs(rhs.imag)) < 1e-10


def test_poisson_inverse_and_laplacian_are_inverse_pairs():
    rng = np.random.default_rng(2)
    n = 32
    x, y = grid_coordinates(n)
    rho = (np.sin(2 * np.pi * x) * np.cos(6 * np.pi * y)) * np.ones((n, n))
    u = fourier.poisson_inverse(rho)
    assert np.max(np.abs(fourier.laplacian(u) - rho)) < 1e-10


def test_thread_workers_env_cap(monkeypatch):
    monkeypatch.setenv("SCALARFLAT_THREADS", "2")
    assert fourier.thread_workers() == 2
    monkeypatch.delenv("SCALARFLAT_THREADS")
    assert fourier.thread_workers() >= 1


def test_thread_workers_rejects_non_integer(monkeypatch):
    monkeypatch.setenv("SCALARFLAT_THREADS", "abc")
    with pytest.raises(ValueError, match="SCALARFLAT_THREADS='abc'"):
        fourier.thread_workers()


def test_thread_workers_zero_means_one(monkeypatch):
    monkeypatch.setenv("SCALARFLAT_THREADS", "0")
    assert fourier.thread_workers() == 1


def test_thread_workers_unset_follows_affinity(monkeypatch):
    monkeypatch.delenv("SCALARFLAT_THREADS", raising=False)
    if hasattr(os, "sched_getaffinity"):
        expected = len(os.sched_getaffinity(0))
    else:
        expected = os.cpu_count() or 1
    assert fourier.thread_workers() == expected


def _complex_ddbar4(field):
    spec = np.fft.fftn(field)
    return tuple(np.fft.ifftn(m * spec) for m in complex_symbols_4d(field.shape[0]))


@pytest.mark.parametrize("n", [8, 9])
def test_ddbar4_real_transforms_match_complex_reference(n):
    rng = np.random.default_rng(n)
    real = rng.standard_normal((n,) * 4)
    field = real + 1j * rng.standard_normal((n,) * 4)
    for f in (real, field):
        got = fourier.ddbar4_components(f)
        want = _complex_ddbar4(f)
        scale = max(float(np.max(np.abs(w))) for w in want)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-12 * scale
    d11, d22, d12 = fourier.ddbar4_components(real)
    assert d11.dtype.kind == "f" and d22.dtype.kind == "f" and d12.dtype.kind == "c"
