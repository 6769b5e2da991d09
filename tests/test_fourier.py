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


def test_wavenumbers_are_exact_integers_in_fftfreq_order():
    for n in range(1, 257):
        k = fourier.wavenumbers(n)
        assert k.dtype == np.float64
        # fftfreq's order: 0, 1, ..., then the negative modes, -n/2 first at even n
        assert k.tolist() == [j if 2 * j < n else j - n for j in range(n)]
    # below 34 fftfreq is exact, so the symbol tables of every grid in the
    # tests and the benchmark are bit for bit what fftfreq gave
    for n in range(1, 34):
        assert fourier.wavenumbers(n).tobytes() == np.fft.fftfreq(n, 1.0 / n).tobytes()


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


@pytest.mark.parametrize("kernel", [fourier.dz, fourier.dzbar, fourier.ddbar])
@pytest.mark.parametrize("imag", [0.0, 1.0], ids=["real", "complex"])
def test_curve_kernels_differentiate_matrix_fields_entry_by_entry(kernel, imag):
    # the grid is axes (0, 1); the trailing (r, r) axes are entries
    rng = np.random.default_rng(3)
    field = rng.standard_normal((12, 12, 3, 3))
    if imag:
        field = field + 1j * rng.standard_normal(field.shape)
    whole = kernel(field)
    for a in range(3):
        for b in range(3):
            assert whole[..., a, b].tobytes() == kernel(field[..., a, b].copy()).tobytes()


def test_ddbar4_mixed_symbol_identity():
    # d1 d1bar . d2 d2bar == |d1 d2bar|^2 as symbols: checked via a Kahler-type
    # cancellation on a random band-limited potential
    rng = np.random.default_rng(1)
    phi = trig_field4(16, rng)
    d11, d22, d12 = fourier.ddbar4_components(phi)
    lhs = fourier.ddbar4_components(d22)[0]          # d1 d1bar d2 d2bar phi
    # d1 d2bar d2 d1bar phi, with conj(d12) = Re d12 - i Im d12 transformed part by part
    rhs = (fourier.ddbar4_components(d12.real)[2]
           - 1j * fourier.ddbar4_components(d12.imag)[2])
    assert np.max(np.abs(lhs - rhs.real)) < 1e-10
    assert np.max(np.abs(rhs.imag)) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 7, 8])
def test_the_ddbar_symbol_is_built_real(n):
    symbol = fourier._symbols_2d(n, n)[2]
    assert symbol.dtype == np.float64


def _laplacian_symbol_by_axis(shape):
    """The Laplacian symbol summed one axis at a time, each term reshaped."""
    total = np.zeros(shape)
    for axis, n in enumerate(shape):
        k = fourier.wavenumbers(n)
        sl = [None] * len(shape)
        sl[axis] = slice(None)
        total = total + (-((2.0 * np.pi * k) ** 2))[tuple(sl)]
    return total


@pytest.mark.parametrize("n", [1, 2, 7, 8])
def test_laplacian_symbol_matches_the_per_axis_sum_bit_for_bit(n):
    for shape in [(), (n,), (n, n), (n, 3, n)]:
        got = fourier.laplacian_symbol(shape)
        want = _laplacian_symbol_by_axis(shape)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(1, 34))
def test_half_symbols_4d_match_a_reference_built_by_reshapes(n):
    kz = fourier.wavenumbers_no_nyquist(n)
    x1, y1 = kz.reshape(n, 1, 1, 1), kz.reshape(1, n, 1, 1)
    x2, y2 = kz.reshape(1, 1, n, 1), kz[: n // 2 + 1].reshape(1, 1, 1, n // 2 + 1)
    pi2 = np.pi ** 2
    want = (-pi2 * (x1 ** 2 + y1 ** 2), -pi2 * (x2 ** 2 + y2 ** 2),
            -pi2 * (x1 * x2 + y1 * y2), pi2 * (y1 * x2 - x1 * y2))
    for got, ref in zip(fourier.half_symbols_4d(n), want, strict=True):
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()
        assert not got.flags.writeable


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


def test_the_seam_runs_each_transform_on_the_workers_read_at_its_call(monkeypatch):
    import scipy.fft
    seen = []

    def rfftn(x, workers):
        seen.append(workers)
        return x

    monkeypatch.setattr(scipy.fft, "rfftn", rfftn)
    fft = fourier._SciPyFFT()
    for threads in ("1", "2", "1"):
        monkeypatch.setenv("SCALARFLAT_THREADS", threads)
        fft.rfftn(np.zeros(4))
    assert seen == [1, 2, 1]


def _complex_ddbar4(field):
    spec = np.fft.fftn(field)
    return tuple(np.fft.ifftn(m * spec) for m in complex_symbols_4d(field.shape[0]))


@pytest.mark.parametrize("n", [8, 9])
def test_ddbar4_real_transforms_match_complex_reference(n):
    rng = np.random.default_rng(n)
    real = rng.standard_normal((n,) * 4)
    got = fourier.ddbar4_components(real)
    want = _complex_ddbar4(real)
    scale = max(float(np.max(np.abs(w))) for w in want)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-12 * scale
    d11, d22, d12 = got
    assert d11.dtype.kind == "f" and d22.dtype.kind == "f" and d12.dtype.kind == "c"
