import numpy as np
from hypothesis import settings

from scalarflat import MetricModel4T
from scalarflat.fourier import wavenumbers_no_nyquist

# property tests draw the same examples on every run, so tier-1 is reproducible
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def coords4(n):
    """Broadcastable (x1, y1, x2, y2) coordinate arrays of the 4-grid."""
    t = np.arange(n) / n
    return (t[:, None, None, None], t[None, :, None, None],
            t[None, None, :, None], t[None, None, None, :])


def trig_field4(n, rng, max_mode=1, terms=3):
    """Random band-limited real field on the 4-grid, bounded by 1."""
    x1, y1, x2, y2 = coords4(n)
    field = np.zeros((n, n, n, n))
    for _ in range(terms):
        k = rng.integers(-max_mode, max_mode + 1, size=4)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        field += np.cos(2.0 * np.pi * (k[0] * x1 + k[1] * y1 + k[2] * x2 + k[3] * y2)
                        + phase)
    return field / terms


def random_metric(n, rng, amplitude=0.12):
    """Random smooth Hermitian metric, safely positive definite."""
    g = np.zeros((n, n, n, n, 2, 2), dtype=complex)
    g[..., 0, 0] = 1.0 + amplitude * trig_field4(n, rng)
    g[..., 1, 1] = 1.0 + amplitude * trig_field4(n, rng)
    off = 0.5 * amplitude * (trig_field4(n, rng) + 1j * trig_field4(n, rng))
    g[..., 0, 1] = off
    g[..., 1, 0] = np.conj(off)
    return MetricModel4T(g)


def kahler_test_potential(n, amplitude):
    """The reference Kahler potential amplitude * sin(2 pi x1) cos(2 pi y2)."""
    x1, _, _, y2 = coords4(n)
    return np.broadcast_to(amplitude * np.sin(2 * np.pi * x1) * np.cos(2 * np.pi * y2),
                           (n, n, n, n)).copy()


def complex_symbols_4d(n):
    """Reference full-spectrum symbols (m11, m22, m12) of d^2 / (dz^i dzbar^j)
    for complex FFTs; m12 is complex."""
    kz = wavenumbers_no_nyquist(n)
    x1, y1 = kz[:, None, None, None], kz[None, :, None, None]
    x2, y2 = kz[None, None, :, None], kz[None, None, None, :]
    pi2 = np.pi ** 2
    return (-pi2 * (x1 ** 2 + y1 ** 2), -pi2 * (x2 ** 2 + y2 ** 2),
            -pi2 * (x1 * x2 + y1 * y2) + 1j * pi2 * (y1 * x2 - x1 * y2))
