"""Chern curvature engines.

Covers curvature of Hermitian bundle metrics over a curve chart, induced
curvature of tautological bundles on split projective bundles, the
canonical-bundle curvature of P(L + trivial^(n-1)) via the projection
formula, and Chern-Ricci / scalar / total-scalar curvature of honest
Hermitian metrics on a discretized complex 2-torus.

On the 2-torus the volume normalization follows the package degree
convention: with omega = sqrt(-1) sum g_ij dz^i ^ dzbar^j on the periodic
unit 4-cube, omega^2 = 8 det(g) dx1 dy1 dx2 dy2, so the total scalar
curvature integral(s omega^2) is computed as 8 * mean(s * det g).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import zipfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import fourier
from .errors import DegreeError, DescriptorError, NumericalInconsistencyError
from .geom_core import (
    FiberSimplexPoint,
    LineBundleModel,
    OneOneForm,
    SplitBundle,
    _freeze,
)

#: agreement demanded between the two defining expressions of total scalar curvature
TOTAL_SCALAR_CROSS_TOL = 1e-6
#: input Hermitian-asymmetry tolerance for metric fields
HERMITIAN_INPUT_TOL = 1e-10


def _hermitian_entries(field: np.ndarray, what: str):
    """entry(i, j), the Hermitian part's entry (conj(f_ji) + f_ij) * 0.5 of a
    field of matrices over its last two axes as a fresh complex C-order
    array.  Raises DescriptorError naming `what` for a non-finite entry or an
    asymmetry max |f_ij - conj(f_ji)| above HERMITIAN_INPUT_TOL (relative to
    the largest entry).  Works one index pair at a time, so no temporary is
    larger than one entry."""
    field = np.asarray(field, dtype=complex)
    if not np.all(np.isfinite(field)):
        raise DescriptorError(f"{what} entries must be finite")
    r = field.shape[-1]
    largest = asym = 0.0
    for i in range(r):
        # f_ii - conj(f_ii) = 2i Im f_ii, exactly
        asym = max(asym, 2.0 * float(np.max(np.abs(field[..., i, i].imag))))
        for j in range(r):
            largest = max(largest, float(np.max(np.abs(field[..., i, j]))))
        # |f_ji - conj(f_ij)| is the same number, so the upper triangle covers every pair
        for j in range(i + 1, r):
            diff = np.conj(field[..., j, i])
            np.subtract(field[..., i, j], diff, out=diff)
            asym = max(asym, float(np.max(np.abs(diff))))
    if asym > HERMITIAN_INPUT_TOL * max(1.0, largest):
        raise DescriptorError(f"{what} is not Hermitian (asymmetry {asym:.3e})")

    def entry(i, j):
        out = np.conj(field[..., j, i])
        out += field[..., i, j]
        out *= 0.5
        return out

    return entry


def hermitian_part(field: np.ndarray, what: str) -> np.ndarray:
    """Hermitian part of a field of matrices over its last two axes, a fresh
    C-order field; validated as _hermitian_entries validates it."""
    entry = _hermitian_entries(field, what)
    out = np.empty(np.shape(field), dtype=complex)
    for i, j in np.ndindex(out.shape[-2:]):
        out[..., i, j] = entry(i, j)
    return out


def _hermitian_2x2(a11, a22, a12) -> np.ndarray:
    """Read-only (..., 2, 2) Hermitian field, diagonal a11, a22, upper entry a12."""
    out = np.zeros(np.broadcast_shapes(np.shape(a11), np.shape(a22), np.shape(a12))
                   + (2, 2), dtype=complex)
    out[..., 0, 0] = a11
    out[..., 1, 1] = a22
    out[..., 0, 1] = a12
    out[..., 1, 0] = np.conj(a12)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# bundle curvature over a curve chart

def chern_curvature_matrix(h: np.ndarray, backend: str = fourier.SPECTRAL) -> np.ndarray:
    """Full Chern curvature of a Hermitian bundle metric over the curve chart.

    h is an (n, n, r, r) field of positive Hermitian matrices; the output
    R[..., a, b] holds the components R_{z zbar a bbar}, i.e.

        R = -d^2 h / (dz dzbar) + (dh/dz) h^{-1} (dh/dzbar),

    which includes the first-derivative correction term.  The result is
    Hermitian in (a, b) at every grid point.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 4 or h.shape[2] != h.shape[3]:
        raise ValueError(f"expected an (n, n, r, r) matrix field, got shape {h.shape}")
    h = hermitian_part(h, "metric field")
    eigenvalues = np.linalg.eigvalsh(h)
    if float(eigenvalues.min()) <= 0.0:
        raise DescriptorError(
            f"metric field is not positive definite (min eigenvalue {eigenvalues.min():.3e})")

    r = h.shape[2]
    hz = np.empty_like(h)
    hzbar = np.empty_like(h)
    hzzbar = np.empty_like(h)
    for a in range(r):
        for b in range(r):
            hz[..., a, b] = fourier.dz(h[..., a, b], backend)
            hzbar[..., a, b] = fourier.dzbar(h[..., a, b], backend)
            hzzbar[..., a, b] = fourier.ddbar(h[..., a, b], backend)
    correction = np.einsum("...ab,...bc,...cd->...ad", hz, np.linalg.inv(h), hzbar)
    curv = -hzzbar + correction
    # exact Hermitian symmetrization; the asymmetry is pure roundoff
    return 0.5 * (curv + np.conj(np.swapaxes(curv, 2, 3)))


def tautological_base_curvature(bundle: SplitBundle, point: FiberSimplexPoint) -> np.ndarray:
    """Base-base part of the tautological-bundle curvature at one fiber point.

    For a diagonal bundle the induced curvature along the base at fiber
    weights s is sum_alpha kappa_alpha(z) * s_alpha; the full form is this
    field plus one copy of the Fubini-Study form on the fiber, which the
    caller assembles into a OneOneForm.
    """
    if point.rank != bundle.rank:
        raise DescriptorError(
            f"fiber point rank {point.rank} does not match bundle rank {bundle.rank}")
    stack = np.stack([s.kappa for s in bundle.summands])
    return np.tensordot(point.weights, stack, axes=(0, 0))


def canonical_curvature_split(bundle: SplitBundle, canonical: LineBundleModel,
                              s1) -> OneOneForm:
    """Canonical-bundle curvature of P((L + trivial^(n-1))^*) over the curve.

    The projection formula expresses the canonical bundle as the -n twist of
    the tautological bundle times the pullback of (canonical of the curve)
    tensor det E, so with kappa the density of L and gamma the density of the
    curve's canonical model the curvature is

        base:  (kappa + gamma) - n * kappa * s1      (s1 = weight on L)
        fiber: -n * omega_FS.

    s1 may be a scalar or a vector of fiber samples in [0, 1].
    """
    n = bundle.rank
    if n < 2:
        raise DescriptorError("projective-bundle model needs rank at least 2")
    lead = bundle.summands[0]
    for trivial in bundle.summands[1:]:
        if trivial.degree != 0 or float(np.max(np.abs(trivial.kappa))) > 1e-12:
            raise DescriptorError(
                "expected one nontrivial leading summand and trivial remaining summands")
    curve = bundle.curve
    if not canonical.curve.matches(curve):
        raise DescriptorError("canonical-bundle model lives on a different curve grid")
    if canonical.degree != 2 * curve.genus - 2:
        raise DegreeError(
            f"canonical degree {canonical.degree} inconsistent with genus {curve.genus} "
            f"(expected {2 * curve.genus - 2})")
    samples = np.atleast_1d(np.asarray(s1, dtype=float))
    if samples.ndim != 1 or np.any(samples < 0.0) or np.any(samples > 1.0):
        raise DescriptorError("fiber weight s1 must lie in [0, 1]")
    kappa = lead.kappa
    gamma = canonical.kappa
    base = (kappa + gamma)[None, :, :] - n * kappa[None, :, :] * samples[:, None, None]
    return OneOneForm(base_component=base, s1=samples, fs_multiple=float(-n))


# ---------------------------------------------------------------------------
# honest Hermitian metrics on the discretized complex 2-torus

@dataclass(frozen=True, eq=False, init=False)
class MetricModel4T:
    """Hermitian metric on the periodic 4-grid: a positive 2x2 Hermitian
    matrix at every point, stored as (n, n, n, n) fields over axes
    (x1, y1, x2, y2) of its entries g11, g22 (real), g12 (complex), its
    determinant and its inverse entries (inv12 = -g12 / det is the upper one).

    MetricModel4T(g) takes an (n, n, n, n, 2, 2) field, and the g and inverse
    properties build such fields anew on each access.  Instances are
    immutable; a private memo stores derived curvature fields (recomputing
    one concurrently is harmless, results are identical)."""

    g11: np.ndarray
    g22: np.ndarray
    g12: np.ndarray
    det: np.ndarray
    inv11: np.ndarray
    inv22: np.ndarray
    inv12: np.ndarray

    def __init__(self, g: np.ndarray):
        g = np.asarray(g, dtype=complex)
        if g.ndim != 6 or g.shape[4:] != (2, 2):
            raise DescriptorError(f"expected shape (n, n, n, n, 2, 2), got {g.shape}")
        entry = _hermitian_entries(g, "metric")
        # copies, so the instance keeps no view of a complex diagonal
        self.__post_init__(entry(0, 0).real.copy(), entry(1, 1).real.copy(), entry(0, 1))

    @classmethod
    def _from_components(cls, g11, g22, g12) -> "MetricModel4T":
        """Metric from fresh entry fields, frozen in place (no 2x2 validation)."""
        metric = cls.__new__(cls)
        metric.__post_init__(g11, g22, g12)
        return metric

    def __post_init__(self, g11, g22, g12):
        if g11.ndim != 4 or g11.shape != (g11.shape[0],) * 4:
            raise DescriptorError(f"expected an equal-resolution grid, got {g11.shape}")
        if not all(np.isfinite(entry).all() for entry in (g11, g22, g12)):
            raise DescriptorError("metric entries must be finite")
        det = g11 * g22
        det -= np.abs(g12) ** 2
        if float(g11.min()) <= 0.0 or float(det.min()) <= 0.0:
            raise DescriptorError(
                "metric is not positive definite "
                f"(min leading entry {g11.min():.3e}, min determinant {det.min():.3e})")
        inv12 = np.negative(g12)
        inv12 /= det
        fields = {"g11": g11, "g22": g22, "g12": g12, "det": det,
                  "inv11": g22 / det, "inv22": g11 / det, "inv12": inv12}
        for name, field in fields.items():
            field.setflags(write=False)
            object.__setattr__(self, name, field)
        object.__setattr__(self, "_derived", {})

    @property
    def g(self) -> np.ndarray:
        """The (n, n, n, n, 2, 2) metric field, built anew on each access."""
        return _hermitian_2x2(self.g11, self.g22, self.g12)

    @property
    def inverse(self) -> np.ndarray:
        """The (n, n, n, n, 2, 2) inverse field, built anew on each access."""
        return _hermitian_2x2(self.inv11, self.inv22, self.inv12)

    @property
    def resolution(self) -> int:
        return int(self.det.shape[0])

    @classmethod
    def flat(cls, resolution: int) -> "MetricModel4T":
        one = np.ones((resolution,) * 4)
        return cls._from_components(one, one, np.zeros(one.shape, dtype=complex))

    @classmethod
    def conformal(cls, exponent: np.ndarray) -> "MetricModel4T":
        """Metric e^u * (flat) for a real exponent field u."""
        factor = np.exp(np.asarray(exponent, dtype=float))
        return cls._from_components(factor, factor, np.zeros(factor.shape, dtype=complex))

    @classmethod
    def from_kahler_potential(cls, phi: np.ndarray) -> "MetricModel4T":
        """Perturbation of the flat metric by the complex Hessian of a potential."""
        phi = np.asarray(phi, dtype=float)
        d11, d22, d12 = fourier.ddbar4_components(phi)
        return cls._from_components(1.0 + d11, 1.0 + d22, d12)

    def rescaled(self, exponent: np.ndarray) -> "MetricModel4T":
        """Conformally rescaled metric e^w * g for a real field w."""
        w = np.asarray(exponent, dtype=float)
        if w.shape != self.det.shape:
            raise ValueError(f"exponent shape {w.shape} does not match grid {self.det.shape}")
        factor = np.exp(w)
        return MetricModel4T._from_components(self.g11 * factor, self.g22 * factor,
                                              self.g12 * factor)


@dataclass(frozen=True, eq=False)
class RicciField:
    """Components of the Chern-Ricci form in the dz^i ^ dzbar^j basis."""

    ric: np.ndarray

    def __post_init__(self):
        ric = np.asarray(self.ric, dtype=complex)
        if ric.ndim != 6 or ric.shape[4:] != (2, 2):
            raise DescriptorError(f"expected shape (n, n, n, n, 2, 2), got {ric.shape}")
        ric = hermitian_part(ric, "Ricci field")    # fresh, so frozen in place
        ric.setflags(write=False)
        object.__setattr__(self, "ric", ric)


def _ricci_components(metric: MetricModel4T):
    """(R11, R22, R12) of -ddbar log det g, fresh arrays on every call."""
    components = fourier.ddbar4_components(np.log(metric.det))
    for d in components:
        np.negative(d, out=d)
    return components


def chern_ricci(metric: MetricModel4T) -> RicciField:
    """Chern-Ricci curvature: ric_ij = -d^2 log det(g) / (dz^i dzbar^j)."""
    return RicciField(_hermitian_2x2(*_ricci_components(metric)))


def _trace_weights(metric: MetricModel4T):
    """Weights (inv11, inv22, 2 Re inv12, 2 Im inv12) pairing a real (1,1)-form's
    (a11, a22, Re a12, Im a12) with g^{i jbar}, one at a time; the trace operator
    and s_G sum the products in this order, so s_G == -L(log det g) exactly."""
    yield metric.inv11
    yield metric.inv22
    # g^{1 2bar} = conj(inv12) pairs with a12 and its conjugate with a21 = conj(a12)
    yield 2.0 * metric.inv12.real
    yield 2.0 * metric.inv12.imag


def _scalar_curvature(metric: MetricModel4T) -> tuple[np.ndarray, tuple[float, float]]:
    """(s, (trace route, wedge route)), memoized on the metric.  The Ricci
    components they come from are computed once and not kept."""
    cached = metric._derived.get("scalar")
    if cached is not None:
        return cached
    r11, r22, r12 = _ricci_components(metric)
    weights = _trace_weights(metric)
    s = next(weights) * r11
    product = np.empty_like(s)    # scratch for each product, then for s det
    for r in (r22, r12.real, r12.imag):
        s += np.multiply(next(weights), r, out=product)
    s.setflags(write=False)
    trace_route = 8.0 * float(np.mean(np.multiply(s, metric.det, out=product)))
    # the wedge integrand r11 g22 + r22 g11 - 2 Re(r12 conj(g12)), built in
    # r11 with r22 as scratch; the product stays out of place, since numpy's
    # in-place complex multiply may round differently
    wedge = r11
    wedge *= metric.g22
    r22 *= metric.g11
    wedge += r22
    np.multiply((r12 * np.conj(metric.g12)).real, 2.0, out=r22)
    wedge -= r22
    cached = metric._derived["scalar"] = (s, (trace_route, 8.0 * float(np.mean(wedge))))
    return cached


def chern_scalar(metric: MetricModel4T) -> np.ndarray:
    """Chern scalar curvature s = g^{i jbar} ric_{i jbar}, real by construction:
    every term is a product of real fields."""
    return _scalar_curvature(metric)[0]


def total_scalar(metric: MetricModel4T) -> float:
    """Total Chern scalar curvature integral(s omega^2) over the 4-torus.

    Also evaluates the wedge expression 2 integral(Ric ^ omega) and raises
    NumericalInconsistencyError if the two disagree beyond tolerance.
    """
    trace_route, wedge_route = total_scalar_routes(metric)
    if abs(trace_route - wedge_route) > TOTAL_SCALAR_CROSS_TOL:
        raise NumericalInconsistencyError(
            f"total scalar cross-check failed: trace route {trace_route!r} vs "
            f"wedge route {wedge_route!r}")
    return trace_route


def total_scalar_routes(metric: MetricModel4T) -> tuple[float, float]:
    """Both defining expressions of the total scalar curvature."""
    return _scalar_curvature(metric)[1]


def conformal_ricci(ric: RicciField, f: np.ndarray, n: int) -> RicciField:
    """Ricci curvature after the conformal change omega -> e^f omega in
    complex dimension n: returns ric - n * ddbar f componentwise."""
    f = np.asarray(f, dtype=float)
    if f.shape != ric.ric.shape[:4]:
        raise ValueError(f"conformal factor shape {f.shape} does not match {ric.ric.shape[:4]}")
    return RicciField(ric.ric - n * _hermitian_2x2(*fourier.ddbar4_components(f)))


def curvature_report(metric: MetricModel4T) -> dict:
    """Machine-readable scalar-curvature report for a metric."""
    s = chern_scalar(metric)
    trace_route, wedge_route = total_scalar_routes(metric)
    return {
        "min": float(s.min()),
        "max": float(s.max()),
        "integral": trace_route,
        "cross_check_residual": abs(trace_route - wedge_route),
    }


# ---------------------------------------------------------------------------
# CSV persistence for metrics and 4-d scalar fields

# the Hermitian 2x2 metric is stored as four real grids: both diagonal
# entries plus the real and imaginary parts of the upper off-diagonal entry
_COMPONENT_FILES = {
    "11": "g11.csv",
    "22": "g22.csv",
    "12re": "g12_re.csv",
    "12im": "g12_im.csv",
}
#: binary twin of a metric's CSVs: each grid, plus the sha256 of its CSV
_TWIN_FILE = "metric.npz"
#: what np.load raises on a twin that is missing, truncated or not an npz
_TWIN_ERRORS = (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile)


# %.18e text without Python's `%` on every value.  `%.18e` prints the exact
# binary value rounded to 19 significant digits, i.e. the integer nearest
# x * 10^(18 - e10) with e10 = floor(log10 |x|).  That product is formed as a
# double-double, Dekker's exact two-product of x and hi(10^q) plus x * lo(10^q)
# (Dekker, Numer. Math. 18, 1971), which is within about 1e-13 of the exact
# value, so the nearest integer is certain except within 1e-7 of a tie.
# Near-ties, non-finite values and nonzero |x| outside [1e-240, 1e240) are
# left to `%` (Steele & White, PLDI 1990, handle the general case).

#: Veltkamp's splitting constant 2^27 + 1
_SPLIT = 134217729.0
#: the table holds 10^q for _Q_MIN <= q <= _Q_MAX; q = 18 - e10 stays within it
_Q_MIN, _Q_MAX = -230, 260
#: magnitudes formatted without the fallback
_FAST_MIN, _FAST_MAX = 1e-240, 1e240
#: distance from a rounding tie inside which the fallback formats a value
_TIE_GUARD = 1e-7


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split a = hi + lo into halves of at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _powers_of_ten() -> np.ndarray:
    """Rows hi, hi's two Veltkamp halves and lo of 10^q = hi + lo + O(10^q 2^-106)
    for q = _Q_MIN.._Q_MAX, from exact rationals; built on the first write."""
    hi, lo = [], []
    for q in range(_Q_MIN, _Q_MAX + 1):
        exact = Fraction(10) ** q
        hi.append(float(exact))
        lo.append(float(exact - Fraction(hi[-1])))
    hi = np.array(hi)
    return _freeze(np.stack([hi, *_split(hi), np.array(lo)]))


#: ASCII digits of 0..999, one column per number
_THREE_DIGITS = (np.arange(1000) // np.array([[100], [10], [1]]) % 10
                 + ord("0")).astype(np.uint8)


def _scaled(a: np.ndarray, e10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Double-double (s, err) of a * 10^(18 - e10) for positive a: s is the
    rounded product, integer-valued near [1e18, 1e19], and err the rest."""
    b, b_hi, b_lo, lo = np.take(_powers_of_ten(), 18 - e10 - _Q_MIN, axis=1)
    p = a * b
    a_hi, a_lo = _split(a)
    t = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo + a * lo
    s = p + t    # Fast2Sum: |p| >= |t|
    return s, t - (s - p)


def _below(s: np.ndarray, err: np.ndarray) -> np.ndarray:
    return (s < 1e18) | ((s == 1e18) & (err < 0.0))


def _at_or_above(s: np.ndarray, err: np.ndarray) -> np.ndarray:
    return (s > 1e19) | ((s == 1e19) & (err >= 0.0))


def _fallback_text(value: float) -> str:
    """Python's %.18e, for the values _format_e18 does not format itself."""
    return "%.18e" % value


def _format_e18(x: np.ndarray, separators: np.ndarray) -> bytes:
    """b"".join(b"%.18e" % v + sep) over the float64 values x and their
    separator bytes, byte for byte."""
    a = np.abs(x)
    zero = a == 0.0
    fast = zero | ((a >= _FAST_MIN) & (a < _FAST_MAX))    # False for nan
    a = np.where(fast & ~zero, a, 1.0)     # log10 sees positive finite values only
    e10 = np.floor(np.log10(a)).astype(np.int64)
    s, err = _scaled(a, e10)
    # log10 can miss floor(log10 a) by one next to a power of ten
    shift = _at_or_above(s, err).astype(np.int64) - _below(s, err)
    moved = np.flatnonzero(shift)
    if moved.size:
        e10[moved] += shift[moved]
        s[moved], err[moved] = _scaled(a[moved], e10[moved])
    below = np.floor(err)
    frac = err - below
    fallback = (~fast | (np.abs(frac - 0.5) <= _TIE_GUARD)
                | _below(s, err) | _at_or_above(s, err))
    s[fallback] = 1e18
    offset = below + (frac > 0.5)
    offset[fallback] = 0.0
    # the digit integer, s + offset with |offset| <= 2048, in uint64 without wrapping
    d = s.astype(np.uint64) + (offset + 2048.0).astype(np.uint64) - np.uint64(2048)
    # rounding up to 10^19 would carry into the exponent; no double in the
    # fast range lies that close below a power of ten
    fallback |= d >= np.uint64(10 ** 19)
    d[zero] = 0
    e10[zero] = 0

    # one column per value: sign, d.ddd..., e, exponent sign, three exponent
    # digits and the separator; the sign and a leading exponent zero are pads
    n = x.size
    out = np.empty((27, n), dtype=np.uint8)
    out[0] = ord("-")
    lead = d // np.uint64(10 ** 18)
    out[1] = lead + ord("0")
    out[2] = ord(".")
    rest = d - lead * np.uint64(10 ** 18)
    halves = np.empty((2, n), dtype=np.uint32)
    halves[0] = rest // np.uint64(10 ** 9)
    halves[1] = rest % np.uint64(10 ** 9)
    digits = out[3:21].reshape(2, 9, n)
    for k in range(8, -1, -1):
        quotient = halves // np.uint32(10)
        np.subtract(halves, quotient * np.uint32(10), out=digits[:, k], casting="unsafe")
        halves = quotient
    out[3:21] += ord("0")
    out[21] = ord("e")
    out[22] = np.where(e10 < 0, ord("-"), ord("+"))
    np.take(_THREE_DIGITS, np.abs(e10), axis=1, out=out[23:26])
    out[26] = separators
    keep = np.ones((n, 27), dtype=bool)
    keep[:, 0] = np.signbit(x)
    keep[:, 23] = np.abs(e10) >= 100
    for j in np.flatnonzero(fallback):
        # at most 26 characters and the separator, so it fits the column
        text = (_fallback_text(float(x[j])) + chr(separators[j])).encode("ascii")
        out[:len(text), j] = np.frombuffer(text, dtype=np.uint8)
        keep[j] = np.arange(27) < len(text)
    return np.ascontiguousarray(out.T)[keep].tobytes()


def _write_grid_csv(path: Path, values: np.ndarray, component: str) -> str:
    """Write a real (n, n, n, n) grid byte for byte as np.savetxt writes its
    (n^3, n) flattening with delimiter "," and header "N=n component=..",
    one x1-slab at a time; returns the sha256 of the bytes written."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if values.shape != (n, n, n, n):
        raise ValueError(f"expected an (n, n, n, n) grid, got shape {values.shape}")
    separators = np.full((n * n, n), ord(","), dtype=np.uint8)
    separators[:, -1] = ord("\n")
    separators = separators.ravel()
    digest = hashlib.sha256()
    with open(path, "wb") as handle:
        for data in itertools.chain(
                [f"# N={n} component={component}\n".encode("ascii")],
                (_format_e18(slab.ravel(), separators) for slab in values)):
            digest.update(data)
            handle.write(data)
    return digest.hexdigest()


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _read_grid_csv(path: Path, component: str, grid: np.ndarray | None = None) -> np.ndarray:
    """The (n, n, n, n) grid of a CSV written by _write_grid_csv.  `grid`, if
    given, is a copy of the file's values known to match its bytes, and
    stands in for the parse; the header check runs either way."""
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline()
        # loadtxt only warns on a file with no data row; stop at the first one
        empty = grid is None and not any(line.split("#", 1)[0].strip() for line in handle)
    if f"component={component}" not in first:
        raise DescriptorError(f"{path}: expected component={component}, header was {first!r}")
    if grid is not None:
        return grid
    if empty:
        raise DescriptorError(f"{path}: no grid values after the header")
    flat = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    n = flat.shape[1]
    if flat.shape != (n ** 3, n):
        raise DescriptorError(f"{path}: grid shape {flat.shape} is not a flattened 4-cube")
    return flat.reshape(n, n, n, n)


def _read_twin(path: Path, resolution: int) -> dict[str, tuple[str, np.ndarray]]:
    """component -> (sha256 of its CSV, grid) from the binary twin at `path`,
    keeping only float64 grids at the manifest's resolution; empty for a
    twin that cannot be read (missing, truncated, not an npz archive)."""
    try:
        # np.load leaves a file it opened itself unclosed when the zip
        # directory is unreadable, so the handle is ours
        with open(path, "rb") as handle:
            twin = np.load(handle, allow_pickle=False)
            if not isinstance(twin, np.lib.npyio.NpzFile):
                return {}
            with twin:
                entries = {c: (str(twin[f"{c}_sha256"]), twin[c]) for c in _COMPONENT_FILES}
    except _TWIN_ERRORS:
        return {}
    return {c: (digest, grid) for c, (digest, grid) in entries.items()
            if grid.dtype == np.dtype(float) and grid.shape == (resolution,) * 4}


def _manifest_fields(manifest, path: Path) -> tuple[int, dict[str, str], str | None]:
    """(resolution, component -> CSV file name, twin file name or None) of a
    metric manifest; DescriptorError for a missing or mistyped field."""
    if not isinstance(manifest, dict):
        raise DescriptorError(f"{path}: a metric manifest must be a JSON object")
    resolution = manifest.get("resolution")
    if not isinstance(resolution, int) or isinstance(resolution, bool):
        raise DescriptorError(f"{path}: 'resolution' must be an integer, got {resolution!r}")
    components = manifest.get("components")
    if not isinstance(components, dict):
        raise DescriptorError(f"{path}: 'components' must map each component to a CSV file")
    files = {}
    for component in _COMPONENT_FILES:
        files[component] = components.get(component)
        if not isinstance(files[component], str):
            raise DescriptorError(
                f"{path}: 'components' names no CSV file for component {component!r}")
    binary = manifest.get("binary")
    if "binary" in manifest and not isinstance(binary, str):
        raise DescriptorError(f"{path}: 'binary' must be a file name, got {binary!r}")
    return resolution, files, binary


def save_metric(metric: MetricModel4T, directory) -> Path:
    """Write metric components as CSV grids, their binary twin and a JSON
    manifest; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    fields = {"11": metric.g11, "22": metric.g22,
              "12re": metric.g12.real, "12im": metric.g12.imag}
    manifest = {"resolution": metric.resolution, "components": {}, "binary": _TWIN_FILE}
    digests = {}
    for component, fname in _COMPONENT_FILES.items():
        digests[f"{component}_sha256"] = _write_grid_csv(
            directory / fname, fields[component], component)
        manifest["components"][component] = fname
    np.savez(directory / _TWIN_FILE, **fields, **digests)
    manifest_path = directory / "metric.json"
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")
    return manifest_path


def load_metric(manifest_path) -> MetricModel4T:
    """Read a metric written by save_metric.  The CSVs are authoritative: a
    grid comes from the binary twin only when the sha256 of its CSV on disk
    equals the digest the twin stores for it (the twin then holds exactly the
    values the CSV parses to); otherwise the CSV is parsed."""
    manifest_path = Path(manifest_path)
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    resolution, files, binary = _manifest_fields(manifest, manifest_path)
    directory = manifest_path.parent
    twin = _read_twin(directory / binary, resolution) if binary is not None else {}
    parts = {}
    for component, fname in files.items():
        path = directory / fname
        digest, grid = twin.get(component, (None, None))
        if grid is not None and _file_sha256(path) != digest:
            grid = None
        parts[component] = _read_grid_csv(path, component, grid)
        if parts[component].shape[0] != resolution:
            raise DescriptorError(
                f"{path}: grid resolution {parts[component].shape[0]} "
                f"disagrees with the manifest's {resolution}")
    # assigned part by part: re + 1j * im would turn an imaginary -0.0 into +0.0
    g12 = np.empty(parts["12re"].shape, dtype=complex)
    g12.real = parts.pop("12re")
    g12.imag = parts.pop("12im")
    return MetricModel4T._from_components(parts["11"], parts["22"], g12)


def save_field4(path, values: np.ndarray) -> None:
    """Write a real 4-d grid field as CSV (same layout as metric components),
    labelled component=f."""
    _write_grid_csv(Path(path), values, "f")

