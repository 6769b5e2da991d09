"""Chern curvature engines.

Covers curvature of Hermitian bundle metrics over a curve chart, induced
curvature of tautological bundles on split projective bundles, the
canonical-bundle curvature of P(L + trivial^(n-1)) via the projection
formula, and Chern-Ricci / scalar / total-scalar curvature of honest
Hermitian metrics on a discretized complex 2-torus.

On the 2-torus s = -L(log det g), L = tr_omega ddbar (TraceOperator, which
the conformal solver inverts).  The volume normalization follows the package
degree convention: with omega = sqrt(-1) sum g_ij dz^i ^ dzbar^j on the
periodic unit 4-cube, omega^2 = 8 det(g) dx1 dy1 dx2 dy2, so the total scalar
curvature integral(s omega^2) is 8 * mean(s * det g), computed in _total.
chern_ricci is the one producer of the Chern-Ricci form (RicciField, stored
as its entries): conformal_ricci shifts them, and the wedge route of
total_scalar_routes and curvature_report pairs them with g.  The two routes
differ in float order only, and nothing raises on their gap.
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
from .errors import DegreeError, DescriptorError
from .geom_core import (
    FiberSimplexPoint,
    LineBundleModel,
    OneOneForm,
    SplitBundle,
    _freeze,
    _no_data_row,
    _plain_file_name,
    _real,
    _require_finite,
    _require_grid,
    _require_integer,
    _require_resolution,
)

#: input Hermitian-asymmetry tolerance for metric fields
HERMITIAN_INPUT_TOL = 1e-10


def _hermitian_entries(field: np.ndarray, what: str):
    """entry(i, j), the Hermitian part's entry (conj(f_ji) + f_ij) * 0.5 of a
    complex field of matrices over its last two axes as a fresh complex
    C-order array.  Raises DescriptorError naming `what` for a non-finite
    entry or an asymmetry max |f_ij - conj(f_ji)| above HERMITIAN_INPUT_TOL
    times the largest |f_ij|, at every scale.  Works one index pair at a
    time, so no temporary is larger than one entry."""
    _require_finite(field, what)
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
    if asym > HERMITIAN_INPUT_TOL * largest:
        raise DescriptorError(f"{what} is not Hermitian (asymmetry {asym:.3e})")

    def entry(i, j):
        # an average past the float64 range is inf or NaN, for the caller's admission to refuse
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.conj(field[..., j, i])
            out += field[..., i, j]
            out *= 0.5
        return out

    return entry


def _dense_entries(field: np.ndarray, what: str):
    """(f11, f22, f12) of an (n, n, n, n, 2, 2) field's Hermitian part, fresh,
    the diagonal real; validated as _hermitian_entries validates it."""
    field = _real(field, what, complex)
    _require_grid(field.shape, (2, 2))
    entry = _hermitian_entries(field, what)
    # copies, so no entry is a view of a complex diagonal
    return entry(0, 0).real.copy(), entry(1, 1).real.copy(), entry(0, 1)


def hermitian_part(field: np.ndarray, what: str) -> np.ndarray:
    """Hermitian part of a field of matrices over its last two axes, a fresh
    C-order field; validated as _hermitian_entries validates it.  A field
    that is not a nonempty stack of square matrices is a DescriptorError."""
    field = _real(field, what, complex)
    if field.ndim < 3 or field.shape[-1] != field.shape[-2] or field.size == 0:
        raise DescriptorError(
            f"{what} must be a nonempty stack of square matrices, got shape {field.shape}")
    entry = _hermitian_entries(field, what)
    out = np.empty(field.shape, dtype=complex)
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

def chern_curvature_matrix(h: np.ndarray) -> np.ndarray:
    """Full Chern curvature of a Hermitian bundle metric over the curve chart.

    h is an (n, n, r, r) field of positive Hermitian matrices; the output
    R[..., a, b] holds the components R_{z zbar a bbar}, i.e.

        R = -d^2 h / (dz dzbar) + (dh/dz) h^{-1} (dh/dzbar),

    which includes the first-derivative correction term.  Every derivative
    is spectral (fourier.dz, dzbar, ddbar).  The result is Hermitian in
    (a, b) at every grid point.
    """
    h = _real(h, "metric field", complex)
    if h.ndim != 4 or h.shape[2] != h.shape[3] or 0 in h.shape:
        raise DescriptorError(f"expected an (n, n, r, r) matrix field, got shape {h.shape}")
    h = hermitian_part(h, "metric field")
    eigenvalues = np.linalg.eigvalsh(h)
    if not eigenvalues.min() > 0.0:    # NaN eigenvalues too
        raise DescriptorError(
            f"metric field is not positive definite (min eigenvalue {eigenvalues.min():.3e})")

    correction = np.einsum("...ab,...bc,...cd->...ad",
                           fourier.dz(h), np.linalg.inv(h), fourier.dzbar(h))
    curv = -fourier.ddbar(h) + correction
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
    samples = np.atleast_1d(_real(s1, "fiber weight vector"))
    if samples.ndim != 1:    # OneOneForm checks the range
        raise DescriptorError(f"fiber weights must be a scalar or a vector, got {samples.shape}")
    kappa = lead.kappa
    gamma = canonical.kappa
    base = (kappa + gamma)[None, :, :] - n * kappa[None, :, :] * samples[:, None, None]
    return OneOneForm(base_component=base, s1=samples, fs_multiple=float(-n))


# ---------------------------------------------------------------------------
# honest Hermitian metrics on the discretized complex 2-torus

class _EntryFields:
    """A field of 2x2 Hermitian matrices on the 4-grid, stored as read-only
    (n, n, n, n) fields of its entries by __post_init__(e11, e22, e12)."""

    @classmethod
    def _from_components(cls, e11, e22, e12):
        """An instance from fresh entry fields, frozen in place (no 2x2 validation)."""
        instance = cls.__new__(cls)
        instance.__post_init__(e11, e22, e12)
        return instance


def _determinant(g11, g22, g12) -> np.ndarray:
    """det g = g11 g22 - |g12|^2 of a metric's entries, fresh and writable,
    formed under np.errstate, so a NaN entry or an overflowing product
    reaches the caller as NaN or inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        det = g11 * g22
        det -= np.abs(g12) ** 2
    return det


@dataclass(frozen=True, eq=False, init=False)
class MetricModel4T(_EntryFields):
    """Hermitian metric on the periodic 4-grid: a positive 2x2 Hermitian
    matrix at every point, stored as (n, n, n, n) fields over axes
    (x1, y1, x2, y2) of its entries g11, g22 (real) and g12 (complex), 32
    bytes per point.  det, g and inverse are derived from them on each
    access; _inverse_entries divides out the inverse.

    Every construction path admits the entries by one test, det g normal
    and positive and 0 < tr g^-1 < inf at every point, which for Hermitian
    entries is positive definite with finite entries and a finite inverse.
    det is formed for that test by _determinant, as every reader forms it.

    MetricModel4T(g) takes an (n, n, n, n, 2, 2) field.  Instances are
    immutable and keep no derived field."""

    g11: np.ndarray
    g22: np.ndarray
    g12: np.ndarray

    def __init__(self, g: np.ndarray):
        self.__post_init__(*_dense_entries(g, "metric"))

    def __post_init__(self, g11, g22, g12):
        _require_grid(g11.shape)
        det = _determinant(g11, g22, g12)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            trace_inverse = g11 + g22
            trace_inverse /= det
        # tr g^-1 bounds every inverse entry; a NaN entry leaves it NaN, an overflowing det 0.
        # det is normal, as numpy's complex division in _inverse_entries multiplies by 1 / det.
        # min and max carry a NaN through, and comparisons with it are False
        if not (np.finfo(float).tiny <= det.min() and 0.0 < trace_inverse.min()
                and trace_inverse.max() < np.inf):
            raise DescriptorError(
                "metric is not positive definite with a finite inverse (determinant in "
                f"[{det.min():.3e}, {det.max():.3e}], trace of the inverse in "
                f"[{trace_inverse.min():.3e}, {trace_inverse.max():.3e}])")
        for name, field in zip(("g11", "g22", "g12"), (g11, g22, g12)):
            field.setflags(write=False)
            object.__setattr__(self, name, field)

    @property
    def det(self) -> np.ndarray:
        """The (n, n, n, n) determinant g11 g22 - |g12|^2, built anew on each access."""
        det = _determinant(self.g11, self.g22, self.g12)
        det.setflags(write=False)
        return det

    @property
    def g(self) -> np.ndarray:
        """The (n, n, n, n, 2, 2) metric field, built anew on each access."""
        return _hermitian_2x2(self.g11, self.g22, self.g12)

    @property
    def inverse(self) -> np.ndarray:
        """The (n, n, n, n, 2, 2) inverse field, built anew on each access."""
        return _hermitian_2x2(*_inverse_entries(self))

    @property
    def resolution(self) -> int:
        return int(self.g11.shape[0])

    @classmethod
    def flat(cls, resolution: int) -> "MetricModel4T":
        one = np.ones((_require_resolution(resolution, "grid resolution", 1),) * 4)
        return cls._from_components(one, one, np.zeros(one.shape, dtype=complex))

    @classmethod
    def conformal(cls, exponent: np.ndarray) -> "MetricModel4T":
        """Metric e^u * (flat) for a real exponent field u."""
        u = _real(exponent)
        return cls.flat(_require_grid(u.shape)).rescaled(u)

    @classmethod
    def from_kahler_potential(cls, phi: np.ndarray) -> "MetricModel4T":
        """Perturbation of the flat metric by the complex Hessian of a potential."""
        d11, d22, d12 = fourier.ddbar4_components(phi)
        return cls._from_components(1.0 + d11, 1.0 + d22, d12)

    def rescaled(self, exponent: np.ndarray) -> "MetricModel4T":
        """Conformally rescaled metric e^w * g for a real field w."""
        w = _real(exponent)
        _require_grid(w.shape, n=self.resolution)
        # an overflow reaches the admission test as inf or NaN, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            factor = np.exp(_require_finite(w))
            return self._from_components(self.g11 * factor, self.g22 * factor, self.g12 * factor)


@dataclass(frozen=True, eq=False, init=False)
class RicciField(_EntryFields):
    """Chern-Ricci form in the dz^i ^ dzbar^j basis, stored as MetricModel4T
    stores g, as its entries r11, r22 (real) and r12 (complex); RicciField(ric)
    takes an (n, n, n, n, 2, 2) field, which ric builds anew on each access."""

    r11: np.ndarray
    r22: np.ndarray
    r12: np.ndarray

    def __init__(self, ric: np.ndarray):
        self.__post_init__(*_dense_entries(ric, "Ricci field"))

    def __post_init__(self, r11, r22, r12):
        for name, field in zip(("r11", "r22", "r12"), (r11, r22, r12)):
            _require_finite(field, "Ricci field").setflags(write=False)
            object.__setattr__(self, name, field)

    @property
    def ric(self) -> np.ndarray:
        """The (n, n, n, n, 2, 2) Ricci field, built anew on each access."""
        return _hermitian_2x2(self.r11, self.r22, self.r12)


def chern_ricci(metric: MetricModel4T) -> RicciField:
    """Chern-Ricci curvature: ric_ij = -d^2 log det(g) / (dz^i dzbar^j)."""
    entries = fourier.ddbar4_components(np.log(metric.det))
    for d in entries:
        np.negative(d, out=d)
    return RicciField._from_components(*entries)


def _inverse_entries(metric: MetricModel4T):
    """The inverse's entries inv11, inv22 and upper inv12, fresh, one at a time."""
    det = _determinant(metric.g11, metric.g22, metric.g12)
    yield metric.g22 / det
    yield metric.g11 / det
    inv12 = np.negative(metric.g12)
    inv12 /= det
    yield inv12


def _trace_weights(metric: MetricModel4T):
    """Weights (inv11, inv22, 2 Re inv12, 2 Im inv12) pairing a real (1,1)-form's
    (a11, a22, Re a12, Im a12) with g^{i jbar}: fresh float64 fields derived
    from the stored entries one at a time, in the order TraceOperator sums
    the products, so a reader that drops each before taking the next holds
    one, and the pass holds det g, formed once.  inv11 and inv22 are divided
    as _inverse_entries divides them; then 1 / det is formed in det's own
    buffer, once for both m12 weights.  No complex inv12 is built: the last
    two are g12's parts times -2 / det, formed in numpy's own steps for
    -g12 / det, so each bit, a zero's sign and a subnormal's rounding
    included, is that of the inverse's entries (_inverse_entries)."""
    det = _determinant(metric.g11, metric.g22, metric.g12)
    yield metric.g22 / det
    yield metric.g11 / det
    reciprocal = np.divide(1.0, det, out=det)
    # g^{1 2bar} = conj(inv12) pairs with a12 and its conjugate with a21 = conj(a12)
    g12 = metric.g12
    yield _twice_quotient(g12.real, g12.imag, -0.0, reciprocal)
    yield _twice_quotient(g12.imag, g12.real, 0.0, reciprocal)


def _twice_quotient(part, cross, zero, reciprocal):
    """2 Re(-g12 / det) from (g12.real, g12.imag, -0.0) and 2 Im(-g12 / det) from
    (g12.imag, g12.real, 0.0), given reciprocal = 1 / det, in numpy's steps:
    for g12 = a + ib it forms Re = (-a + -b * 0) * (1 / det) and
    Im = (-b - -a * 0) * (1 / det), whose zero cross terms set the sign of a
    zero quotient."""
    twice = cross * zero
    twice -= part
    twice *= reciprocal
    twice *= 2.0
    return twice


class TraceOperator:
    """Discrete tr_omega ddbar: f -> sum_ij g^{i jbar} d^2 f / (dz^i dzbar^j).

    apply takes one rfftn and four irfftn (m11, m22, Re m12, Im m12 of the
    half-spectrum symbol table, weighted by _trace_weights).  Every symbol is
    real and even, so each derivative is a symmetric operator and the
    transpose of apply, apply_adjoint, takes four rfftn and one irfftn.
    precondition is a Jacobi-scaled periodic inverse:
    r -> irfftn(inv_mean_symbol * rfftn(r / D)) with D = tr g^-1 / mean(tr g^-1),
    the exact inverse on resolved modes when the metric is conformally flat.
    _apply_preconditioned, the conformal solver's Krylov operator, is
    apply(precondition(r)) without the irfftn and rfftn between the two, so
    one rfftn and four irfftn.  Each transform looks up fourier._fft when it
    runs.

    The operator runs in float64 (dtype).  It stores shape, the metric and
    the float64 symbol table (shared by every operator of its size) and no
    field of its own: each weight is derived from the metric where it is
    read and dropped after its term.  The preconditioner tables are built on
    the first precondition and kept; is_gauduchon and chern_scalar build
    none.  single() is the same operator in float32, which holds its float32
    tables while it lives.
    """

    dtype = np.float64

    def __init__(self, metric: MetricModel4T):
        n = metric.resolution
        self.shape = (n, n, n, n)
        self._metric = metric
        # the symbols (m11, m22, Re m12, Im m12) that _trace_weights weights
        self._symbols = fourier.half_symbols_4d(n)

    def _pass_over_weights(self, single=False):
        """(the weights in float32 if single, else none; (inverse mean symbol,
        1 / D) of precondition in float64) from one pass over the float64 weights."""
        kept, mean_symbol = [], 0
        for a, (weight, symbol) in enumerate(zip(_trace_weights(self._metric), self._symbols)):
            mean_symbol = mean_symbol + weight.mean() * symbol
            if single:
                kept.append(weight.astype(np.float32))
            if a == 0:
                diagonal = weight
            elif a == 1:
                diagonal += weight    # tr g^-1
        inv_symbol = np.zeros(mean_symbol.shape)
        np.divide(1.0, mean_symbol, out=inv_symbol, where=mean_symbol != 0.0)
        return tuple(kept), (inv_symbol, np.divide(diagonal.mean(), diagonal, out=diagonal))

    @functools.cached_property
    def _preconditioner(self) -> tuple[np.ndarray, np.ndarray]:
        """(inverse mean symbol, 1 / D) of precondition."""
        return self._pass_over_weights()[1]

    def _weights(self):
        """The weights of _symbols, in their order."""
        return _trace_weights(self._metric)

    def single(self) -> TraceOperator | None:
        """This operator in float32, its weights, symbols and preconditioner
        cast from one pass over the float64 weights; None when a weight or a
        preconditioner table is beyond float32's range.  Keeps nothing on self."""
        with np.errstate(over="ignore"):
            weights, preconditioner = self._pass_over_weights(single=True)
            # the symbols are cast before the preconditioner: the other order
            # read 3.8 MiB (1.4%) more peak RSS on the mild N = 32 CLI solve
            symbols = tuple(symbol.astype(np.float32) for symbol in self._symbols)
            preconditioner = tuple(table.astype(np.float32) for table in preconditioner)
        if not all(np.isfinite(table).all() for table in (*weights, *preconditioner)):
            return None
        return _SingleTraceOperator(self.shape, weights, symbols, preconditioner)

    def _trace_of_spectrum(self, spec: np.ndarray) -> np.ndarray:
        """sum_a w_a irfftn(m_a spec) of a half-spectrum; each product m_a spec
        is formed in one reused half-spectrum buffer and each term scaled
        in place."""
        out = np.zeros(self.shape, dtype=self.dtype)
        product = np.empty_like(spec)
        for symbol, weight in zip(self._symbols, self._weights()):
            term = fourier._fft.irfftn(np.multiply(symbol, spec, out=product), s=self.shape)
            term *= weight
            out += term
            del term, weight    # freed before the next weight and term are formed
        return out

    def apply(self, f: np.ndarray) -> np.ndarray:
        spec = fourier._fft.rfftn(f)
        del f    # a caller that passes its only reference frees f before the terms
        return self._trace_of_spectrum(spec)

    def apply_adjoint(self, u: np.ndarray) -> np.ndarray:
        spec = sum(symbol * fourier._fft.rfftn(weight * u)
                   for weight, symbol in zip(self._weights(), self._symbols))
        return fourier._fft.irfftn(spec, s=self.shape)

    def _preconditioned_spectrum(self, r: np.ndarray) -> np.ndarray:
        """inv_mean_symbol * rfftn(r / D), the half-spectrum of precondition(r)."""
        inv_symbol, inv_scale = self._preconditioner
        return inv_symbol * fourier._fft.rfftn(r * inv_scale)

    def precondition(self, r: np.ndarray) -> np.ndarray:
        return fourier._fft.irfftn(self._preconditioned_spectrum(r), s=self.shape)

    def _apply_preconditioned(self, r: np.ndarray) -> np.ndarray:
        """apply(precondition(r)) without the irfftn/rfftn pair between them."""
        return self._trace_of_spectrum(self._preconditioned_spectrum(r))


class _SingleTraceOperator(TraceOperator):
    """TraceOperator.single(): the maps of TraceOperator on float32 tables."""

    dtype = np.float32

    def __init__(self, shape, weights, symbols, preconditioner):
        self.shape = shape
        self._kept_weights = weights
        self._symbols = symbols
        self._preconditioner = preconditioner    # in place of the float64 cached_property

    def _weights(self):
        return self._kept_weights


def _total(metric: MetricModel4T, s: np.ndarray) -> float:
    """The total scalar curvature integral(s omega^2) = 8 mean(s det g) of a
    scalar field s of the metric, formed under np.errstate; a total that is
    not finite is a DescriptorError."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = 8.0 * float(np.mean(s * metric.det))
    return _require_finite(total, "total scalar curvature")


def _total_routes(metric: MetricModel4T, s: np.ndarray) -> tuple[float, float]:
    """(trace route, wedge route) of the total scalar curvature from s =
    chern_scalar(metric); the wedge route pairs Ric with g, not g^-1.
    Either route not finite is a DescriptorError."""
    ric = chern_ricci(metric)
    # the wedge integrand r11 g22 + r22 g11 - 2 Re(r12 conj(g12)); the
    # complex product is taken one x1-slab at a time, so it stays small, and
    # out of place, since numpy's in-place complex multiply may round differently
    with np.errstate(over="ignore", invalid="ignore"):
        wedge = ric.r11 * metric.g22
        wedge += ric.r22 * metric.g11
        for out, r12, g12 in zip(wedge, ric.r12, metric.g12):
            out -= 2.0 * (r12 * np.conj(g12)).real
        wedge_route = 8.0 * float(np.mean(wedge))
    return _total(metric, s), _require_finite(wedge_route, "wedge-route total scalar curvature")


def chern_scalar(metric: MetricModel4T) -> np.ndarray:
    """Chern scalar curvature s = g^{i jbar} ric_{i jbar}, computed as
    -L(log det g) with L = TraceOperator(metric); a fresh array per call.
    Taken as L(-log det g), so a zero of s is +0.0 (the flat metric prints
    0.0), and -log det g is passed as apply's only reference, so it is freed
    once transformed.  An s that is not finite is a DescriptorError."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = TraceOperator(metric).apply(np.negative(np.log(metric.det)))
    return _require_finite(s, "scalar curvature")


def total_scalar(metric: MetricModel4T) -> float:
    """Total Chern scalar curvature integral(s omega^2) over the 4-torus, the
    trace route 8 mean(s det g) of total_scalar_routes."""
    return _total(metric, chern_scalar(metric))


def total_scalar_routes(metric: MetricModel4T) -> tuple[float, float]:
    """Both defining expressions of the total scalar curvature."""
    return _total_routes(metric, chern_scalar(metric))


def conformal_ricci(ric: RicciField, f: np.ndarray) -> RicciField:
    """Ricci curvature after the conformal change omega -> e^f omega on the
    complex 2-torus: det scales by e^(2f), so returns ric - 2 ddbar f
    entry by entry."""
    f = _real(f)
    _require_grid(f.shape, n=ric.r11.shape[0])
    entries = fourier.ddbar4_components(f)
    for r, d in zip((ric.r11, ric.r22, ric.r12), entries):
        d *= 2    # exact, so the in-place complex multiply rounds nothing
        np.subtract(r, d, out=d)
    return RicciField._from_components(*entries)


def curvature_report(metric: MetricModel4T) -> dict:
    """Machine-readable scalar-curvature report for a metric."""
    s = chern_scalar(metric)
    trace_route, wedge_route = _total_routes(metric, s)
    return {
        "min": float(s.min()),
        "max": float(s.max()),
        "integral": trace_route,
        "cross_check_residual": _require_finite(abs(trace_route - wedge_route),
                                                "cross-check residual"),
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
    values = _real(values)
    n = _require_grid(values.shape)
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


def _read_grid_csv(path: Path, component: str, resolution: int) -> np.ndarray:
    """The (n, n, n, n) grid, n = `resolution`, of a CSV written by
    _write_grid_csv; DescriptorError for any other header, text or shape."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            first = handle.readline()
            empty = _no_data_row(handle)
        if f"component={component}" not in first:
            raise DescriptorError(f"{path}: expected component={component}, header was {first!r}")
        if empty:
            raise DescriptorError(f"{path}: no grid values after the header")
        flat = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except ValueError as exc:    # text that is not UTF-8, or a value that is not a float
        raise DescriptorError(f"{path}: {exc}") from exc
    n = flat.shape[1]
    if flat.shape != (n ** 3, n):
        raise DescriptorError(f"{path}: grid shape {flat.shape} is not a flattened 4-cube")
    if n != resolution:
        raise DescriptorError(
            f"{path}: grid resolution {n} disagrees with the manifest's {resolution}")
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
    metric manifest; DescriptorError for a missing or mistyped field, or for
    a file name that reaches outside the manifest's directory."""
    if not isinstance(manifest, dict):
        raise DescriptorError(f"{path}: a metric manifest must be a JSON object")
    resolution = _require_integer(manifest.get("resolution"), f"{path}: 'resolution'")
    components = manifest.get("components")
    if not isinstance(components, dict):
        raise DescriptorError(f"{path}: 'components' must map each component to a CSV file")
    files = {}
    for component in _COMPONENT_FILES:
        files[component] = components.get(component)
        if not _plain_file_name(files[component]):
            raise DescriptorError(
                f"{path}: component {component!r} names no CSV file in its directory")
    binary = manifest.get("binary")
    if "binary" in manifest and not _plain_file_name(binary):
        raise DescriptorError(f"{path}: 'binary' names no file in its directory: {binary!r}")
    return resolution, files, binary


def save_metric(metric: MetricModel4T, directory) -> Path:
    """Write metric components as CSV grids, their binary twin and a JSON
    manifest; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    fields = {"11": metric.g11, "22": metric.g22,
              "12re": metric.g12.real, "12im": metric.g12.imag}
    digests = {f"{c}_sha256": _write_grid_csv(directory / fname, fields[c], c)
               for c, fname in _COMPONENT_FILES.items()}
    np.savez(directory / _TWIN_FILE, **fields, **digests)
    manifest = {"resolution": metric.resolution, "components": _COMPONENT_FILES,
                "binary": _TWIN_FILE}
    manifest_path = directory / "metric.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest_path


def load_metric(manifest_path) -> MetricModel4T:
    """Read a metric written by save_metric.  The CSVs are authoritative: a
    grid comes from the binary twin only when the sha256 of its CSV on disk
    equals the digest the twin stores for it (the twin then holds exactly the
    values the CSV parses to); otherwise the CSV is parsed."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:    # text that is not UTF-8 or not JSON
        raise DescriptorError(f"{manifest_path}: not a JSON manifest: {exc}") from exc
    resolution, files, binary = _manifest_fields(manifest, manifest_path)
    directory = manifest_path.parent
    twin = _read_twin(directory / binary, resolution) if binary is not None else {}
    parts = {}
    for component, fname in files.items():
        path = directory / fname
        digest, grid = twin.get(component, (None, None))
        # the digest covers the header too, so a verified grid needs no parse
        if grid is None or _file_sha256(path) != digest:
            grid = _read_grid_csv(path, component, resolution)
        parts[component] = grid
    # assigned part by part: re + 1j * im would turn an imaginary -0.0 into +0.0
    g12 = np.empty(parts["12re"].shape, dtype=complex)
    g12.real = parts.pop("12re")
    g12.imag = parts.pop("12im")
    return MetricModel4T._from_components(parts["11"], parts["22"], g12)


def save_field4(path, values: np.ndarray) -> None:
    """Write a real 4-d grid field as CSV (same layout as metric components),
    labelled component=f."""
    _write_grid_csv(Path(path), values, "f")

