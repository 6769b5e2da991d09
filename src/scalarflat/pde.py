"""Elliptic machinery: periodic Poisson solves, prescribed-curvature
potentials, the Gauduchon check, and the conformal scalar-flat solver.

The conformal solver runs on honest metrics over the discretized complex
2-torus only.  Given a Gauduchon metric with zero total scalar curvature it
solves

    s_G  =  tr_omega ddbar f      (trace taken with the input metric)

for a zero-mean potential f and verifies that the rescaled metric
e^(f/2) * omega has pointwise scalar curvature at the roundoff floor.  The
trace operator L is discretized exactly as g^{i jbar} d^2 f / (dz^i dzbar^j)
with spectral derivatives and the pointwise metric inverse, applied with
real-to-complex transforms.  The solver's two gates are discrete Fredholm
conditions of L: the metric is Gauduchon when det g is a left null vector
of L (L^T det g is the single component of ddbar omega), and its total
scalar curvature vanishes when s_G is orthogonal to det g; both gates run
on every solve.  The linear system is solved by BiCGStab, preconditioned by
the periodic inverse of the mean-coefficient operator applied after a
diagonal (Jacobi) scaling by the pointwise trace of the metric inverse, and
wrapped in outer defect-correction rounds that always measure the true
residual.

The rounds are mixed-precision iterative refinement (Moler, J. ACM 14,
1967; Carson & Higham, SIAM J. Sci. Comput. 40, 2018): each round's inner
BiCGStab runs in float32, and everything that decides correctness runs in
float64 -- the defect s_G - L f, the stall counter, the round limit, the
tolerances, the gates and the end-to-end check.  A float32 round that does
not halve the max-norm defect is redone in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft as _fft
from scipy.sparse.linalg import LinearOperator, bicgstab

from . import fourier
from .curvature import (MetricModel4T, _trace_weights, chern_scalar, total_scalar,
                        total_scalar_routes)
from .errors import ConvergenceError, DegreeError, DescriptorError, SolvabilityError
from .geom_core import DEGREE_INPUT_TOL, MIN_RESOLUTION, LineBundleModel, _freeze, integrate

#: compatibility gate on mean(rho) for the Poisson solve
POISSON_MEAN_TOL = 1e-8
#: Gauduchon residual below which a metric counts as Gauduchon
GAUDUCHON_TOL = 1e-8
#: total-scalar gate for the conformal solve (the solvability hypothesis)
TOTAL_SCALAR_GATE = 1e-6
#: default equation-residual target of the conformal solve (max norm)
SOLVE_TOL = 1e-10
#: verification bound on max |s| of the rescaled metric
VERIFY_TOL = 1e-6

_MAX_ROUNDS = 24
_INNER_MAXITER = 250
#: floor of a float32 round's BiCGStab rtol, near float32 roundoff on the
#: unit-max-norm defect
_SINGLE_RTOL = 1e-5


def poisson_periodic(rho: np.ndarray) -> np.ndarray:
    """Solve Laplacian(u) = rho on the periodic unit cube; u has zero mean.

    The Fredholm compatibility condition mean(rho) = 0 is enforced up front;
    violating it means the problem has no solution and raises
    SolvabilityError rather than silently projecting.
    """
    rho = np.asarray(rho, dtype=float)
    mean = float(np.mean(rho))
    if abs(mean) > POISSON_MEAN_TOL:
        raise SolvabilityError(
            f"Poisson data has mean {mean!r}; the periodic problem is solvable "
            f"only for zero-mean sources (tolerance {POISSON_MEAN_TOL})")
    return fourier.poisson_inverse(rho)


def ddbar_density(u: np.ndarray) -> np.ndarray:
    """Curvature-density change d^2 u / (dz dzbar) = Laplacian(u)/4 induced by
    twisting a bundle metric by e^(-u)."""
    return 0.25 * fourier.laplacian(np.asarray(u, dtype=float))


def prescribe_curvature(target: np.ndarray, current: LineBundleModel) -> np.ndarray:
    """Potential u whose twist moves the current density onto the target.

    Requires the target to carry the same degree as the current model (within
    the input tolerance); the returned u satisfies
    current.kappa + ddbar_density(u) = target up to the projected-out mean
    discrepancy, and it leaves the degree exactly unchanged.
    """
    target = np.asarray(target, dtype=float)
    curve = current.curve
    target_degree = integrate(target, curve) / np.pi
    if abs(target_degree - current.degree) > DEGREE_INPUT_TOL:
        raise DegreeError(
            f"target integrates to degree {target_degree!r}, current model has "
            f"degree {current.degree}")
    diff = target - current.kappa
    diff = diff - float(np.mean(diff))
    return fourier.poisson_inverse(4.0 * diff)


class TraceOperator:
    """Discrete tr_omega ddbar: f -> sum_ij g^{i jbar} d^2 f / (dz^i dzbar^j).

    apply takes one rfftn and four irfftn (m11, m22, Re m12, Im m12 of the
    half-spectrum symbol table).  Every symbol is real and even, so each
    derivative is a symmetric operator and the transpose of apply,
    apply_adjoint, takes four rfftn and one irfftn.  precondition is a
    Jacobi-scaled periodic inverse: r -> irfftn(inv_mean_symbol * rfftn(r / D))
    with D = (inv11 + inv22) / mean(inv11 + inv22), the exact inverse on
    resolved modes when the metric is conformally flat.

    apply and precondition run in the precision of their input: float32
    input uses float32 copies of the weights, symbols and preconditioner
    tables, any other input the float64 tables.  Every table beyond the
    weights and symbols is built on the first call that needs it, so the
    Gauduchon gate builds none and a float32 solve no float64 preconditioner.
    """

    def __init__(self, metric: MetricModel4T):
        n = metric.resolution
        self.shape = (n, n, n, n)
        # the weights of the symbols (m11, m22, Re m12, Im m12)
        self._weights = tuple(_trace_weights(metric))
        self._symbols = fourier.half_symbols_4d(n)

    def _preconditioner_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(inverse mean symbol, 1 / D) of precondition, in float64."""
        mean_symbol = sum(w.mean() * m for w, m in zip(self._weights, self._symbols))
        inv_symbol = np.zeros(mean_symbol.shape)
        nonzero = mean_symbol != 0.0
        inv_symbol[nonzero] = 1.0 / mean_symbol[nonzero]
        diagonal = self._weights[0] + self._weights[1]    # inv11 + inv22
        return inv_symbol, diagonal.mean() / diagonal

    @cached_property
    def _preconditioner(self) -> tuple[np.ndarray, np.ndarray]:
        return self._preconditioner_tables()

    @cached_property
    def _single_operator(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """float32 copies of (weights, symbols)."""
        return _single(self._weights), _single(self._symbols)

    @cached_property
    def _single_preconditioner(self) -> tuple[np.ndarray, ...]:
        """float32 copies of the preconditioner tables."""
        return _single(self._preconditioner_tables())

    def apply(self, f: np.ndarray) -> np.ndarray:
        weights, symbols = (self._single_operator if f.dtype == np.float32
                            else (self._weights, self._symbols))
        workers = fourier.thread_workers()
        spec = _fft.rfftn(f, workers=workers)
        out = np.zeros(self.shape, dtype=weights[0].dtype)
        for weight, symbol in zip(weights, symbols):
            out += weight * _fft.irfftn(symbol * spec, s=self.shape, workers=workers)
        return out

    def apply_adjoint(self, u: np.ndarray) -> np.ndarray:
        workers = fourier.thread_workers()
        spec = sum(symbol * _fft.rfftn(weight * u, workers=workers)
                   for weight, symbol in zip(self._weights, self._symbols))
        return _fft.irfftn(spec, s=self.shape, workers=workers)

    def precondition(self, r: np.ndarray) -> np.ndarray:
        inv_symbol, inv_scale = (self._single_preconditioner if r.dtype == np.float32
                                 else self._preconditioner)
        workers = fourier.thread_workers()
        spec = _fft.rfftn(r * inv_scale, workers=workers)
        return _fft.irfftn(inv_symbol * spec, s=self.shape, workers=workers)


def _single(arrays) -> tuple[np.ndarray, ...]:
    return tuple(a.astype(np.float32) for a in arrays)


def is_gauduchon(metric: MetricModel4T) -> tuple[bool, float]:
    """Check ddbar(omega) = 0 on the 4-grid (complex dimension two), i.e.
    that det g is a left null vector of tr_omega ddbar: the single component
    of ddbar(omega) is L^T det g.  Returns (flag, max |L^T det g|)."""
    residual = float(np.max(np.abs(TraceOperator(metric).apply_adjoint(metric.det))))
    return residual < GAUDUCHON_TOL, residual


@dataclass(frozen=True, eq=False)
class ConformalSolution:
    """Conformal potential with its verification data.

    residual is max |s| of the rescaled metric e^(f/2) omega recomputed from
    scratch; solve_residual is max |s_G - tr ddbar f| of the linear solve."""

    f: np.ndarray
    residual: float
    solve_residual: float
    iterations: int
    rounds: int

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        if abs(float(np.mean(f))) > 1e-12:
            raise DescriptorError("conformal potential must be normalized to zero mean")
        object.__setattr__(self, "f", _freeze(f))


def _defect_correction(metric: MetricModel4T, s_g: np.ndarray,
                       tol: float) -> tuple[np.ndarray, float, int, int]:
    """Defect-correction rounds for tr_omega ddbar f = s_g; returns (f, max-norm
    residual, iterations, rounds).

    Every round measures the true defect s_g - L f in float64.  Its
    correction comes from BiCGStab in float32 on the defect scaled to unit
    max norm, to a relative tolerance no finer than _SINGLE_RTOL; a round
    whose float32 correction does not halve the max-norm defect is redone in
    float64 from the same defect, and only a float64 round can stall.  A
    round that does not lower the defect is rejected and ends the solve at
    once, since the next round would start from the same defect.  The
    operator, its float32 tables and the Krylov vectors live in this frame,
    so they are freed before the caller's verification.
    """
    op = TraceOperator(metric)
    shape = op.shape
    size = s_g.size
    preconditioned = [0]    # preconditioner applications in the current BiCGStab

    def precondition(v):
        preconditioned[0] += 1
        return op.precondition(v.reshape(shape)).ravel()

    operators = {dtype: (LinearOperator((size, size), dtype=dtype,
                                        matvec=lambda v: op.apply(v.reshape(shape)).ravel()),
                         LinearOperator((size, size), dtype=dtype, matvec=precondition))
                 for dtype in (np.float32, np.float64)}

    f = np.zeros(shape)
    defect = np.array(s_g)
    rmax = float(np.max(np.abs(defect)))
    iterations = 0
    rounds = 0
    stalls = 0

    def correction(dtype):
        """(candidate, its defect, its max-norm defect) after one BiCGStab in dtype."""
        nonlocal iterations
        defect_l2 = float(np.linalg.norm(defect.ravel()))
        inner_rtol = min(3e-2, max(1e-9, 0.3 * tol / max(defect_l2, 1e-300)))
        scale = 1.0
        if dtype == np.float32:
            # the defect scaled to unit max norm stays far from float32
            # overflow and underflow
            scale, inner_rtol = rmax, max(inner_rtol, _SINGLE_RTOL)
        a_op, m_op = operators[dtype]
        preconditioned[0] = 0
        update, _info = bicgstab(
            a_op, np.asarray(defect / scale, dtype=dtype).ravel(), M=m_op,
            rtol=inner_rtol, atol=0.0, maxiter=_INNER_MAXITER)
        iterations += (preconditioned[0] + 1) // 2
        candidate = f + scale * np.asarray(update, dtype=float).reshape(shape)
        candidate -= candidate.mean()
        if not np.all(np.isfinite(candidate)):
            return candidate, None, math.inf
        new_defect = s_g - op.apply(candidate)
        return candidate, new_defect, float(np.max(np.abs(new_defect)))

    def halves(new_rmax):
        """Whether a round's result halves the current defect or meets tol."""
        return new_rmax < 0.5 * rmax or new_rmax < tol

    while rmax >= tol and rounds < _MAX_ROUNDS and stalls < 2:
        rounds += 1
        candidate, new_defect, new_rmax = correction(np.float32)
        if not halves(new_rmax):
            candidate, new_defect, new_rmax = correction(np.float64)
        if new_rmax >= rmax:
            # rejected: f and the defect stay as they are, so another round
            # would repeat this one bit for bit
            break
        stalls = 0 if halves(new_rmax) else stalls + 1
        f, defect, rmax = candidate, new_defect, new_rmax
    if rmax >= tol:
        raise ConvergenceError(
            f"conformal solve stalled: residual {rmax:.3e} after {iterations} "
            f"iterations in {rounds} rounds (target {tol:.1e})")
    return f, rmax, iterations, rounds


def conformal_scalar_flat(metric: MetricModel4T, tol: float = SOLVE_TOL) -> ConformalSolution:
    """Produce f with s(e^(f/2) omega) = 0 from a zero-total-scalar Gauduchon
    metric in complex dimension two.

    Checks the Gauduchon and total-scalar gates (SolvabilityError), solves
    s_G = tr_omega ddbar f to the max-norm residual tol (ConvergenceError
    after a round that does not lower the defect, after two rounds in a row
    that do not halve it, or after _MAX_ROUNDS rounds of at most two
    _INNER_MAXITER-step BiCGStab runs),
    then rescales and recomputes the scalar curvature of e^(f/2) omega as an
    independent end-to-end check.  Iterations count the BiCGStab steps
    begun: a full step applies the preconditioner twice, a step that
    converges at its half step (unseen by scipy's callback) once.  A tol
    that is not finite and positive, and resolutions below MIN_RESOLUTION
    (at N = 2 every mode lies in the operator's {0, Nyquist} null set) raise
    DescriptorError before any gate runs.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DescriptorError(f"solve tolerance must be finite and positive, got {tol!r}")
    if metric.resolution < MIN_RESOLUTION:
        raise DescriptorError(
            f"conformal solve needs resolution at least {MIN_RESOLUTION}, "
            f"got {metric.resolution}")
    flag, residual = is_gauduchon(metric)
    if not flag:
        raise SolvabilityError(
            f"metric is not Gauduchon (ddbar omega residual {residual:.3e}); "
            "a Gauduchon metric is this method's hypothesis")
    total = total_scalar(metric)
    if abs(total) > TOTAL_SCALAR_GATE:
        raise SolvabilityError(
            f"total scalar curvature {total!r} is not zero (gate {TOTAL_SCALAR_GATE}); "
            "no conformal rescaling can reach a scalar-flat metric")

    s_g = chern_scalar(metric)
    f, solve_residual, iterations, rounds = _defect_correction(metric, s_g, tol)
    rescaled = metric.rescaled(f / 2.0)
    end_to_end = float(np.max(np.abs(chern_scalar(rescaled))))
    if end_to_end > VERIFY_TOL:
        raise ConvergenceError(
            f"rescaled metric has max |s| = {end_to_end:.3e}, above the "
            f"verification bound {VERIFY_TOL:.1e}")
    return ConformalSolution(f=f, residual=end_to_end, solve_residual=solve_residual,
                             iterations=iterations, rounds=rounds)


def conformal_total_scalar_identity_check(metric: MetricModel4T, f: np.ndarray) -> float:
    """Discrepancy between the two total-scalar expressions after rescaling.

    For omega_f = e^f omega Gauduchon (a precondition that is checked), the
    total scalar curvature of omega_f computed as the wedge integral
    2 integral(Ric(omega_f) ^ omega_f) must equal
    integral(e^f tr_omega Ric(omega) dV_omega); returns the absolute
    difference.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != metric.det.shape:
        raise ValueError(f"conformal factor shape {f.shape} does not match the grid")
    rescaled = metric.rescaled(f)
    flag, residual = is_gauduchon(rescaled)
    if not flag:
        raise SolvabilityError(
            f"e^f omega is not Gauduchon (residual {residual:.3e}); the "
            "integration-by-parts identity requires the Gauduchon gauge")
    wedge_rescaled = total_scalar_routes(rescaled)[1]
    s = chern_scalar(metric)
    weighted = 8.0 * float(np.mean(np.exp(f) * s * metric.det))
    return abs(wedge_rescaled - weighted)
