"""Elliptic machinery: periodic Poisson solves, prescribed-curvature
potentials, the Gauduchon check, and the conformal scalar-flat solver.

The conformal solver runs on honest metrics over the discretized complex
2-torus only.  Given any positive Hermitian metric it solves

    s_G  =  tr_omega ddbar f      (trace taken with the input metric)

for a zero-mean potential f and verifies that the rescaled metric
e^(f/2) * omega has pointwise scalar curvature at the roundoff floor.  In
complex dimension two e^(f/2) g has determinant e^f det g and inverse
e^(-f/2) g^-1, so that curvature is e^(-f/2) L(-(log det g + f)): the check
is one more apply of the input metric's L, and no rescaled metric is built.
The trace operator L (curvature.TraceOperator) is discretized exactly as
g^{i jbar} d^2 f / (dz^i dzbar^j) with spectral derivatives and the
pointwise metric inverse, applied with real-to-complex transforms, and
s_G = -L(log det g) lies in L's range for every metric.  The paper's
hypothesis, a Gauduchon metric (L^T det g = 0, the single component of
ddbar omega) of zero total scalar curvature, is checked by is_gauduchon and
curvature.total_scalar, not by the solve.  BiCGStab solves the system,
right-preconditioned by P, the periodic inverse of the mean-coefficient
operator after a Jacobi scaling by the pointwise trace of the metric
inverse: it iterates on L P y = defect, whose residual is the true residual
of P y, and the update is P y.  It runs inside outer defect-correction
rounds that always measure the true residual.

The rounds are mixed-precision iterative refinement (Moler, J. ACM 14,
1967; Carson & Higham, SIAM J. Sci. Comput. 40, 2018): each round's inner
BiCGStab runs in float32, and everything that decides correctness runs in
float64 -- s_G, the defect s_G - L f, the tolerances and the end-to-end
check.  One rule ends the rounds: a float32 correction that does not halve
the max-norm defect is redone in float64, and a float64 one that does not
ends the solve.

scipy is imported on first use, through ``fourier._fft`` and the module
function ``bicgstab``; both are looked up at call time, so they can be
swapped or wrapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fourier
from .curvature import MetricModel4T, TraceOperator, chern_scalar
from .errors import ConvergenceError, DegreeError, DescriptorError, SolvabilityError
from .geom_core import (DEGREE_INPUT_TOL, LineBundleModel, _freeze, _real, _real_number,
                        _require_finite, _require_resolution, integrate)

#: compatibility gate on mean(rho) for the Poisson solve
POISSON_MEAN_TOL = 1e-8
#: Gauduchon residual below which a metric counts as Gauduchon
GAUDUCHON_TOL = 1e-8
#: default equation-residual target of the conformal solve (max norm)
SOLVE_TOL = 1e-10
#: verification bound on max |s| of the rescaled metric
VERIFY_TOL = 1e-6

# unused here (TraceOperator looks up fourier._fft); kept for callers that wrap it
_fft = fourier._fft

_INNER_MAXITER = 250
#: floor of a float32 round's BiCGStab rtol, near float32 roundoff on the
#: unit-max-norm defect
_SINGLE_RTOL = 1e-5


def _finite_mean(values, what: str) -> tuple[np.ndarray, float]:
    """(the real array, its mean) of a nonempty grid whose mean is finite;
    DescriptorError naming `what` otherwise."""
    values = _real(values, what)
    if values.size == 0:    # np.mean would warn before the finiteness check
        raise DescriptorError(f"{what} must be a nonempty grid, got shape {values.shape}")
    mean = float(np.mean(values))
    if not math.isfinite(mean):
        raise DescriptorError(f"{what} must be finite; its mean is {mean!r}")
    return values, mean


def poisson_periodic(rho: np.ndarray) -> np.ndarray:
    """Solve Laplacian(u) = rho on the periodic unit cube; u has zero mean.

    The Fredholm compatibility condition mean(rho) = 0 is enforced up front;
    violating it means the problem has no solution and raises
    SolvabilityError rather than silently projecting.
    """
    rho, mean = _finite_mean(rho, "Poisson source")
    if abs(mean) > POISSON_MEAN_TOL:
        raise SolvabilityError(
            f"Poisson source has mean {mean!r}; the periodic problem is solvable "
            f"only for zero-mean sources (tolerance {POISSON_MEAN_TOL})")
    return fourier.poisson_inverse(rho)


def ddbar_density(u: np.ndarray) -> np.ndarray:
    """Curvature-density change d^2 u / (dz dzbar) = Laplacian(u)/4 induced by
    twisting a bundle metric by e^(-u)."""
    u = _require_finite(_real(u, "potential"), "potential")
    if u.size == 0:    # the transform would raise scipy's ValueError
        raise DescriptorError(f"potential must be a nonempty grid, got shape {u.shape}")
    return 0.25 * fourier.laplacian(u)


def prescribe_curvature(target: np.ndarray, current: LineBundleModel) -> np.ndarray:
    """Potential u whose twist moves the current density onto the target.

    Requires the target to carry the same degree as the current model (within
    the input tolerance); the returned u satisfies
    current.kappa + ddbar_density(u) = target up to the projected-out mean
    discrepancy, and it leaves the degree exactly unchanged.
    """
    target = _real(target, "target density")
    curve = current.curve
    target_degree = integrate(target, curve) / np.pi
    if not math.isfinite(target_degree):
        raise DescriptorError(f"target density must be finite; its integral is {target_degree!r}")
    if abs(target_degree - current.degree) > DEGREE_INPUT_TOL:
        raise DegreeError(
            f"target integrates to degree {target_degree!r}, current model has "
            f"degree {current.degree}")
    diff = target - current.kappa
    diff = diff - float(np.mean(diff))
    return fourier.poisson_inverse(4.0 * diff)


def is_gauduchon(metric: MetricModel4T) -> tuple[bool, float]:
    """Check ddbar(omega) = 0 on the 4-grid (complex dimension two), i.e.
    that det g is a left null vector of tr_omega ddbar: the single component
    of ddbar(omega) is L^T det g.  Returns (flag, max |L^T det g|)."""
    residual = float(np.max(np.abs(TraceOperator(metric).apply_adjoint(metric.det))))
    return residual < GAUDUCHON_TOL, residual


@dataclass(frozen=True, eq=False)
class ConformalSolution:
    """Conformal potential with its verification data.

    residual is max |s| of the rescaled metric e^(f/2) omega, read from
    log det g + f as max |e^(-f/2) L(-(log det g + f))| with L the input
    metric's operator; solve_residual is max |s_G - tr ddbar f| of the
    linear solve."""

    f: np.ndarray
    residual: float
    solve_residual: float
    iterations: int
    rounds: int

    def __post_init__(self):
        f, mean = _finite_mean(self.f, "conformal potential")
        if abs(mean) > 1e-12:
            raise DescriptorError("conformal potential must be normalized to zero mean")
        object.__setattr__(self, "f", _freeze(f))


def bicgstab(A, b, **kwargs):
    """scipy.sparse.linalg.bicgstab, imported on first call."""
    from scipy.sparse.linalg import bicgstab as scipy_bicgstab
    return scipy_bicgstab(A, b, **kwargs)


def _defect_correction(op: TraceOperator, s_g: np.ndarray,
                       tol: float) -> tuple[np.ndarray, float, int, int]:
    """Defect-correction rounds for L f = s_G on the caller's operator op,
    with s_g = s_G; returns (f, max-norm residual, iterations, rounds).

    Every round measures the true defect s_g - L f in float64.  Its
    correction is P y, one precondition of the y that BiCGStab finds for
    L P y = defect on the float32 operator op.single() (each matvec one
    _apply_preconditioned) on the defect scaled to unit max norm, to a
    relative tolerance no finer than _SINGLE_RTOL.  A round keeps a
    correction only if it halves the max-norm defect or meets tol (halves):
    a float32 one that does not is redone on op, in float64, from the same
    defect, and a float64 one that does not ends the solve, since the next
    round would start from the same defect.  A round without a float32
    operator (a metric whose inverse exceeds float32's range) runs in
    float64 at once.

    What each field lives for: the float32 operator (TraceOperator.single)
    holds its float32 tables while it lives, one BiCGStab and its update P y,
    and is freed before the round's float64 defect; the Krylov vectors live
    for one BiCGStab; the defect starts as s_G itself, and each candidate and
    its defect are built in place in fresh arrays; s_G and the defect live in
    this frame, so both are freed before the caller's verification, and f is
    returned.  op is the caller's and lives through the verification; it
    keeps no field of its own, except the float64 preconditioner once a
    float64 round has run.
    """
    from scipy.sparse.linalg import LinearOperator

    shape = op.shape
    size = s_g.size
    f = np.zeros(shape)
    defect = s_g    # never written: each round's defect is a fresh array
    rmax = float(np.max(np.abs(defect)))
    iterations = 0
    rounds = 0

    def correction(single):
        """(candidate, its defect, its max-norm defect) after one BiCGStab on
        op.single() if single, else on op; (None, None, inf) when op.single()
        is None."""
        nonlocal iterations
        defect_l2 = float(np.linalg.norm(defect.ravel()))
        inner_rtol = min(3e-2, max(1e-9, 0.3 * tol / max(defect_l2, 1e-300)))
        scale = 1.0
        if single:
            # the defect scaled to unit max norm stays far from float32
            # overflow and underflow
            scale, inner_rtol = rmax, max(inner_rtol, _SINGLE_RTOL)
        rhs = np.asarray(defect / scale, dtype=np.float32 if single else float).ravel()
        inner = op.single() if single else op
        if inner is None:
            return None, None, math.inf
        matvecs = 0    # applications of L P in this BiCGStab

        def apply_preconditioned(v):
            nonlocal matvecs
            matvecs += 1
            return inner._apply_preconditioned(v.reshape(shape)).ravel()

        y, _info = bicgstab(LinearOperator((size, size), dtype=inner.dtype,
                                           matvec=apply_preconditioned),
                            rhs, rtol=inner_rtol, atol=0.0, maxiter=_INNER_MAXITER)
        candidate = np.asarray(inner.precondition(y.reshape(shape)), dtype=float)
        iterations += (matvecs + 1) // 2
        del rhs, y, inner, apply_preconditioned    # freed before the round's defect
        candidate *= scale
        candidate += f
        candidate -= candidate.mean()
        if not np.all(np.isfinite(candidate)):
            return candidate, None, math.inf
        new_defect = op.apply(candidate)
        np.subtract(s_g, new_defect, out=new_defect)
        return candidate, new_defect, float(np.max(np.abs(new_defect)))

    def halves(new_rmax):
        """Whether a round's result halves the current defect or meets tol."""
        return new_rmax < 0.5 * rmax or new_rmax < tol

    # an overflow in a round (the defect's norm and scaling, BiCGStab, P y, the
    # candidate's defect) is an inf or NaN, a correction that does not halve
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while rmax >= tol:
            rounds += 1
            candidate, new_defect, new_rmax = correction(single=True)
            if not halves(new_rmax):
                candidate, new_defect, new_rmax = correction(single=False)
            if not halves(new_rmax):
                raise ConvergenceError(
                    f"conformal solve stalled: residual {rmax:.3e} after {iterations} "
                    f"iterations in {rounds} rounds (target {tol:.1e})")
            f, defect, rmax = candidate, new_defect, new_rmax
    return f, rmax, iterations, rounds


def conformal_scalar_flat(metric: MetricModel4T, tol: float = SOLVE_TOL) -> ConformalSolution:
    """Produce f with s(e^(f/2) omega) = 0 from any positive Hermitian
    metric in complex dimension two (s_G lies in L's range for every metric).

    On one trace operator L, solves s_G = L f, s_G = -L(log det g), to the
    max-norm residual tol (ConvergenceError after a round in which neither
    precision halves the max-norm defect; so at most
    ceil(log2(max |s_G| / tol)) + 1 rounds, each of at most two
    _INNER_MAXITER-step BiCGStab runs), then checks end to end that
    e^(f/2) omega has max |s| at most VERIFY_TOL (ConvergenceError
    otherwise, a NaN included).  That s is e^(-f/2) L(-(log det g + f)), one
    more apply of L, formed from log det g + f and not from the solve's
    defect.  s_G comes from chern_scalar, which builds its own operator.
    Iterations count the BiCGStab steps begun, from the matvecs of L P: a
    full step takes two, a step that converges at its half step (unseen by
    scipy's callback) one.  A tol that is not one finite positive real
    number, and resolutions below MIN_RESOLUTION (at N = 2 every mode lies in the
    operator's {0, Nyquist} null set) raise DescriptorError before L is
    built.
    """
    tol = _real_number(tol, "solve tolerance")
    if not (math.isfinite(tol) and tol > 0.0):
        raise DescriptorError(f"solve tolerance must be finite and positive, got {tol!r}")
    _require_resolution(metric.resolution, "grid resolution")
    op = TraceOperator(metric)
    f, solve_residual, iterations, rounds = _defect_correction(op, chern_scalar(metric), tol)
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.exp(-f / 2.0) * op.apply(-(np.log(metric.det) + f))
    end_to_end = float(np.max(np.abs(s)))
    if not end_to_end <= VERIFY_TOL:
        raise ConvergenceError(
            f"rescaled metric has max |s| = {end_to_end:.3e}, above the "
            f"verification bound {VERIFY_TOL:.1e}")
    return ConformalSolution(f=f, residual=end_to_end, solve_residual=solve_residual,
                             iterations=iterations, rounds=rounds)
