import warnings
import weakref
from collections import Counter

import numpy as np
import pytest
import scipy.fft
from scipy.sparse.linalg import LinearOperator, bicgstab
from conftest import (
    complex_symbols_4d,
    coords4,
    kahler_test_potential,
    random_metric,
    trig_field4,
)

from scalarflat import (
    ConvergenceError,
    CurveModel,
    DegreeError,
    DescriptorError,
    MetricModel4T,
    OneOneForm,
    SolvabilityError,
    chern_ricci,
    chern_scalar,
    conformal_scalar_flat,
    curvature,
    fourier,
    is_gauduchon,
    make_line_bundle,
    pde,
    poisson_periodic,
    prescribe_curvature,
)
from scalarflat.fourier import ddbar4_components, half_symbols_4d, laplacian, thread_workers
from scalarflat.geom_core import grid_coordinates, integrate
from scalarflat.pde import ConformalSolution, TraceOperator, ddbar_density


# ---------------------------------------------------------------------------
# periodic Poisson

def test_poisson_zero_source():
    u = poisson_periodic(np.zeros((32, 32)))
    assert np.max(np.abs(u)) == 0.0


def test_poisson_eigenfunction():
    n = 64
    x, _ = grid_coordinates(n)
    rho = np.broadcast_to(np.cos(2 * np.pi * x), (n, n)).copy()
    u = poisson_periodic(rho)
    expected = -rho / (2 * np.pi) ** 2
    assert np.max(np.abs(u - expected)) < 1e-10
    assert abs(float(np.mean(u))) < 1e-14


def test_poisson_rejects_nonzero_mean():
    with pytest.raises(SolvabilityError):
        poisson_periodic(np.ones((16, 16)))


def test_poisson_residual_and_self_adjointness():
    rng = np.random.default_rng(4)
    n = 32
    x, y = grid_coordinates(n)

    def zero_mean_field():
        f = sum(rng.normal() * np.sin(2 * np.pi * (i * x + j * y) + rng.uniform(0, 6))
                for i in (1, 2) for j in (1, 3))
        return f - f.mean()

    a = zero_mean_field()
    b = zero_mean_field()
    ua = poisson_periodic(a)
    assert np.max(np.abs(laplacian(ua) - a)) < 1e-10
    lhs = float(np.sum(ua * b))
    rhs = float(np.sum(a * poisson_periodic(b)))
    assert abs(lhs - rhs) < 1e-10


def test_a_zero_dimensional_grid_is_a_constant_with_zero_derivatives():
    # the 0-d Laplacian symbol is a 0-d zero array, so a scalar input
    # differentiates and inverts to 0.0 rather than raising from numpy
    assert ddbar_density(3.0) == 0.0
    assert poisson_periodic(0.0) == 0.0


# ---------------------------------------------------------------------------
# prescribed curvature

def test_prescribe_curvature_identity_target():
    curve = CurveModel.flat(2, 32)
    bundle = make_line_bundle(1, "constant", curve)
    u = prescribe_curvature(bundle.kappa, bundle)
    assert np.max(np.abs(u)) < 1e-14


def test_prescribe_curvature_round_trip():
    curve = CurveModel.flat(2, 64)
    bundle = make_line_bundle(1, "constant", curve)
    x, _ = curve.coordinates()
    target = np.pi + 0.5 * np.broadcast_to(np.sin(2 * np.pi * x), (64, 64))
    u = prescribe_curvature(target, bundle)
    achieved = bundle.kappa + ddbar_density(u)
    assert np.max(np.abs(achieved - target)) < 1e-8
    # degree conservation is exact: the twist adds a pure derivative
    assert abs(integrate(achieved, curve) / np.pi - 1.0) < 1e-10


def test_prescribe_curvature_rejects_degree_mismatch():
    curve = CurveModel.flat(2, 32)
    bundle = make_line_bundle(1, "constant", curve)
    with pytest.raises(DegreeError):
        prescribe_curvature(np.full((32, 32), 2 * np.pi), bundle)


# ---------------------------------------------------------------------------
# Gauduchon check

def test_is_gauduchon_flat_and_kahler():
    flag, residual = is_gauduchon(MetricModel4T.flat(8))
    assert flag and residual == 0.0
    metric = MetricModel4T.from_kahler_potential(kahler_test_potential(16, 0.1))
    flag, residual = is_gauduchon(metric)
    assert flag
    assert residual < 1e-8


def test_is_gauduchon_rejects_conformal_factor():
    n = 32
    x1 = coords4(n)[0]
    s = np.sin(2 * np.pi * x1)
    c = np.cos(2 * np.pi * x1)
    # at a = 1e-6 the residual, about pi^2 a, lies between GAUDUCHON_TOL and 1
    for a in (0.3, 1e-6):
        u = np.broadcast_to(a * s, (n,) * 4).copy()
        flag, residual = is_gauduchon(MetricModel4T.conformal(u))
        assert not flag
        # closed form: the defect is ddbar_1(e^u), largest entry of
        # pi^2 e^{a sin}(a^2 cos^2 - a sin) over the grid
        analytic = np.pi ** 2 * np.exp(a * s) * (a ** 2 * c ** 2 - a * s)
        assert residual == pytest.approx(float(np.max(np.abs(analytic))), rel=1e-7)


# ---------------------------------------------------------------------------
# conformal scalar-flat solver

def test_conformal_solver_flat_metric_is_immediate():
    solution = conformal_scalar_flat(MetricModel4T.flat(8))
    assert np.max(np.abs(solution.f)) == 0.0
    assert solution.residual == 0.0
    assert solution.solve_residual == 0.0
    assert solution.iterations == 0


def test_conformal_solver_kahler_perturbation():
    n = 16
    metric = MetricModel4T.from_kahler_potential(kahler_test_potential(n, 0.1 / np.pi ** 2))
    solution = conformal_scalar_flat(metric)
    assert solution.solve_residual < 1e-10
    assert solution.residual < 1e-6
    assert abs(float(np.mean(solution.f))) < 1e-13

    # the verification chain holds pointwise on the grid
    s_g = chern_scalar(metric)
    trace_f = TraceOperator(metric).apply(solution.f)
    s_new = chern_scalar(metric.rescaled(solution.f / 2))
    chain = -np.exp(-solution.f / 2) * (s_g - trace_f)
    assert np.max(np.abs(s_new - chain)) < 1e-8

    # stored residual must match an independent recomputation
    recomputed = float(np.max(np.abs(chern_scalar(metric.rescaled(solution.f / 2)))))
    assert abs(recomputed - solution.residual) < 1e-12


def test_conformal_solver_near_degenerate_kahler_metric():
    # potential amplitude 0.1 drives the metric's smallest eigenvalue to
    # ~0.013 and the scalar curvature to ~2e5; the solver must still push the
    # rescaled metric's scalar curvature to the verification bound
    n = 32
    metric = MetricModel4T.from_kahler_potential(kahler_test_potential(n, 0.1))
    solution = conformal_scalar_flat(metric, tol=1e-8)
    assert solution.solve_residual < 1e-8
    assert solution.residual < 1e-6


def _conformal_sine(n, a):
    """e^u * flat with u = a sin(2 pi x1), which is not Gauduchon for a != 0."""
    return MetricModel4T.conformal(
        np.broadcast_to(a * np.sin(2 * np.pi * coords4(n)[0]), (n,) * 4).copy())


def _scaled(metric, c):
    return MetricModel4T._from_components(c * metric.g11, c * metric.g22, c * metric.g12)


def test_conformal_solver_flattens_conformally_flat_input():
    # e^u * flat is not Gauduchon, and the solver finds the exact rescaling
    # back to a constant metric
    metric = _conformal_sine(16, 0.2)
    solution = conformal_scalar_flat(metric)
    assert solution.residual < 1e-6
    rescaled = metric.rescaled(solution.f / 2)
    assert float(np.ptp(rescaled.g[..., 0, 0].real)) < 1e-6


@pytest.mark.parametrize("build, tol", [
    pytest.param(lambda: random_metric(9, np.random.default_rng(11)), pde.SOLVE_TOL,
                 id="random_metric"),
    # total 8 pi^2 a^2 = 7.1e-6 at a = 3e-4
    pytest.param(lambda: _conformal_sine(16, 3e-4), pde.SOLVE_TOL, id="conformal, small total"),
    # exactly Kahler, so Gauduchon, but is_gauduchon's residual grows like the
    # scale against an absolute bound
    pytest.param(lambda: _scaled(MetricModel4T.from_kahler_potential(
        kahler_test_potential(16, 0.1 / np.pi ** 2)), 1e6), pde.SOLVE_TOL, id="mild kahler x1e6"),
    pytest.param(lambda: _scaled(MetricModel4T.from_kahler_potential(
        kahler_test_potential(16, 0.1)), 1e8), 1e-8, id="near-degenerate kahler x1e8"),
])
def test_conformal_solver_solves_metrics_is_gauduchon_rejects(build, tol):
    # s_G = -L(log det g) lies in L's range for every metric, so the solve
    # needs neither a Gauduchon metric nor a zero total, and takes each of
    # these, which is_gauduchon's flag rejects
    metric = build()
    assert not is_gauduchon(metric)[0]
    solution = conformal_scalar_flat(metric, tol=tol)
    assert solution.solve_residual < tol
    assert solution.residual < pde.VERIFY_TOL


def _project_onto_resolved_modes(field):
    # the trace operator annihilates Fourier modes supported entirely on
    # {0, Nyquist} wavenumbers, so solutions are unique only modulo those
    n = field.shape[0]
    k = np.fft.fftfreq(n, 1.0 / n)
    degenerate = (k == 0) | (np.abs(k) == n // 2)
    mask = (degenerate[:, None, None, None] & degenerate[None, :, None, None]
            & degenerate[None, None, :, None] & degenerate[None, None, None, :])
    spec = np.fft.fftn(field)
    spec[mask] = 0.0
    return np.fft.ifftn(spec).real


def test_conformal_solver_matches_volume_normalization_oracle():
    # on the torus chart the exact solution of s_G = tr ddbar f is
    # f = -(log det g - mean): the rescaled metric has unit determinant and
    # vanishing Ricci curvature; the iterative solver must find it
    n = 16
    metric = MetricModel4T.from_kahler_potential(kahler_test_potential(n, 0.05))
    solution = conformal_scalar_flat(metric)
    log_det = np.log(metric.det)
    oracle = -(log_det - log_det.mean())
    gap = _project_onto_resolved_modes(solution.f) - _project_onto_resolved_modes(oracle)
    assert np.max(np.abs(gap)) < 1e-8


@pytest.mark.parametrize("n", [2, 4])
def test_conformal_solver_rejects_resolution_below_minimum(n, monkeypatch):
    # at N = 2 every mode is in the {0, Nyquist} null set; the check precedes
    # the trace operator
    def build(metric):
        raise AssertionError("a trace operator was built before the resolution check")

    monkeypatch.setattr(pde, "TraceOperator", build)
    with pytest.raises(DescriptorError, match="resolution"):
        conformal_scalar_flat(MetricModel4T.flat(n))


def test_conformal_solver_stalls_on_an_unmeetable_tol():
    # 1e-20 lies far below the defect's roundoff floor, so the stall counter
    # ends the solve
    metric = MetricModel4T.from_kahler_potential(kahler_test_potential(8, 0.1 / np.pi ** 2))
    with pytest.raises(ConvergenceError, match="stalled"):
        conformal_scalar_flat(metric, tol=1e-20)


def test_a_float32_correction_past_float32_range_ends_in_convergence_error(monkeypatch):
    # e^c * (flat + a ripple) at a tol below every roundoff floor: the late
    # float32 rounds overflow inside BiCGStab or its update P y; that
    # correction must come back non-finite and end the solve by the stall
    # rules, never as a numpy warning (the suite runs warnings as errors)
    updates = []
    precondition = TraceOperator.precondition

    def recording(self, r):
        out = precondition(self, r)
        updates.append(bool(np.all(np.isfinite(out))))
        return out

    monkeypatch.setattr(TraceOperator, "precondition", recording)
    t = np.arange(8) / 8
    for c in range(60, 92, 2):
        u = np.broadcast_to(c + 0.2 * np.sin(2 * np.pi * t[:, None, None, None]), (8,) * 4)
        with pytest.raises(ConvergenceError, match="stalled"):
            conformal_scalar_flat(MetricModel4T.conformal(u.copy()), tol=1e-60)
    assert not all(updates)


def test_a_float64_round_that_does_not_halve_the_defect_ends_the_solve(monkeypatch):
    # the inputs above: a round's float64 correction runs only after its
    # float32 one fails to halve the defect, and on none of these does the
    # float64 one halve it, so each solve ends at its first float64 round
    dtypes = []

    def recording(A, b, **kwargs):
        dtypes.append(b.dtype)
        return bicgstab(A, b, **kwargs)

    monkeypatch.setattr(pde, "bicgstab", recording)
    t = np.arange(8) / 8
    for c in range(60, 92, 2):
        dtypes.clear()
        u = np.broadcast_to(c + 0.2 * np.sin(2 * np.pi * t[:, None, None, None]), (8,) * 4)
        with pytest.raises(ConvergenceError, match="stalled"):
            conformal_scalar_flat(MetricModel4T.conformal(u.copy()), tol=1e-60)
        assert np.dtype(np.float64) not in dtypes[:-1], (c, dtypes)


def test_stalled_solve_never_repeats_a_bicgstab_call(monkeypatch):
    # a rejected round leaves the defect unchanged, so another round after it
    # would hand BiCGStab the same right-hand side bit for bit
    right_hand_sides = []

    def recording(a_op, b, **kwargs):
        right_hand_sides.append((b.dtype.str, b.tobytes()))
        return bicgstab(a_op, b, **kwargs)

    monkeypatch.setattr(pde, "bicgstab", recording)
    metric = MetricModel4T.from_kahler_potential(kahler_test_potential(8, 0.1 / np.pi ** 2))
    with pytest.raises(ConvergenceError, match="stalled"):
        conformal_scalar_flat(metric, tol=1e-20)
    assert len(right_hand_sides) > 1
    assert len(set(right_hand_sides)) == len(right_hand_sides)


def test_a_solve_spends_five_transforms_per_operator_and_two_per_update(monkeypatch):
    # L and the Krylov operator L P each take one rfftn and four irfftn, and
    # a round's update P y one rfftn and one irfftn
    metric = _mild_metric(8)
    transforms = Counter()
    fft = fourier._fft

    class CountingFFT:
        def __getattr__(self, name):
            def transform(*args, **kwargs):
                transforms[name] += 1
                return getattr(fft, name)(*args, **kwargs)
            return transform

    runs = matvecs = 0

    def counting(a_op, b, **kwargs):
        nonlocal runs, matvecs
        runs += 1

        def matvec(v):
            nonlocal matvecs
            matvecs += 1
            return a_op.matvec(v)

        return bicgstab(LinearOperator(a_op.shape, dtype=a_op.dtype, matvec=matvec), b,
                        **kwargs)

    monkeypatch.setattr(fourier, "_fft", CountingFFT())
    monkeypatch.setattr(pde, "bicgstab", counting)
    solution = conformal_scalar_flat(metric)
    assert solution.rounds >= 1 and matvecs > 0
    # s_G, one defect per BiCGStab run, every matvec and the verification
    applications = 1 + runs + matvecs + 1
    assert transforms == {"rfftn": applications + runs, "irfftn": 4 * applications + runs}


def test_conformal_solver_is_bit_deterministic():
    n = 8
    metric = MetricModel4T.from_kahler_potential(kahler_test_potential(n, 0.02))
    first = conformal_scalar_flat(metric)
    second = conformal_scalar_flat(
        MetricModel4T.from_kahler_potential(kahler_test_potential(n, 0.02)))
    assert np.array_equal(first.f, second.f)
    assert first.residual == second.residual
    assert first.iterations == second.iterations


def test_conformal_solution_requires_zero_mean():
    with pytest.raises(DescriptorError):
        ConformalSolution(f=np.ones((4, 4, 4, 4)), residual=0.0, solve_residual=0.0,
                          iterations=0, rounds=0)


@pytest.mark.parametrize("build", [
    lambda: poisson_periodic(np.full((16, 16), np.nan)),
    lambda: prescribe_curvature(np.full((16, 16), np.nan),
                                make_line_bundle(1, "constant", CurveModel.flat(2, 16))),
    lambda: ConformalSolution(f=np.full((8, 8, 8, 8), np.nan), residual=0.0,
                              solve_residual=0.0, iterations=0, rounds=0),
    lambda: OneOneForm(base_component=np.zeros((1, 8, 8)), s1=[np.nan], fs_multiple=1.0),
], ids=["poisson_periodic", "prescribe_curvature", "ConformalSolution", "OneOneForm"])
def test_non_finite_input_is_refused(build):
    with pytest.raises(DescriptorError, match="finite|fiber weights"):
        build()


def test_trace_operator_matches_flat_laplacian():
    n = 16
    rng = np.random.default_rng(9)
    f = trig_field4(n, rng)
    flat_trace = TraceOperator(MetricModel4T.flat(n)).apply(f)
    d11, d22, _ = ddbar4_components(f)
    assert np.max(np.abs(flat_trace - (d11 + d22))) < 1e-12


@pytest.mark.parametrize("n", [4, 8, 9, 12, 16])
def test_scalar_curvature_is_minus_the_trace_of_log_det(n):
    # chern_scalar computes s = -L(log det g); the definition s = Re tr(g^-1 Ric),
    # from the 2x2 inverse and the Chern-Ricci field, must agree to roundoff
    metric = random_metric(n, np.random.default_rng(300 + n))
    s = chern_scalar(metric)
    oracle = np.einsum("...ji,...ij->...", metric.inverse, chern_ricci(metric).ric).real
    assert np.max(np.abs(s - oracle)) <= 1e-13 * np.max(np.abs(s))


@pytest.mark.parametrize("metric", [
    lambda: MetricModel4T.flat(4),
    lambda: random_metric(4, np.random.default_rng(0), amplitude=0.45),
], ids=["flat", "random"])
def test_dense_trace_operator_has_the_sixteen_nyquist_modes_as_null_space(metric):
    # L at N = 4 as a 256 x 256 matrix, one apply per unit vector; its null
    # space is spanned by the products of 1 and (-1)^j along each axis, the
    # modes whose every wavenumber is 0 or Nyquist, and so f* = -(log det g
    # - mean) differs from the least-squares solution of L f = s_G by them alone
    metric = metric()
    op, size = TraceOperator(metric), 4 ** 4
    dense = np.column_stack([op.apply(e.reshape((4,) * 4)).ravel() for e in np.eye(size)])
    _, sigma, vt = np.linalg.svd(dense)
    # a gap of 14 orders: at most 4.6e-16 below it, 0.19 or more above it
    assert sigma[-16] <= 1e-14 * sigma[0] < 1e-2 * sigma[-17]
    signs = [(-1.0) ** (np.arange(4) * bit) for bit in (0, 1)]
    span = np.array([np.einsum("i,j,k,l->ijkl", *(signs[b] for b in bits)).ravel() / 16
                     for bits in np.ndindex((2,) * 4)])    # orthonormal rows

    def off_span(v):
        return np.max(np.abs(v - (v @ span.T) @ span))

    assert off_span(vt[-16:]) < 1e-13
    log_det = np.log(metric.det).ravel()
    f_star = -(log_det - log_det.mean())
    least_squares = np.linalg.lstsq(dense, chern_scalar(metric).ravel(), rcond=None)[0]
    assert off_span(f_star - least_squares) < 1e-13


def test_one_solve_builds_one_operator_per_metric(monkeypatch):
    # chern_scalar builds one operator for s_G, and the rounds and the
    # end-to-end check share the other; neither differentiates log det g
    # through the Ricci components
    metric = MetricModel4T.from_kahler_potential(kahler_test_potential(8, 0.1 / np.pi ** 2))
    calls = {"ddbar4_components": 0, "TraceOperator": 0}
    ddbar4, init = fourier.ddbar4_components, TraceOperator.__init__

    def counting_ddbar4(field):
        calls["ddbar4_components"] += 1
        return ddbar4(field)

    def counting_init(self, m):
        calls["TraceOperator"] += 1
        init(self, m)

    monkeypatch.setattr(fourier, "ddbar4_components", counting_ddbar4)
    monkeypatch.setattr(TraceOperator, "__init__", counting_init)
    conformal_scalar_flat(metric)
    assert calls == {"ddbar4_components": 0, "TraceOperator": 2}
    assert pde.TraceOperator is curvature.TraceOperator


# ---------------------------------------------------------------------------
# trace operator against the complex-FFT reference

class _ComplexTraceOperator:
    """Reference trace operator: one fftn and three complex ifftn per apply,
    and the unscaled mean-coefficient periodic inverse."""

    def __init__(self, metric):
        inv = metric.inverse
        self.w11 = inv[..., 0, 0].real
        self.w22 = inv[..., 1, 1].real
        self.cr = inv[..., 0, 1].real
        self.ci = inv[..., 0, 1].imag
        self.m11, self.m22, self.m12 = complex_symbols_4d(metric.resolution)
        mean_symbol = (self.w11.mean() * self.m11 + self.w22.mean() * self.m22
                       + 2.0 * (self.cr.mean() * self.m12.real
                                + self.ci.mean() * self.m12.imag))
        self.inv_symbol = np.zeros(mean_symbol.shape)
        nonzero = mean_symbol != 0.0
        self.inv_symbol[nonzero] = 1.0 / mean_symbol[nonzero]

    def apply(self, f):
        spec = np.fft.fftn(f)
        d11 = np.fft.ifftn(self.m11 * spec).real
        d22 = np.fft.ifftn(self.m22 * spec).real
        d12 = np.fft.ifftn(self.m12 * spec)
        return (self.w11 * d11 + self.w22 * d22
                + 2.0 * (self.cr * d12.real + self.ci * d12.imag))

    def precondition(self, r):
        return np.fft.ifftn(self.inv_symbol * np.fft.fftn(r)).real


@pytest.mark.parametrize("n", [8, 9, 12])
def test_trace_operator_matches_complex_reference(n):
    rng = np.random.default_rng(100 + n)
    metric = random_metric(n, rng)
    op, ref = TraceOperator(metric), _ComplexTraceOperator(metric)
    f = rng.standard_normal((n,) * 4)
    want = ref.apply(f)
    assert np.max(np.abs(op.apply(f) - want)) <= 1e-12 * np.max(np.abs(want))
    # the preconditioner is the reference inverse after the Jacobi scaling
    diagonal = ref.w11 + ref.w22
    want = ref.precondition(f / (diagonal / diagonal.mean()))
    assert np.max(np.abs(op.precondition(f) - want)) <= 1e-12 * np.max(np.abs(want))


def test_gauduchon_gate_leaves_the_preconditioner_unbuilt(monkeypatch):
    built = []
    init = TraceOperator.__init__

    def recording_init(self, metric):
        init(self, metric)
        built.append(self)

    monkeypatch.setattr(TraceOperator, "__init__", recording_init)
    is_gauduchon(random_metric(8, np.random.default_rng(3)))
    assert len(built) == 1
    assert set(vars(built[0])) == {"shape", "_metric", "_symbols"}


@pytest.mark.parametrize("n", [8, 9])
def test_preconditioner_built_on_first_use_is_bit_identical(n):
    rng = np.random.default_rng(200 + n)
    metric = random_metric(n, rng)
    r = rng.standard_normal((n,) * 4)
    # reference: both tables computed from the metric's inverse up front
    inverse = metric.inverse
    inv11, inv22, inv12 = inverse[..., 0, 0].real, inverse[..., 1, 1].real, inverse[..., 0, 1]
    weights = (inv11, inv22, 2.0 * inv12.real, 2.0 * inv12.imag)
    mean_symbol = sum(w.mean() * m for w, m in zip(weights, half_symbols_4d(n)))
    inv_symbol = np.zeros(mean_symbol.shape)
    nonzero = mean_symbol != 0.0
    inv_symbol[nonzero] = 1.0 / mean_symbol[nonzero]
    diagonal = inv11 + inv22
    workers = thread_workers()
    spec = scipy.fft.rfftn(r * (diagonal.mean() / diagonal), workers=workers)
    want = scipy.fft.irfftn(inv_symbol * spec, s=(n,) * 4, workers=workers)
    op = TraceOperator(metric)
    assert "_preconditioner" not in vars(op)
    assert np.array_equal(op.precondition(r), want)
    assert "_preconditioner" in vars(op)
    assert np.array_equal(op.precondition(r), want)


def _conformal_test_metric(n):
    rng = np.random.default_rng(5)
    return MetricModel4T.conformal(0.3 * trig_field4(n, rng, max_mode=2, terms=4))


@pytest.mark.parametrize("n", [8, 9])
def test_scaled_preconditioner_inverts_conformally_flat_operator(n):
    op = TraceOperator(_conformal_test_metric(n))
    f = np.random.default_rng(7).standard_normal((n,) * 4)
    roundtrip = op.precondition(op.apply(f))
    gap = _project_onto_resolved_modes(roundtrip) - _project_onto_resolved_modes(f)
    assert np.max(np.abs(gap)) < 1e-10


@pytest.mark.parametrize("n", [8, 9])
def test_fused_matvec_is_the_operator_after_the_preconditioner(n):
    rng = np.random.default_rng(400 + n)
    op = TraceOperator(random_metric(n, rng))
    r = rng.standard_normal((n,) * 4)
    for inner, dtype, rel in ((op, np.float64, 1e-12), (op.single(), np.float32, 1e-5)):
        want = inner.apply(inner.precondition(r.astype(dtype)))
        got = inner._apply_preconditioned(r.astype(dtype))
        assert got.dtype == dtype
        assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("n", [8, 9])
def test_fused_matvec_is_the_identity_on_the_range_of_a_conformally_flat_operator(n):
    # P L is the identity on resolved modes (the test above), so L P is the
    # identity on L's range, where every BiCGStab right-hand side lies
    op = TraceOperator(_conformal_test_metric(n))
    r = op.apply(np.random.default_rng(8).standard_normal((n,) * 4))
    assert np.max(np.abs(op._apply_preconditioned(r) - r)) <= 1e-12 * np.max(np.abs(r))


def test_conformally_flat_solve_takes_one_iteration_per_round():
    solution = conformal_scalar_flat(_conformal_test_metric(12))
    assert solution.residual < 1e-6
    # an exact preconditioner converges at the half step of a round's first
    # BiCGStab iteration; that iteration still counts
    assert solution.rounds >= 1
    assert solution.iterations <= solution.rounds
    assert solution.iterations >= solution.rounds


def test_solver_never_applies_the_operator_to_zero(monkeypatch):
    # scipy probes an operator without a dtype with a zero matvec; BiCGStab's
    # operator is L P, the defects and s_G apply L alone
    zero_inputs = []

    def recording(method):
        def wrapper(self, f):
            zero_inputs.append(not np.any(f))
            return method(self, f)
        return wrapper

    for name in ("apply", "_apply_preconditioned"):
        monkeypatch.setattr(TraceOperator, name, recording(getattr(TraceOperator, name)))
    metric = MetricModel4T.from_kahler_potential(kahler_test_potential(8, 0.02))
    solution = conformal_scalar_flat(metric)
    assert solution.iterations > 0
    assert zero_inputs and not any(zero_inputs)


_GAUDUCHON_CASES = {
    "flat": (lambda: MetricModel4T.flat(8), True),
    "conformal": (lambda: _conformal_test_metric(9), False),
    "mild-kahler": (lambda: MetricModel4T.from_kahler_potential(
        kahler_test_potential(16, 0.1 / np.pi ** 2)), True),
    "near-degenerate-kahler": (lambda: MetricModel4T.from_kahler_potential(
        kahler_test_potential(16, 0.1)), True),
    "random": (lambda: random_metric(9, np.random.default_rng(11)), False),
}


@pytest.mark.parametrize("case", list(_GAUDUCHON_CASES))
def test_spectral_gauduchon_residual_matches_component_formula(case):
    # reference: d1 d1bar g22 + d2 d2bar g11 - 2 Re(d1 d2bar g21), the single
    # component of ddbar(omega), built from the entries of the 2x2 field
    build, gauduchon = _GAUDUCHON_CASES[case]
    metric = build()
    g = metric.g
    d11_of_g22 = ddbar4_components(g[..., 1, 1].real)[0]
    d22_of_g11 = ddbar4_components(g[..., 0, 0].real)[1]
    g21 = g[..., 1, 0]
    cross = ddbar4_components(g21.real)[2] + 1j * ddbar4_components(g21.imag)[2]
    want = float(np.max(np.abs(d11_of_g22 + d22_of_g11 - 2.0 * cross.real)))
    flag, residual = is_gauduchon(metric)
    assert flag == gauduchon == (want < pde.GAUDUCHON_TOL)
    if gauduchon:
        # both at the roundoff floor, which they reach by different sums
        assert residual < 1e-11 and want < 1e-11
    else:
        assert residual == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# mixed precision: float32 inner solves inside float64 defect correction

@pytest.mark.parametrize("n", [8, 9])
def test_single_precision_operator_matches_double(n):
    rng = np.random.default_rng(300 + n)
    op = TraceOperator(random_metric(n, rng))
    single = op.single()
    assert (op.dtype, single.dtype) == (np.float64, np.float32)
    f = rng.standard_normal((n,) * 4)
    for name in ("apply", "precondition"):
        want = getattr(op, name)(f)
        got = getattr(single, name)(f.astype(np.float32))
        assert got.dtype == np.float32
        assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))
    # the float32 tables live on the float32 operator, and building them
    # caches no float64 preconditioner
    fresh = TraceOperator(random_metric(n, rng))
    fresh.single().precondition(f.astype(np.float32))
    assert set(vars(fresh)) == {"shape", "_metric", "_symbols"}


@pytest.mark.parametrize("level, tol", [(-92.0, pde.SOLVE_TOL), (92.0, 1e-60)])
def test_a_round_whose_float32_tables_overflow_runs_in_float64(monkeypatch, level, tol):
    # e^level * (flat + a ripple).  At -92 the weights, the inverse entries,
    # are about 1e40, beyond float32's range, and casting them raised a raw
    # "overflow encountered in cast"; at +92 (with a tol that lets the solve
    # start) the weights are float32 subnormals and the inverse mean symbol
    # overflows.  Every round now runs in float64, and the absolute
    # tolerance stalls the solve (ROADMAP item 7)
    x1 = coords4(8)[0]
    metric = MetricModel4T.conformal(np.broadcast_to(level + 0.2 * np.sin(2 * np.pi * x1),
                                                     (8,) * 4).copy())
    dtypes = []

    def recording(A, b, **kwargs):
        dtypes.append(b.dtype)
        return bicgstab(A, b, **kwargs)

    monkeypatch.setattr(pde, "bicgstab", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="stalled"):
            conformal_scalar_flat(metric, tol)
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}


def test_a_float32_round_shares_its_tables_and_frees_them_when_it_ends():
    # a round's float32 operator holds one set of tables while it lives, and
    # each single() builds a set of its own
    op = TraceOperator(random_metric(8, np.random.default_rng(12)))
    single = op.single()
    assert op.single()._preconditioner is not single._preconditioner
    tables = weakref.ref(single._preconditioner[1])
    del single
    assert tables() is None
    assert set(vars(op)) == {"shape", "_metric", "_symbols"}


def _float64_reference_solve(metric, tol=pde.SOLVE_TOL):
    """The defect-correction solve with every BiCGStab in float64: BiCGStab
    on L P, right-preconditioned, then the update P y."""
    op = TraceOperator(metric)
    s_g = chern_scalar(metric)
    size = s_g.size
    a_op = LinearOperator((size, size), dtype=float,
                          matvec=lambda v: op._apply_preconditioned(v.reshape(op.shape)).ravel())
    f = np.zeros(op.shape)
    for _ in range(24):
        defect = s_g - op.apply(f)
        if np.max(np.abs(defect)) < tol:
            return f
        rtol = min(3e-2, max(1e-9, 0.3 * tol / float(np.linalg.norm(defect.ravel()))))
        y, _info = bicgstab(a_op, defect.ravel(), rtol=rtol, atol=0.0,
                            maxiter=pde._INNER_MAXITER)
        f = f + op.precondition(y.reshape(op.shape))
        f -= f.mean()
    raise AssertionError("the float64 reference solve did not converge")


def _mild_metric(n=16):
    return MetricModel4T.from_kahler_potential(kahler_test_potential(n, 0.1 / np.pi ** 2))


def test_mixed_precision_potential_matches_float64_reference_on_resolved_modes():
    metric = _mild_metric()
    solution = conformal_scalar_flat(metric)
    reference = _float64_reference_solve(metric)
    gap = _project_onto_resolved_modes(solution.f) - _project_onto_resolved_modes(reference)
    assert np.max(np.abs(gap)) < 1e-12


def _break_precondition(monkeypatch, broken_dtypes):
    """Make precondition return zeros for inputs of the given dtypes, which
    zeroes the update of a round in that precision."""
    precondition = TraceOperator.precondition

    def broken(self, r):
        if r.dtype in broken_dtypes:
            return np.zeros_like(r)
        return precondition(self, r)

    monkeypatch.setattr(TraceOperator, "precondition", broken)


def test_failed_float32_round_is_redone_in_float64(monkeypatch):
    metric = _mild_metric()
    reference = _float64_reference_solve(metric)
    _break_precondition(monkeypatch, (np.float32,))
    solution = conformal_scalar_flat(metric)
    assert solution.solve_residual < pde.SOLVE_TOL
    assert solution.residual < pde.VERIFY_TOL
    # every round was the float64 round of the reference, from the same defect
    assert np.array_equal(solution.f, reference)


def test_precondition_broken_at_both_precisions_raises(monkeypatch):
    _break_precondition(monkeypatch, (np.float32, np.float64))
    with pytest.raises(ConvergenceError, match="stalled"):
        conformal_scalar_flat(_mild_metric())
