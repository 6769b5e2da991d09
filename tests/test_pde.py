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
    SolvabilityError,
    chern_scalar,
    conformal_scalar_flat,
    conformal_total_scalar_identity_check,
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
    a = 0.3
    x1 = coords4(n)[0]
    u = np.broadcast_to(a * np.sin(2 * np.pi * x1), (n,) * 4).copy()
    flag, residual = is_gauduchon(MetricModel4T.conformal(u))
    assert not flag
    # closed form: the defect is ddbar_1(e^u), largest entry of
    # pi^2 e^{a sin}(a^2 cos^2 - a sin) over the grid
    s = np.sin(2 * np.pi * x1)
    c = np.cos(2 * np.pi * x1)
    analytic = np.pi ** 2 * np.exp(a * s) * (a ** 2 * c ** 2 - a * s)
    assert residual == pytest.approx(float(np.max(np.abs(analytic))), abs=1e-6)


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


def test_conformal_solver_gates_reject_non_gauduchon():
    n = 16
    u = np.broadcast_to(0.2 * np.sin(2 * np.pi * coords4(n)[0]), (n,) * 4).copy()
    with pytest.raises(SolvabilityError):
        conformal_scalar_flat(MetricModel4T.conformal(u))


@pytest.fixture
def ungated(monkeypatch):
    """Let data that fails the solver's gates on purpose through both of them."""
    monkeypatch.setattr(pde, "is_gauduchon", lambda metric: (True, 0.0))
    monkeypatch.setattr(pde, "total_scalar", lambda metric: 0.0)


def test_conformal_solver_flattens_conformally_flat_input_when_ungated(ungated):
    # e^u * flat fails the Gauduchon gate, but with the gates passed the
    # solver finds the exact rescaling back to a constant metric
    n = 16
    u = np.broadcast_to(0.2 * np.sin(2 * np.pi * coords4(n)[0]), (n,) * 4).copy()
    metric = MetricModel4T.conformal(u)
    solution = conformal_scalar_flat(metric)
    assert solution.residual < 1e-6
    rescaled = metric.rescaled(solution.f / 2)
    assert float(np.ptp(rescaled.g[..., 0, 0].real)) < 1e-6


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
    # at N = 2 every mode is in the {0, Nyquist} null set; the check precedes the gates
    def gate(metric):
        raise AssertionError("a gate ran before the resolution check")

    monkeypatch.setattr(pde, "is_gauduchon", gate)
    monkeypatch.setattr(pde, "total_scalar", gate)
    with pytest.raises(DescriptorError, match="resolution"):
        conformal_scalar_flat(MetricModel4T.flat(n))


def test_conformal_solver_stalls_on_an_unmeetable_tol():
    # 1e-20 lies far below the defect's roundoff floor, so the stall counter
    # ends the solve
    metric = MetricModel4T.from_kahler_potential(kahler_test_potential(8, 0.1 / np.pi ** 2))
    with pytest.raises(ConvergenceError, match="stalled"):
        conformal_scalar_flat(metric, tol=1e-20)


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


# ---------------------------------------------------------------------------
# total-scalar identity after rescaling

def test_identity_check_zero_and_constant_factor():
    n = 16
    metric = MetricModel4T.from_kahler_potential(kahler_test_potential(n, 0.05))
    zero = conformal_total_scalar_identity_check(metric, np.zeros((n,) * 4))
    assert zero < 1e-10
    constant = conformal_total_scalar_identity_check(metric, np.full((n,) * 4, 0.3))
    assert constant < 1e-10


def test_identity_check_flat_metric():
    n = 8
    flat = MetricModel4T.flat(n)
    assert conformal_total_scalar_identity_check(flat, np.full((n,) * 4, -0.7)) < 1e-8


def test_identity_check_rejects_non_gauduchon_rescaling():
    n = 16
    flat = MetricModel4T.flat(n)
    f = np.broadcast_to(0.3 * np.sin(2 * np.pi * coords4(n)[0]), (n,) * 4).copy()
    with pytest.raises(SolvabilityError):
        conformal_total_scalar_identity_check(flat, f)


def test_trace_operator_matches_flat_laplacian():
    n = 16
    rng = np.random.default_rng(9)
    f = trig_field4(n, rng)
    flat_trace = TraceOperator(MetricModel4T.flat(n)).apply(f)
    d11, d22, _ = ddbar4_components(f)
    assert np.max(np.abs(flat_trace - (d11 + d22))) < 1e-12


@pytest.mark.parametrize("n", [4, 8, 9, 12, 16])
def test_scalar_curvature_is_minus_the_trace_of_log_det(n):
    # s_G = -L(log det g) on the torus chart; both sides pair the same
    # derivatives with the same weights in the same order, so bit for bit
    metric = random_metric(n, np.random.default_rng(300 + n))
    assert np.all(chern_scalar(metric) == -TraceOperator(metric).apply(np.log(metric.det)))


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
    assert set(vars(built[0])) == {"shape", "_weights", "_symbols"}


@pytest.mark.parametrize("n", [8, 9])
def test_preconditioner_built_on_first_use_is_bit_identical(n):
    rng = np.random.default_rng(200 + n)
    metric = random_metric(n, rng)
    r = rng.standard_normal((n,) * 4)
    # reference: both tables computed from the metric's entries up front
    weights = (metric.inv11, metric.inv22, 2.0 * metric.inv12.real, 2.0 * metric.inv12.imag)
    mean_symbol = sum(w.mean() * m for w, m in zip(weights, half_symbols_4d(n)))
    inv_symbol = np.zeros(mean_symbol.shape)
    nonzero = mean_symbol != 0.0
    inv_symbol[nonzero] = 1.0 / mean_symbol[nonzero]
    diagonal = metric.inv11 + metric.inv22
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


def test_conformally_flat_solve_takes_one_iteration_per_round(ungated):
    solution = conformal_scalar_flat(_conformal_test_metric(12))
    assert solution.residual < 1e-6
    # an exact preconditioner converges at the half step of a round's first
    # BiCGStab iteration; that iteration still counts
    assert solution.rounds >= 1
    assert solution.iterations <= solution.rounds
    assert solution.iterations >= solution.rounds


def test_solver_never_applies_the_operator_to_zero(monkeypatch):
    # scipy probes an operator without a dtype with a zero matvec
    apply = TraceOperator.apply
    zero_inputs = []

    def recording_apply(self, f):
        zero_inputs.append(not np.any(f))
        return apply(self, f)

    monkeypatch.setattr(TraceOperator, "apply", recording_apply)
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
    cross = ddbar4_components(g[..., 1, 0])[2]
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
    f = rng.standard_normal((n,) * 4)
    for method in (op.apply, op.precondition):
        want = method(f)
        got = method(f.astype(np.float32))
        assert got.dtype == np.float32
        assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))
    # the float32 tables were built without also caching the float64 preconditioner
    fresh = TraceOperator(random_metric(n, rng))
    fresh.precondition(f.astype(np.float32))
    assert "_single_preconditioner" in vars(fresh)
    assert "_preconditioner" not in vars(fresh)


def _float64_reference_solve(metric, tol=pde.SOLVE_TOL):
    """The defect-correction solve with every BiCGStab in float64."""
    op = TraceOperator(metric)
    s_g = chern_scalar(metric)
    size = s_g.size
    a_op = LinearOperator((size, size), dtype=float,
                          matvec=lambda v: op.apply(v.reshape(op.shape)).ravel())
    m_op = LinearOperator((size, size), dtype=float,
                          matvec=lambda v: op.precondition(v.reshape(op.shape)).ravel())
    f = np.zeros(op.shape)
    for _ in range(pde._MAX_ROUNDS):
        defect = s_g - op.apply(f)
        if np.max(np.abs(defect)) < tol:
            return f
        rtol = min(3e-2, max(1e-9, 0.3 * tol / float(np.linalg.norm(defect.ravel()))))
        update, _info = bicgstab(a_op, defect.ravel(), M=m_op, rtol=rtol, atol=0.0,
                                 maxiter=pde._INNER_MAXITER)
        f = f + update.reshape(op.shape)
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
    """Make precondition return zeros, which breaks BiCGStab down at once,
    for inputs of the given dtypes."""
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
