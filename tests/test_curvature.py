import json
import tracemalloc

import numpy as np
import pytest
from conftest import coords4, kahler_test_potential, random_metric, trig_field4

from scalarflat import (
    CurveModel,
    DegreeError,
    DescriptorError,
    FiberSimplexPoint,
    LineBundleModel,
    MetricModel4T,
    OneOneForm,
    RicciField,
    SplitBundle,
    canonical_curvature_split,
    chern_curvature_matrix,
    chern_ricci,
    chern_scalar,
    conformal_ricci,
    conformal_scalar_flat,
    fourier,
    integrate,
    make_line_bundle,
    poisson_periodic,
    prescribe_curvature,
    tautological_base_curvature,
    total_scalar,
)
from scalarflat.curvature import (
    TraceOperator,
    _hermitian_2x2,
    curvature_report,
    hermitian_part,
    load_metric,
    save_field4,
    save_metric,
    total_scalar_routes,
)
from scalarflat.geom_core import grid_coordinates
from scalarflat.pde import ConformalSolution, ddbar_density


def diag_metric_field(n, exponents):
    """h = diag(exp(-phi_1), ..., exp(-phi_r)) on the n x n curve grid."""
    r = len(exponents)
    h = np.zeros((n, n, r, r), dtype=complex)
    for a, phi in enumerate(exponents):
        h[..., a, a] = np.exp(-phi)
    return h


# ---------------------------------------------------------------------------
# bundle curvature over the curve chart

def test_curvature_matrix_identity_metric_is_flat():
    h = diag_metric_field(32, [np.zeros((32, 32)), np.zeros((32, 32))])
    curv = chern_curvature_matrix(h)
    assert np.max(np.abs(curv)) < 1e-14


def test_curvature_matrix_diagonal_conformal_factor():
    n = 64
    x, _ = grid_coordinates(n)
    u = np.broadcast_to(0.3 * np.cos(2 * np.pi * x), (n, n))
    h = diag_metric_field(n, [u, np.zeros((n, n))])
    curv = chern_curvature_matrix(h)
    # for h_11 = e^{-u}: R_00 = e^{-u} * ddbar(u), with ddbar(u) = u_xx / 4
    ddbar_u = -0.3 * np.pi ** 2 * np.cos(2 * np.pi * x)
    expected = np.exp(-u) * np.broadcast_to(ddbar_u, (n, n))
    assert np.max(np.abs(curv[..., 0, 0] - expected)) < 1e-8
    assert np.max(np.abs(curv[..., 0, 1])) < 1e-12
    assert np.max(np.abs(curv[..., 1, 1])) < 1e-12


def _fd_roll_derivative(field, axis):
    n = field.shape[axis]
    return (np.roll(field, -1, axis) - np.roll(field, 1, axis)) * (n / 2.0)


def test_curvature_matrix_against_finite_difference_oracle():
    # brute-force evaluation of the curvature formula with centered
    # differences, coded independently of the library kernels
    n = 64
    x, y = grid_coordinates(n)
    u = np.broadcast_to(0.2 * np.cos(2 * np.pi * x) + 0.1 * np.sin(2 * np.pi * y), (n, n))
    c = 0.3 + 0.1j
    h = np.zeros((n, n, 2, 2), dtype=complex)
    h[..., 0, 0] = np.exp(-u)
    h[..., 1, 1] = 1.0
    h[..., 0, 1] = c
    h[..., 1, 0] = np.conj(c)

    def dz_fd(f):
        return 0.5 * (_fd_roll_derivative(f, 0) - 1j * _fd_roll_derivative(f, 1))

    def dzbar_fd(f):
        return 0.5 * (_fd_roll_derivative(f, 0) + 1j * _fd_roll_derivative(f, 1))

    hz = np.zeros_like(h)
    hzbar = np.zeros_like(h)
    hzzbar = np.zeros_like(h)
    for a in range(2):
        for b in range(2):
            hz[..., a, b] = dz_fd(h[..., a, b])
            hzbar[..., a, b] = dzbar_fd(h[..., a, b])
            hzzbar[..., a, b] = dzbar_fd(dz_fd(h[..., a, b]))
    oracle = -hzzbar + np.einsum("...ab,...bc,...cd->...ad", hz, np.linalg.inv(h), hzbar)

    curv = chern_curvature_matrix(h)
    assert np.max(np.abs(curv - oracle)) < 0.05  # second-order truncation at n = 64


def test_curvature_matrix_rejects_bad_input():
    h = diag_metric_field(16, [np.zeros((16, 16))])
    with pytest.raises(DescriptorError):
        chern_curvature_matrix(-h)
    bad = h.copy()
    bad[..., 0, 0] += 1j  # not Hermitian
    with pytest.raises(DescriptorError):
        chern_curvature_matrix(bad)


def test_curvature_matrix_rejects_non_finite_entries():
    h = diag_metric_field(16, [np.zeros((16, 16)), np.zeros((16, 16))])
    inf_diagonal = h.copy()
    inf_diagonal[3, 5, 0, 0] = np.inf
    nan_pair = h.copy()
    nan_pair[3, 5, 0, 1] = nan_pair[3, 5, 1, 0] = np.nan
    for bad in (inf_diagonal, nan_pair):
        with pytest.raises(DescriptorError, match="finite"):
            chern_curvature_matrix(bad)


@pytest.mark.parametrize("c", [1.0, 1e-6, 1e-12, 2.0 ** -60])
def test_asymmetry_is_refused_at_every_scale(c):
    # g12 = c/2 and g21 = -c/2: an asymmetry of c, as large as the largest
    # entry, so the field is refused whatever c is
    field = np.array([[c, c / 2], [-c / 2, c]])
    for build, grid in ((MetricModel4T, (4,) * 4), (chern_curvature_matrix, (8, 8))):
        with pytest.raises(DescriptorError, match="not Hermitian"):
            build(np.broadcast_to(field, grid + (2, 2)))


@pytest.mark.parametrize("value", [1.5e308, 1e308])
def test_curvature_matrix_refuses_a_diagonal_whose_average_overflows(value):
    # the Hermitian average (conj(f_ii) + f_ii) * 0.5 warned "overflow
    # encountered in add"; it is inf, and its eigenvalues NaN
    h = diag_metric_field(8, [np.zeros((8, 8)), np.zeros((8, 8))])
    h[3, 5, 0, 0] = value
    assert hermitian_part(h, "metric field")[3, 5, 0, 0].real == np.inf
    with pytest.raises(DescriptorError, match=r"not positive definite \(min eigenvalue nan\)"):
        chern_curvature_matrix(h)


@pytest.mark.parametrize("field", [np.ones(3), 1.5, np.ones((2, 3)), np.eye(3),
                                   np.ones((0, 2, 2))],
                         ids=["vector", "float", "non-square", "bare matrix", "empty stack"])
def test_hermitian_part_refuses_what_is_not_a_stack_of_square_matrices(field):
    # the index-pair loop raised a raw IndexError, TypeError or ValueError
    with pytest.raises(DescriptorError, match="frame must be a nonempty stack of square"):
        hermitian_part(field, "frame")


def _split_bundle(curve, degrees_and_fields):
    return SplitBundle(tuple(make_line_bundle(d, f, curve) for d, f in degrees_and_fields))


def test_tautological_base_curvature_examples():
    curve = CurveModel.flat(2, 32)
    trivial = _split_bundle(curve, [(0, "constant")] * 3)
    zero = tautological_base_curvature(trivial, FiberSimplexPoint(np.array([0.2, 0.3, 0.5])))
    assert np.max(np.abs(zero)) == 0.0

    bundle = _split_bundle(curve, [(1, "constant"), (0, "constant")])
    at_l = tautological_base_curvature(bundle, FiberSimplexPoint(np.array([1.0, 0.0])))
    np.testing.assert_allclose(at_l, np.pi)
    halfway = tautological_base_curvature(bundle, FiberSimplexPoint(np.array([0.5, 0.5])))
    np.testing.assert_allclose(halfway, np.pi / 2)

    with pytest.raises(DescriptorError):
        tautological_base_curvature(bundle, FiberSimplexPoint(np.array([1.0, 0.0, 0.0])))


def test_canonical_curvature_split_substitutions():
    curve = CurveModel.flat(2, 32)
    bundle = _split_bundle(curve, [(1, "constant"), (0, "constant")])
    canonical = make_line_bundle(2, "constant", curve)

    at_zero = canonical_curvature_split(bundle, canonical, 0.0)
    np.testing.assert_array_equal(at_zero.base_component[0],
                                  bundle.summands[0].kappa + canonical.kappa)
    at_one = canonical_curvature_split(bundle, canonical, 1.0)
    np.testing.assert_allclose(at_one.base_component[0],
                               canonical.kappa - bundle.summands[0].kappa)
    midway = canonical_curvature_split(bundle, canonical, 0.5)
    np.testing.assert_allclose(midway.base_component[0], 2 * np.pi)
    assert midway.fs_multiple == -2.0


def test_canonical_curvature_split_validation():
    curve = CurveModel.flat(2, 32)
    bundle = _split_bundle(curve, [(1, "constant"), (0, "constant")])
    wrong_degree = make_line_bundle(1, "constant", curve)
    with pytest.raises(DegreeError):
        canonical_curvature_split(bundle, wrong_degree, 0.5)
    nontrivial_tail = _split_bundle(curve, [(1, "constant"), (1, "constant")])
    with pytest.raises(DescriptorError):
        canonical_curvature_split(nontrivial_tail, make_line_bundle(2, "constant", curve), 0.5)


def test_projection_formula_consistency():
    # canonical assembly agrees with (kappa + gamma) - n * (tautological part)
    curve = CurveModel.flat(3, 32)
    x, y = curve.coordinates()
    kappa = np.pi + 0.5 * np.broadcast_to(np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
                                          (32, 32))
    bundle = _split_bundle(curve, [(1, kappa), (0, "constant"), (0, "constant")])
    gamma = 4 * np.pi + 0.7 * np.broadcast_to(np.cos(2 * np.pi * y), (32, 32))
    canonical = make_line_bundle(4, gamma, curve)
    for s1 in (0.0, 0.25, 1.0):
        rest = (1.0 - s1) / 2.0
        taut = tautological_base_curvature(
            bundle, FiberSimplexPoint(np.array([s1, rest, rest])))
        form = canonical_curvature_split(bundle, canonical, s1)
        direct = (bundle.summands[0].kappa + canonical.kappa) - 3 * taut
        assert np.max(np.abs(form.base_component[0] - direct)) < 1e-13


# ---------------------------------------------------------------------------
# 2-torus metrics

def test_metric_model_validation():
    g = np.zeros((8, 8, 8, 8, 2, 2), dtype=complex)
    g[..., 0, 0] = 1.0
    g[..., 1, 1] = -1.0
    with pytest.raises(DescriptorError):
        MetricModel4T(g)
    g[..., 1, 1] = 1.0
    g[..., 0, 1] = 0.3
    g[..., 1, 0] = 0.9  # not the conjugate
    with pytest.raises(DescriptorError):
        MetricModel4T(g)


def test_kahler_metric_is_the_identity_plus_the_complex_hessian():
    # g = 1 + ddbar phi entry by entry, bit for bit
    phi = kahler_test_potential(8, 0.05)
    metric = MetricModel4T.from_kahler_potential(phi)
    d11, d22, d12 = fourier.ddbar4_components(phi)
    assert metric.g11.tobytes() == (1.0 + d11).tobytes()
    assert metric.g22.tobytes() == (1.0 + d22).tobytes()
    assert metric.g12.tobytes() == d12.tobytes()


@pytest.mark.parametrize("build", [
    lambda: MetricModel4T(np.broadcast_to(np.eye(2), (4, 4, 4, 5, 2, 2))),
    lambda: MetricModel4T.conformal(np.zeros((4, 4, 4))),
    lambda: MetricModel4T.conformal(np.zeros((4, 4, 4, 5))),
], ids=["public", "conformal-3d", "conformal-uneven"])
def test_metric_grid_is_checked_on_every_construction_path(build):
    with pytest.raises(DescriptorError, match="equal-resolution grid"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: MetricModel4T.flat(0), "at least 1, got 0"),
    (lambda: MetricModel4T.flat(-1), "at least 1, got -1"),
    (lambda: MetricModel4T.flat(2.5), "grid resolution must be an integer"),
    (lambda: MetricModel4T(np.zeros((0, 0, 0, 0, 2, 2))), "at least 1, got 0"),
    (lambda: MetricModel4T.conformal(np.zeros((0, 0, 0, 0))), "at least 1, got 0"),
    (lambda: MetricModel4T.from_kahler_potential(np.zeros((0, 0, 0, 0))), "at least 1, got 0"),
    (lambda: chern_curvature_matrix(np.ones((8, 8, 0, 0))), r"\(n, n, r, r\)"),
    (lambda: chern_curvature_matrix(np.ones((0, 0, 1, 1))), r"\(n, n, r, r\)"),
    (lambda: fourier.ddbar4_components(np.zeros((0, 0, 0, 0))), "at least 1, got 0"),
    (lambda: RicciField(np.zeros((0, 0, 0, 0, 2, 2))), "at least 1, got 0"),
    (lambda: poisson_periodic(np.zeros((0, 0))), "nonempty grid"),
    (lambda: ddbar_density(np.zeros((0, 0))), "nonempty grid"),
    (lambda: ConformalSolution(f=np.zeros(0), residual=0.0, solve_residual=0.0,
                               iterations=0, rounds=0), "nonempty grid"),
], ids=["flat 0", "flat -1", "flat 2.5", "public empty", "conformal empty",
        "kahler empty", "curve rank 0", "curve grid 0", "ddbar4 empty", "ricci empty",
        "poisson empty", "ddbar_density empty", "ConformalSolution empty"])
def test_empty_or_invalid_grid_sizes_are_descriptor_errors(build, message):
    # refused before numpy meets an empty, negative or float size (a raw
    # empty-reduction, negative-dimension, TypeError or ZeroDivisionError)
    with pytest.raises(DescriptorError, match=message):
        build()


@pytest.mark.parametrize("build", [
    lambda path: MetricModel4T.flat(4).rescaled(np.zeros(3)),
    lambda path: conformal_ricci(chern_ricci(MetricModel4T.flat(4)), np.zeros(3)),
    lambda path: save_field4(path, np.zeros((2, 3))),
    lambda path: fourier.ddbar4_components(np.zeros((4, 4, 4, 5))),
    lambda path: RicciField(np.zeros((2, 3, 4, 5, 2, 2))),
], ids=["rescaled", "conformal_ricci", "save_field4", "ddbar4_components", "RicciField"])
def test_misshapen_4_grid_fields_are_descriptor_errors(build, tmp_path):
    with pytest.raises(DescriptorError, match="grid|shape"):
        build(tmp_path / "f.csv")
    assert not (tmp_path / "f.csv").exists()


def complex_grid(*shape):
    """A complex field 0.01j of the given shape, whose real part alone is valid."""
    return np.zeros(shape, dtype=complex) + 0.01j


def canonical_split_with_fiber_weights(s1):
    curve = CurveModel.flat(2, 8)
    bundle = SplitBundle((make_line_bundle(1, "constant", curve),
                          make_line_bundle(0, "constant", curve)))
    return canonical_curvature_split(bundle, make_line_bundle(2, "constant", curve), s1)


@pytest.mark.parametrize("build, what", [
    (lambda path: fourier.ddbar4_components(complex_grid(8, 8, 8, 8)), "field"),
    (lambda path: MetricModel4T.from_kahler_potential(complex_grid(8, 8, 8, 8)), "field"),
    (lambda path: MetricModel4T.conformal(complex_grid(8, 8, 8, 8)), "field"),
    (lambda path: MetricModel4T.flat(8).rescaled(complex_grid(8, 8, 8, 8)), "field"),
    (lambda path: conformal_ricci(chern_ricci(MetricModel4T.flat(8)), complex_grid(8, 8, 8, 8)),
     "field"),
    (lambda path: save_field4(path, complex_grid(8, 8, 8, 8)), "field"),
    (lambda path: CurveModel(2, 8, 1.0 + complex_grid(8, 8)), "area density"),
    (lambda path: integrate(complex_grid(8, 8), CurveModel.flat(2, 8)), "field"),
    (lambda path: LineBundleModel(0, complex_grid(8, 8), CurveModel.flat(2, 8)),
     "curvature density"),
    (lambda path: make_line_bundle(0, complex_grid(8, 8), CurveModel.flat(2, 8)),
     "density profile"),
    (lambda path: FiberSimplexPoint(np.array([0.5, 0.5]) + complex_grid(2)),
     "simplex weight vector"),
    (lambda path: OneOneForm(complex_grid(1, 8, 8), [0.5], -2.0), "base component"),
    (lambda path: OneOneForm(np.zeros((1, 8, 8)), 0.5 + complex_grid(1), -2.0),
     "fiber weight vector"),
    (lambda path: canonical_split_with_fiber_weights(0.5 + complex_grid(3)),
     "fiber weight vector"),
    (lambda path: poisson_periodic(complex_grid(8, 8)), "Poisson source"),
    (lambda path: ddbar_density(complex_grid(8, 8)), "potential"),
    (lambda path: prescribe_curvature(complex_grid(8, 8),
                                      make_line_bundle(0, "constant", CurveModel.flat(2, 8))),
     "target density"),
    (lambda path: ConformalSolution(f=complex_grid(8, 8, 8, 8), residual=0.0,
                                    solve_residual=0.0, iterations=0, rounds=0),
     "conformal potential"),
], ids=["ddbar4_components", "from_kahler_potential", "conformal", "rescaled",
        "conformal_ricci", "save_field4",
        "CurveModel", "integrate", "LineBundleModel", "make_line_bundle", "FiberSimplexPoint",
        "OneOneForm base", "OneOneForm s1", "canonical_curvature_split", "poisson_periodic",
        "ddbar_density", "prescribe_curvature", "ConformalSolution"])
def test_complex_fields_are_refused_not_truncated(build, what, tmp_path):
    # a float conversion would keep the real part and drop 0.01j with a ComplexWarning
    with pytest.raises(DescriptorError, match=f"expected a real {what}, got a complex one"):
        build(tmp_path / "f.csv")
    assert not (tmp_path / "f.csv").exists()


RAGGED = [[1.0], [2.0, 3.0]]
TEXT = np.full((8,) * 4 + (2, 2), "x")


@pytest.mark.parametrize("build, field, what", [
    (lambda field: CurveModel(2, 8, field), RAGGED, "real area density"),
    (lambda field: integrate(field, CurveModel.flat(2, 8)), RAGGED, "real field"),
    (lambda field: prescribe_curvature(field,
                                       make_line_bundle(0, "constant", CurveModel.flat(2, 8))),
     RAGGED, "real target density"),
    (MetricModel4T, RAGGED, "complex metric"),
    (MetricModel4T, TEXT, "complex metric"),
    (RicciField, RAGGED, "complex Ricci field"),
    (RicciField, TEXT, "complex Ricci field"),
    (chern_curvature_matrix, RAGGED, "complex metric field"),
    (chern_curvature_matrix, TEXT[0, 0], "complex metric field"),
    (lambda field: hermitian_part(field, "frame"), RAGGED, "complex frame"),
    (lambda field: hermitian_part(field, "frame"), TEXT, "complex frame"),
], ids=["CurveModel", "integrate", "prescribe_curvature", "MetricModel4T",
        "MetricModel4T non-numeric", "RicciField", "RicciField non-numeric",
        "chern_curvature_matrix", "chern_curvature_matrix non-numeric", "hermitian_part",
        "hermitian_part non-numeric"])
def test_ragged_fields_are_descriptor_errors(build, field, what):
    # np.asarray and np.shape raise a raw ValueError on a ragged list, and
    # np.asarray on text that is not a number
    with pytest.raises(DescriptorError, match=f"expected a {what}: "):
        build(field)


@pytest.mark.parametrize("value", ["x", None, 1j, np.array([1.0, 2.0])],
                         ids=["text", "None", "complex", "pair"])
@pytest.mark.parametrize("build, what", [
    (lambda value: conformal_scalar_flat(MetricModel4T.flat(8), tol=value), "solve tolerance"),
    (lambda value: OneOneForm(np.zeros((1, 8, 8)), [0.5], fs_multiple=value), "fiber multiple"),
], ids=["tol", "fs_multiple"])
def test_scalar_arguments_are_descriptor_errors(build, what, value):
    # math.isfinite and np.isfinite raised a raw TypeError or ValueError;
    # None reads as NaN, which the finiteness check names
    with pytest.raises(DescriptorError, match=what):
        build(value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("build", [
    lambda ric, field: conformal_ricci(ric, field),
    lambda ric, field: MetricModel4T.from_kahler_potential(field),
    lambda ric, field: fourier.ddbar4_components(field),
    lambda ric, field: ddbar_density(field[1, 2]),
    lambda ric, field: MetricModel4T.flat(8).rescaled(field),
], ids=["conformal_ricci", "from_kahler_potential", "ddbar4_components", "ddbar_density",
        "rescaled"])
def test_non_finite_fields_are_refused_before_any_transform(build, value, monkeypatch):
    # a transform of +-inf warned "invalid value encountered in multiply", and
    # one of NaN came back as a NaN field
    ric = chern_ricci(MetricModel4T.flat(8))
    field = np.zeros((8,) * 4)
    field[1, 2, 3, 4] = value
    monkeypatch.setattr(fourier, "_fft", None)    # a transform raises AttributeError
    with pytest.raises(DescriptorError, match="entries must be finite"):
        build(ric, field)


@pytest.mark.parametrize("build", [
    lambda field: fourier.ddbar4_components(field),
    lambda field: MetricModel4T.from_kahler_potential(field),
    lambda field: conformal_ricci(chern_ricci(MetricModel4T.flat(8)), field),
], ids=["ddbar4_components", "from_kahler_potential", "conformal_ricci"])
def test_a_field_whose_sum_overflows_is_refused(build):
    # the spectrum's zero mode, 8^4 * 1e306, overflowed to inf and met the
    # zero symbols there: a raw "invalid value encountered in multiply"
    with pytest.raises(DescriptorError, match="field sum entries must be finite"):
        build(np.full((8,) * 4, 1e306))


def traced(build):
    """(build(), tracemalloc's peak and final traced bytes while it ran, both
    above what was traced when it started)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, current - before


def test_public_constructor_peak_stays_near_its_stored_fields():
    # the metric stores 32 bytes per point (g11 g22 real, g12 complex)
    # against g's 64, and its peak is 48 (0.75x): the entries and the
    # admission's det g and tr g^-1; no second 2x2 field is built
    g = np.array(random_metric(16, np.random.default_rng(4)).g)
    _metric, peak, _current = traced(lambda: MetricModel4T(g))
    assert peak < 1.0 * g.nbytes


def test_chern_ricci_peak_stays_near_its_field():
    # against the dense (n, n, n, n, 2, 2) field, which no producer builds:
    # the three entries it stores (0.5x), log det g, the half spectrum and
    # one inverse transform's input and output; negating and freezing the
    # entries copies nothing (0.91x at N = 16 and 24)
    n = 16
    curvature_report(MetricModel4T.flat(n))    # fills the symbol cache at this size
    metric = random_metric(n, np.random.default_rng(5))
    ric, peak, _current = traced(lambda: chern_ricci(metric))
    assert peak < 1.0 * ric.ric.nbytes


def test_conformal_ricci_peak_stays_near_its_fields():
    # chern_ricci's entries, then 2 ddbar f's entries, which are shifted in
    # place into the result's (1.28x at N = 16 and 24)
    n = 16
    curvature_report(MetricModel4T.flat(n))    # fills the symbol cache at this size
    metric = random_metric(n, np.random.default_rng(5))
    f = 0.3 * trig_field4(n, np.random.default_rng(7))
    ric, peak, _current = traced(lambda: conformal_ricci(chern_ricci(metric), f))
    assert peak < 2.0 * ric.ric.nbytes


def test_curvature_report_keeps_no_field_on_the_metric():
    # a metric memoizes nothing, so a report leaves behind only its small dict
    n = 16
    curvature_report(MetricModel4T.flat(n))    # fills the symbol cache at this size
    metric = random_metric(n, np.random.default_rng(6))
    report, _peak, held = traced(lambda: curvature_report(metric))
    assert report["cross_check_residual"] < 1e-6
    assert held <= 4096


def test_conformal_solve_peak_stays_below_fourteen_fields():
    # in N^4 float64 fields: the operator derives each weight where it reads
    # it, a round's float32 tables die with the round, and s_G, the
    # candidates and the defects are built in place, so the solve peaks at
    # 12.5 (16.5 with the weights and float32 tables kept for the whole solve)
    n = 16
    curvature_report(MetricModel4T.flat(n))    # fills the symbol cache at this size
    metric = MetricModel4T.from_kahler_potential(kahler_test_potential(n, 0.1 / np.pi ** 2))
    solution, peak, _held = traced(lambda: conformal_scalar_flat(metric))
    assert solution.residual < 1e-6
    assert peak < 14 * metric.det.nbytes


def test_trace_operator_holds_no_field_after_apply():
    # the operator keeps the metric and the shared symbol table; each of its
    # four weights is derived for its term and dropped after it
    n = 16
    curvature_report(MetricModel4T.flat(n))    # fills the symbol cache at this size
    metric = random_metric(n, np.random.default_rng(8))
    f = trig_field4(n, np.random.default_rng(9))

    def build_and_apply():
        op = TraceOperator(metric)
        op.apply(f)
        return op

    _op, _peak, held = traced(build_and_apply)
    assert held < metric.det.nbytes


def test_chern_ricci_flat_metric_vanishes():
    ric = chern_ricci(MetricModel4T.flat(8)).ric
    assert np.max(np.abs(ric)) == 0.0


def test_chern_ricci_conformal_closed_form():
    n = 16
    x1 = coords4(n)[0]
    eps = 0.2
    u = np.broadcast_to(eps * np.sin(2 * np.pi * x1), (n, n, n, n)).copy()
    ric = chern_ricci(MetricModel4T.conformal(u)).ric
    # log det = 2u, so ric_11 = -2 ddbar_1 u = 2 eps pi^2 sin(2 pi x1)
    expected = np.broadcast_to(2 * eps * np.pi ** 2 * np.sin(2 * np.pi * x1), (n,) * 4)
    assert np.max(np.abs(ric[..., 0, 0] - expected)) < 1e-8
    assert np.max(np.abs(ric[..., 0, 1])) < 1e-10
    assert np.max(np.abs(ric[..., 1, 1])) < 1e-10


def test_chern_scalar_conformal_closed_form():
    n = 16
    x1, _, _, y2 = coords4(n)
    u = (0.15 * np.sin(2 * np.pi * x1) + 0.1 * np.cos(2 * np.pi * y2)) * np.ones((n,) * 4)
    s = chern_scalar(MetricModel4T.conformal(u))
    trace_ddbar_u = (-0.15 * np.pi ** 2 * np.sin(2 * np.pi * x1)
                     - 0.1 * np.pi ** 2 * np.cos(2 * np.pi * y2)) * np.ones((n,) * 4)
    expected = -2.0 * np.exp(-u) * trace_ddbar_u
    assert np.max(np.abs(s - expected)) < 1e-8


def test_chern_scalar_flat_is_zero():
    assert np.max(np.abs(chern_scalar(MetricModel4T.flat(8)))) == 0.0


def test_chern_scalar_flat_zeros_are_positive():
    # s is taken as L(-log det g), so the flat metric's zeros are +0.0;
    # -L(log det g) would negate +0.0 into -0.0
    assert not np.signbit(chern_scalar(MetricModel4T.flat(8))).any()


def test_total_scalar_flat_and_kahler():
    assert total_scalar(MetricModel4T.flat(8)) == 0.0
    metric = MetricModel4T.from_kahler_potential(kahler_test_potential(16, 0.1))
    # the scalar curvature is far from zero pointwise, only its integral cancels
    assert np.max(np.abs(chern_scalar(metric))) > 1.0
    assert abs(total_scalar(metric)) < 1e-8


def test_total_scalar_conformal_sign_and_value():
    n = 16
    x1 = coords4(n)[0]
    eps = 0.2
    u = np.broadcast_to(eps * np.sin(2 * np.pi * x1), (n,) * 4).copy()
    total = total_scalar(MetricModel4T.conformal(u))
    # closed form: s = 2 eps pi^2 e^{-u} sin, det = e^{2u}, volume factor 8
    integrand = 16 * eps * np.pi ** 2 * np.exp(u) * np.sin(2 * np.pi * x1) * np.ones((n,) * 4)
    expected = float(np.mean(integrand))
    assert expected > 0
    assert total == pytest.approx(expected, abs=1e-8)


def test_total_scalar_cross_check_on_random_metrics():
    rng = np.random.default_rng(11)
    for _ in range(3):
        metric = random_metric(16, rng)
        trace_route, wedge_route = total_scalar_routes(metric)
        assert abs(trace_route - wedge_route) < 1e-6
        assert total_scalar(metric) == trace_route


def test_total_scalar_is_the_trace_route_on_a_scaled_metric():
    # the near-degenerate Kahler metric scaled by 1e8: its two routes differ
    # by about 2.6e-6, float order at that scale, and total_scalar returns
    # the trace route without comparing them
    base = MetricModel4T.from_kahler_potential(kahler_test_potential(16, 0.1))
    metric = MetricModel4T._from_components(1e8 * base.g11, 1e8 * base.g22, 1e8 * base.g12)
    assert total_scalar(metric).hex() == total_scalar_routes(metric)[0].hex()


def test_conformal_ricci_identity_and_closed_form():
    n = 16
    flat_ric = chern_ricci(MetricModel4T.flat(n))
    x1 = coords4(n)[0]
    f = np.broadcast_to(np.sin(2 * np.pi * x1), (n,) * 4).copy()
    shifted = conformal_ricci(flat_ric, f)
    expected = np.broadcast_to(2 * np.pi ** 2 * np.sin(2 * np.pi * x1), (n,) * 4)
    assert np.max(np.abs(shifted.ric[..., 0, 0] - expected)) < 1e-8

    same = conformal_ricci(flat_ric, np.zeros((n,) * 4))
    assert np.max(np.abs(same.ric - flat_ric.ric)) == 0.0


def test_conformal_ricci_round_trip_on_random_metric():
    rng = np.random.default_rng(5)
    n = 16
    metric = random_metric(n, rng)
    f = 0.3 * trig_field4(n, rng)
    rescaled = metric.rescaled(f)
    direct = chern_ricci(rescaled).ric
    shifted = conformal_ricci(chern_ricci(metric), f).ric
    assert np.max(np.abs(direct - shifted)) < 1e-8


def minus_ddbar_log_det(metric):
    """(r11, r22, r12), the negated ddbar4_components of log det g."""
    return tuple(-d for d in fourier.ddbar4_components(np.log(metric.det)))


def dense_chern_ricci(metric):
    """The dense formula chern_ricci replaced, kept as the reference: the
    entries as a 2x2 field, then its Hermitian part."""
    return hermitian_part(_hermitian_2x2(*minus_ddbar_log_det(metric)), "Ricci field")


def dense_conformal_ricci(ric, f):
    """The dense formula conformal_ricci replaced, on a dense Ricci field."""
    return hermitian_part(ric - 2 * _hermitian_2x2(*fourier.ddbar4_components(f)), "Ricci field")


def dense_routes(metric):
    """total_scalar_routes from minus_ddbar_log_det."""
    r11, r22, r12 = minus_ddbar_log_det(metric)
    wedge = r11 * metric.g22 + r22 * metric.g11 - 2.0 * (r12 * np.conj(metric.g12)).real
    return total_scalar(metric), 8.0 * float(np.mean(wedge))


REFERENCE_METRICS = {
    **{f"random {n}": (lambda n=n: random_metric(n, np.random.default_rng(n))) for n in (4, 9, 16)},
    "flat 8": lambda: MetricModel4T.flat(8),
    "conformal 8": lambda: MetricModel4T.conformal(0.3 * trig_field4(8, np.random.default_rng(1))),
    "mild kahler 8": lambda: MetricModel4T.from_kahler_potential(
        kahler_test_potential(8, 0.1 / np.pi ** 2)),
    "near-degenerate kahler 8": lambda: MetricModel4T.from_kahler_potential(
        kahler_test_potential(8, 0.1)),
}


@pytest.mark.parametrize("name", REFERENCE_METRICS)
def test_entry_producers_match_the_dense_formulas(name):
    metric = REFERENCE_METRICS[name]()
    f = 0.3 * trig_field4(metric.resolution, np.random.default_rng(99))
    ric, expected = chern_ricci(metric), dense_chern_ricci(metric)
    assert ([entry.tobytes() for entry in (ric.r11, ric.r22, ric.r12)]
            == [entry.tobytes() for entry in minus_ddbar_log_det(metric)])
    for got, want in [(ric.ric, expected), (conformal_ricci(ric, f).ric,
                                             dense_conformal_ricci(expected, f))]:
        # bit for bit up to the sign of a zero: the dense Hermitian part
        # halves x + x as a complex product with 0.5 + 0j, which turns an
        # entry -0.0 - 5j into +0.0 - 5j; the entries keep the zeros of
        # ddbar, and the random metrics have none
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
        if name.startswith("random"):
            assert got.tobytes() == want.tobytes()
    trace_route, wedge_route = dense_routes(metric)
    assert [x.hex() for x in total_scalar_routes(metric)] == [trace_route.hex(), wedge_route.hex()]
    s = chern_scalar(metric)
    assert json.dumps(curvature_report(metric)) == json.dumps({
        "min": float(s.min()), "max": float(s.max()), "integral": trace_route,
        "cross_check_residual": abs(trace_route - wedge_route)})


def test_curvature_outputs_stay_hermitian():
    rng = np.random.default_rng(13)
    metric = random_metric(16, rng)
    ric = chern_ricci(metric).ric
    assert np.max(np.abs(ric - np.conj(np.swapaxes(ric, 4, 5)))) < 1e-12
    h = diag_metric_field(16, [0.2 * trig_field4(16, rng)[:, :, 0, 0],
                               np.zeros((16, 16))])
    curv = chern_curvature_matrix(h)
    assert np.max(np.abs(curv - np.conj(np.swapaxes(curv, 2, 3)))) < 1e-12


def test_metric_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    metric = random_metric(8, rng)
    manifest = save_metric(metric, tmp_path / "metric")
    loaded = load_metric(manifest)
    assert np.max(np.abs(loaded.g - metric.g)) < 1e-15


def test_metric_manifest_resolution_must_match_its_grids(tmp_path):
    manifest = save_metric(MetricModel4T.flat(8), tmp_path / "metric")
    doc = json.loads(manifest.read_text())
    doc["resolution"] = 9
    manifest.write_text(json.dumps(doc))
    with pytest.raises(DescriptorError, match="resolution 8"):
        load_metric(manifest)
