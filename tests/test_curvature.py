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
    MetricModel4T,
    SplitBundle,
    canonical_curvature_split,
    chern_curvature_matrix,
    chern_ricci,
    chern_scalar,
    conformal_ricci,
    make_line_bundle,
    tautological_base_curvature,
    total_scalar,
)
from scalarflat import fourier
from scalarflat.curvature import (
    curvature_report,
    load_metric,
    save_metric,
    total_scalar_routes,
)
from scalarflat.geom_core import grid_coordinates


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


@pytest.mark.parametrize("build", [
    lambda: MetricModel4T(np.broadcast_to(np.eye(2), (4, 4, 4, 5, 2, 2))),
    lambda: MetricModel4T.conformal(np.zeros((4, 4, 4))),
    lambda: MetricModel4T.conformal(np.zeros((4, 4, 4, 5))),
], ids=["public", "conformal-3d", "conformal-uneven"])
def test_metric_grid_is_checked_on_every_construction_path(build):
    with pytest.raises(DescriptorError, match="equal-resolution grid"):
        build()


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
    # the metric stores 72 bytes per point (g11 g22 det inv11 inv22 real,
    # g12 inv12 complex) against g's 64; no second 2x2 field is built
    g = np.array(random_metric(16, np.random.default_rng(4)).g)
    _metric, peak, _current = traced(lambda: MetricModel4T(g))
    assert peak < 1.5 * g.nbytes


def test_chern_ricci_peak_stays_near_its_field():
    # the 2x2 field and its Hermitian part (1x each) plus one entry (0.25x);
    # freezing the result copies nothing
    n = 16
    curvature_report(MetricModel4T.flat(n))    # fills the symbol cache at this size
    metric = random_metric(n, np.random.default_rng(5))
    ric, peak, _current = traced(lambda: chern_ricci(metric))
    assert peak < 2.5 * ric.ric.nbytes


def test_curvature_memo_keeps_the_scalar_field_only():
    n = 16
    curvature_report(MetricModel4T.flat(n))    # fills the symbol cache at this size
    metric = random_metric(n, np.random.default_rng(6))
    report, _peak, held = traced(lambda: curvature_report(metric))
    assert report["cross_check_residual"] < 1e-6
    # s, plus a little for the memo's tuple and floats
    assert held <= n ** 4 * 8 + 4096


@pytest.mark.parametrize("calls", [
    ("chern_scalar", "total_scalar_routes", "curvature_report"),
    ("total_scalar_routes", "curvature_report", "chern_scalar"),
    ("curvature_report", "chern_scalar", "total_scalar_routes"),
])
def test_curvature_memo_differentiates_log_det_once(monkeypatch, calls):
    transforms = []
    original = fourier.ddbar4_components

    def counting(field, *args, **kwargs):
        transforms.append(field.shape)
        return original(field, *args, **kwargs)

    monkeypatch.setattr(fourier, "ddbar4_components", counting)
    metric = random_metric(8, np.random.default_rng(8))
    functions = {"chern_scalar": chern_scalar, "total_scalar_routes": total_scalar_routes,
                 "curvature_report": curvature_report}
    for name in calls:
        functions[name](metric)
    assert len(transforms) == 1


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
        total_scalar(metric)  # the internal assertion must accept these


def test_conformal_ricci_identity_and_closed_form():
    n = 16
    flat_ric = chern_ricci(MetricModel4T.flat(n))
    x1 = coords4(n)[0]
    f = np.broadcast_to(np.sin(2 * np.pi * x1), (n,) * 4).copy()
    shifted = conformal_ricci(flat_ric, f, 2)
    expected = np.broadcast_to(2 * np.pi ** 2 * np.sin(2 * np.pi * x1), (n,) * 4)
    assert np.max(np.abs(shifted.ric[..., 0, 0] - expected)) < 1e-8

    same = conformal_ricci(flat_ric, np.zeros((n,) * 4), 2)
    assert np.max(np.abs(same.ric - flat_ric.ric)) == 0.0


def test_conformal_ricci_round_trip_on_random_metric():
    rng = np.random.default_rng(5)
    n = 16
    metric = random_metric(n, rng)
    f = 0.3 * trig_field4(n, rng)
    rescaled = metric.rescaled(f)
    direct = chern_ricci(rescaled).ric
    shifted = conformal_ricci(chern_ricci(metric), f, 2).ric
    assert np.max(np.abs(direct - shifted)) < 1e-8


def test_curvature_outputs_stay_hermitian():
    rng = np.random.default_rng(13)
    metric = random_metric(16, rng)
    ric = chern_ricci(metric).ric
    assert np.max(np.abs(ric - np.conj(np.swapaxes(ric, 4, 5)))) < 1e-12
    h = diag_metric_field(16, [0.2 * trig_field4(16, rng)[:, :, 0, 0],
                               np.zeros((16, 16))])
    curv = chern_curvature_matrix(h)
    assert np.max(np.abs(curv - np.conj(np.swapaxes(curv, 2, 3)))) < 1e-12


def test_finite_difference_mode_converges_at_second_order():
    errors = {}
    for n in (32, 64):
        x, y = grid_coordinates(n)
        u = np.broadcast_to(0.3 * np.cos(2 * np.pi * x) + 0.2 * np.sin(2 * np.pi * y),
                            (n, n))
        h = diag_metric_field(n, [u, np.zeros((n, n))])
        curv = chern_curvature_matrix(h, backend="fd")
        kappa = (curv[..., 0, 0] / h[..., 0, 0]).real
        analytic = -np.pi ** 2 * (0.3 * np.cos(2 * np.pi * x) + 0.2 * np.sin(2 * np.pi * y))
        errors[n] = float(np.max(np.abs(kappa - np.broadcast_to(analytic, (n, n)))))
    assert errors[32] / errors[64] >= 3.5


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
