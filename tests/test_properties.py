"""Property tests: each theorem fact agrees with its single source."""

import contextlib
import io
import itertools
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from conftest import random_metric
from hypothesis import example, given
from hypothesis import strategies as st

from scalarflat import (
    CurveModel,
    DegreeError,
    DescriptorError,
    MetricModel4T,
    chern_curvature_matrix,
    classify_ruled,
    classify_split,
    kx_certificate_split,
    make_line_bundle,
    tensor_product,
)
from scalarflat.cli import run
from scalarflat.curvature import (
    HERMITIAN_INPUT_TOL,
    TOTAL_SCALAR_CROSS_TOL,
    hermitian_part,
    total_scalar_routes,
)
from scalarflat.fourier import half_symbols_4d
from scalarflat.geom_core import (
    DEGREE_INPUT_TOL,
    DEGREE_QUANTIZATION_TOL,
    MIN_RESOLUTION,
    grid_coordinates,
)
from scalarflat.pde import TraceOperator
from scalarflat.positivity import in_certified_range

genera = st.integers(min_value=0, max_value=80)
degrees = st.integers(min_value=-200, max_value=200)
ranks = st.integers(min_value=2, max_value=15)


@given(genera, degrees, ranks)
@example(34, 22, 4)
@example(34, -22, 4)
def test_classify_split_says_yes_exactly_in_range(g, deg_l, n):
    report = classify_split(g, deg_l, n)
    assert (report.scalar_flat_hermitian == "yes") == in_certified_range(g, deg_l, n)
    if report.scalar_flat_kahler == "yes":
        assert report.scalar_flat_hermitian == "yes"


@given(st.integers(min_value=0, max_value=40).flatmap(
    lambda g: st.tuples(st.just(g), st.integers(min_value=-3 * g - 40, max_value=g))))
@example((2, -2))
@example((2, -1))
@example((1, 1))
def test_classify_ruled_says_yes_exactly_by_the_theorem(case):
    g, m = case
    report = classify_ruled(g, m)
    assert (report.scalar_flat_hermitian == "yes") == (g >= 2 and m > 2 - 2 * g)
    if report.scalar_flat_kahler == "yes":
        assert report.scalar_flat_hermitian == "yes"


@given(st.integers(min_value=2, max_value=80), degrees, ranks)
def test_classification_margin_is_the_certificate_margin(g, deg_l, n):
    report = classify_split(g, deg_l, n)
    if report.scalar_flat_hermitian == "yes":
        certificate = kx_certificate_split(g, abs(deg_l), n)
        assert report.certificate["margin"] == certificate.margin


@given(st.integers(min_value=2, max_value=80), st.integers(min_value=0, max_value=200),
       ranks)
@example(34, 22, 4)
@example(56, 11, 11)
def test_rc_check_issues_exactly_in_range(g, deg_l, n):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["rc-check", "--genus", str(g), "--deg-l", str(deg_l), "--n", str(n)])
    assert code == 0
    payload = json.loads(out.getvalue())
    assert payload["certificate"]["issued"] == in_certified_range(g, deg_l, n)
    assert (payload["rc_scan"] is not None) == payload["certificate"]["issued"]


@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=1, max_value=3))
def test_chern_curvature_matrix_is_hermitian(seed, r):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(8, 8, r, r)) + 1j * rng.normal(size=(8, 8, r, r))
    h = a @ np.conj(np.swapaxes(a, 2, 3)) + np.eye(r)
    curvature = chern_curvature_matrix(h)
    assert np.all(np.isfinite(curvature))
    assert np.array_equal(curvature, np.conj(np.swapaxes(curvature, 2, 3)))


def adjoint_hermitian_part(field, what):
    """The whole-field formula hermitian_part replaced, kept as the reference:
    the adjoint, the difference and its absolute value are full-size."""
    field = np.asarray(field, dtype=complex)
    if not np.all(np.isfinite(field)):
        raise DescriptorError(f"{what} entries must be finite")
    adjoint = np.conj(np.swapaxes(field, -1, -2), order="C")
    asym = float(np.max(np.abs(field - adjoint)))
    if asym > HERMITIAN_INPUT_TOL * max(1.0, float(np.max(np.abs(field)))):
        raise DescriptorError(f"{what} is not Hermitian (asymmetry {asym:.3e})")
    adjoint += field
    adjoint *= 0.5
    return adjoint


def outcome(build):
    """("ok", result) or ("raised", the DescriptorError's message)."""
    try:
        return "ok", build()
    except DescriptorError as error:
        return "raised", str(error)


def near_hermitian_field(seed, r, scale, ratio, damped, special_share):
    """A (..., r, r) field: a Hermitian field plus noise whose asymmetry is
    about `ratio` times the Hermitian input tolerance, with mirrored signed
    zeros and subnormals in about `special_share` of the off-diagonal entries.
    The diagonal is shifted up, so the field is positive, or damped, so the
    largest entries sit off the diagonal."""
    rng = np.random.default_rng(seed)
    shape = (2,) * (6 if r == 2 else 2) + (r, r)
    a = rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)
    if damped:
        a[..., range(r), range(r)] *= 1e-3
    field = scale * (0.25 * (a + np.conj(np.swapaxes(a, -1, -2)))
                     + (0.0 if damped else 2.0) * np.eye(r))
    noise = rng.uniform(-0.5, 0.5, shape) + 1j * rng.uniform(-0.5, 0.5, shape)
    field += ratio * HERMITIAN_INPUT_TOL * max(1.0, float(np.max(np.abs(field)))) * noise
    for i, j in itertools.combinations(range(r), 2):
        special = rng.random(shape[:-2]) < special_share
        value = complex(*rng.choice([-0.0, 0.0, 5e-324, -5e-324], 2))
        field[..., i, j][special] = value
        field[..., j, i][special] = value.conjugate()
    return field


@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.sampled_from((2, 3)),
       st.integers(min_value=-4, max_value=4), st.floats(min_value=0.0, max_value=3.0),
       st.booleans(), st.sampled_from((0.0, 0.5)))
# accepted only against the largest entry, which sits off the diagonal
@example(1, 2, 4, 0.5, True, 0.5)
@example(1, 3, 4, 0.5, True, 0.0)
def test_entrywise_hermitian_part_matches_the_adjoint_formula(seed, r, exponent, ratio,
                                                              damped, special_share):
    field = near_hermitian_field(seed, r, 10.0 ** exponent, ratio, damped, special_share)
    expected = outcome(lambda: adjoint_hermitian_part(field, "field"))
    got = outcome(lambda: hermitian_part(field, "field"))
    assert got[0] == expected[0]
    if expected[0] == "raised":
        assert got[1] == expected[1]
        return
    assert got[1].flags.c_contiguous and got[1].tobytes() == expected[1].tobytes()
    if field.ndim != 6:
        return
    # the constructor's entries and the fields built from them, bit for bit
    sym = expected[1]
    g11, g22, g12 = (sym[..., 0, 0].real.copy(), sym[..., 1, 1].real.copy(),
                     sym[..., 0, 1].copy())
    built = outcome(lambda: MetricModel4T(field))
    reference = outcome(lambda: MetricModel4T._from_components(g11, g22, g12))
    assert built[0] == reference[0]
    if built[0] == "raised":
        assert built[1] == reference[1]
        return
    metric = built[1]
    det = g11 * g22 - np.abs(g12) ** 2
    for name, value in {"g11": g11, "g22": g22, "g12": g12, "det": det, "inv11": g22 / det,
                        "inv22": g11 / det, "inv12": -g12 / det}.items():
        assert getattr(metric, name).tobytes() == value.tobytes(), name


@given(st.integers(min_value=2, max_value=24))
def test_mixed_symbols_factor_exactly(n):
    # (d1 d1bar)(d2 d2bar) == (d1 d2bar)(d2 d1bar) as Fourier multipliers
    m11, m22, m12_re, m12_im = half_symbols_4d(n)
    lhs = m11 * m22
    rhs = m12_re ** 2 + m12_im ** 2
    assert np.allclose(lhs, rhs, rtol=1e-14, atol=0.0)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=4, max_value=10),
       st.floats(min_value=0.0, max_value=0.3))
def test_total_scalar_routes_agree_on_random_metrics(seed, n, amplitude):
    metric = random_metric(n, np.random.default_rng(seed), amplitude)
    trace_route, wedge_route = total_scalar_routes(metric)
    assert abs(trace_route - wedge_route) <= TOTAL_SCALAR_CROSS_TOL


@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.sampled_from([8, 9, 12]))
def test_trace_operator_adjoint_is_its_transpose(seed, n):
    # <u, L v> = <L^T u, v>: apply_adjoint is the transpose of apply
    rng = np.random.default_rng(seed)
    op = TraceOperator(random_metric(n, rng))
    u, v = rng.standard_normal((2,) + op.shape)
    lv, ltu = op.apply(v), op.apply_adjoint(u)
    scale = np.linalg.norm(u) * np.linalg.norm(lv) + np.linalg.norm(ltu) * np.linalg.norm(v)
    assert abs(np.vdot(u, lv) - np.vdot(ltu, v)) <= 1e-13 * scale


# one Fourier mode (kx, ky) != (0, 0) of a twist, with amplitude and phase
twist_modes = st.tuples(st.integers(min_value=0, max_value=3),
                        st.integers(min_value=-3, max_value=3),
                        st.floats(min_value=-5.0, max_value=5.0),
                        st.floats(min_value=0.0, max_value=2 * np.pi)).filter(
    lambda mode: mode[:2] != (0, 0))
twists = st.lists(twist_modes, min_size=1, max_size=4)
twist_degrees = st.integers(min_value=-50, max_value=50)


def twisted_density(degree, n, twist, offset):
    """pi * degree plus a zero-mean trigonometric twist plus a constant offset."""
    x, y = grid_coordinates(n)
    field = np.full((n, n), np.pi * degree + offset)
    for kx, ky, amplitude, phase in twist:
        field += amplitude * np.cos(2 * np.pi * (kx * x + ky * y) + phase)
    return field


@given(twist_degrees, st.integers(min_value=MIN_RESOLUTION, max_value=32), twists,
       st.floats(min_value=-0.9, max_value=0.9) | st.floats(min_value=1.1, max_value=1e3)
       | st.floats(min_value=-1e3, max_value=-1.1))
def test_degree_quantization_under_random_twists(degree, n, twist, offset_in_tol):
    # the offset is the supplied density's integral mismatch, in units of the input tolerance
    curve = CurveModel.flat(1, n)
    density = twisted_density(degree, n, twist, offset_in_tol * DEGREE_INPUT_TOL)
    if abs(offset_in_tol) > 1.0:
        with pytest.raises(DegreeError):
            make_line_bundle(degree, density, curve)
        return
    bundle = make_line_bundle(degree, density, curve)
    assert abs(bundle.measured_degree() - degree) <= DEGREE_QUANTIZATION_TOL


@given(twist_degrees, twist_degrees, st.integers(min_value=MIN_RESOLUTION, max_value=32),
       twists, twists)
def test_tensor_product_degrees_add_and_stay_quantized(d1, d2, n, twist1, twist2):
    curve = CurveModel.flat(2, n)
    a = make_line_bundle(d1, twisted_density(d1, n, twist1, 0.0), curve)
    b = make_line_bundle(d2, twisted_density(d2, n, twist2, 0.0), curve)
    product = tensor_product(a, b)
    assert product.degree == d1 + d2
    assert abs(product.measured_degree() - (d1 + d2)) <= DEGREE_QUANTIZATION_TOL


def test_a_failing_property_test_does_not_end_the_run(tmp_path):
    # under the project's pytest settings, the tests after a failing @given test still run
    (tmp_path / "test_order.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x != x

        def test_passes():
            pass
    """))
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_order.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "1 failed, 1 passed" in done.stdout, done.stdout + done.stderr
