"""Property tests: each theorem fact agrees with its single source."""

import contextlib
import io
import itertools
import json
import re
import shutil
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import kahler_test_potential, random_metric, trig_field4
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalarflat import (
    CurveModel,
    DegreeError,
    DescriptorError,
    MetricModel4T,
    RicciField,
    ScalarFlatError,
    chern_curvature_matrix,
    chern_ricci,
    chern_scalar,
    classify_ruled,
    classify_split,
    conformal_ricci,
    kx_certificate_split,
    load_bundle_descriptor,
    make_line_bundle,
    tensor_product,
)
from scalarflat.cli import run
from scalarflat.curvature import (
    HERMITIAN_INPUT_TOL,
    _inverse_entries,
    _trace_weights,
    _write_grid_csv,
    hermitian_part,
    load_metric,
    save_field4,
    save_metric,
    total_scalar_routes,
)
from scalarflat.fourier import _fft, ddbar4_components, half_symbols_4d
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
    if asym > HERMITIAN_INPUT_TOL * float(np.max(np.abs(field))):
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
    # r = 2 fields are metrics on the 2^4 grid, so the constructor sees them
    shape = (2,) * (4 if r == 2 else 2) + (r, r)
    a = rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)
    if damped:
        a[..., range(r), range(r)] *= 1e-3
    field = scale * (0.25 * (a + np.conj(np.swapaxes(a, -1, -2)))
                     + (0.0 if damped else 2.0) * np.eye(r))
    noise = rng.uniform(-0.5, 0.5, shape) + 1j * rng.uniform(-0.5, 0.5, shape)
    field += ratio * HERMITIAN_INPUT_TOL * float(np.max(np.abs(field))) * noise
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
    inverse = metric.inverse
    for name, value in {"g11": g11, "g22": g22, "g12": g12, "det": det}.items():
        assert getattr(metric, name).tobytes() == value.tobytes(), name
    for (i, j), value in {(0, 0): g22 / det, (1, 1): g11 / det, (0, 1): -g12 / det,
                          (1, 0): np.conj(-g12 / det)}.items():
        assert inverse[..., i, j].tobytes() == value.astype(complex).tobytes(), (i, j)


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
    # both routes pair the same derivative fields, so they differ in float
    # order only: a bound relative to the integrand's size
    scale = 8.0 * float(np.mean(np.abs(chern_scalar(metric) * metric.det)))
    assert abs(trace_route - wedge_route) <= 1e-13 * scale


@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=4, max_value=12))
def test_total_scalar_is_the_gauduchon_residual_paired_with_log_det(seed, n):
    # s = -L(log det g) and L's adjoint is exact, so the trace route
    # 8 mean(s det g) is -8 mean(log det g * L^T det g): a Gauduchon metric's
    # total is at most 8 mean|log det g| times its residual max|L^T det g|
    metric = random_metric(n, np.random.default_rng(seed))
    residual = TraceOperator(metric).apply_adjoint(metric.det)
    paired = np.log(metric.det) * residual
    trace_route = total_scalar_routes(metric)[0]
    assert abs(trace_route + 8.0 * np.mean(paired)) <= 1e-13 * 8.0 * np.mean(np.abs(paired))


@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=4, max_value=8),
       st.floats(min_value=0.0, max_value=0.5))
def test_inverse_inverts_the_metric(seed, n, amplitude):
    # roundoff bound: det g = g11 g22 - |g12|^2 is off by at most about
    # eps g11 g22, which moves every product in g @ inverse by about
    # eps max|g| max|inverse|; the divisions and the two-term sums add a few more
    metric = random_metric(n, np.random.default_rng(seed), amplitude)
    g, inverse = metric.g, metric.inverse
    bound = 8.0 * np.finfo(float).eps * np.max(np.abs(g)) * np.max(np.abs(inverse))
    assert np.max(np.abs(g @ inverse - np.eye(2))) <= bound


@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.sampled_from([8, 9, 12]))
def test_trace_operator_adjoint_is_its_transpose(seed, n):
    # <u, L v> = <L^T u, v>: apply_adjoint is the transpose of apply
    rng = np.random.default_rng(seed)
    op = TraceOperator(random_metric(n, rng))
    u, v = rng.standard_normal((2,) + op.shape)
    lv, ltu = op.apply(v), op.apply_adjoint(u)
    scale = np.linalg.norm(u) * np.linalg.norm(lv) + np.linalg.norm(ltu) * np.linalg.norm(v)
    assert abs(np.vdot(u, lv) - np.vdot(ltu, v)) <= 1e-13 * scale


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.sampled_from([8, 9, 12]),
       st.floats(min_value=0.05, max_value=0.45), st.floats(min_value=0.1, max_value=3.0))
def test_a_rescaled_metric_has_the_one_apply_scalar_curvature(seed, n, amplitude, size):
    # in complex dimension two e^(f/2) g has det e^f det g and inverse
    # e^(-f/2) g^-1, so its scalar curvature is e^(-f/2) L(-(log det g + f))
    # with L the operator of g, the form the solve's end-to-end check reads
    rng = np.random.default_rng(seed)
    metric = random_metric(n, rng, amplitude)
    f = size * trig_field4(n, rng)
    direct = chern_scalar(metric.rescaled(f / 2))
    one_apply = np.exp(-f / 2) * TraceOperator(metric).apply(-(np.log(metric.det) + f))
    assert np.max(np.abs(direct - one_apply)) <= 1e-12 * np.max(np.abs(direct))


class _TraceReference:
    """TraceOperator's four maps from weights taken up front from
    metric.inverse, in dtype: one rfftn, a weighted sum of irfftn terms and
    the Jacobi-scaled mean-symbol inverse, as the operator's docstring states
    them."""

    def __init__(self, metric, dtype):
        inverse = metric.inverse
        inv12 = inverse[..., 0, 1]
        self.weights64 = (inverse[..., 0, 0].real, inverse[..., 1, 1].real,
                          2.0 * inv12.real, 2.0 * inv12.imag)
        self.symbols64 = half_symbols_4d(metric.resolution)
        mean_symbol = sum(w.mean() * m for w, m in zip(self.weights64, self.symbols64))
        inv_symbol = np.zeros(mean_symbol.shape)
        nonzero = mean_symbol != 0.0
        inv_symbol[nonzero] = 1.0 / mean_symbol[nonzero]
        diagonal = self.weights64[0] + self.weights64[1]
        self.shape = metric.det.shape
        self.dtype = dtype
        cast = (lambda a: a.astype(np.float32)) if dtype == np.float32 else (lambda a: a)
        self.weights = tuple(cast(w) for w in self.weights64)
        self.symbols = tuple(cast(m) for m in self.symbols64)
        self.inv_symbol, self.inv_scale = cast(inv_symbol), cast(diagonal.mean() / diagonal)

    def trace_of_spectrum(self, spec):
        out = np.zeros(self.shape, dtype=self.dtype)
        for w, m in zip(self.weights, self.symbols):
            out += w * _fft.irfftn(m * spec, s=self.shape)
        return out

    def apply(self, f):
        return self.trace_of_spectrum(_fft.rfftn(f))

    def apply_adjoint(self, u):
        spec = sum(m * _fft.rfftn(w * u) for w, m in zip(self.weights, self.symbols))
        return _fft.irfftn(spec, s=self.shape)

    def preconditioned_spectrum(self, r):
        return self.inv_symbol * _fft.rfftn(r * self.inv_scale)

    def precondition(self, r):
        return _fft.irfftn(self.preconditioned_spectrum(r), s=self.shape)

    def apply_preconditioned(self, r):
        return self.trace_of_spectrum(self.preconditioned_spectrum(r))


# values that g12's parts take at about a third of the points each: signed
# zeros, where numpy's complex division and a plain real product give zeros of
# opposite sign, and subnormals, where halving before or after the scaling rounds apart
special_parts = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310])


@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.sampled_from([4, 5, 8]),
       special_parts, special_parts)
@example(0, 4, 0.0, -0.0)
@example(1, 5, -0.0, 0.0)
def test_derived_trace_weights_reproduce_the_inverse_bit_for_bit(seed, n, re_part, im_part):
    rng = np.random.default_rng(seed)
    drawn = random_metric(n, rng)
    g12 = np.array(drawn.g12)
    g12.real[rng.random(g12.shape) < 0.3] = re_part
    g12.imag[rng.random(g12.shape) < 0.3] = im_part
    metric = MetricModel4T._from_components(np.array(drawn.g11), np.array(drawn.g22), g12)
    op = TraceOperator(metric)
    reference = _TraceReference(metric, np.float64)
    for got, want in zip(_trace_weights(metric), reference.weights64, strict=True):
        assert got.tobytes() == want.tobytes()
    f = rng.standard_normal(op.shape)
    for inner, dtype in ((op, np.float64), (op.single(), np.float32)):
        reference = _TraceReference(metric, dtype)
        x = f.astype(dtype)
        for got, want in ((inner.apply(x), reference.apply(x)),
                          (inner.apply_adjoint(x), reference.apply_adjoint(x)),
                          (inner.precondition(x), reference.precondition(x)),
                          (inner._apply_preconditioned(x), reference.apply_preconditioned(x))):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


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


@given(st.integers(max_value=MIN_RESOLUTION - 1))
@example(-1)
@example(-3)
def test_curve_resolution_below_the_minimum_is_refused_before_allocating(resolution):
    # both entry points refuse with the model's own message, and np.ones
    # (which raises on a negative size) is never reached
    entry_points = (
        lambda: CurveModel.flat(2, resolution),
        lambda: load_bundle_descriptor(
            {"genus": 2, "resolution": resolution, "summands": [{"degree": 1}]}),
    )
    for call in entry_points:
        with mock.patch.object(np, "ones", side_effect=AssertionError("allocated")), \
                pytest.raises(DescriptorError,
                              match=f"resolution must be at least {MIN_RESOLUTION}, "
                                    f"got {resolution}$"):
            call()


def identity_like(shape):
    """Zeros of `shape` with ones on the diagonal of its last two axes when
    they are square."""
    g = np.zeros(shape, dtype=complex)
    if len(shape) >= 2 and shape[-1] == shape[-2]:
        for i in range(shape[-1]):
            g[..., i, i] = 1.0
    return g


def is_grid(shape, trailing=(), n=None):
    """Whether `shape` is (m, m, m, m) + trailing with m >= 1, and m = n when given."""
    return (shape[4:] == trailing and len(shape) == 4 + len(trailing)
            and shape[:4] == (shape[0],) * 4 and shape[0] >= 1 and n in (None, shape[0]))


sizes = st.integers(min_value=0, max_value=5)
# at most 6 axes of at most 5 points, so no array exceeds 5^6 entries; the
# second kind puts 4-grids and their near misses among the draws
shapes = (st.lists(sizes, max_size=6).map(tuple)
          | st.builds(lambda n, trailing: (n,) * 4 + tuple(trailing),
                      sizes, st.lists(sizes, max_size=2)))


@given(shapes)
@example((0, 0, 0, 0))
@example((0, 0, 0, 0, 2, 2))
@example((2, 3, 4, 5, 2, 2))
def test_every_4_grid_entry_point_builds_exactly_on_its_grid(shape):
    flat4 = MetricModel4T.flat(4)
    scalar, matrix, on_flat4 = is_grid(shape), is_grid(shape, (2, 2)), is_grid(shape, n=4)
    with tempfile.TemporaryDirectory() as tmp:
        for build, on_grid in [
            (ddbar4_components, scalar),
            (lambda f: MetricModel4T(identity_like(f.shape)), matrix),
            (RicciField, matrix),
            (MetricModel4T.conformal, scalar),
            (MetricModel4T.from_kahler_potential, scalar),
            (lambda f: save_field4(Path(tmp) / "f.csv", f), scalar),
            (flat4.rescaled, on_flat4),
            (lambda f: conformal_ricci(chern_ricci(flat4), f), on_flat4),
        ]:
            try:
                build(np.zeros(shape))
            except DescriptorError:
                assert not on_grid
            else:
                assert on_grid


# ---------------------------------------------------------------------------
# file contracts under corruption

CORRUPTION_KINDS = ("flip a bit", "change a digit", "truncate", "insert a token",
                    "duplicate a line", "delete a line")
TOKENS = (b",", b"-", b".", b"#", b"\n", b" ", b"x", b"\xff", b"0", b"nan", b"inf",
          b"1e999", b"1e-320", b"{", b'"')


@st.composite
def corruptions(draw):
    """(kind, where in [0, 1), a bit or digit, a token) of one corruption."""
    return (draw(st.sampled_from(CORRUPTION_KINDS)),
            draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
            draw(st.integers(min_value=0, max_value=7)), draw(st.sampled_from(TOKENS)))


def corrupt(data, corruption):
    kind, where, small, token = corruption
    at = int(where * len(data))
    lines = data.split(b"\n")
    line = int(where * len(lines))
    if kind == "flip a bit":
        return data[:at] + bytes([data[at] ^ (1 << small)]) + data[at + 1:]
    if kind == "change a digit":
        digits = [m.start() for m in re.finditer(rb"[0-9]", data)]
        if not digits:
            return data
        at = digits[int(where * len(digits))]
        return data[:at] + str((int(chr(data[at])) + 1 + small) % 10).encode() + data[at + 1:]
    if kind == "truncate":
        return data[:at]
    if kind == "insert a token":
        return data[:at] + token + data[at:]
    if kind == "duplicate a line":
        return b"\n".join(lines[:line + 1] + lines[line:])
    return b"\n".join(lines[:line] + lines[line + 1:])


@pytest.fixture(scope="module")
def stored_metrics(tmp_path_factory):
    """resolution -> directory of a saved random metric: its manifest, four
    CSVs and binary twin."""
    root = tmp_path_factory.mktemp("stored")
    return {n: save_metric(random_metric(n, np.random.default_rng(n)), root / str(n)).parent
            for n in (2, 3, 4)}


@given(st.sampled_from((2, 3, 4)),
       st.sampled_from(("metric.json", "g11.csv", "g22.csv", "g12_re.csv", "g12_im.csv",
                        "metric.npz")),
       corruptions())
def test_a_corrupted_metric_loads_what_its_csvs_parse_to_or_is_refused(stored_metrics, n,
                                                                      name, corruption):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for path in stored_metrics[n].iterdir():
            shutil.copyfile(path, directory / path.name)
        target = directory / name
        target.write_bytes(corrupt(target.read_bytes(), corruption))
        try:
            metric = load_metric(directory / "metric.json")
        except (ScalarFlatError, OSError):
            return
        # loaded: bit for bit what the CSVs the manifest names parse to,
        # whether each grid came from the twin or from its CSV
        files = json.loads((directory / "metric.json").read_text())["components"]
        parsed = {c: np.loadtxt(directory / files[c], delimiter=",", comments="#")
                  for c in ("11", "22", "12re", "12im")}
        for loaded, component in ((metric.g11, "11"), (metric.g22, "22"),
                                  (metric.g12.real, "12re"), (metric.g12.imag, "12im")):
            assert loaded.tobytes() == parsed[component].reshape(loaded.shape).tobytes()


# ---------------------------------------------------------------------------
# one admission test for a 4-grid metric, at both ends of the float64 range

def admitted(build):
    """build()'s metric, checked to have finite entries and a finite positive
    det, or None for a DescriptorError.  Anything else propagates, a numpy
    warning included, since the suite runs with warnings as errors."""
    try:
        metric = build()
    except DescriptorError:
        return None
    for entry in (metric.g11, metric.g22, metric.g12, metric.det):
        assert np.isfinite(entry).all()
    assert metric.det.min() > 0.0
    return metric


def ldexp(values, k):
    """values * 2^k, exact up to overflow (inf) and underflow, entry by entry."""
    out = np.empty_like(values)
    with np.errstate(over="ignore", under="ignore"):
        if np.iscomplexobj(values):
            out.real, out.imag = np.ldexp(values.real, k), np.ldexp(values.imag, k)
        else:
            out[...] = np.ldexp(values, k)
    return out


seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
small_grids = st.integers(min_value=2, max_value=5)


@given(seeds, small_grids, st.integers(min_value=-1100, max_value=1100), st.booleans())
@example(0, 4, 665, False)    # entries near 1e200, as in a stored metric
@example(0, 4, 1023, True)    # the dense field's Hermitian average overflows
def test_a_scaled_metric_is_admitted_or_refused(seed, n, k, dense):
    metric = random_metric(n, np.random.default_rng(seed))
    if dense:
        out = admitted(lambda: MetricModel4T(ldexp(metric.g, k)))
    else:
        out = admitted(lambda: MetricModel4T._from_components(
            ldexp(metric.g11, k), ldexp(metric.g22, k), ldexp(metric.g12, k)))
    # det g scales by 4^k, and random_metric's lies in [0.5, 2]
    if abs(k) <= 500:
        assert out is not None
        assert out.det.tobytes() == ldexp(metric.det, 2 * k).tobytes()
    elif k >= 513:
        assert out is None


@given(seeds, small_grids, st.floats(min_value=0.0, max_value=0.5),
       st.integers(min_value=-60, max_value=60),
       st.sampled_from(("as drawn", "anti-Hermitian", "g11 negated", "g22 negated")))
@example(0, 3, 0.3, -60, "anti-Hermitian")    # an absolute asymmetry bound admits it
def test_admission_does_not_depend_on_the_scale(seed, n, amplitude, k, variant):
    # every admission bound is relative, so 2^k g, exact at these k, is
    # admitted exactly when g is, a non-Hermitian or indefinite g included
    g = random_metric(n, np.random.default_rng(seed), amplitude).g.copy()
    if variant == "anti-Hermitian":
        g[..., 1, 0] = -np.conj(g[..., 0, 1])
    elif variant != "as drawn":
        i = 0 if variant == "g11 negated" else 1
        g[..., i, i] = -g[..., i, i]
    unscaled = admitted(lambda: MetricModel4T(g))
    scaled = admitted(lambda: MetricModel4T(ldexp(g, k)))
    assert (scaled is None) == (unscaled is None)


@given(seeds, small_grids, st.integers(min_value=-1100, max_value=1100),
       st.integers(min_value=-1100, max_value=1100))
@example(0, 4, -1060, 0)    # det is subnormal, and g22 / det overflows
@example(0, 2, -1, -1023)    # det is subnormal, tr g^-1 finite, and 1 / det overflows
def test_an_admitted_metric_has_a_finite_inverse(seed, n, a, b):
    # g11 2^a, g22 2^b and g12 2^((a + b) // 2) stay positive definite, since
    # |g12|^2 scales by at most 2^(a + b)
    metric = random_metric(n, np.random.default_rng(seed))
    out = admitted(lambda: MetricModel4T._from_components(
        ldexp(metric.g11, a), ldexp(metric.g22, b), ldexp(metric.g12, (a + b) // 2)))
    if max(abs(a), abs(b)) <= 500:
        assert out is not None
    if out is not None:
        for entry in _inverse_entries(out):
            assert np.isfinite(entry).all()


@given(seeds, small_grids, st.floats(min_value=-1000.0, max_value=1000.0), st.booleans())
@example(0, 4, 1000.0, False)    # exp overflows
@example(0, 4, -1000.0, True)    # exp underflows to 0
def test_a_conformal_change_is_admitted_or_refused(seed, n, amplitude, from_flat):
    rng = np.random.default_rng(seed)
    u = amplitude * trig_field4(n, rng)
    if from_flat:
        out = admitted(lambda: MetricModel4T.conformal(u))
    else:
        out = admitted(lambda: random_metric(n, rng).rescaled(u))
    # det g scales by e^(2u) with |u| <= |amplitude|
    if abs(amplitude) <= 300.0:
        assert out is not None
    elif from_flat and (u > 355.0).any():
        assert out is None


@given(seeds, small_grids, st.floats(min_value=-1e307, max_value=1e307),
       st.floats(min_value=-1.0, max_value=1.0))
@example(0, 8, 1e306, 1.0)    # the spectrum's zero mode overflows
def test_a_kahler_potential_is_admitted_or_refused(seed, n, amplitude, offset):
    phi = amplitude * (0.5 * trig_field4(n, np.random.default_rng(seed)) + 0.5 * offset)
    out = admitted(lambda: MetricModel4T.from_kahler_potential(phi))
    # |ddbar phi| <= 2 pi^2 |amplitude|, so the metric stays positive
    if abs(amplitude) <= 0.01:
        assert out is not None


@given(seeds, small_grids, st.floats(min_value=0.0, max_value=0.45), st.booleans(),
       st.sampled_from(("dense", "components", "flat", "conformal", "rescaled", "loaded")))
def test_a_metric_stores_three_entries_and_derives_the_admissions_det(seed, n, amplitude,
                                                                      kahler, path):
    rng = np.random.default_rng(seed)
    if kahler:
        # |ddbar phi| <= 2 pi^2 max |phi|, so every entry of g - 1 is within amplitude
        phi = amplitude / (2.0 * np.pi ** 2) * trig_field4(n, rng)
        drawn = MetricModel4T.from_kahler_potential(phi)
    else:
        drawn = random_metric(n, rng, amplitude)
    u = 0.3 * trig_field4(n, rng)
    with tempfile.TemporaryDirectory() as tmp:
        metric = {
            "dense": lambda: MetricModel4T(drawn.g),
            "components": lambda: MetricModel4T._from_components(
                np.array(drawn.g11), np.array(drawn.g22), np.array(drawn.g12)),
            "flat": lambda: MetricModel4T.flat(n),
            "conformal": lambda: MetricModel4T.conformal(u),
            "rescaled": lambda: drawn.rescaled(u),
            "loaded": lambda: load_metric(save_metric(drawn, tmp)),
        }[path]()
    # the admission's det g, formed here out of place
    expected = metric.g11 * metric.g22 - np.abs(metric.g12) ** 2
    assert metric.det.tobytes() == expected.tobytes()
    assert sum(a.nbytes for a in vars(metric).values()) == 32 * n ** 4


@pytest.fixture(scope="module")
def stored_n8_metrics(tmp_path_factory):
    """base -> directory of a saved N = 8 metric, flat or the mild Kahler one."""
    root = tmp_path_factory.mktemp("stored_n8")
    bases = {"flat": MetricModel4T.flat(8),
             "mild": MetricModel4T.from_kahler_potential(
                 kahler_test_potential(8, 0.1 / np.pi ** 2))}
    return {base: save_metric(metric, root / base).parent for base, metric in bases.items()}


@settings(max_examples=20)
@given(st.sampled_from(("flat", "mild")), st.sampled_from(("11", "22", "12re", "12im")),
       st.integers(min_value=0, max_value=8 ** 4 - 1), st.floats())
@example("flat", "11", 0, 1e307)    # s det g overflows in the total: exit 2, solve exit 4
@example("mild", "11", 0, 1e307)
@example("flat", "11", 0, 1.7e308)
@example("flat", "11", 0, 1e200)    # det g = 1e200 is finite: exit 0, solve exit 4 (|s| 9.4e85)
@example("flat", "12re", 0, 1e200)    # |g12|^2 overflows, so det g = -inf: exit 2
@example("flat", "11", 0, 1e-320)    # det g is subnormal
@example("flat", "22", 0, 1e-305)    # s overflows
@example("flat", "11", 0, 1e-290)    # the defect's norm overflows: solve exit 4
@example("flat", "12re", 0, 5e-324)
@example("mild", "12im", 0, -0.0)
@example("mild", "22", 0, -1.7e308)
def test_a_stored_metric_never_escapes_its_exit_codes(stored_n8_metrics, base, component,
                                                     point, value):
    # one entry of one component CSV set to any float, the CSV rewritten so
    # that the binary twin's digest misses: each command exits 0, 2 or 4,
    # prints no non-finite JSON, and solve writes a potential only at exit 0
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for path in stored_n8_metrics[base].iterdir():
            shutil.copyfile(path, directory / path.name)
        manifest = directory / "metric.json"
        name = json.loads(manifest.read_text())["components"][component]
        grid = np.loadtxt(directory / name, delimiter=",", comments="#").reshape((8,) * 4)
        grid.flat[point] = value
        _write_grid_csv(directory / name, grid, component)
        for argv in (["curvature", "--metric", str(manifest)],
                     ["solve", "scalar-flat", "--metric", str(manifest),
                      "--out", str(directory / "solution.json")]):
            out = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out):
                warnings.simplefilter("error")
                code = run(argv)
            assert code in (0, 2, 4), (argv[0], code, out.getvalue())
            assert "Infinity" not in out.getvalue() and "NaN" not in out.getvalue()
        assert (directory / "solution.f.csv").exists() == (code == 0)


BUNDLE_DESCRIPTOR = {"genus": 2, "resolution": 8,
                     "summands": [{"degree": 1, "profile": "constant"},
                                  {"degree": 0, "profile": {"file": "kappa.csv"}}]}
#: every place in BUNDLE_DESCRIPTOR a mutation may replace or delete
DESCRIPTOR_PATHS = (("genus",), ("resolution",), ("summands",), ("summands", 0),
                    ("summands", 1), ("summands", 0, "degree"), ("summands", 0, "profile"),
                    ("summands", 1, "degree"), ("summands", 1, "profile"),
                    ("summands", 1, "profile", "file"))
# small integers only: a resolution is allocated as an n x n grid
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-10, max_value=40) | st.floats()
    | st.text(max_size=6) | st.just("constant") | st.just("kappa.csv"),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.sampled_from(("file", "degree", "profile", "x")),
                                        children, max_size=2)),
    max_leaves=5)


def mutated_descriptor(mutations):
    """BUNDLE_DESCRIPTOR with each (path, delete, value) applied in turn; a
    path an earlier mutation removed is skipped."""
    doc = json.loads(json.dumps(BUNDLE_DESCRIPTOR))
    for path, delete, value in mutations:
        try:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if delete:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass
    return doc


@given(st.lists(st.tuples(st.sampled_from(DESCRIPTOR_PATHS), st.booleans(), json_values),
                max_size=3),
       st.none() | corruptions())
@example([], ("truncate", 0.0, 0, b","))    # an empty profile CSV, on which np.loadtxt warns
def test_a_mutated_bundle_descriptor_loads_or_raises_a_domain_error(mutations, corruption):
    x, _y = grid_coordinates(8)
    kappa = np.broadcast_to(0.5 * np.cos(2 * np.pi * x), (8, 8))
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        profile = directory / "kappa.csv"
        np.savetxt(profile, kappa, fmt="%.18e", delimiter=",")
        if corruption is not None:
            profile.write_bytes(corrupt(profile.read_bytes(), corruption))
        descriptor = directory / "bundle.json"
        descriptor.write_text(json.dumps(mutated_descriptor(mutations)))
        try:
            load_bundle_descriptor(descriptor)
        except ScalarFlatError:
            pass
        except FileNotFoundError as exc:
            # a profile naming a file that is not there keeps its OS error
            assert not Path(exc.filename).exists()


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
