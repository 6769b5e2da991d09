"""Property tests: each theorem fact agrees with its single source."""

import contextlib
import io
import json

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from scalarflat import chern_curvature_matrix, classify_split, kx_certificate_split
from scalarflat.cli import run
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


@given(st.integers(min_value=2, max_value=80), degrees, ranks)
def test_classification_margin_is_the_certificate_margin(g, deg_l, n):
    report = classify_split(g, deg_l, n)
    if report.scalar_flat_hermitian == "yes":
        certificate = kx_certificate_split(g, abs(deg_l), n, resolution=8)
        assert report.certificate["margin"] == certificate.margin


@given(st.integers(min_value=2, max_value=80), st.integers(min_value=0, max_value=200),
       ranks)
@example(34, 22, 4)
@example(56, 11, 11)
def test_rc_check_issues_exactly_in_range(g, deg_l, n):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["rc-check", "--genus", str(g), "--deg-l", str(deg_l), "--n", str(n),
                    "--resolution", "8"])
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
