import json

import numpy as np
import pytest

from scalarflat import (
    Certificate,
    CurveModel,
    DegreeError,
    DescriptorError,
    OneOneForm,
    SplitBundle,
    anti_kx_rc_flag,
    canonical_curvature_split,
    kx_certificate_split,
    kx_curvature_form,
    make_line_bundle,
    prescribe_curvature,
    rc_scan,
)
from scalarflat.geom_core import grid_coordinates
from scalarflat.positivity import default_fiber_samples, in_certified_range, split_margin


def test_rc_scan_zero_form():
    curve = CurveModel.flat(2, 16)
    form = OneOneForm(np.zeros((1, 16, 16)), np.array([0.0]), 0.0)
    report = rc_scan(form, curve)
    assert report.min_max_eigenvalue == 0.0
    assert not report.rc_positive


def test_rc_scan_negative_reference_form():
    lam = 1.0 + 0.5 * np.broadcast_to(np.sin(2 * np.pi * grid_coordinates(16)[0]), (16, 16))
    curve = CurveModel(genus=2, resolution=16, lam=lam)
    form = OneOneForm((-lam)[None, :, :], np.array([0.5]), -1.0)
    report = rc_scan(form, curve)
    assert report.min_max_eigenvalue == pytest.approx(-1.0, abs=1e-14)
    assert not report.rc_positive


def test_rc_scan_divides_the_base_component_by_lam():
    # against lam * dz^dzbar the base eigenvalue is 1 / lam, smallest where
    # lam peaks at 1.5 (x = 1/4); multiplying by lam would give 0.5 instead
    lam = 1.0 + 0.5 * np.broadcast_to(np.sin(2 * np.pi * grid_coordinates(16)[0]), (16, 16))
    curve = CurveModel(genus=2, resolution=16, lam=lam)
    form = OneOneForm(np.ones((1, 16, 16)), np.array([0.5]), -5.0)
    report = rc_scan(form, curve)
    assert report.min_max_eigenvalue == pytest.approx(1.0 / 1.5, abs=1e-14)
    assert report.witness["grid"] == [4, 0]
    assert report.rc_positive


def test_rc_scan_canonical_constants():
    cert = kx_certificate_split(2, 1, 2)
    curve = CurveModel.flat(2, 32)
    form = kx_curvature_form(cert, curve)
    report = rc_scan(form, curve)
    assert report.min_max_eigenvalue == pytest.approx(np.pi, abs=1e-12)
    assert report.witness["s1"] == 1.0
    assert report.rc_positive


def test_rc_scan_empty_samples_rejected():
    # a form with no fiber sample is refused where it is built, before any scan
    with pytest.raises(DescriptorError, match="samples >= 1"):
        OneOneForm(np.zeros((0, 16, 16)), np.zeros(0), -2.0)


@pytest.mark.parametrize("build", [
    lambda curve: rc_scan(OneOneForm(np.zeros((1, 8, 8)), [0.5], -2.0), curve),
    lambda curve: prescribe_curvature(np.zeros((8, 8)), make_line_bundle(0, "constant", curve)),
], ids=["rc_scan", "prescribe_curvature"])
def test_curve_chart_fields_off_the_grid_are_descriptor_errors(build):
    with pytest.raises(DescriptorError, match=r"does not match curve grid \(16, 16\)"):
        build(CurveModel.flat(2, 16))


def test_rc_scan_affine_minimum_sits_at_endpoints():
    # the base component of the canonical form is affine in s1, so the sampled
    # minimum must coincide with the analytic endpoint minimum
    curve = CurveModel.flat(3, 32)
    x, y = curve.coordinates()
    kappa = np.pi + 0.8 * np.broadcast_to(np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
                                          (32, 32))
    gamma = 4 * np.pi + 1.1 * np.broadcast_to(np.cos(2 * np.pi * y), (32, 32))
    line = make_line_bundle(1, kappa, curve)
    trivial = make_line_bundle(0, "constant", curve)
    canonical = make_line_bundle(4, gamma, curve)
    form = canonical_curvature_split(SplitBundle((line, trivial)), canonical,
                                     default_fiber_samples())
    report = rc_scan(form, curve)
    at_zero = np.maximum(form.base_component[0], form.fs_multiple)
    at_one = np.maximum(form.base_component[-1], form.fs_multiple)
    endpoint_min = min(float(at_zero.min()), float(at_one.min()))
    assert report.min_max_eigenvalue == pytest.approx(endpoint_min, abs=1e-12)


@pytest.mark.parametrize("g,deg_l,n", [(2, 1, 2), (6, 5, 2), (2, 0, 3), (6, 2, 3)])
def test_certificate_constant_margins(g, deg_l, n):
    cert = kx_certificate_split(g, deg_l, n)
    assert cert.margin == pytest.approx(np.pi * (2 * g - 2 - (n - 1) * deg_l), abs=1e-12)
    assert cert.issued


@pytest.mark.parametrize("g,deg_l,n", [(2, 2, 2), (2, 1, 3)])
def test_certificate_boundary_failures(g, deg_l, n):
    cert = kx_certificate_split(g, deg_l, n)
    assert not cert.issued
    assert cert.margin == pytest.approx(0.0, abs=1e-12)
    assert cert.witness is not None


def test_certificate_failure_consistency():
    for g in range(2, 7):
        for deg_l in range(0, 8):
            for n in (2, 3):
                cert = kx_certificate_split(g, deg_l, n)
                assert cert.issued == ((n - 1) * deg_l < 2 * g - 2)


def boundary_triples(max_genus):
    """Every (g, deg L, n) on the excluded boundary (n-1) deg L = 2g - 2, g < max_genus."""
    return [(g, (2 * g - 2) // k, k + 1) for g in range(2, max_genus)
            for k in range(1, 2 * g - 1) if (2 * g - 2) % k == 0]


def test_constant_certificate_is_never_issued_on_the_boundary():
    # the grid margin pi (2g-2) - (n-1) (pi d) is +2.8e-14, not 0, at (34, 22, 4)
    # and five more of these triples; issuance follows the integer range test
    triples = boundary_triples(60)
    assert len(triples) == 391
    assert kx_certificate_split(34, 22, 4).margin > 0.0
    for g, deg_l, n in triples:
        assert not in_certified_range(g, deg_l, n)
        cert = kx_certificate_split(g, deg_l, n)
        assert not cert.issued, (g, deg_l, n, cert.margin)
        want = "outside certified range" if cert.margin > 0.0 else "margin not positive"
        assert cert.witness["violation"] == want


def test_split_margin_matches_the_constant_grid_minimum_bit_for_bit():
    for g in range(2, 40, 3):
        curve = CurveModel.flat(g, 8)
        gamma = make_line_bundle(2 * g - 2, "constant", curve).kappa
        for deg_l in range(0, 60, 7):
            kappa = make_line_bundle(deg_l, "constant", curve).kappa
            for n in (2, 3, 4, 5):
                grid_minimum = float(np.min(gamma - (n - 1) * kappa))
                assert split_margin(g, deg_l, n) == grid_minimum
                assert split_margin(g, -deg_l, n) == grid_minimum


def test_certificate_margin_monotonicity():
    margins_in_degree = [kx_certificate_split(6, d, 2).margin
                         for d in range(0, 6)]
    assert all(a > b for a, b in zip(margins_in_degree, margins_in_degree[1:]))
    margins_in_genus = [kx_certificate_split(g, 1, 2).margin
                        for g in range(2, 7)]
    assert all(a < b for a, b in zip(margins_in_genus, margins_in_genus[1:]))


def test_certificate_soundness_scan_matches_margin():
    for g, deg_l, n in [(2, 1, 2), (6, 5, 2), (6, 2, 3)]:
        cert = kx_certificate_split(g, deg_l, n)
        assert cert.issued
        curve = CurveModel.flat(g, 32)
        report = rc_scan(kx_curvature_form(cert, curve), curve)
        assert report.rc_positive
        assert report.min_max_eigenvalue == pytest.approx(cert.margin, abs=1e-9)


def test_certificate_preconditions():
    with pytest.raises(DescriptorError):
        kx_certificate_split(1, 0, 2)
    with pytest.raises(DescriptorError):
        kx_certificate_split(2, -1, 2)
    with pytest.raises(DescriptorError):
        kx_certificate_split(2, 1, 1)
    # the form lives on a chart of the certificate's genus
    with pytest.raises(DegreeError):
        kx_curvature_form(kx_certificate_split(3, 1, 2), CurveModel.flat(2, 8))


@pytest.mark.parametrize("g, deg_l, n, message", [
    (1, 0, 2, "genus >= 2"), (2, -1, 2, "deg L >= 0"), (2, 1, 1, "at least 2")])
def test_certificate_constructor_checks_the_domain(g, deg_l, n, message):
    with pytest.raises(DescriptorError, match=message):
        Certificate(g, deg_l, n)


@pytest.mark.parametrize("g, deg_l, n, field", [
    (2.5, 1, 2, "genus"), (2, True, 2, "deg_l"), (2, 1, 2.0, "n"), (True, 1, 2, "genus"),
    (2, "1", 2, "deg_l")])
def test_certificate_refuses_non_integers(g, deg_l, n, field):
    # checked before the domain, so a float is never truncated into range
    with pytest.raises(DescriptorError, match=f"certificate {field} must be an integer"):
        Certificate(g, deg_l, n)


def test_certificate_stores_numpy_integers_as_int():
    cert = Certificate(np.int64(6), np.int32(5), np.uint8(2))
    assert [type(v) for v in (cert.genus, cert.deg_l, cert.n)] == [int, int, int]
    assert json.loads(json.dumps(cert.to_dict())) == Certificate(6, 5, 2).to_dict()


def test_certificate_is_its_three_integers():
    for g, deg_l, n in [(2, 1, 2), (2, 2, 2), (6, 5, 3), (34, 22, 4)]:
        assert Certificate(g, deg_l, n).to_dict() == kx_certificate_split(g, deg_l, n).to_dict()
    # the margin is split_margin's with no tolerance in between, even where the
    # textbook float pi (2g - 3) is 9.5e-7 away from it
    assert Certificate(10 ** 9, 1, 2).margin == split_margin(10 ** 9, 1, 2)
    assert Certificate(10 ** 9, 1, 2).issued


def test_default_fiber_samples_cover_endpoints():
    samples = default_fiber_samples()
    assert samples[0] == 0.0
    assert samples[-1] == 1.0
    assert len(samples) == 65


def test_anti_kx_rc_flag():
    flag, note = anti_kx_rc_flag(0)
    assert flag and "uniruled" in note
    assert anti_kx_rc_flag(2)[0]
    with pytest.raises(DescriptorError):
        anti_kx_rc_flag(-1)
    with pytest.raises(DescriptorError):
        anti_kx_rc_flag("not a bundle")
