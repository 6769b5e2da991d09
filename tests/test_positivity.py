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


def test_rc_scan_canonical_constants():
    cert = kx_certificate_split(2, 1, 2)
    curve = CurveModel.flat(2, 32)
    form = kx_curvature_form(cert, curve)
    report = rc_scan(form, curve)
    assert report.min_max_eigenvalue == pytest.approx(np.pi, abs=1e-12)
    assert report.witness["s1"] == 1.0
    assert report.rc_positive


def test_rc_scan_empty_samples_rejected():
    curve = CurveModel.flat(2, 16)
    form = OneOneForm(np.zeros((0, 16, 16)), np.zeros(0), -2.0)
    with pytest.raises(ValueError):
        rc_scan(form, curve)


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


def test_certificate_margin_recompute_invariant():
    with pytest.raises(DescriptorError):
        Certificate(genus=2, deg_l=1, n=2, margin=1.0, issued=True)


@pytest.mark.parametrize("g, deg_l, n", [(2, 1, 2), (2, 2, 2), (6, 5, 3)])
def test_certificate_issued_flag_and_witness_follow_the_certified_range(g, deg_l, n):
    cert = kx_certificate_split(g, deg_l, n)
    margin = split_margin(g, deg_l, n)
    witness = {"violation": "outside certified range", "grid": [0, 0], "value": margin}
    # the flag flipped, with the witness that flag would need
    with pytest.raises(DescriptorError, match="certified range"):
        Certificate(genus=g, deg_l=deg_l, n=n, margin=margin, issued=not cert.issued,
                    witness=None if cert.issued else witness)
    # the right flag with the witness of the wrong one
    with pytest.raises(DescriptorError, match="witness"):
        Certificate(genus=g, deg_l=deg_l, n=n, margin=margin, issued=cert.issued,
                    witness=witness if cert.issued else None)


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
