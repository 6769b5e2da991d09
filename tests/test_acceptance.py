"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with -s to see them) and enforcing its runtime budget."""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import coords4, random_metric

from scalarflat import (
    CurveModel,
    MetricModel4T,
    MinimalSurfaceDescriptor,
    chern_curvature_matrix,
    chern_scalar,
    classify_ruled,
    classify_split,
    conformal_scalar_flat,
    hirzebruch_anticanonical_h0,
    kx_certificate_split,
    kx_curvature_form,
    make_line_bundle,
    minimal_surface_gate,
    rc_scan,
    total_scalar,
)
from scalarflat.classifier import SURFACE_CLASSES
from scalarflat.curvature import canonical_curvature_split, total_scalar_routes
from scalarflat.geom_core import SplitBundle, grid_coordinates, integrate
from scalarflat.pde import TraceOperator, ddbar_density
from scalarflat.positivity import default_fiber_samples


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"[FAIL] criterion {number}: {name} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"[FAIL] criterion {number}: {name} "
              f"(runtime {elapsed:.2f}s over the {budget_seconds}s budget)")
        raise AssertionError(f"criterion {number} exceeded its runtime budget")
    print(f"[PASS] criterion {number}: {name} ({elapsed:.2f}s)")


def _expected_case(g, m):
    if g == 0:
        return "Hirzebruch"
    if g == 1:
        return "elliptic base"
    if m <= 2 - 2 * g:
        return "case (1)"
    if m <= 0:
        return "case (2)"
    if m < 2 * g - 2:
        return "case (3)"
    return "case (4)"


def test_criterion_1_classification_truth_table():
    cases = {"Hirzebruch", "elliptic base", "case (1)", "case (2)", "case (3)", "case (4)"}
    with criterion(1, "classification truth table", 1.0):
        for g in range(0, 7):
            for m in range(-10, min(g, 3) + 1):
                report = classify_ruled(g, m)
                verdict = report.scalar_flat_hermitian == "yes"
                assert verdict == (g >= 2 and m > 2 - 2 * g), (g, m)
                assert report.fired_case in cases
                assert report.fired_case == _expected_case(g, m), (g, m)


def test_criterion_2_split_bundle_instances():
    with criterion(2, "split-bundle degree-window instances", 1.0):
        assert classify_split(2, 1, 2).scalar_flat_hermitian == "yes"
        assert classify_split(2, 2, 2).scalar_flat_hermitian == "no"
        balanced = classify_split(2, 0, 2)
        assert balanced.scalar_flat_hermitian == "yes"
        assert balanced.scalar_flat_kahler == "yes"
        assert classify_split(6, 5, 2).scalar_flat_hermitian == "yes"
        assert classify_split(6, 10, 2).scalar_flat_hermitian == "no"


def test_criterion_3_closed_form_curvature_agreement():
    with criterion(3, "closed-form curvature agreement", 10.0):
        # (a) assembly identity with non-constant densities, exact
        n = 64
        curve = CurveModel.flat(2, n)
        x, y = curve.coordinates()
        kappa_profile = np.pi + 0.6 * np.broadcast_to(np.sin(2 * np.pi * x), (n, n)) \
            + 0.3 * np.broadcast_to(np.cos(2 * np.pi * y), (n, n))
        gamma_profile = 2 * np.pi + 0.5 * np.broadcast_to(
            np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y), (n, n))
        line = make_line_bundle(1, kappa_profile, curve)
        trivial = make_line_bundle(0, "constant", curve)
        bundle = SplitBundle((line, trivial))
        canonical = make_line_bundle(2, gamma_profile, curve)
        samples = default_fiber_samples()
        form = canonical_curvature_split(bundle, canonical, samples)
        kappa = line.kappa
        gamma = canonical.kappa
        independent = (kappa + gamma)[None, :, :] - 2 * kappa[None, :, :] \
            * samples[:, None, None]
        assert np.array_equal(form.base_component, independent)
        assert form.fs_multiple == -2.0

        # (b) spectral mode reproduces the densities from metric potentials
        def profiles(n):
            x, y = grid_coordinates(n)
            phi1 = (0.3 * np.sin(2 * np.pi * x) + 0.2 * np.cos(2 * np.pi * y)) \
                * np.ones((n, n))
            phi2 = 0.25 * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y) * np.ones((n, n))
            k1 = -np.pi ** 2 * (0.3 * np.sin(2 * np.pi * x)
                                + 0.2 * np.cos(2 * np.pi * y)) * np.ones((n, n))
            k2 = -2 * np.pi ** 2 * phi2
            return phi1, phi2, k1, k2

        def curvature_error(n):
            phi1, phi2, k1, k2 = profiles(n)
            h = np.zeros((n, n, 2, 2), dtype=complex)
            h[..., 0, 0] = np.exp(-phi1)
            h[..., 1, 1] = np.exp(-phi2)
            curv = chern_curvature_matrix(h)
            err1 = np.max(np.abs((curv[..., 0, 0] / h[..., 0, 0]).real - k1))
            err2 = np.max(np.abs((curv[..., 1, 1] / h[..., 1, 1]).real - k2))
            return max(float(err1), float(err2))

        assert curvature_error(64) < 1e-8


def test_criterion_4_certificate_margins():
    with criterion(4, "certificate margins and scans", 5.0):
        for g, deg_l, n in [(2, 1, 2), (6, 5, 2), (2, 0, 3), (6, 2, 3)]:
            cert = kx_certificate_split(g, deg_l, n)
            predicted = np.pi * (2 * g - 2 - (n - 1) * deg_l)
            assert abs(cert.margin - predicted) <= 1e-12
            assert cert.issued
            curve = CurveModel.flat(g, 64)
            report = rc_scan(kx_curvature_form(cert, curve), curve)
            assert report.rc_positive
            assert abs(report.min_max_eigenvalue - predicted) <= 1e-9
            assert report.witness["s1"] == 1.0 or deg_l == 0
        for g, deg_l, n in [(2, 2, 2), (2, 1, 3)]:
            cert = kx_certificate_split(g, deg_l, n)
            assert not cert.issued
            assert abs(cert.margin) <= 1e-12


def test_criterion_5_conformal_scalar_flat_pipeline():
    with criterion(5, "conformal scalar-flat pipeline", 60.0):
        n = 32
        x1, _, _, y2 = coords4(n)
        # Kahler perturbation of amplitude 0.1: max |ddbar phi| = 0.1
        phi = (0.1 / np.pi ** 2) * np.broadcast_to(
            np.sin(2 * np.pi * x1) * np.cos(2 * np.pi * y2), (n,) * 4).copy()
        metric = MetricModel4T.from_kahler_potential(phi)
        amplitude = float(np.max(np.abs(metric.g[..., 0, 0].real - 1.0)))
        assert amplitude == pytest.approx(0.1, rel=1e-10)

        solution = conformal_scalar_flat(metric)
        assert solution.solve_residual < 1e-10
        assert solution.residual < 1e-6

        s_g = chern_scalar(metric)
        trace_f = TraceOperator(metric).apply(solution.f)
        s_new = chern_scalar(metric.rescaled(solution.f / 2))
        chain = -np.exp(-solution.f / 2) * (s_g - trace_f)
        assert np.max(np.abs(s_new - chain)) < 1e-8


def test_criterion_6_total_scalar_properties():
    with criterion(6, "total-scalar properties", 30.0):
        assert total_scalar(MetricModel4T.flat(16)) == 0.0

        n = 32
        x1, _, _, y2 = coords4(n)
        phi = 0.1 * np.broadcast_to(np.sin(2 * np.pi * x1) * np.cos(2 * np.pi * y2),
                                    (n,) * 4).copy()
        kahler = MetricModel4T.from_kahler_potential(phi)
        assert abs(total_scalar(kahler)) < 1e-8

        rng = np.random.default_rng(20)
        for _ in range(10):
            metric = random_metric(16, rng)
            trace_route, wedge_route = total_scalar_routes(metric)
            assert abs(trace_route - wedge_route) < 1e-6


def test_criterion_7_hirzebruch_section_count():
    with criterion(7, "Hirzebruch anti-canonical sections", 1.0):
        def oracle(k):
            return sum(max(0, d + 1) for d in (k + 2, 2, 2 - k))

        values = [hirzebruch_anticanonical_h0(k) for k in range(6)]
        assert values == [oracle(k) for k in range(6)]
        assert values == [9, 9, 9, 9, 10, 11]
        assert all(v >= 1 for v in values)


def test_criterion_8_degree_quantization():
    with criterion(8, "degree quantization under potential twists", 10.0):
        n = 64
        degree = 3
        curve = CurveModel.flat(2, n)
        bundle = make_line_bundle(degree, "constant", curve)
        rng = np.random.default_rng(8)
        x, y = grid_coordinates(n)
        for _ in range(100):
            u = sum(rng.normal() * np.cos(2 * np.pi * (i * x + j * y)
                                          + rng.uniform(0, 2 * np.pi))
                    for i in (0, 1, 2) for j in (1, 2))
            twisted = bundle.kappa + ddbar_density(np.ascontiguousarray(u))
            measured = integrate(twisted, curve) / np.pi
            assert abs(measured - degree) < 1e-8


def test_criterion_9_minimal_surface_gate():
    with criterion(9, "minimal-surface gate", 1.0):
        verdicts = {}
        for cls_name in SURFACE_CLASSES:
            if cls_name == "Ruled":
                continue
            verdicts[cls_name] = minimal_surface_gate(
                MinimalSurfaceDescriptor.of_class(cls_name)).verdict
        admits = {c for c, v in verdicts.items() if v == "admits"}
        assert admits == {"Enriques", "BiElliptic", "K3", "Torus", "Kodaira"}
        assert verdicts["RationalMinimal"] == "rejected"
        assert verdicts["Hirzebruch"] == "rejected"
        assert verdicts["Inoue"] == "rejected"
        assert verdicts["Hopf"] == "rejected"
        assert verdicts["VII0_b2_positive"] == "possible_unknown"
        torsion_reason = minimal_surface_gate(
            MinimalSurfaceDescriptor.of_class("K3")).reason
        assert "torsion" in torsion_reason
        delegated = minimal_surface_gate(
            MinimalSurfaceDescriptor.of_class("Ruled", genus=2, m=2))
        assert delegated.verdict == "admits"
        assert delegated.report.fired_case == "case (4)"
        assert minimal_surface_gate(
            MinimalSurfaceDescriptor.of_class("Ruled", genus=1, m=0)).verdict == "rejected"
        for kappa in (1.0, 2.0):
            assert minimal_surface_gate(
                MinimalSurfaceDescriptor(kodaira_dim=kappa)).verdict == "rejected"
