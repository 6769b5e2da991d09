import math

import pytest

from scalarflat import (
    DescriptorError,
    MinimalSurfaceDescriptor,
    NagataViolation,
    anti_kx_rc_flag,
    classify_ruled,
    classify_split,
    hirzebruch_anticanonical_h0,
    is_stable_rank2,
    m_split_rank2,
    minimal_surface_gate,
    total_scalar_image,
    validate_m,
)
from scalarflat.classifier import SURFACE_CLASSES


def test_m_split_rank2():
    assert m_split_rank2(3) == -3
    assert m_split_rank2(0) == 0
    assert m_split_rank2(-2) == -2


def test_validate_m():
    validate_m(2, 2)
    validate_m(-10, 0)
    with pytest.raises(NagataViolation):
        validate_m(3, 2)
    with pytest.raises(DescriptorError):
        validate_m(0, -1)


@pytest.mark.parametrize("call, what", [
    # each of these used to return a verdict: a bool read as genus 1, m = 0.5
    # as a case (3) input, deg L = 1.5 truncated to 1, rank 2.5 as a higher rank
    pytest.param(lambda: classify_ruled(True, 0), "genus", id="classify_ruled(True, 0)"),
    pytest.param(lambda: classify_ruled(2, 0.5), "m", id="classify_ruled(2, 0.5)"),
    pytest.param(lambda: classify_ruled(2.0, 0), "genus", id="classify_ruled(2.0, 0)"),
    pytest.param(lambda: validate_m(0, 1.5), "genus", id="validate_m(0, 1.5)"),
    pytest.param(lambda: classify_split(2, 1.5, 2), "deg L", id="classify_split(2, 1.5, 2)"),
    pytest.param(lambda: classify_split(2, 0, 2.5), "fiber rank n",
                 id="classify_split(2, 0, 2.5)"),
    pytest.param(lambda: classify_split(2, False, 2), "deg L", id="classify_split(2, False, 2)"),
    pytest.param(lambda: MinimalSurfaceDescriptor.of_class("Ruled", genus=2, m=0.5), "m",
                 id="MinimalSurfaceDescriptor.of_class('Ruled', genus=2, m=0.5)"),
    pytest.param(lambda: hirzebruch_anticanonical_h0(1.5), "Hirzebruch twist",
                 id="hirzebruch_anticanonical_h0(1.5)"),
    pytest.param(lambda: anti_kx_rc_flag(True), "genus", id="anti_kx_rc_flag(True)"),
    pytest.param(lambda: anti_kx_rc_flag(2.0), "genus", id="anti_kx_rc_flag(2.0)"),
])
def test_theory_functions_refuse_non_integers(call, what):
    with pytest.raises(DescriptorError, match=f"{what} must be an integer"):
        call()


def test_is_stable_rank2():
    assert is_stable_rank2(2)
    assert not is_stable_rank2(0)
    assert not is_stable_rank2(-1)


@pytest.mark.parametrize("g,m,verdict,case", [
    (0, -2, "no", "Hirzebruch"),
    (1, 0, "no", "elliptic base"),
    (2, -1, "yes", "case (2)"),
    (2, 2, "yes", "case (4)"),
    (3, -5, "no", "case (1)"),
    (3, 1, "yes", "case (3)"),
])
def test_classify_ruled_examples(g, m, verdict, case):
    report = classify_ruled(g, m)
    assert report.scalar_flat_hermitian == verdict
    assert report.fired_case == case


def test_classify_ruled_propagates_nagata():
    with pytest.raises(NagataViolation):
        classify_ruled(2, 3)


def test_classify_ruled_image_matches_verdict():
    for g in range(0, 7):
        for m in range(-10, min(g, 3) + 1):
            report = classify_ruled(g, m)
            if report.scalar_flat_hermitian == "yes":
                assert report.total_scalar_image == "AllReals"
            else:
                assert report.total_scalar_image == "PositiveReals"


def test_stability_implies_existence():
    for g in range(2, 7):
        for m in range(1, g + 1):
            assert is_stable_rank2(m)
            assert classify_ruled(g, m).scalar_flat_hermitian == "yes"


@pytest.mark.parametrize("g,deg_l,hermitian,kahler", [
    (2, 1, "yes", "no"),
    (2, 0, "yes", "yes"),
    (2, 2, "no", "no"),
    (6, 5, "yes", "no"),
])
def test_classify_split_rank2(g, deg_l, hermitian, kahler):
    report = classify_split(g, deg_l, 2)
    assert report.scalar_flat_hermitian == hermitian
    assert report.scalar_flat_kahler == kahler


def test_classify_split_symmetry_in_degree_sign():
    for g in (2, 4, 6):
        for d in (0, 1, 3, 7):
            assert classify_split(g, d, 2).to_dict() == classify_split(g, -d, 2).to_dict()


def test_classify_split_higher_rank():
    boundary = classify_split(2, 1, 3)
    assert boundary.scalar_flat_hermitian == "no"
    assert boundary.total_scalar_image == "unknown"
    inside = classify_split(10, 6, 3)  # 6 < (2g-2)/(n-1) = 9
    assert inside.scalar_flat_hermitian == "yes"
    assert inside.scalar_flat_kahler == "no"
    balanced = classify_split(2, 0, 3)
    assert balanced.scalar_flat_kahler == "yes"
    with pytest.raises(DescriptorError):
        classify_split(2, 1, 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classify_split_rejects_negative_genus_for_every_rank(n):
    with pytest.raises(DescriptorError, match="genus must be nonnegative"):
        classify_split(-1, 0, n)


def test_total_scalar_image_table():
    assert total_scalar_image(True, True) == "AllReals"
    assert total_scalar_image(False, True) == "PositiveReals"
    assert total_scalar_image(True, False) == "NegativeReals"
    assert total_scalar_image(False, False) == "ZeroOnly"


def test_hirzebruch_section_count_against_oracle():
    def oracle(k):
        return sum(max(0, d + 1) for d in (k + 2, 2, 2 - k))

    for k in range(0, 12):
        value = hirzebruch_anticanonical_h0(k)
        assert value == oracle(k)
        assert value >= 1
    assert [hirzebruch_anticanonical_h0(k) for k in range(6)] == [9, 9, 9, 9, 10, 11]
    with pytest.raises(DescriptorError):
        hirzebruch_anticanonical_h0(-1)


def test_minimal_descriptor_consistency():
    MinimalSurfaceDescriptor.of_class("K3")
    with pytest.raises(DescriptorError):
        MinimalSurfaceDescriptor(kodaira_dim=-math.inf, surface_class="K3")
    with pytest.raises(DescriptorError):
        MinimalSurfaceDescriptor.of_class("Ruled")  # needs genus and m
    with pytest.raises(DescriptorError):
        MinimalSurfaceDescriptor.of_class("nonsense")
    with pytest.raises(DescriptorError):
        MinimalSurfaceDescriptor(kodaira_dim=1.0, surface_class="K3")


def test_minimal_gate_verdicts():
    expected = {
        "Enriques": "admits",
        "BiElliptic": "admits",
        "K3": "admits",
        "Torus": "admits",
        "Kodaira": "admits",
        "RationalMinimal": "rejected",
        "Hirzebruch": "rejected",
        "Inoue": "rejected",
        "Hopf": "rejected",
        "VII0_b2_positive": "possible_unknown",
    }
    for cls_name in SURFACE_CLASSES:
        if cls_name == "Ruled":
            continue
        result = minimal_surface_gate(MinimalSurfaceDescriptor.of_class(cls_name))
        assert result.verdict == expected[cls_name], cls_name
    k3 = minimal_surface_gate(MinimalSurfaceDescriptor.of_class("K3"))
    assert "torsion canonical" in k3.reason


def test_minimal_gate_rejects_positive_kodaira():
    for kappa in (1.0, 2.0):
        result = minimal_surface_gate(MinimalSurfaceDescriptor(kodaira_dim=kappa))
        assert result.verdict == "rejected"


def test_minimal_gate_delegates_ruled():
    admits = minimal_surface_gate(
        MinimalSurfaceDescriptor.of_class("Ruled", genus=2, m=2))
    assert admits.verdict == "admits"
    assert admits.report is not None
    assert admits.report.fired_case == "case (4)"
    rejected = minimal_surface_gate(
        MinimalSurfaceDescriptor.of_class("Ruled", genus=3, m=-5))
    assert rejected.verdict == "rejected"
