import json

import numpy as np
import pytest

from scalarflat import (
    ClassificationReport,
    CurveModel,
    DegreeError,
    DescriptorError,
    FiberSimplexPoint,
    LineBundleModel,
    MinimalSurfaceDescriptor,
    OneOneForm,
    SplitBundle,
    canonical_curvature_split,
    integrate,
    load_bundle_descriptor,
    make_line_bundle,
    tensor_product,
)
from scalarflat.geom_core import grid_coordinates


def test_integrate_constant_one():
    curve = CurveModel.flat(0, 16)
    assert integrate(np.ones((16, 16)), curve) == pytest.approx(1.0, abs=1e-15)


def test_integrate_constant_pi_carries_degree_one():
    curve = CurveModel.flat(0, 16)
    value = integrate(np.full((16, 16), np.pi), curve)
    assert value == pytest.approx(np.pi, abs=1e-12)
    assert value / np.pi == pytest.approx(1.0, abs=1e-12)


def test_integrate_sinusoid_vanishes():
    curve = CurveModel.flat(0, 32)
    x, _ = curve.coordinates()
    field = np.broadcast_to(np.sin(2 * np.pi * x), (32, 32))
    assert abs(integrate(field, curve)) < 1e-12


def test_integrate_rejects_dimension_mismatch():
    curve = CurveModel.flat(0, 16)
    with pytest.raises(DescriptorError, match="does not match curve grid"):
        integrate(np.ones((8, 8)), curve)


def test_curve_model_validation():
    with pytest.raises(DescriptorError):
        CurveModel.flat(-1, 16)
    with pytest.raises(DescriptorError):
        CurveModel.flat(0, 4)
    with pytest.raises(DescriptorError):
        CurveModel(genus=0, resolution=16, lam=np.zeros((16, 16)))
    with pytest.raises(DescriptorError):
        CurveModel(genus=0, resolution=16, lam=np.ones((8, 8)))


@pytest.mark.parametrize("call, what", [
    # each of these used to build a model carrying the non-integer
    pytest.param(lambda: CurveModel.flat(2.5, 16), "curve genus", id="genus 2.5"),
    pytest.param(lambda: CurveModel.flat(True, 16), "curve genus", id="genus True"),
    pytest.param(lambda: CurveModel(genus=2, resolution=16.0, lam=np.ones((16, 16))),
                 "curve resolution", id="resolution 16.0"),
    # this one raised numpy's TypeError
    pytest.param(lambda: CurveModel.flat(2, 16.0), "curve resolution", id="flat resolution 16.0"),
    pytest.param(lambda: make_line_bundle(1.5, "constant", CurveModel.flat(2, 16)),
                 "line bundle degree", id="degree 1.5"),
    pytest.param(lambda: make_line_bundle(True, "constant", CurveModel.flat(2, 16)),
                 "line bundle degree", id="degree True"),
    pytest.param(lambda: make_line_bundle(2.0, np.full((16, 16), 2.0 * np.pi),
                                          CurveModel.flat(2, 16)),
                 "line bundle degree", id="degree 2.0, supplied profile"),
    # this one raised DegreeError on the density's integral, not on the degree
    pytest.param(lambda: make_line_bundle(1.5, np.zeros((16, 16)), CurveModel.flat(2, 16)),
                 "line bundle degree", id="degree 1.5, supplied profile"),
])
def test_curve_chart_models_refuse_non_integers(call, what):
    with pytest.raises(DescriptorError, match=f"{what} must be an integer"):
        call()


def test_curve_chart_models_store_numpy_integers_as_int():
    curve = CurveModel.flat(np.int64(2), np.int32(16))
    bundle = make_line_bundle(np.int16(3), "constant", curve)
    assert type(curve.genus) is type(curve.resolution) is type(bundle.degree) is int


def test_make_line_bundle_constant_profiles():
    curve = CurveModel.flat(2, 32)
    one = make_line_bundle(1, "constant", curve)
    assert np.all(one.kappa == np.pi)
    zero = make_line_bundle(0, "constant", curve)
    assert np.all(zero.kappa == 0.0)


def test_make_line_bundle_supplied_field_projected():
    curve = CurveModel.flat(2, 32)
    x, _ = curve.coordinates()
    field = np.broadcast_to(2 * np.pi + np.sin(2 * np.pi * x), (32, 32))
    bundle = make_line_bundle(2, field, curve)
    assert bundle.measured_degree() == pytest.approx(2.0, abs=1e-10)


def test_make_line_bundle_rejects_wrong_integral():
    curve = CurveModel.flat(2, 32)
    field = np.full((32, 32), np.pi)  # integrates to degree 1, not 2
    with pytest.raises(DegreeError):
        make_line_bundle(2, field, curve)


def test_make_line_bundle_input_tolerance_is_one_millionth():
    # a supplied density's integral may miss pi * degree by DEGREE_INPUT_TOL
    # (1e-6) and is then shifted onto it; a miss of 1e-3 is refused
    curve = CurveModel.flat(2, 16)
    assert make_line_bundle(2, np.full((16, 16), 2 * np.pi + 5e-7), curve).degree == 2
    with pytest.raises(DegreeError):
        make_line_bundle(2, np.full((16, 16), 2 * np.pi + 1e-3), curve)


def test_degree_quantization_is_tight():
    curve = CurveModel.flat(1, 64)
    rng = np.random.default_rng(7)
    x, y = grid_coordinates(64)
    for degree in (-2, 0, 3):
        wiggle = sum(rng.normal() * np.sin(2 * np.pi * (k * x + j * y))
                     for k in (1, 2) for j in (0, 1))
        field = np.pi * degree + 0.3 * np.broadcast_to(wiggle, (64, 64))
        bundle = make_line_bundle(degree, field, curve)
        assert abs(bundle.measured_degree() - degree) < 1e-8


def test_tensor_product_twist_additivity():
    curve = CurveModel.flat(2, 32)
    x, y = curve.coordinates()
    a = make_line_bundle(1, np.pi + 0.4 * np.broadcast_to(np.sin(2 * np.pi * x), (32, 32)),
                         curve)
    b = make_line_bundle(2, 2 * np.pi + 0.2 * np.broadcast_to(np.cos(2 * np.pi * y), (32, 32)),
                         curve)
    product = tensor_product(a, b)
    assert product.degree == 3
    assert integrate(product.kappa, curve) == pytest.approx(3 * np.pi, abs=1e-10)
    np.testing.assert_allclose(product.kappa, a.kappa + b.kappa)


def test_split_bundle_requires_shared_grid():
    curve_a = CurveModel.flat(2, 32)
    curve_b = CurveModel.flat(2, 16)
    with pytest.raises(DescriptorError):
        SplitBundle((make_line_bundle(1, "constant", curve_a),
                     make_line_bundle(0, "constant", curve_b)))
    bundle = SplitBundle((make_line_bundle(1, "constant", curve_a),
                          make_line_bundle(0, "constant", curve_a)))
    assert bundle.rank == 2
    assert bundle.total_degree == 1
    single = SplitBundle((make_line_bundle(3, "constant", curve_a),))
    assert (single.rank, single.total_degree) == (1, 3)


def test_fiber_simplex_point_validation():
    good = FiberSimplexPoint(np.array([0.25, 0.75]))
    assert good.rank == 2
    FiberSimplexPoint(np.array([1.0, 0.0, 0.0]))  # boundary of the simplex is fine
    assert FiberSimplexPoint(np.array([1.0])).rank == 1    # a rank-1 fiber is a point
    with pytest.raises(DescriptorError):
        FiberSimplexPoint(np.array([0.5, 0.6]))
    with pytest.raises(DescriptorError):
        FiberSimplexPoint(np.array([-0.1, 1.1]))
    with pytest.raises(DescriptorError):
        FiberSimplexPoint(np.array([]))


def test_fiber_simplex_random_points_stay_in_simplex():
    rng = np.random.default_rng(3)
    for _ in range(50):
        raw = rng.random(4)
        point = FiberSimplexPoint(raw / raw.sum())
        assert np.all(point.weights >= 0.0)
        assert float(point.weights.sum()) == pytest.approx(1.0, abs=1e-12)


def test_one_one_form_validation():
    base = np.zeros((3, 16, 16))
    form = OneOneForm(base, np.array([0.0, 0.5, 1.0]), -2.0)
    assert form.sample_count == 3
    with pytest.raises(DescriptorError):
        OneOneForm(base, np.array([0.0, 0.5]), -2.0)
    with pytest.raises(DescriptorError):
        OneOneForm(base, np.array([0.0, 0.5, 1.5]), -2.0)
    bad = base.copy()
    bad[0, 0, 0] = np.inf
    with pytest.raises(DescriptorError):
        OneOneForm(bad, np.array([0.0, 0.5, 1.0]), -2.0)


def test_classification_report_invariants():
    ClassificationReport("yes", "unknown", "AllReals", "case (2)")
    ClassificationReport("no", "no", "PositiveReals", "Hirzebruch")
    with pytest.raises(DescriptorError):
        ClassificationReport("yes", "unknown", "PositiveReals", "case (2)")
    with pytest.raises(DescriptorError):
        ClassificationReport("no", "no", "ZeroOnly", "case (1)")
    with pytest.raises(DescriptorError):
        ClassificationReport("no", "yes", "PositiveReals", "case (1)")


def test_classification_report_takes_the_kahler_verdict_from_verdicts():
    with pytest.raises(DescriptorError, match="Kahler verdict"):
        ClassificationReport("no", "not-applicable", "PositiveReals", "case (1)")


def test_bundle_descriptor_roundtrip(tmp_path):
    field = np.full((16, 16), 2 * np.pi)
    csv_path = tmp_path / "kappa.csv"
    np.savetxt(csv_path, field, delimiter=",")
    doc = {
        "genus": 2,
        "resolution": 16,
        "summands": [
            {"degree": 2, "profile": {"file": "kappa.csv"}},
            {"degree": 0, "profile": "constant"},
        ],
    }
    json_path = tmp_path / "bundle.json"
    json_path.write_text(json.dumps(doc))
    curve, bundle = load_bundle_descriptor(json_path)
    assert curve.genus == 2
    assert bundle.rank == 2
    assert bundle.total_degree == 2
    assert bundle.summands[0].measured_degree() == pytest.approx(2.0, abs=1e-10)


def test_bundle_descriptor_rejects_malformed():
    with pytest.raises(DescriptorError):
        load_bundle_descriptor({"genus": 2, "resolution": 16, "summands": []})
    with pytest.raises(DescriptorError):
        load_bundle_descriptor({"genus": 2, "summands": [{"degree": 1}]})
    for profile in ({}, {"file": 3}):
        entry = {"degree": 1, "profile": profile}
        with pytest.raises(DescriptorError, match="malformed summand entry"):
            load_bundle_descriptor({"genus": 2, "resolution": 16, "summands": [entry]})


@pytest.mark.parametrize("doc, field", [
    ({"genus": 2.9}, "'genus'"),
    ({"genus": True}, "'genus'"),
    ({"genus": "2"}, "'genus'"),
    ({"resolution": 16.7}, "'resolution'"),
    ({"resolution": False}, "'resolution'"),
    ({"summands": [{"degree": 1.5}]}, "'degree'"),
    ({"summands": [{"degree": 1}, {"degree": True}]}, "'degree'"),
    ({"summands": [{"degree": "1"}]}, "'degree'"),
])
def test_bundle_descriptor_refuses_non_integers(doc, field):
    # int() used to truncate 2.9 to genus 2 and read true as degree 1
    doc = {"genus": 2, "resolution": 16, "summands": [{"degree": 1}], **doc}
    with pytest.raises(DescriptorError, match=f"{field} must be an integer"):
        load_bundle_descriptor(doc)


def test_bundle_descriptor_profile_names_a_file_in_its_directory(tmp_path):
    outside = tmp_path / "secret.csv"
    outside.write_text("root:x:0:0:root:/root:/bin/bash\n")
    inner = tmp_path / "inner"
    inner.mkdir()
    (inner / "legit.csv").write_text("1,2\n3,4\n")
    for name in (str(outside), "../secret.csv", "sub/legit.csv", "", ".", "..", "a\0b"):
        doc = {"genus": 2, "resolution": 16,
               "summands": [{"degree": 0, "profile": {"file": name}}]}
        (inner / "bundle.json").write_text(json.dumps(doc))
        with pytest.raises(DescriptorError, match="name in the descriptor's directory") as info:
            load_bundle_descriptor(inner / "bundle.json")
        assert "root:x" not in str(info.value)


@pytest.mark.parametrize("descriptor, profile", [
    (b"{not json", None),
    (b'{"genus": 2, "resolution": 16, "summands": []}\xff', None),
    (None, b"1,2\n3,x\n"),
    (None, b"1,2\n\xff,4\n"),
], ids=["descriptor-json", "descriptor-utf8", "profile-number", "profile-utf8"])
def test_malformed_bundle_descriptor_contents_name_the_file(tmp_path, descriptor, profile):
    doc = {"genus": 2, "resolution": 8,
           "summands": [{"degree": 0, "profile": {"file": "kappa.csv"}}]}
    (tmp_path / "bundle.json").write_bytes(descriptor or json.dumps(doc).encode())
    (tmp_path / "kappa.csv").write_bytes(profile or b"0,0\n0,0\n")
    bad = "bundle.json" if descriptor else "kappa.csv"
    with pytest.raises(DescriptorError, match=bad):
        load_bundle_descriptor(tmp_path / "bundle.json")


def test_bundle_descriptor_os_errors_keep_their_names(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_bundle_descriptor(tmp_path / "missing.json")
    doc = {"genus": 2, "resolution": 8,
           "summands": [{"degree": 0, "profile": {"file": "missing.csv"}}]}
    (tmp_path / "bundle.json").write_text(json.dumps(doc))
    with pytest.raises(FileNotFoundError):
        load_bundle_descriptor(tmp_path / "bundle.json")


def test_models_are_immutable():
    curve = CurveModel.flat(2, 16)
    bundle = make_line_bundle(1, "constant", curve)
    with pytest.raises(ValueError):
        bundle.kappa[0, 0] = 5.0
    with pytest.raises(ValueError):
        curve.lam[0, 0] = 5.0


def test_line_bundle_rejects_inconsistent_degree_directly():
    curve = CurveModel.flat(2, 16)
    with pytest.raises(DegreeError):
        LineBundleModel(degree=2, kappa=np.full((16, 16), np.pi), curve=curve)


@pytest.mark.parametrize("degree", [2 * 10 ** 9 - 2, -(10 ** 12), 2 * 10 ** 18 - 2])
def test_quantization_bound_scales_with_the_degree(degree):
    # the round trip pi * degree -> grid sum -> / pi is exact only to a few
    # ulps of the degree, so the bound is relative; 1e-7 of the degree off
    # still fails
    curve = CurveModel.flat(10 ** 9, 8)
    assert make_line_bundle(degree, "constant", curve).degree == degree
    with pytest.raises(DegreeError):
        LineBundleModel(degree=degree, kappa=np.full((8, 8), np.pi * degree * (1 + 1e-7)),
                        curve=curve)


@pytest.mark.parametrize("degree", [-1, 0, 1])
def test_quantization_bound_is_absolute_below_degree_two(degree):
    # the bound is DEGREE_QUANTIZATION_TOL * max(1, |degree|), so 1e-8 for
    # |degree| <= 1: a density 0.5e-8 off in degree passes, 1.5e-8 off fails
    curve = CurveModel.flat(2, 8)
    ok = LineBundleModel(degree=degree, kappa=np.full((8, 8), np.pi * (degree + 0.5e-8)),
                         curve=curve)
    assert ok.degree == degree
    with pytest.raises(DegreeError):
        LineBundleModel(degree=degree, kappa=np.full((8, 8), np.pi * (degree + 1.5e-8)),
                        curve=curve)


def _line(degree, n=8):
    return make_line_bundle(degree, "constant", CurveModel.flat(2, n))


def _rank_two():
    return SplitBundle((_line(1), _line(0)))


@pytest.mark.parametrize("build, message", [
    (lambda: MinimalSurfaceDescriptor(kodaira_dim=3.0),
     "Kodaira dimension must be -inf, 0, 1 or 2, got 3.0"),
    (lambda: MinimalSurfaceDescriptor(kodaira_dim=0.0),
     "a class is required when the Kodaira dimension is 0 or -inf"),
    (lambda: MinimalSurfaceDescriptor(kodaira_dim=0.0, surface_class="Enoki"),
     "unknown surface class 'Enoki'"),
    (lambda: canonical_curvature_split(SplitBundle((_line(1),)), _line(2), 0.5),
     "projective-bundle model needs rank at least 2"),
    (lambda: canonical_curvature_split(_rank_two(), _line(2, n=16), 0.5),
     "canonical-bundle model lives on a different curve grid"),
    (lambda: canonical_curvature_split(_rank_two(), _line(2), np.zeros((2, 2))),
     "fiber weights must be a scalar or a vector, got (2, 2)"),
    (lambda: make_line_bundle(1, "ripple", CurveModel.flat(2, 8)),
     "unknown profile 'ripple'"),
    (lambda: tensor_product(_line(1), _line(1, n=16)),
     "tensor factors live on different curve models"),
    (lambda: SplitBundle(()), "a split bundle needs at least one summand"),
    (lambda: OneOneForm(base_component=np.zeros((1, 8, 8)), s1=[0.5], fs_multiple=np.inf),
     "fiber multiple must be finite"),
    (lambda: ClassificationReport("maybe", "no", "unknown", "case (1)"),
     "bad Hermitian verdict 'maybe'"),
    (lambda: ClassificationReport("no", "maybe", "unknown", "case (1)"),
     "bad Kahler verdict 'maybe'"),
    (lambda: ClassificationReport("no", "no", "Everything", "case (1)"),
     "bad total-scalar image 'Everything'"),
], ids=["kodaira-dimension", "class-required", "unknown-class", "rank-one",
        "canonical-grid", "fiber-weight-shape", "unknown-profile", "tensor-grids",
        "no-summands", "fiber-multiple", "hermitian-verdict", "kahler-verdict",
        "total-scalar-image"])
def test_each_model_refusal_names_its_cause(build, message):
    with pytest.raises(DescriptorError) as refused:
        build()
    assert type(refused.value) is DescriptorError
    assert str(refused.value) == message


# ---------------------------------------------------------------------------
# each test below fails when one statement of geom_core is replaced by `pass`

def test_a_curve_model_freezes_a_copy_of_its_density():
    lam = np.ones((8, 8))
    curve = CurveModel(2, 8, lam)
    assert lam.flags.writeable and not np.shares_memory(lam, curve.lam)


@pytest.mark.parametrize("degree, kappa, message", [
    (1.0, np.full((8, 8), np.pi), "line bundle degree must be an integer"),
    # abs(NaN - degree) > tol is False, so the degree check alone admits it
    (1, np.where(np.eye(8, dtype=bool), np.nan, np.pi),
     "curvature density entries must be finite"),
], ids=["float-degree", "nan-density"])
def test_a_line_bundle_refuses_a_float_degree_and_a_nan_density(degree, kappa, message):
    with pytest.raises(DescriptorError, match=message):
        LineBundleModel(degree, kappa, CurveModel.flat(2, 8))


def test_a_split_bundle_stores_its_summands_as_a_tuple():
    line = _line(1)
    assert SplitBundle([line]).summands == (line,)


def test_a_fiber_simplex_point_is_a_read_only_vector():
    with pytest.raises(DescriptorError, match="weights must be a nonempty vector"):
        FiberSimplexPoint([[1.0]])
    point = FiberSimplexPoint([0.5, 0.5])
    assert point.rank == 2 and not point.weights.flags.writeable


def test_a_one_one_form_stores_read_only_copies_and_a_float_multiple():
    base, s1 = np.zeros((1, 8, 8)), np.array([0.5])
    form = OneOneForm(base, s1, -2)
    for stored, given in ((form.base_component, base), (form.s1, s1)):
        assert not stored.flags.writeable and not np.shares_memory(stored, given)
    assert type(form.fs_multiple) is float


def test_a_non_square_profile_csv_is_refused_naming_the_file(tmp_path):
    doc = {"genus": 2, "resolution": 8,
           "summands": [{"degree": 0, "profile": {"file": "wide.csv"}}]}
    (tmp_path / "bundle.json").write_text(json.dumps(doc))
    (tmp_path / "wide.csv").write_text("0,0,0\n0,0,0\n")
    with pytest.raises(DescriptorError, match=r"wide\.csv is \(2, 3\), expected square"):
        load_bundle_descriptor(tmp_path / "bundle.json")


def test_a_dict_descriptor_reads_its_profile_from_the_working_directory(tmp_path, monkeypatch):
    np.savetxt(tmp_path / "kappa.csv", np.full((8, 8), np.pi), delimiter=",")
    monkeypatch.chdir(tmp_path)
    _, bundle = load_bundle_descriptor(
        {"genus": 2, "resolution": 8,
         "summands": [{"degree": 1, "profile": {"file": "kappa.csv"}}]})
    assert bundle.summands[0].measured_degree() == pytest.approx(1.0, abs=1e-10)


def test_a_ragged_field_is_refused_with_numpy_s_reason():
    with pytest.raises(DescriptorError, match="expected a real area density: setting an array "
                                              "element with a sequence"):
        CurveModel(2, 8, [[1.0], [2.0, 3.0]])
