"""Metric persistence: the CSV writer's layout, and the binary twin that
load_metric takes in place of a parse only when its digests match the CSVs."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import kahler_test_potential, random_metric, trig_field4
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scalarflat import (DescriptorError, MetricModel4T, RicciField, chern_ricci, conformal_ricci,
                        conformal_scalar_flat)
from scalarflat import curvature
from scalarflat.cli import run
from scalarflat.curvature import _write_grid_csv, load_metric, save_field4, save_metric

SPECIAL_VALUES = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                  1e300, -1e300, 1e-300, -1e-300, np.inf, -np.inf, np.nan)


@st.composite
def grids(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    elements = st.one_of(st.floats(), st.sampled_from(SPECIAL_VALUES))
    return draw(arrays(np.float64, (n, n, n, n), elements=elements))


@pytest.fixture(scope="module")
def writer_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("writer")


@given(grids())
def test_grid_writer_matches_savetxt_byte_for_byte(writer_dir, values):
    directory = writer_dir
    n = values.shape[0]
    np.savetxt(directory / "reference.csv", values.reshape(n ** 3, n), delimiter=",",
               header=f"N={n} component=11")
    digest = _write_grid_csv(directory / "chunked.csv", values, "11")
    written = (directory / "chunked.csv").read_bytes()
    assert written == (directory / "reference.csv").read_bytes()
    assert digest == hashlib.sha256(written).hexdigest()


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=4000))
def test_formatter_matches_percent_on_random_bit_patterns(seed, size):
    # every float64 is equally likely, so about a fifth of the values lie
    # outside the fast path's magnitudes or are not finite
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2 ** 64, size, dtype=np.uint64).view(np.float64)
    separators = rng.choice(np.frombuffer(b",\n", dtype=np.uint8), size)
    expected = "".join("%.18e" % v + chr(sep)
                       for v, sep in zip(values.tolist(), separators.tolist()))
    assert curvature._format_e18(values, separators) == expected.encode("ascii")


def count_fallbacks(monkeypatch):
    """Make curvature._fallback_text record each value it formats; returns that list."""
    formatted = []
    fallback = curvature._fallback_text

    def counting(value):
        formatted.append(value)
        return fallback(value)

    monkeypatch.setattr(curvature, "_fallback_text", counting)
    return formatted


def test_powers_of_ten_and_their_neighbours_take_the_fast_path(monkeypatch):
    # log10 misses floor(log10 |x|) by one for about half of these, and the
    # exponent is corrected without the fallback
    powers = np.array([float(Fraction(10) ** k) for k in range(-239, 240)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    values = np.concatenate([values, -values])
    separators = np.full(values.size, ord(","), dtype=np.uint8)
    formatted = count_fallbacks(monkeypatch)
    expected = "".join("%.18e," % v for v in values.tolist())
    assert curvature._format_e18(values, separators) == expected.encode("ascii")
    # the one tie: (1e14 - 2^-6) * 10^5 ends in .5 exactly
    assert formatted == [99999999999999.984375, -99999999999999.984375]


#: a value next to a rounding tie of %.18e: 10^18 times it lies 5.8e-11 below
#: 1617164631359264026.5 (found by a search over uniform draws in [0.5, 2))
NEAR_TIE = 1.617164631359264
FALLBACK_VALUES = (np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308 / 3,
                   1e-300, 1e300, 1e240, -1e240, NEAR_TIE)


def test_every_fallback_branch_matches_savetxt(tmp_path, monkeypatch):
    scaled = Fraction(NEAR_TIE) * 10 ** 18
    assert 0 < abs(scaled - math.floor(scaled) - Fraction(1, 2)) <= curvature._TIE_GUARD
    n = 8
    values = 1.0 + 0.1 * trig_field4(n, np.random.default_rng(2))
    values[3, 4, 2:7:2, 1:6:2] = np.reshape(FALLBACK_VALUES[:9], (3, 3))
    values[3, 5, 0, 7] = NEAR_TIE
    formatted = count_fallbacks(monkeypatch)
    _write_grid_csv(tmp_path / "chunked.csv", values, "11")
    np.savetxt(tmp_path / "reference.csv", values.reshape(n ** 3, n), delimiter=",",
               header=f"N={n} component=11")
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert np.array_equal(np.array(formatted), np.array(FALLBACK_VALUES), equal_nan=True)


def test_writer_matches_savetxt_on_the_mild_metric_and_its_potential(tmp_path):
    n = 16
    metric = MetricModel4T.from_kahler_potential(kahler_test_potential(n, 0.1 / np.pi ** 2))
    solution = conformal_scalar_flat(metric)
    save_metric(metric, tmp_path / "metric")
    save_field4(tmp_path / "f.csv", solution.f)
    grids = {"metric/g11.csv": ("11", metric.g11), "metric/g22.csv": ("22", metric.g22),
             "metric/g12_re.csv": ("12re", metric.g12.real),
             "metric/g12_im.csv": ("12im", metric.g12.imag), "f.csv": ("f", solution.f)}
    for name, (component, grid) in grids.items():
        np.savetxt(tmp_path / "reference.csv", grid.reshape(n ** 3, n), delimiter=",",
                   header=f"N={n} component={component}")
        assert (tmp_path / name).read_bytes() == (tmp_path / "reference.csv").read_bytes()


def count_parses(monkeypatch):
    """Make np.loadtxt record each path it parses; returns that list."""
    calls = []
    loadtxt = np.loadtxt

    def counting(*args, **kwargs):
        calls.append(args[0])
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
    return calls


def count_grid_reads(monkeypatch):
    """Make curvature._read_grid_csv record each path it reads; returns that list."""
    calls = []
    read = curvature._read_grid_csv

    def counting(path, *args):
        calls.append(path)
        return read(path, *args)

    monkeypatch.setattr(curvature, "_read_grid_csv", counting)
    return calls


def edit_manifest(manifest, edit):
    doc = json.loads(manifest.read_text())
    edit(doc)
    manifest.write_text(json.dumps(doc))


def edit_first_value(path, text):
    """Replace the first value of a stored grid CSV with `text`."""
    lines = path.read_text().split("\n")
    values = lines[1].split(",")
    values[0] = text
    lines[1] = ",".join(values)
    path.write_text("\n".join(lines))


@pytest.fixture
def saved(tmp_path):
    metric = random_metric(6, np.random.default_rng(5))
    return metric, save_metric(metric, tmp_path / "metric")


def test_twin_load_is_bit_equal_to_a_parse(saved, monkeypatch):
    metric, manifest = saved
    parses = count_parses(monkeypatch)
    reads = count_grid_reads(monkeypatch)
    from_twin = load_metric(manifest)
    assert parses == []
    # the twin's digests cover each CSV's header, so a verified CSV is only hashed
    assert reads == []
    edit_manifest(manifest, lambda doc: doc.pop("binary"))
    parsed = load_metric(manifest)
    assert len(parses) == 4
    assert len(reads) == 4
    assert np.array_equal(from_twin.g, parsed.g)
    assert from_twin.g.tobytes() == parsed.g.tobytes() == metric.g.tobytes()


def test_edited_csv_value_is_seen_after_load(saved, monkeypatch):
    metric, manifest = saved
    edited = float(metric.g11[0, 0, 0, 0]) + 0.25
    edit_first_value(manifest.parent / "g11.csv", "%.18e" % edited)
    parses = count_parses(monkeypatch)
    loaded = load_metric(manifest)
    assert [p.name for p in parses] == ["g11.csv"]
    assert loaded.g[0, 0, 0, 0, 0, 0].real == edited != metric.g[0, 0, 0, 0, 0, 0].real


@pytest.mark.parametrize("command", [["curvature"], ["solve", "scalar-flat"]],
                         ids=["curvature", "solve"])
@pytest.mark.parametrize("fname, text", [("g12_re.csv", "nan"), ("g11.csv", "inf")])
def test_non_finite_csv_value_exits_2(saved, tmp_path, capsys, monkeypatch, command,
                                      fname, text):
    _metric, manifest = saved
    edit_first_value(manifest.parent / fname, text)
    parses = count_parses(monkeypatch)
    code = run(command + ["--metric", str(manifest), "--out", str(tmp_path / "out.json")])
    payload = json.loads(capsys.readouterr().out)
    # the edit breaks the twin's digest for that file, so its CSV is parsed
    assert [p.name for p in parses] == [fname]
    assert code == 2
    assert payload["error"] == "DescriptorError"
    assert "finite" in payload["message"]


@pytest.mark.parametrize("command", [["curvature"], ["solve", "scalar-flat"]],
                         ids=["curvature", "solve"])
def test_a_stored_metric_whose_determinant_overflows_exits_2(tmp_path, capsys, command):
    # finite entries, but g11 g22 = 1e400 at one point: the load warned
    # "overflow encountered in multiply", and with warnings off the solve
    # exited 0 with NaN residuals
    manifest = save_metric(MetricModel4T.flat(8), tmp_path / "metric")
    for name in ("g11.csv", "g22.csv"):
        edit_first_value(manifest.parent / name, "1e200")
    code = run(command + ["--metric", str(manifest), "--out", str(tmp_path / "out.json")])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["error"] == "DescriptorError"
    assert "determinant in [1.000e+00, inf]" in payload["message"]
    assert not (tmp_path / "out.f.csv").exists()


@pytest.mark.parametrize("command", [["curvature"], ["solve", "scalar-flat"]],
                         ids=["curvature", "solve"])
def test_a_stored_metric_whose_inverse_overflows_exits_2(tmp_path, capsys, command):
    # det = 1e-320 (subnormal) at one point: the metric was admitted, and
    # g22 / det warned "overflow encountered in divide"; with warnings off
    # both commands printed NaN figures
    manifest = save_metric(MetricModel4T.flat(8), tmp_path / "metric")
    edit_first_value(manifest.parent / "g11.csv", "1e-320")
    code = run(command + ["--metric", str(manifest), "--out", str(tmp_path / "out.json")])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["error"] == "DescriptorError"
    assert "trace of the inverse in [2.000e+00, inf]" in payload["message"]
    assert not (tmp_path / "out.f.csv").exists()


@pytest.mark.parametrize("command", [["curvature"], ["solve", "scalar-flat"]],
                         ids=["curvature", "solve"])
def test_a_stored_metric_whose_curvature_overflows_exits_2(tmp_path, capsys, command):
    # g22 = 1e-305 at one point: the determinant and the inverse stay in
    # range, but g^{2 2bar} = 1e305 times a derivative of log det g does not;
    # curvature printed an integral of -Infinity, and with warnings as
    # errors both commands crashed on "overflow encountered in multiply"
    manifest = save_metric(MetricModel4T.flat(8), tmp_path / "metric")
    edit_first_value(manifest.parent / "g22.csv", "1e-305")
    code = run(command + ["--metric", str(manifest), "--out", str(tmp_path / "out.json")])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["error"] == "DescriptorError"
    assert payload["message"] == "scalar curvature entries must be finite"
    assert not (tmp_path / "out.f.csv").exists()


@pytest.mark.parametrize("base", ["flat", "mild"])
def test_a_stored_metric_whose_total_overflows_is_refused(tmp_path, capsys, base):
    # g11 = 1e307 at one point: det g and s stay finite, but s det g and the
    # wedge integrand overflow; curvature printed "integral": Infinity and
    # "cross_check_residual": NaN at exit 0
    metric = MetricModel4T.from_kahler_potential(kahler_test_potential(8, 0.1 / np.pi ** 2))
    if base == "flat":
        metric = MetricModel4T.flat(8)
    manifest = save_metric(metric, tmp_path / "metric")
    edit_first_value(manifest.parent / "g11.csv", "1e307")
    code = run(["curvature", "--metric", str(manifest), "--out", str(tmp_path / "out.json")])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["error"] == "DescriptorError"
    assert payload["message"] == "total scalar curvature entries must be finite"
    assert not (tmp_path / "out.json").exists()
    for total in (curvature.total_scalar, curvature.total_scalar_routes):
        with pytest.raises(DescriptorError, match="total scalar curvature"):
            total(load_metric(manifest))


def test_a_solve_whose_defect_norm_overflows_exits_4(tmp_path, capsys):
    # g11 = 1e-290 at one point: s_G is finite, but the l2 norm of the
    # defect overflows; that round's correction does not halve the defect,
    # so the solve stalls, where the norm's "overflow encountered in dot"
    # once escaped as a warning
    manifest = save_metric(MetricModel4T.flat(8), tmp_path / "metric")
    edit_first_value(manifest.parent / "g11.csv", "1e-290")
    code = run(["solve", "scalar-flat", "--metric", str(manifest),
                "--out", str(tmp_path / "out.json")])
    payload = json.loads(capsys.readouterr().out)
    assert code == 4
    assert payload["error"] == "ConvergenceError"
    assert not (tmp_path / "out.f.csv").exists()


MALFORMED_CSVS = {
    "header only": lambda lines: lines[:1],
    "one row": lambda lines: lines[:2],
    "one column": lambda lines: lines[:1] + [line.split(",")[0] for line in lines[1:]],
}


@pytest.mark.parametrize("command", [["curvature"], ["solve", "scalar-flat"]],
                         ids=["curvature", "solve"])
@pytest.mark.parametrize("damage", list(MALFORMED_CSVS))
def test_csv_that_is_not_a_flattened_4_cube_exits_2(saved, tmp_path, capsys, command,
                                                     damage):
    _metric, manifest = saved
    path = manifest.parent / "g11.csv"
    lines = [line for line in path.read_text().split("\n") if line]
    path.write_text("\n".join(MALFORMED_CSVS[damage](lines)) + "\n")
    code = run(command + ["--metric", str(manifest), "--out", str(tmp_path / "out.json")])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["error"] == "DescriptorError"


def test_csv_with_only_its_header_is_named_as_empty(saved):
    _metric, manifest = saved
    path = manifest.parent / "g11.csv"
    path.write_text(path.read_text().split("\n", 1)[0] + "\n")
    with pytest.raises(DescriptorError, match="no grid values"):
        load_metric(manifest)


def test_swapped_component_files_fail_the_header_check(saved):
    _metric, manifest = saved

    def swap(doc):
        components = doc["components"]
        components["11"], components["22"] = components["22"], components["11"]

    edit_manifest(manifest, swap)
    with pytest.raises(DescriptorError, match="expected component=11") as with_twin:
        load_metric(manifest)
    edit_manifest(manifest, lambda doc: doc.pop("binary"))
    with pytest.raises(DescriptorError) as without_twin:
        load_metric(manifest)
    assert str(with_twin.value) == str(without_twin.value)


@pytest.mark.parametrize("damage", ["truncated", "garbage", "empty", "missing", "no key",
                                    "plain array"])
def test_unusable_twin_falls_back_to_the_parse(saved, monkeypatch, damage):
    metric, manifest = saved
    twin = manifest.parent / "metric.npz"
    if damage == "truncated":
        twin.write_bytes(twin.read_bytes()[: twin.stat().st_size // 2])
    elif damage == "garbage":
        twin.write_bytes(b"not an npz archive\n" * 64)
    elif damage == "plain array":
        # .npy bytes, which np.load returns as one array, not an archive
        with open(twin, "wb") as handle:
            np.save(handle, metric.g11)
    elif damage == "empty":
        twin.write_bytes(b"")
    elif damage == "missing":
        twin.unlink()
    else:
        edit_manifest(manifest, lambda doc: doc.pop("binary"))
    parses = count_parses(monkeypatch)
    loaded = load_metric(manifest)
    assert len(parses) == 4
    assert loaded.g.tobytes() == metric.g.tobytes()


MALFORMED_CONTENTS = {
    "manifest not JSON": ("metric.json", lambda path: path.write_text("{not json")),
    "value not a float": ("g11.csv", lambda path: edit_first_value(path, "abc")),
    "byte not UTF-8": ("g22.csv", lambda path: path.write_bytes(
        path.read_bytes().replace(b"\n", b"\n\xff", 1))),
}


@pytest.mark.parametrize("document", ["[1, 2]", "null", '"metric.json"', "8"])
def test_manifest_that_is_not_a_json_object_exits_2(saved, capsys, document):
    _metric, manifest = saved
    manifest.write_text(document + "\n")
    code = run(["curvature", "--metric", str(manifest)])
    assert code == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "DescriptorError",
        "message": f"{manifest}: a metric manifest must be a JSON object"}


@pytest.mark.parametrize("damage", list(MALFORMED_CONTENTS))
def test_malformed_metric_contents_exit_2_naming_the_file(saved, capsys, damage):
    _metric, manifest = saved
    fname, spoil = MALFORMED_CONTENTS[damage]
    path = manifest.parent / fname
    spoil(path)
    code = run(["curvature", "--metric", str(manifest)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["error"] == "DescriptorError"
    assert str(path) in payload["message"]


@pytest.mark.parametrize("field, name", [
    ("11", "{root}/g11.csv"), ("11", "../g11.csv"), ("11", "sub/g11.csv"), ("11", "."),
    ("11", ".."), ("11", ""), ("11", "g11\0.csv"), ("11", "{root}/secret.txt"),
    ("binary", "{root}/metric.npz"), ("binary", "../metric.npz"), ("binary", "."),
])
def test_manifest_names_only_files_in_its_own_directory(saved, capsys, monkeypatch, field,
                                                        name):
    _metric, manifest = saved
    directory = manifest.parent
    root = directory.parent
    # copies that would load as the metric's own files if their names were followed
    (directory / "sub").mkdir()
    for copy in (root / "g11.csv", directory / "sub" / "g11.csv"):
        copy.write_bytes((directory / "g11.csv").read_bytes())
    (root / "metric.npz").write_bytes((directory / "metric.npz").read_bytes())
    (root / "secret.txt").write_text("secret first line\n")
    name = name.format(root=root)

    def rename(doc):
        if field == "binary":
            doc["binary"] = name
        else:
            doc["components"][field] = name

    edit_manifest(manifest, rename)
    parses = count_parses(monkeypatch)
    code = run(["curvature", "--metric", str(manifest)])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == 2
    assert payload["error"] == "DescriptorError"
    assert str(manifest) in payload["message"]
    assert parses == [] and "secret first line" not in out


def test_missing_csv_with_the_twin_present_exits_2(saved, capsys):
    _metric, manifest = saved
    (manifest.parent / "g22.csv").unlink()
    code = run(["curvature", "--metric", str(manifest)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["error"] == "FileNotFoundError"


#: the fields a metric stores, 32 bytes per point; det and the inverse are computed on access
ENTRIES = ("g11", "g22", "g12")


def test_metric_fields_are_read_only_and_not_the_callers_array():
    g = np.array(random_metric(4, np.random.default_rng(1)).g)
    metric = MetricModel4T(g)
    stored = [value for value in vars(metric).values() if isinstance(value, np.ndarray)]
    assert len(stored) == len(ENTRIES) and all(field.ndim == 4 for field in stored)
    derived = [metric.det, metric.g, metric.inverse]
    for field in [getattr(metric, name) for name in ENTRIES] + derived:
        assert not field.flags.writeable and field.flags.c_contiguous
        assert not np.shares_memory(field, g)
    # det and the 2x2 fields are built anew on each access
    assert not np.shares_memory(metric.det, metric.det)
    assert not np.shares_memory(metric.g, metric.g)
    assert not np.shares_memory(metric.inverse, metric.inverse)
    g[...] = 0.0
    assert float(metric.det.min()) > 0.0


def test_ricci_fields_are_read_only_and_not_the_callers_array():
    metric = random_metric(4, np.random.default_rng(1))
    ric = np.array(chern_ricci(metric).ric)
    public = RicciField(ric)
    stored = [value for value in vars(public).values() if isinstance(value, np.ndarray)]
    assert len(stored) == 3 and all(field.ndim == 4 for field in stored)
    shifted = conformal_ricci(public, trig_field4(4, np.random.default_rng(2)))
    for ricci in (public, chern_ricci(metric), shifted):
        assert ricci.r11.dtype == ricci.r22.dtype == np.dtype(float)
        assert ricci.r12.dtype == np.dtype(complex)
        for field in (ricci.r11, ricci.r22, ricci.r12, ricci.ric):
            assert not field.flags.writeable and field.flags.c_contiguous
            assert not np.shares_memory(field, ric)
        # the 2x2 field is built anew on each access
        assert not np.shares_memory(ricci.ric, ricci.ric)
    expected = public.ric
    ric[...] = 0.0
    assert public.ric.tobytes() == expected.tobytes()


def test_ricci_field_refuses_an_asymmetric_or_non_finite_field():
    ricci = chern_ricci(random_metric(4, np.random.default_rng(1)))
    asymmetric, non_finite = np.array(ricci.ric), np.array(ricci.ric)
    asymmetric[1, 2, 3, 0, 0, 1] += 1e-3
    non_finite[1, 2, 3, 0, 1, 1] = np.inf
    with pytest.raises(DescriptorError, match="Ricci field is not Hermitian"):
        RicciField(asymmetric)
    with pytest.raises(DescriptorError, match="Ricci field entries must be finite"):
        RicciField(non_finite)
    # a finite f whose 2 ddbar f overflows, with numpy's overflow warnings off
    with np.errstate(all="ignore"), pytest.raises(DescriptorError,
                                                  match="Ricci field entries must be finite"):
        conformal_ricci(ricci, 1e307 * trig_field4(4, np.random.default_rng(2)))


@pytest.mark.parametrize("path", ["flat", "conformal", "kahler", "rescaled", "loaded"])
def test_component_paths_match_the_public_constructor_bit_for_bit(path, tmp_path):
    n = 6
    rng = np.random.default_rng(3)
    build = {
        "flat": lambda: MetricModel4T.flat(n),
        "conformal": lambda: MetricModel4T.conformal(0.3 * trig_field4(n, rng)),
        "kahler": lambda: MetricModel4T.from_kahler_potential(kahler_test_potential(n, 0.1)),
        "rescaled": lambda: random_metric(n, rng).rescaled(0.2 * trig_field4(n, rng)),
        "loaded": lambda: load_metric(save_metric(random_metric(n, rng), tmp_path)),
    }
    metric = build[path]()
    public = MetricModel4T(metric.g)
    for name in ENTRIES + ("det", "inverse"):
        ours, theirs = getattr(metric, name), getattr(public, name)
        assert ours.dtype == theirs.dtype, name
        assert ours.tobytes() == theirs.tobytes(), name


@pytest.mark.parametrize("off_diagonal", [complex(-0.0, -0.0), complex(-0.0, 0.25)])
@pytest.mark.parametrize("source", ["twin", "parse"])
def test_save_load_save_keeps_every_csv_byte_of_signed_zeros(tmp_path, off_diagonal, source):
    n = 8
    one = np.ones((n,) * 4)
    metric = MetricModel4T._from_components(one, one.copy(), np.full(one.shape, off_diagonal))
    first = save_metric(metric, tmp_path / "first")
    if source == "parse":
        edit_manifest(first, lambda doc: doc.pop("binary"))
    second = save_metric(load_metric(first), tmp_path / "second")
    for fname in ("g11.csv", "g22.csv", "g12_re.csv", "g12_im.csv"):
        assert (second.parent / fname).read_bytes() == (first.parent / fname).read_bytes(), fname
