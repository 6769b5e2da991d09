"""Metric persistence: the CSV writer's layout, and the binary twin that
load_metric takes in place of a parse only when its digests match the CSVs."""

import hashlib
import json

import numpy as np
import pytest
from conftest import kahler_test_potential, random_metric, trig_field4
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scalarflat import DescriptorError, MetricModel4T
from scalarflat.cli import run
from scalarflat.curvature import _write_grid_csv, load_metric, save_metric

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


def count_parses(monkeypatch):
    """Make np.loadtxt record each path it parses; returns that list."""
    calls = []
    loadtxt = np.loadtxt

    def counting(*args, **kwargs):
        calls.append(args[0])
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
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
    from_twin = load_metric(manifest)
    assert parses == []
    edit_manifest(manifest, lambda doc: doc.pop("binary"))
    parsed = load_metric(manifest)
    assert len(parses) == 4
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


@pytest.mark.parametrize("damage", ["truncated", "garbage", "empty", "missing", "no key"])
def test_unusable_twin_falls_back_to_the_parse(saved, monkeypatch, damage):
    metric, manifest = saved
    twin = manifest.parent / "metric.npz"
    if damage == "truncated":
        twin.write_bytes(twin.read_bytes()[: twin.stat().st_size // 2])
    elif damage == "garbage":
        twin.write_bytes(b"not an npz archive\n" * 64)
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


def test_missing_csv_with_the_twin_present_exits_2(saved, capsys):
    _metric, manifest = saved
    (manifest.parent / "g22.csv").unlink()
    code = run(["curvature", "--metric", str(manifest)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["error"] == "FileNotFoundError"


ENTRIES = ("g11", "g22", "g12", "det", "inv11", "inv22", "inv12")


def test_metric_fields_are_read_only_and_not_the_callers_array():
    g = np.array(random_metric(4, np.random.default_rng(1)).g)
    metric = MetricModel4T(g)
    stored = [value for value in vars(metric).values() if isinstance(value, np.ndarray)]
    assert len(stored) == len(ENTRIES) and all(field.ndim == 4 for field in stored)
    for field in [getattr(metric, name) for name in ENTRIES] + [metric.g, metric.inverse]:
        assert not field.flags.writeable and field.flags.c_contiguous
        assert not np.shares_memory(field, g)
    # the 2x2 fields are built anew on each access
    assert not np.shares_memory(metric.g, metric.g)
    assert not np.shares_memory(metric.inverse, metric.inverse)
    g[...] = 0.0
    assert float(metric.det.min()) > 0.0


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
    for name in ENTRIES:
        ours, theirs = getattr(metric, name), getattr(public, name)
        assert ours.dtype == theirs.dtype, name
        assert ours.tobytes() == theirs.tobytes(), name
