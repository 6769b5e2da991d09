"""Metric persistence: the CSV writer's layout, and the binary twin that
load_metric takes in place of a parse only when its digests match the CSVs."""

import hashlib
import json

import numpy as np
import pytest
from conftest import random_metric
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
    path = manifest.parent / "g11.csv"
    lines = path.read_text().split("\n")
    values = lines[1].split(",")
    edited = float(values[0]) + 0.25
    values[0] = "%.18e" % edited
    lines[1] = ",".join(values)
    path.write_text("\n".join(lines))
    parses = count_parses(monkeypatch)
    loaded = load_metric(manifest)
    assert [p.name for p in parses] == ["g11.csv"]
    assert loaded.g[0, 0, 0, 0, 0, 0].real == edited != metric.g[0, 0, 0, 0, 0, 0].real


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


def test_metric_fields_are_read_only_and_not_the_callers_array():
    g = np.array(random_metric(4, np.random.default_rng(1)).g)
    metric = MetricModel4T(g)
    for field in (metric.g, metric.det, metric.inverse):
        assert not field.flags.writeable and field.flags.c_contiguous
    g[...] = 0.0
    assert float(metric.det.min()) > 0.0
