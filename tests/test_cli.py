import json

import numpy as np
import pytest
from conftest import kahler_test_potential
from test_golden_outputs import GOLDEN, digest, sweep

import scalarflat
from scalarflat import (
    CurveModel,
    DescriptorError,
    MetricModel4T,
    MinimalSurfaceDescriptor,
    kx_certificate_split,
    kx_curvature_form,
    rc_scan,
)
from scalarflat import cli
from scalarflat.catalog import catalog_entries, check_entry
from scalarflat.classifier import classify_split
from scalarflat.cli import build_parser, run
from scalarflat.curvature import save_metric
from scalarflat.positivity import in_certified_range


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_classify_ruled_success(capsys):
    code, payload = run_json(capsys, ["classify", "ruled", "--genus", "2", "--m", "2"])
    assert code == 0
    assert payload["scalar_flat_hermitian"] == "yes"
    assert payload["fired_case"] == "case (4)"


def test_classify_ruled_nagata_violation(capsys):
    code, payload = run_json(capsys, ["classify", "ruled", "--genus", "2", "--m", "3"])
    assert code == 2
    assert payload["error"] == "NagataViolation"


def test_unknown_flag_exits_2(capsys):
    code = run(["classify", "ruled", "--genus", "2", "--m", "2", "--bogus"])
    captured = capsys.readouterr()
    assert code == 2
    assert "usage" in captured.err


@pytest.mark.parametrize("surface_class", ["K3", "Hopf"])
@pytest.mark.parametrize("flags", [["--genus", "2", "--m", "5"], ["--genus", "2"], ["--m", "0"]],
                         ids=["genus and m", "genus", "m"])
def test_genus_and_m_on_a_class_other_than_ruled_exit_2(capsys, surface_class, flags):
    code, payload = run_json(capsys, ["classify", "minimal", "--class", surface_class] + flags)
    assert code == 2
    assert payload["error"] == "DescriptorError"
    assert "Ruled" in payload["message"]
    with pytest.raises(DescriptorError, match="Ruled"):
        MinimalSurfaceDescriptor(kodaira_dim=2.0, genus=2, m=0)


def test_classify_split_and_minimal(capsys):
    code, payload = run_json(capsys,
                             ["classify", "split", "--genus", "2", "--deg-l", "0"])
    assert code == 0
    assert payload["scalar_flat_kahler"] == "yes"
    code, payload = run_json(capsys, ["classify", "minimal", "--class", "Hopf"])
    assert code == 0
    assert payload["verdict"] == "rejected"
    code, payload = run_json(capsys, ["classify", "minimal", "--class", "Ruled",
                                      "--genus", "2", "--m", "0"])
    assert code == 0
    assert payload["verdict"] == "admits"


def test_rc_check(capsys):
    code, payload = run_json(capsys, ["rc-check", "--genus", "2", "--deg-l", "1",
                                      "--n", "2"])
    assert code == 0
    assert payload["certificate"]["issued"]
    assert payload["certificate"]["margin"] == pytest.approx(np.pi, abs=1e-12)
    assert payload["rc_scan"]["rc_positive"]
    code, payload = run_json(capsys, ["rc-check", "--genus", "0", "--deg-l", "1"])
    assert code == 2


def test_rc_check_on_the_boundary_issues_nothing(capsys):
    # (n-1) |deg L| = 2g - 2 with a float margin of +2.8e-14
    argv = ["--genus", "34", "--deg-l", "22", "--n", "4"]
    code, payload = run_json(capsys, ["rc-check"] + argv)
    assert code == 0
    assert payload["certificate"]["margin"] > 0.0
    assert not payload["certificate"]["issued"]
    assert payload["rc_scan"] is None
    code, payload = run_json(capsys, ["classify", "split"] + argv)
    assert code == 0
    assert payload["scalar_flat_hermitian"] == "no"


def test_boundary_witness_names_the_range_when_the_margin_is_positive(capsys):
    code, payload = run_json(capsys, ["rc-check", "--genus", "34", "--deg-l", "22",
                                      "--n", "4"])
    assert code == 0
    witness = payload["certificate"]["witness"]
    assert witness["value"] > 0.0
    assert witness["violation"] == "outside certified range"
    # where the boundary margin is exactly zero the witness says so
    code, payload = run_json(capsys, ["rc-check", "--genus", "2", "--deg-l", "2"])
    assert code == 0
    assert payload["certificate"]["witness"]["violation"] == "margin not positive"


def test_certificate_output_does_not_depend_on_the_resolution():
    # the certificate's densities are constant, so every chart gives the same
    # scanned minimum and witness
    issued = set()
    for argv in sweep():
        if argv[0] in ("rc-check", "report"):
            g, deg_l, n = (int(argv[i]) for i in (2, 4, 6))
            if n >= 2 and in_certified_range(g, abs(deg_l), n):
                issued.add((g, abs(deg_l), n))
    assert len(issued) > 100
    for g, deg_l, n in sorted(issued):
        certificate = kx_certificate_split(g, deg_l, n)
        scans = [rc_scan(kx_curvature_form(certificate, curve), curve).to_dict()
                 for curve in (CurveModel.flat(g, 8), CurveModel.flat(g, 64))]
        assert scans[0] == scans[1], (g, deg_l, n)


@pytest.mark.parametrize("genus", [10 ** 9, 10 ** 12])
@pytest.mark.parametrize("command", ["rc-check", "report"])
def test_certificate_is_issued_at_a_huge_genus(capsys, command, genus):
    # pi (2g - 2) loses its last bits on the way through the chart's grid sum,
    # far more than 1e-8 of a degree at g = 1e9
    argv = ["--genus", str(genus), "--deg-l", "1"]
    code, payload = run_json(capsys, [command] + argv)
    assert code == 0
    assert payload["certificate"]["issued"] is True
    scan = payload["rc_scan"]
    assert scan["rc_positive"] is True
    assert scan["min_max_eigenvalue"] == pytest.approx(payload["certificate"]["margin"],
                                                       rel=1e-12)
    code, payload = run_json(capsys, ["classify", "split"] + argv)
    assert code == 0
    assert payload["scalar_flat_hermitian"] == "yes"


@pytest.mark.parametrize("command", [["classify", "split"], ["report"]])
def test_negative_genus_exits_2_for_every_rank(capsys, command):
    for n in ("2", "3", "4"):
        code, payload = run_json(capsys, command + ["--genus", "-1", "--deg-l", "0",
                                                    "--n", n])
        assert code == 2
        assert payload["error"] == "DescriptorError"


def test_report_combines_pipeline(capsys):
    code, payload = run_json(capsys, ["report", "--genus", "6", "--deg-l", "5",
                                      "--n", "2"])
    assert code == 0
    assert payload["classification"]["scalar_flat_hermitian"] == "yes"
    assert payload["certificate"]["margin"] == pytest.approx(5 * np.pi, abs=1e-12)
    assert payload["rc_scan"]["min_max_eigenvalue"] == pytest.approx(5 * np.pi, abs=1e-9)


def test_catalog_listing_and_regression(capsys):
    code, payload = run_json(capsys, ["catalog"])
    assert code == 0
    assert len(payload["entries"]) >= 20
    code, payload = run_json(capsys, ["catalog", "--run-all"])
    assert code == 0
    assert payload["all_pass"]


def test_catalog_entries_have_provenance():
    for entry in catalog_entries():
        assert entry.source
        ok, _actual, mismatches = check_entry(entry)
        assert ok, mismatches


def test_catalog_catches_a_wrong_hirzebruch_section_count(monkeypatch):
    # the entries' expected counts are frozen, so a wrong count patched into
    # the classifier (and into the catalog, should it ever compute them)
    # fails exactly the twists where k + 6 differs from max(9, k + 6)
    import scalarflat.catalog as catalog_module
    import scalarflat.classifier as classifier_module
    for module in (classifier_module, catalog_module):
        monkeypatch.setattr(module, "hirzebruch_anticanonical_h0", lambda k: k + 6,
                            raising=False)
    failed = {entry.name for entry in catalog_entries() if not check_entry(entry)[0]}
    assert failed == {"hirzebruch-0", "hirzebruch-1", "hirzebruch-2"}


def test_catalog_regression_failure_exits_3(capsys, monkeypatch):
    import scalarflat.cli as cli_module
    from scalarflat.catalog import CatalogEntry
    broken = CatalogEntry("broken", "ruled", {"genus": 2, "m": 2},
                          {"scalar_flat_hermitian": "no"},
                          "intentionally wrong expectation")
    monkeypatch.setattr(cli_module, "catalog_entries", lambda: [broken])
    code, payload = run_json(capsys, ["catalog", "--run-all"])
    assert code == 3
    assert not payload["all_pass"]
    assert payload["entries"][0]["mismatches"]


#: every exception class scalarflat exports, the base class included
DOMAIN_ERRORS = sorted(
    (value for value in vars(scalarflat).values()
     if isinstance(value, type) and issubclass(value, scalarflat.ScalarFlatError)),
    key=lambda cls: cls.__name__)


@pytest.mark.parametrize("error", DOMAIN_ERRORS, ids=lambda cls: cls.__name__)
def test_each_domain_error_maps_to_its_exit_code(capsys, monkeypatch, error):
    # raised from inside a handler: a JSON error, exit 4 for a stalled solve
    # and 2 for every other domain error (3 is a catalog regression only)
    def raising_load_metric(path):
        raise error("raised in the handler")

    monkeypatch.setattr(cli, "load_metric", raising_load_metric)
    code, payload = run_json(capsys, ["curvature", "--metric", "metric.json"])
    assert payload == {"error": error.__name__, "message": "raised in the handler"}
    assert code == (4 if error is scalarflat.ConvergenceError else 2)


def test_flat_metric_curvature_prints_positive_zeros(tmp_path, capsys):
    manifest = save_metric(MetricModel4T.flat(8), tmp_path / "metric")
    assert run(["curvature", "--metric", str(manifest)]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert [payload[key] for key in ("min", "max", "integral")] == [0.0] * 3
    assert "-0.0" not in out


def test_curvature_report_roundtrip(tmp_path, capsys):
    metric = MetricModel4T.from_kahler_potential(kahler_test_potential(8, 0.02))
    manifest = save_metric(metric, tmp_path / "metric")
    code, payload = run_json(capsys, ["curvature", "--metric", str(manifest),
                                      "--out", str(tmp_path / "report.json")])
    assert code == 0
    assert set(payload) == {"min", "max", "integral", "cross_check_residual"}
    assert abs(payload["integral"]) < 1e-8
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk == payload


def test_solve_scalar_flat_pipeline(tmp_path, capsys):
    metric = MetricModel4T.from_kahler_potential(
        kahler_test_potential(8, 0.1 / np.pi ** 2))
    manifest = save_metric(metric, tmp_path / "metric")
    out = tmp_path / "solution.json"
    code, payload = run_json(capsys, ["solve", "scalar-flat", "--metric", str(manifest),
                                      "--out", str(out)])
    assert code == 0
    assert payload["solve_residual"] < 1e-10
    assert payload["end_to_end_residual"] < 1e-6
    stored = json.loads(out.read_text())
    assert stored == payload
    assert (tmp_path / payload["f_csv"]).exists()


def test_solve_of_a_non_gauduchon_metric_exits_0(tmp_path, capsys):
    # e^u * flat with u = 0.2 sin(2 pi x1) is not Gauduchon; the solve needs
    # no such hypothesis
    t = np.arange(8) / 8
    u = np.broadcast_to(0.2 * np.sin(2 * np.pi * t[:, None, None, None]), (8,) * 4).copy()
    manifest = save_metric(MetricModel4T.conformal(u), tmp_path / "metric")
    code, payload = run_json(capsys, ["solve", "scalar-flat", "--metric", str(manifest),
                                      "--out", str(tmp_path / "solution.json")])
    assert code == 0
    assert payload["end_to_end_residual"] < 1e-6
    assert (tmp_path / "solution.f.csv").exists()


@pytest.mark.parametrize("command", [["curvature"], ["solve", "scalar-flat"]],
                         ids=["curvature", "solve"])
def test_out_file_holds_the_bytes_printed(tmp_path, capsys, command):
    metric = MetricModel4T.from_kahler_potential(
        kahler_test_potential(8, 0.1 / np.pi ** 2))
    manifest = save_metric(metric, tmp_path / "metric")
    out = tmp_path / "out.json"
    code = run(command + ["--metric", str(manifest), "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == capsys.readouterr().out.encode("utf-8")


def test_solve_unmeetable_tol_exits_4(tmp_path, capsys):
    metric = MetricModel4T.from_kahler_potential(
        kahler_test_potential(8, 0.1 / np.pi ** 2))
    manifest = save_metric(metric, tmp_path / "metric")
    code, payload = run_json(capsys, ["solve", "scalar-flat", "--metric", str(manifest),
                                      "--out", str(tmp_path / "solution.json"),
                                      "--tol", "1e-20"])
    assert code == 4
    assert payload["error"] == "ConvergenceError"
    assert "stalled" in payload["message"]
    assert not (tmp_path / "solution.json").exists()


def test_solve_of_a_metric_beyond_float32_range_exits_4(tmp_path, capsys):
    # e^-92 * (flat + a ripple): its inverse entries, about 1e40, overflow
    # float32, so its rounds run in float64 and the absolute tolerance stalls
    t = np.arange(8) / 8
    u = np.broadcast_to(-92 + 0.2 * np.sin(2 * np.pi * t[:, None, None, None]), (8,) * 4)
    manifest = save_metric(MetricModel4T.conformal(u.copy()), tmp_path / "metric")
    code, payload = run_json(capsys, ["solve", "scalar-flat", "--metric", str(manifest),
                                      "--out", str(tmp_path / "solution.json")])
    assert code == 4
    assert payload["error"] == "ConvergenceError"
    assert not (tmp_path / "solution.json").exists()
    assert not (tmp_path / "solution.f.csv").exists()


def test_missing_metric_file_exits_2(capsys):
    code, payload = run_json(capsys, ["curvature", "--metric", "no/such/metric.json"])
    assert code == 2


@pytest.mark.parametrize("where", ["metric dir", "manifest is a dir"])
def test_metric_path_naming_a_directory_exits_2(tmp_path, capsys, where):
    if where == "metric dir":
        path = tmp_path
    else:
        path = tmp_path / "metric.json"
        path.mkdir()
    code, payload = run_json(capsys, ["curvature", "--metric", str(path)])
    assert code == 2
    assert payload["error"] == "IsADirectoryError"


def test_solve_below_minimum_resolution_exits_2(tmp_path, capsys):
    manifest = save_metric(MetricModel4T.flat(2), tmp_path / "metric")
    code, payload = run_json(capsys, ["solve", "scalar-flat", "--metric", str(manifest),
                                      "--out", str(tmp_path / "solution.json")])
    assert code == 2
    assert payload["error"] == "DescriptorError"
    assert not (tmp_path / "solution.json").exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--tol", "0"],
    ["solve", "--tol=-1e-10"],
    ["solve", "--tol", "-1e-10"],
    ["solve", "--tol", "nan"],
    ["solve", "--tol", "inf"],
], ids=["solve tol 0", "solve negative tol", "solve negative tol after a space",
        "solve nan tol", "solve inf tol"])
def test_settings_that_cannot_be_met_exit_2(tmp_path, capsys, argv):
    metric = MetricModel4T.from_kahler_potential(
        kahler_test_potential(8, 0.1 / np.pi ** 2))
    manifest = save_metric(metric, tmp_path / "metric")
    argv = ["solve", "scalar-flat", "--metric", str(manifest),
            "--out", str(tmp_path / "solution.json")] + argv[1:]
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 2
    payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in output"))
    assert payload["error"] == "DescriptorError"
    assert not (tmp_path / "solution.json").exists()


@pytest.mark.parametrize("edit", [
    lambda doc: doc.pop("resolution"),
    lambda doc: doc.update(resolution="8"),
    lambda doc: doc.update(resolution=8.0),
    lambda doc: doc.pop("components"),
    lambda doc: doc["components"].pop("12im"),
    lambda doc: doc.update(binary=5),
], ids=["no resolution", "string resolution", "float resolution", "no components",
        "missing component", "non-string binary"])
def test_malformed_manifest_exits_2(tmp_path, capsys, edit):
    manifest = save_metric(MetricModel4T.flat(4), tmp_path / "metric")
    doc = json.loads(manifest.read_text())
    edit(doc)
    manifest.write_text(json.dumps(doc))
    code, payload = run_json(capsys, ["curvature", "--metric", str(manifest)])
    assert code == 2
    assert payload["error"] == "DescriptorError"
    assert str(manifest) in payload["message"]


def test_malformed_thread_count_exits_2(tmp_path, capsys, monkeypatch):
    metric = MetricModel4T.from_kahler_potential(kahler_test_potential(8, 0.02))
    manifest = save_metric(metric, tmp_path / "metric")
    monkeypatch.setenv("SCALARFLAT_THREADS", "abc")
    code, payload = run_json(capsys, ["curvature", "--metric", str(manifest)])
    assert code == 2
    assert payload["error"] == "ValueError"
    assert "SCALARFLAT_THREADS" in payload["message"] and "abc" in payload["message"]


def test_output_is_byte_deterministic(capsys):
    run(["classify", "split", "--genus", "6", "--deg-l", "5"])
    first = capsys.readouterr().out
    run(["classify", "split", "--genus", "6", "--deg-l", "5"])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("amplitude", [0.1 / np.pi ** 2, 0.1], ids=["mild", "near-degenerate"])
def test_4grid_commands_are_byte_identical_at_one_and_two_fft_workers(
        tmp_path, capsys, monkeypatch, amplitude):
    manifest = save_metric(
        MetricModel4T.from_kahler_potential(kahler_test_potential(16, amplitude)),
        tmp_path / "metric")
    outputs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("SCALARFLAT_THREADS", workers)
        out_dir = tmp_path / f"workers-{workers}"
        out_dir.mkdir()
        assert run(["curvature", "--metric", str(manifest)]) == 0
        curvature = capsys.readouterr().out
        assert run(["solve", "scalar-flat", "--metric", str(manifest),
                    "--out", str(out_dir / "solution.json")]) == 0
        solve = capsys.readouterr().out
        outputs.append((curvature, solve, (out_dir / "solution.f.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_the_shared_parser_carries_no_state_between_calls(tmp_path, capsys):
    metric = MetricModel4T.from_kahler_potential(
        kahler_test_potential(8, 0.1 / np.pi ** 2))
    manifest = save_metric(metric, tmp_path / "metric")
    cli._parser.cache_clear()
    code = run(["classify", "ruled", "--genus", "2", "--m", "2", "--bogus"])
    captured = capsys.readouterr()
    assert code == 2
    assert "usage" in captured.err
    assert captured.out == ""
    code = run(["--help"])
    assert code == 0
    assert "usage" in capsys.readouterr().out
    code, payload = run_json(capsys, ["solve", "scalar-flat", "--metric", str(manifest),
                                      "--out", str(tmp_path / "solution.json"),
                                      "--tol", "-1e-10"])
    assert code == 2
    assert payload["error"] == "DescriptorError"
    argv = ["classify", "split", "--genus", "6", "--deg-l", "5"]
    code, payload = run_json(capsys, argv + ["--n", "3"])
    assert code == 0
    assert payload == classify_split(6, 5, 3).to_dict()
    code, payload = run_json(capsys, argv)
    assert code == 0
    assert payload == classify_split(6, 5, 2).to_dict() != classify_split(6, 5, 3).to_dict()


def test_run_builds_its_parser_once_per_process(capsys, monkeypatch):
    builds = []

    def counting_build_parser():
        builds.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    for argv in (["catalog"], ["classify", "ruled", "--genus", "2", "--m", "2"],
                 ["rc-check", "--genus", "2", "--deg-l", "1"], ["--bogus"]):
        run(argv)
    capsys.readouterr()
    assert len(builds) == 1


def test_build_parser_returns_a_fresh_parser_that_run_does_not_share():
    assert build_parser() is not build_parser()
    cli._parser.cache_clear()
    # a required flag on a parser `run` used would turn every query into a
    # usage error
    build_parser().add_argument("--required-extra", required=True)
    argv = ["classify", "split", "--genus", "6", "--deg-l", "5", "--n", "2"]
    assert digest(argv) == json.loads(GOLDEN.read_text())[" ".join(argv)]
