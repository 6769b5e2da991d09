"""Tests of the benchmark itself: its checks catch corrupted outputs, every
failure is counted, the tracer restores what it patches, and the metric
names it prints are the ones BENCHMARK.json declares."""

import copy
import importlib.util
import json
import random
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import bench_tracing
import bench_workloads as bw
from scalarflat import cli, curvature, pde

HERE = Path(__file__).resolve().parent


def _load_run():
    spec = importlib.util.spec_from_file_location("bench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _query(kind, params, argv):
    result = bw.parse_stdout(*bw.run_cli(argv), kind)
    bw.check_query(kind, params, result)
    return result


def _corrupted(result, path, value):
    out = copy.deepcopy(result)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value(target[path[-1]])
    return out


CASES = [
    ("classify-ruled", {"g": 2, "m": -1},
     ["classify", "ruled", "--genus", "2", "--m", "-1"],
     ("scalar_flat_hermitian",), lambda v: "no"),
    ("classify-split", {"g": 6, "d": 5, "n": 2},
     ["classify", "split", "--genus", "6", "--deg-l", "5", "--n", "2"],
     ("certificate", "margin"), lambda v: v + 1e-9),
    ("classify-split", {"g": 2, "d": 2, "n": 2},
     ["classify", "split", "--genus", "2", "--deg-l", "2", "--n", "2"],
     ("scalar_flat_hermitian",), lambda v: "yes"),
    ("classify-minimal", {"class": "Hopf"},
     ["classify", "minimal", "--class", "Hopf"],
     ("verdict",), lambda v: "admits"),
    ("rc-check", {"g": 3, "d": 1, "n": 3},
     ["rc-check", "--genus", "3", "--deg-l", "1", "--n", "3"],
     ("rc_scan", "rc_positive"), lambda v: False),
    ("rc-check", {"g": 3, "d": 1, "n": 3},
     ["rc-check", "--genus", "3", "--deg-l", "1", "--n", "3"],
     ("certificate", "margin"), lambda v: v * (1 + 1e-12) + 1e-11),
    ("report", {"g": 6, "d": -5, "n": 2},
     ["report", "--genus", "6", "--deg-l", "-5", "--n", "2"],
     ("classification", "scalar_flat_hermitian"), lambda v: "no"),
    ("report", {"g": 2, "d": 2, "n": 2},
     ["report", "--genus", "2", "--deg-l", "2", "--n", "2"],
     ("certificate",), lambda v: {"margin": 0.0}),
    ("catalog", {}, ["catalog", "--run-all"], ("all_pass",), lambda v: False),
]


@pytest.mark.parametrize("kind, params, argv, path, corrupt", CASES)
def test_query_check_rejects_corrupted_output(kind, params, argv, path, corrupt):
    result = _query(kind, params, argv)
    with pytest.raises(bw.CheckFailure):
        bw.check_query(kind, params, _corrupted(result, path, corrupt))


def test_seeded_queries_repeat_and_pass_their_checks():
    rng, again = random.Random(7), random.Random(7)
    queries = [bw.draw_query(rng) for _ in range(60)]
    assert queries == [bw.draw_query(again) for _ in range(60)]
    for kind, params, argv in queries:
        _query(kind, params, argv)


def test_run_loop_counts_a_corrupted_output_as_failed(monkeypatch, tmp_path):
    run = _load_run()
    workload = bw.TheoryQueries(tmp_path)
    workload.setup(11)
    real = cli.classify_ruled

    def wrong_verdict(g, m):
        report = real(g, m)
        flipped = "no" if report.scalar_flat_hermitian == "yes" else "yes"
        image = "PositiveReals" if flipped == "no" else "AllReals"
        return type(report)(flipped, "no", image, report.fired_case, report.certificate)

    monkeypatch.setattr(cli, "classify_ruled", wrong_verdict)
    steps, _traced, attempted, failures = run.run_loop(workload, 0.0, 200)
    expected = sum(1 for kind, _p, _a in workload.queries[:200] if kind == "classify-ruled")
    assert attempted == 200
    assert expected > 0
    assert len(failures) == expected
    assert len(steps["op"]) == 200 - expected


def test_a_failed_traced_op_adds_no_spans_or_counts(monkeypatch, tmp_path):
    run = _load_run()
    workload = bw.TheoryQueries(tmp_path)
    workload.setup(11)
    real = cli.classify_ruled

    def failing(g, m):
        real(g, m)
        raise RuntimeError("corrupted")

    monkeypatch.setattr(cli, "classify_ruled", failing)
    tracer = bench_tracing.Tracer()
    _steps, traced_ms, _attempted, failures = run.run_loop(workload, 0.0, 200, tracer)
    failed_ops = {int(line.split()[1].rstrip(":")) for line in failures}
    assert any(op % 2 == 1 for op in failed_ops)
    assert not failed_ops & {span[4] for span in tracer.spans}
    assert tracer.layer_totals()["cli.run"]["calls"] == len(traced_ms)


def _mild_metric(n=8):
    return curvature.MetricModel4T.from_kahler_potential(
        bw.kahler_potential(n, 0.1 / np.pi ** 2, (1, 2)))


def test_solution_check_recomputes_the_residual():
    metric = _mild_metric()
    solution = pde.conformal_scalar_flat(curvature.MetricModel4T(metric.g), tol=1e-10)
    bw.check_solution(solution, 1e-10, metric)
    with pytest.raises(bw.CheckFailure):
        bw.check_solution(SimpleNamespace(f=solution.f, residual=solution.residual,
                                          solve_residual=2e-10), 1e-10, metric)
    with pytest.raises(bw.CheckFailure):
        bw.check_solution(SimpleNamespace(f=2.0 * solution.f, residual=solution.residual,
                                          solve_residual=solution.solve_residual),
                          1e-10, metric)


def test_cli_checks_reject_corrupted_reports(tmp_path):
    metric = _mild_metric()
    oracle = curvature.curvature_report(metric)
    manifest = curvature.save_metric(metric, tmp_path / "m")
    report = bw.parse_stdout(*bw.run_cli(["curvature", "--metric", str(manifest)]), "c")
    bw.check_curvature_report(report, oracle)
    for key, value in (("cross_check_residual", 1e-3), ("max", report["max"] + 1e-9)):
        with pytest.raises(bw.CheckFailure):
            bw.check_curvature_report(dict(report, **{key: value}), oracle)

    out = tmp_path / "solution.json"
    payload = bw.parse_stdout(*bw.run_cli(["solve", "scalar-flat", "--metric", str(manifest),
                                           "--out", str(out)]), "s")
    f_path = out.with_suffix(".f.csv")
    bw.check_solve_payload(payload, pde.SOLVE_TOL, f_path, 8)
    for key, value in (("solve_residual", 1e-9), ("end_to_end_residual", 1e-5)):
        with pytest.raises(bw.CheckFailure):
            bw.check_solve_payload(dict(payload, **{key: value}), pde.SOLVE_TOL, f_path, 8)
    with pytest.raises(bw.CheckFailure):
        bw.parse_stdout(3, "{}", "solve")


def test_tracer_counts_every_namespace_and_restores_it(tmp_path):
    originals = (pde.chern_scalar, curvature.chern_scalar, pde._fft, cli.load_metric,
                 pde.TraceOperator.apply)
    tracer = bench_tracing.Tracer()
    tracer.install()
    try:
        metric = _mild_metric()
        pde.conformal_scalar_flat(metric)
        manifest = curvature.save_metric(metric, tmp_path / "m")
        bw.run_cli(["curvature", "--metric", str(manifest)])
    finally:
        tracer.uninstall()
    assert (pde.chern_scalar, curvature.chern_scalar, pde._fft, cli.load_metric,
            pde.TraceOperator.apply) == originals
    totals = tracer.layer_totals()
    assert totals["curvature.chern_scalar"]["calls"] >= 2
    assert totals["curvature.load_metric"]["calls"] == 1
    assert totals["pde.TraceOperator.apply"]["calls"] >= tracer.counts["pde.solve.iterations"]
    assert tracer.counts["pde.solves"] == 1
    assert tracer.counts["fft.transforms"] == totals["fft"]["calls"] > 0
    assert tracer.counts["io.bytes_read"] == tracer.counts["io.bytes_written"] > 0
    for entry in totals.values():
        assert 0.0 <= entry["self_s"] <= entry["s"] + 1e-12
    tracer.write_spans(tmp_path / "spans.jsonl")
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(lines) == len(tracer.spans)
    assert set(json.loads(lines[0])) == {"id", "name", "start", "end", "parent", "op"}


def test_printed_metric_names_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    run = _load_run()
    end_to_end = run.end_to_end_metrics(1.0, [1.0, 2.0])
    per_layer = run.per_layer_metrics(bench_tracing.Tracer(), [1.0], [1.0])
    for printed, entries in ((end_to_end, declared["end_to_end"]),
                             (per_layer, declared["per_layer"])):
        assert list(printed) == [entry["name"] for entry in entries]
        assert [printed[e["name"]]["unit"] for e in entries] == [e["unit"] for e in entries]
