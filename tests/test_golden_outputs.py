"""Byte-identical CLI outputs for valid and invalid input, and byte-identical
files from the metric and solve pipeline.

golden_cli_digests.json holds, for a fixed sweep of theory queries, the
sha256 of each query's exit code and stdout as a reference commit printed
them.  A change that should not alter behaviour must reproduce every digest.
Regenerate the file only from the reference commit's source tree:

    PYTHONPATH=src python tests/test_golden_outputs.py

GOLDEN_FILES pins the CSV interchange format the same way: the sha256 of
the CSVs and manifest save_metric writes for one fixed metric and of the
potential CSV `solve` writes from them.  The binary twin is left out: its
zip entries carry write times.  The digests depend on the
floating-point results of the numpy and scipy builds in use (recorded with
numpy 2.4.6 and scipy 1.17.1 on x86_64).
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
from conftest import kahler_test_potential

from scalarflat import MetricModel4T
from scalarflat.cli import run
from scalarflat.curvature import save_metric

GOLDEN = Path(__file__).with_name("golden_cli_digests.json")

#: sha256 of each file written for the mild Kahler metric at N=8; metric.json
#: is the manifest that names the binary twin, the others date from before it
GOLDEN_FILES = {
    "metric/g11.csv": "1969fff195cb55cfc06dcbb6e2873a2ab7703aa5e7ba1bc0bf4deb6e9eeca9c4",
    "metric/g22.csv": "0e023e114083f877218600faf3bcc2ec92a0e1f08b67b8389dfaadb045ace8db",
    "metric/g12_re.csv": "3a3febb30414e1d78987c036997a6edac1da297d07fc1829da4b67264724b38a",
    "metric/g12_im.csv": "2b0264abe4c688ae74ec06c6aad615ec0e468382c3bb7d15a45a2c1f42d7069b",
    "metric/metric.json": "15325cd6fb5b560c456bdf563b5df6e02ef9a09b219b5747f1abde9c22738445",
    "solution.f.csv": "50bfec1f2bd9c4ea9fd27c134759e25c0afb604e5b3f9e86b2148f8c00f6fdc2",
}
#: sha256 of exit code and stdout of `curvature` and `solve` on those files
GOLDEN_STDOUT = {
    "curvature": "2bc6a01fcb246ae96a381c34a0ab5c77baeb01e2103318d3169509a5fad00f0d",
    "solve": "debe50969ad4758ad4138073302b8917d1de0eebe0877202171d63279dd41ad2",
}


def sweep() -> list[list[str]]:
    """The fixed query sweep, error cases included (m > g, n = 1, an unknown
    class, negative --deg-l on rc-check).  Its report and rc-check loops cover
    the benchmark's split ranges (genus 2-15, deg L 0-10, n 2-3).  It leaves out the inputs whose
    output was changed on purpose and is tested elsewhere: negative genus with
    n >= 3, and rc-check on the excluded boundary (n-1) |deg L| = 2g - 2 where
    the float margin is positive (the first such genus is 34)."""
    queries = [["catalog"], ["catalog", "--run-all"]]
    for g in range(-1, 8):
        for m in range(-2 * g - 2, max(g, 0) + 2):
            queries.append(["classify", "ruled", "--genus", str(g), "--m", str(m)])
    for g in range(-1, 7):
        for d in range(-1, max(2 * g, 0) + 1):
            for n in (1, 2, 3, 4) if g >= 0 else (1, 2):
                queries.append(["classify", "split", "--genus", str(g),
                                "--deg-l", str(d), "--n", str(n)])
    for name in ("Enriques", "BiElliptic", "K3", "Torus", "Kodaira", "RationalMinimal",
                 "Hirzebruch", "Inoue", "Hopf", "VII0_b2_positive", "Ruled", "nonsense"):
        queries.append(["classify", "minimal", "--class", name])
    for g in range(0, 5):
        for m in range(-2 * g - 1, g + 2):
            queries.append(["classify", "minimal", "--class", "Ruled",
                            "--genus", str(g), "--m", str(m)])
    for g in range(-1, 16):
        for d in range(-1, max(g, 9) + 2):
            for n in (1, 2, 3, 4) if g >= 0 else (1, 2):
                queries.append(["report", "--genus", str(g), "--deg-l", str(d),
                                "--n", str(n)])
    for g in range(0, 16):
        for d in range(-1, max(g, 9) + 2):
            for n in (1, 2, 3, 4):
                queries.append(["rc-check", "--genus", str(g), "--deg-l", str(d),
                                "--n", str(n)])
    return queries


def digest(argv: list[str]) -> str:
    """sha256 of the exit code and stdout of one in-process CLI query."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def test_cli_outputs_match_the_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    queries = sweep()
    assert [" ".join(argv) for argv in queries] == list(golden), \
        "the sweep changed; regenerate the digests from the reference commit"
    for argv in queries:
        assert digest(argv) == golden[" ".join(argv)], \
            f"output of `scalarflat {' '.join(argv)}` differs from the reference"


def test_metric_and_solution_files_match_the_golden_digests(tmp_path):
    metric = MetricModel4T.from_kahler_potential(kahler_test_potential(8, 0.1 / np.pi ** 2))
    manifest = str(save_metric(metric, tmp_path / "metric"))
    stdout = {
        "curvature": digest(["curvature", "--metric", manifest]),
        "solve": digest(["solve", "scalar-flat", "--metric", manifest,
                         "--out", str(tmp_path / "solution.json")]),
    }
    files = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
             for name in GOLDEN_FILES}
    assert files == GOLDEN_FILES
    assert stdout == GOLDEN_STDOUT


if __name__ == "__main__":
    digests = {" ".join(argv): digest(argv) for argv in sweep()}
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
