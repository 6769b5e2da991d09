"""Byte-identical CLI outputs for valid and invalid input.

golden_cli_digests.json holds, for a fixed sweep of theory queries, the
sha256 of each query's exit code and stdout as a reference commit printed
them.  A change that should not alter behaviour must reproduce every digest.
Regenerate the file only from the reference commit's source tree:

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from scalarflat.cli import run

GOLDEN = Path(__file__).with_name("golden_cli_digests.json")


def sweep() -> list[list[str]]:
    """The fixed query sweep, error cases included (m > g, n = 1, an unknown
    class, negative --deg-l on rc-check).  It leaves out the inputs whose
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
    for g in range(-1, 5):
        for d in range(-1, g + 2):
            for n in (1, 2, 3, 4) if g >= 0 else (1, 2):
                queries.append(["report", "--genus", str(g), "--deg-l", str(d),
                                "--n", str(n)])
    for g in range(0, 5):
        for d in range(-1, g + 2):
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


if __name__ == "__main__":
    digests = {" ".join(argv): digest(argv) for argv in sweep()}
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
