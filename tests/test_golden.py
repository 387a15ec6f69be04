"""Golden corpus: every CLI operation's report, byte for byte.

Each file under tests/golden/ is the CSV that `groupforests <argv>` wrote
when the corpus was captured.  A change that alters any report by a single
byte fails here; a change that means to alter one must regenerate the file
deliberately and say why.  Regenerate with

    PYTHONPATH=src python tests/test_golden.py

which rewrites every file from the current code.
"""

import sys
from pathlib import Path

import pytest

from groupforests import cli
from groupforests.runner import OPERATIONS

GOLDEN_DIR = Path(__file__).parent / "golden"

# name -> argv; one small config per operation, plus the Heisenberg reports
# that exercise the direct walk engine (including its support-cap note)
CONFIGS = {
    "identity-heisenberg": ["identity", "--family", "heisenberg", "--moduli", "3"],
    "identity-torus": ["identity", "--family", "free-abelian:2", "--moduli", "4,4;6,6"],
    # exact tau on non-abelian, non-amenable quotients (free-group balls)
    "identity-free-ball": [
        "identity", "--family", "free:2", "--ball-radius", "3", "--ball-radius", "4",
    ],
    "tree-entropy-heisenberg": ["tree-entropy", "--family", "heisenberg", "--K", "24"],
    "tree-entropy-free": ["tree-entropy", "--family", "free:2", "--K", "40"],
    "fk-det-heisenberg": ["fk-det", "--family", "heisenberg", "--moduli", "3;5"],
    "sample-ust-torus": [
        "sample-ust", "--family", "free-abelian:2", "--moduli", "3,3",
        "--samples", "2", "--seed", "1",
    ],
    # multiplicity-2 bundles (moduli 2) and a 256-vertex incidence order
    "sample-ust-multiplicity": [
        "sample-ust", "--family", "free-abelian:2", "--moduli", "2,2;2,3;16,16",
        "--samples", "3", "--seed", "1",
    ],
    "wsf-marginals-torus": [
        "wsf-marginals", "--family", "free-abelian:2", "--moduli", "6,6;8,8",
        "--samples", "20", "--seed", "1",
    ],
    # doubled bundles: the #0/#1 rows pin which slot each window copy reads
    "wsf-marginals-multiplicity": [
        "wsf-marginals", "--family", "free-abelian:2",
        "--f", "e 6;a -2;A -2;b -1;B -1", "--moduli", "6,6;8,8",
        "--samples", "200", "--seed", "3",
    ],
    # non-abelian quotients: pins the incidence order the walk draws from
    "wsf-marginals-heisenberg": [
        "wsf-marginals", "--family", "heisenberg", "--moduli", "5;7",
        "--samples", "200", "--seed", "3",
    ],
    "green-heisenberg": ["green", "--family", "heisenberg", "--K", "12", "--radius", "1"],
    "green-lattice": ["green", "--family", "free-abelian:3", "--K", "20", "--radius", "1"],
    "homoclinic-heisenberg": [
        "homoclinic", "--family", "heisenberg", "--K", "12", "--radius", "1",
    ],
    "spectral-radius-heisenberg": ["spectral-radius", "--family", "heisenberg", "--k-max", "20"],
    "window-density-torus": [
        "window-density", "--family", "free-abelian:2", "--moduli", "4,4;6,6", "--seed", "1",
    ],
}


def _render(argv, path: Path) -> None:
    code = cli.main(argv + ["--out", str(path)])
    assert code == 0, f"groupforests {' '.join(argv)} exited {code}"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    _render(CONFIGS[name], out)
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes()


def test_every_operation_is_pinned():
    assert {argv[0] for argv in CONFIGS.values()} == set(OPERATIONS)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in sorted(CONFIGS.items()):
        _render(argv, GOLDEN_DIR / f"{name}.csv")
        print(f"wrote {name}.csv", file=sys.stderr)
