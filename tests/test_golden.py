"""Golden corpus: every CLI operation's report, byte for byte.

Each file under tests/golden/ is the CSV that `groupforests <argv>` wrote
when the corpus was captured.  A change that alters any report by a single
byte fails here; a change that means to alter one must replace the file
deliberately and say why.  Running

    PYTHONPATH=src python tests/test_golden.py

writes the files that do not exist yet and checks every other one byte for
byte, naming each that differs and exiting 1 if any does.  To replace a
file, delete it and rerun.

Files under tests/golden/ci/ are not in CONFIGS, because each takes seconds:
the CI workflow renders and diffs them, each under a timeout.
`ci/window-density-torus-large.csv` is

    window-density --family free-abelian:2 --moduli "16,16;20,20" --seed 0

the only report that runs `smith_with_transform` on a 255- and a 399-square
reduced Laplacian (about 1.6 s on a 2-CPU x86-64 host).
"""

import sys
import tempfile
from pathlib import Path

import pytest

from groupforests import cli
from groupforests.runner import OPERATIONS

GOLDEN_DIR = Path(__file__).parent / "golden"

# name -> argv; one small config per operation, plus the Heisenberg reports
# that exercise the direct walk engine (including its support-cap note) and
# Green and homoclinic reports on the other walk engines
CONFIGS = {
    "identity-heisenberg": ["identity", "--family", "heisenberg", "--moduli", "3"],
    "identity-torus": ["identity", "--family", "free-abelian:2", "--moduli", "4,4;6,6"],
    # the layer sweep on unequal sides and on rank 3
    "identity-torus-rect": ["identity", "--family", "free-abelian:2", "--moduli", "3,5;6,9"],
    "identity-z3": ["identity", "--family", "free-abelian:3", "--moduli", "3,3,3;4,4,4"],
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
    # multiplicity-2 bundles (moduli 2) and the row order of 256 vertices
    "sample-ust-multiplicity": [
        "sample-ust", "--family", "free-abelian:2", "--moduli", "2,2;2,3;16,16",
        "--samples", "3", "--seed", "1",
    ],
    # bundles of 5 copies on N = 3 vertices: slot 3 is printed, past every vertex
    "sample-ust-wide-bundle": [
        "sample-ust", "--family", "free-abelian:1", "--moduli", "3",
        "--f", "e 10; a -5; A -5", "--samples", "3",
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
    # non-abelian quotients: pins the row order the walk draws from
    "wsf-marginals-heisenberg": [
        "wsf-marginals", "--family", "heisenberg", "--moduli", "5;7",
        "--samples", "200", "--seed", "3",
    ],
    # free-ball quotients: the irregular Wilson walk and the window's slots
    "wsf-marginals-free-ball": [
        "wsf-marginals", "--family", "free:2", "--ball-radius", "2", "--ball-radius", "3",
        "--samples", "300",
    ],
    "green-heisenberg": ["green", "--family", "heisenberg", "--K", "12", "--radius", "1"],
    "green-lattice": ["green", "--family", "free-abelian:3", "--K", "20", "--radius", "1"],
    # one Green report per engine: tree, and dictionary convolution on Z^3
    "green-free": ["green", "--family", "free:2", "--K", "40", "--radius", "2"],
    "green-lattice-direct": [
        "green", "--family", "free-abelian:3", "--engine", "direct", "--K", "8", "--radius", "1",
    ],
    "homoclinic-heisenberg": [
        "homoclinic", "--family", "heisenberg", "--K", "12", "--radius", "1",
    ],
    "homoclinic-lattice": [
        "homoclinic", "--family", "free-abelian:3", "--K", "20", "--radius", "1",
    ],
    "spectral-radius-heisenberg": ["spectral-radius", "--family", "heisenberg", "--k-max", "20"],
    # the dictionary engine's exact Fraction phase, which Green leaves after step 1
    "spectral-radius-lattice-direct": [
        "spectral-radius", "--family", "free-abelian:2", "--engine", "direct", "--k-max", "24",
    ],
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


def test_every_golden_file_has_a_config():
    # a file without a CONFIGS entry would be checked by nothing
    assert {path.stem for path in GOLDEN_DIR.glob("*.csv")} == set(CONFIGS)


def test_regeneration_writes_only_missing_files(tmp_path, monkeypatch, capsys):
    golden = (GOLDEN_DIR / "green-heisenberg.csv").read_bytes()
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(module, "CONFIGS", {"green": CONFIGS["green-heisenberg"]})
    path = tmp_path / "green.csv"
    assert main() == 0
    assert "wrote green.csv" in capsys.readouterr().err
    assert path.read_bytes() == golden
    assert main() == 0
    path.write_bytes(b"stale\n")
    assert main() == 1
    assert "differs: green.csv" in capsys.readouterr().err
    assert path.read_bytes() == b"stale\n"


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in sorted(CONFIGS.items()):
            path = GOLDEN_DIR / f"{name}.csv"
            if not path.exists():
                _render(argv, path)
                print(f"wrote {path.name}", file=sys.stderr)
                continue
            out = Path(tmp) / path.name
            _render(argv, out)
            if out.read_bytes() != path.read_bytes():
                differ += 1
                print(f"differs: {path.name}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
