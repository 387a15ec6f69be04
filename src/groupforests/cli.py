"""Command-line entry point: nine experiment subcommands emitting CSV.

Every subcommand accepts the shared group/quotient/seed options plus the
parameters its estimator uses; values can also come from a YAML config file,
with explicit flags taking precedence.  Output goes to --out or stdout, and
identical configs with identical seeds reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import yaml

from . import runner
from .errors import GroupForestsError

_DESCRIPTIONS = {
    "identity": "exact spanning-tree / component-group identity plus convergents",
    "tree-entropy": "partial sums of the spanning-tree entropy series",
    "fk-det": "log-determinant estimates via the spectrum and via tree counts",
    "sample-ust": "sample uniform spanning trees, exported as edge lists",
    "wsf-marginals": "window edge marginals of lifted spanning-tree samples",
    "green": "truncated Green's function values on a word-metric window",
    "homoclinic": "candidate summable point of the associated torus action",
    "spectral-radius": "walk operator norm probe (amenability dichotomy)",
    "window-density": "covering radius of harmonic component projections",
}

# flags whose values flow straight into resolve_config keyword params
_PARAM_KEYS = (
    "K",
    "kappa",
    "samples",
    "radius",
    "k_max",
    "tol",
    "root",
    "seed",
    "engine",
    "out",
    "max_support",
    "max_grid_cells",
    "max_dense",
    "max_enumerate",
    "max_steps",
    "probes",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupforests",
        description="Spanning forests and harmonic invariants on finite group quotients.",
    )
    sub = parser.add_subparsers(dest="operation", required=True)
    for name in runner.OPERATIONS:
        p = sub.add_parser(name, help=_DESCRIPTIONS[name])
        p.add_argument("--config", help="YAML config file; flags override its keys")
        p.add_argument("--family", help="free-abelian:d, free:r, or heisenberg")
        p.add_argument("--f", help="group-ring element, terms separated by ';'")
        p.add_argument("--f-file", help="group-ring element file, one term per line")
        p.add_argument("--h", help="numerator element for homoclinic (defaults to f)")
        p.add_argument("--h-file", help="numerator element file")
        p.add_argument("--moduli", help="quotients like '4,4;8,8' (free-abelian) or '3;5' ")
        p.add_argument(
            "--quotient-file",
            action="append",
            default=None,
            help="permutation-action file; repeat for a chain",
        )
        p.add_argument(
            "--ball-radius",
            action="append",
            default=None,
            type=int,
            help="truncated-ball quotient of this radius; repeat for a chain",
        )
        p.add_argument("--K", type=int, help="truncation order of the walk series")
        p.add_argument("--kappa", type=float, help="spectral cutoff for determinant estimates")
        p.add_argument("--samples", type=int, help="Monte Carlo sample count")
        p.add_argument("--radius", type=int, help="window radius in the support word metric")
        p.add_argument("--k-max", dest="k_max", type=int, help="largest even walk length probed")
        p.add_argument("--tol", type=float, help="amenability decision margin")
        p.add_argument("--root", type=int, help="root vertex for tree sampling")
        p.add_argument("--seed", type=int, help="base seed of the counter-based streams")
        p.add_argument("--engine", help="walk engine: auto, direct, grid, tree")
        p.add_argument("--out", help="output CSV path (default stdout)")
        p.add_argument("--max-support", dest="max_support", type=int, help="walk support cap")
        p.add_argument("--max-grid-cells", dest="max_grid_cells", type=int, help="grid cell cap")
        p.add_argument("--max-dense", dest="max_dense", type=int, help="dense eigensolve cap")
        p.add_argument(
            "--max-enumerate", dest="max_enumerate", type=int, help="component enumeration cap"
        )
        p.add_argument("--max-steps", dest="max_steps", type=int, help="random walk step cap")
        p.add_argument("--probes", type=int, help="covering-radius probe count")
    return parser


def _load_config_file(path: str) -> dict:
    with open(path) as fh:
        data = yaml.safe_load(fh)
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a mapping")
    return data


def _merge(args: argparse.Namespace) -> dict:
    """File values underneath, explicit flags on top."""
    merged = _load_config_file(args.config) if args.config else {}
    for key in ("family", "f", "h", "moduli"):
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    if args.f_file:
        merged["f"] = Path(args.f_file).read_text()
    if args.h_file:
        merged["h"] = Path(args.h_file).read_text()
    if args.quotient_file:
        merged["quotient_files"] = list(args.quotient_file)
    if args.ball_radius:
        merged["ball_radii"] = list(args.ball_radius)
    for key in _PARAM_KEYS:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    return merged


def config_from_args(args: argparse.Namespace) -> runner.ExperimentConfig:
    merged = _merge(args)
    f_text = merged.pop("f", None)
    if f_text is not None:
        f_text = str(f_text).replace(";", "\n")
    h_text = merged.pop("h", None)
    if h_text is not None:
        h_text = str(h_text).replace(";", "\n")
    moduli = merged.pop("moduli", None)
    return runner.resolve_config(
        args.operation,
        family=str(merged.pop("family", "free-abelian:1")),
        f=f_text,
        moduli=None if moduli is None else str(moduli),
        quotient_files=tuple(merged.pop("quotient_files", ()) or ()),
        ball_radii=tuple(merged.pop("ball_radii", ()) or ()),
        h=h_text,
        **merged,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        report = runner.run(cfg)
    except (GroupForestsError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    text = report.to_csv()
    if cfg.out:
        Path(cfg.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
