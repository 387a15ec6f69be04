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

# (name, type, help) of the flags whose values flow straight into
# resolve_config keyword params; the flag is --name with '-' for '_'
_PARAMS = (
    ("K", int, "truncation order of the walk series"),
    ("kappa", float, "spectral cutoff for determinant estimates"),
    ("samples", int, "Monte Carlo sample count"),
    ("radius", int, "window radius in the support word metric"),
    ("k_max", int, "largest even walk length probed"),
    ("tol", float, "amenability decision margin"),
    ("root", int, "root vertex for tree sampling"),
    ("seed", int, "base seed of the counter-based streams"),
    ("engine", str, "walk engine: auto, direct, grid, tree"),
    ("out", str, "output CSV path (default stdout)"),
    ("max_support", int, "walk support cap"),
    ("max_grid_cells", int, "grid cell cap"),
    ("max_dense", int, "dense eigensolve cap"),
    ("max_enumerate", int, "component enumeration cap"),
    ("max_steps", int, "random walk step cap"),
    ("probes", int, "covering-radius probe count"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupforests",
        description="Spanning forests and harmonic invariants on finite group quotients.",
    )
    shared = argparse.ArgumentParser(add_help=False)  # one set of actions for all nine
    shared.add_argument("--config", help="YAML config file; flags override its keys")
    shared.add_argument("--family", help="free-abelian:d, free:r, or heisenberg")
    shared.add_argument("--f", help="group-ring element, terms separated by ';'")
    shared.add_argument("--f-file", help="group-ring element file, one term per line")
    shared.add_argument("--h", help="numerator element for homoclinic (defaults to f)")
    shared.add_argument("--h-file", help="numerator element file")
    shared.add_argument("--moduli", help="quotients like '4,4;8,8' (free-abelian) or '3;5' ")
    shared.add_argument(
        "--quotient-file",
        action="append",
        default=None,
        help="permutation-action file; repeat for a chain",
    )
    shared.add_argument(
        "--ball-radius",
        action="append",
        default=None,
        type=int,
        help="truncated-ball quotient of this radius; repeat for a chain",
    )
    for name, kind, text in _PARAMS:
        shared.add_argument("--" + name.replace("_", "-"), dest=name, type=kind, help=text)
    sub = parser.add_subparsers(dest="operation", required=True)
    for name in runner.OPERATIONS:
        sub.add_parser(name, help=_DESCRIPTIONS[name], parents=[shared])
    return parser


def _load_config_file(path: str) -> dict:
    import yaml  # only --config needs it, so other runs skip its import

    with open(path) as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as err:
            raise ValueError(f"config file {path}: {err}") from err
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
    for key, path in (("f", args.f_file), ("h", args.h_file)):
        if path:
            try:
                merged[key] = runner.read_utf8(path)
            except ValueError as err:
                raise ValueError(f"--{key}-file {path}: {err}") from None
    if args.quotient_file:
        merged["quotient_files"] = list(args.quotient_file)
    if args.ball_radius:
        merged["ball_radii"] = list(args.ball_radius)
    for key, _, _ in _PARAMS:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    return merged


def config_from_args(args: argparse.Namespace) -> runner.ExperimentConfig:
    merged = _merge(args)
    for key in ("f", "h"):
        if merged.get(key) is not None:
            merged[key] = str(merged[key]).replace(";", "\n")
    merged["family"] = str(merged.get("family", "free-abelian:1"))  # YAML null is 'None'
    if merged.get("moduli") is not None:
        merged["moduli"] = str(merged["moduli"])
    return runner.resolve_config(args.operation, **merged)


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
