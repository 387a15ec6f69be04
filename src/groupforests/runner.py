"""Experiment driver: resolved configs, convergence tables, CSV reports.

Each operation walks a chain of finite quotients (or just the group-ring
element for the walk-based estimators), collects one row per quotient or per
window entry, and renders a CSV whose header block records the fully resolved
configuration.  Reruns with the same config and seed are byte-identical: all
randomness flows through counter-based streams and floats are formatted with
a fixed precision.
"""

from __future__ import annotations

import decimal
import itertools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    GroupForestsError,
    IdentityMismatchError,
    ResourceLimitError,
    UnsupportedFamilyError,
    WindowError,
    at_quotient,
)
from .forests import QuotientMultigraph, lift_marginals, rng_stream, wilson_sample
from .groups import (
    FAMILIES,
    FiniteQuotient,
    GroupFamily,
    chain_radii,
    format_word,
    free_ball_quotient,
    injectivity_radius,
    word_ball,
)
from .intmat import smith_with_transform
from .linalg import (
    build_laplacian,
    fk_estimate_eigen,
    fk_estimate_tree,
    free_abelian_spectrum,
    harmonic_component_group,
    spanning_tree_count,
    spectrum,
)
from .walks import (
    DEFAULT_MAX_GRID_CELLS,
    DEFAULT_MAX_SUPPORT,
    ENGINES,
    check_support_cap,
    formal_inverse_residual,
    format_group_ring,
    green_truncation,
    homoclinic_point,
    laplacian_element,
    parse_group_ring,
    require_transient,
    require_well_balanced,
    spectral_radius_probe,
    support_words,
    tree_entropy,
)

DEFAULT_CAPS = {
    "max_support": DEFAULT_MAX_SUPPORT,
    "max_grid_cells": DEFAULT_MAX_GRID_CELLS,
    "max_dense": 4096,
    "max_enumerate": 20000,
    "max_steps": 0,
    "probes": 64,
}

# name -> (kind, help) of the run parameters, in flag order: the flag is
# --name with '-' for '_', resolve_config checks the key by its kind, and
# the header prints K to engine; the rest are out and the DEFAULT_CAPS keys
PARAMS = {
    "K": (int, "truncation order of the walk series"),
    "kappa": (float, "spectral cutoff for determinant estimates"),
    "samples": (int, "Monte Carlo sample count"),
    "radius": (int, "window radius in the support word metric"),
    "k_max": (int, "largest even walk length probed"),
    "tol": (float, "amenability decision margin"),
    "root": (int, "root vertex for tree sampling"),
    "seed": (int, "base seed of the counter-based streams"),
    "engine": (str, "walk engine: " + ", ".join(ENGINES)),
    "out": (str, "output CSV path (default stdout)"),
    "max_support": (int, "walk support cap"),
    "max_grid_cells": (int, "grid cell cap"),
    "max_dense": (int, "dense eigensolve cap"),
    "max_enumerate": (int, "component enumeration cap"),
    "max_steps": (int, "random walk step cap"),
    "probes": (int, "covering-radius probe count"),
}


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _fmt_circle(x: float) -> str:
    """A value of [0, 1) in 12 digits; one that rounds up to 1 wraps to 0."""
    text = _fmt(x)
    return "0" if text == "1" else text


def _int_text(n: int) -> str:
    """Decimal digits of n at any size; str() refuses ints past 4300 digits."""
    try:
        return str(n)
    except ValueError:
        return str(decimal.Decimal(n))


def parse_family(text: str) -> GroupFamily:
    """Family spec: 'free-abelian:d', 'free:r', or 'heisenberg'."""
    spec = text.strip().lower().replace("_", "-")
    kind, sep, rank_text = spec.partition(":")
    if not sep and kind != "heisenberg":
        raise ValueError(f"family spec {text!r} needs 'kind:rank' (or 'heisenberg')")
    try:
        rank = int(rank_text) if sep else 2
    except ValueError:
        raise ValueError(f"family rank {rank_text!r} is not an integer") from None
    if kind not in FAMILIES:
        raise ValueError(f"unknown family kind {kind!r}")
    return FAMILIES[kind](rank)


def parse_moduli(text: str) -> list:
    """Quotient moduli: semicolon-separated quotients, comma-separated ints."""
    out = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        out.append(tuple(int(tok) for tok in part.replace("x", ",").split(",")))
    if not out:
        raise ValueError("empty moduli spec")
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved parameters for one run; construct via resolve_config."""

    operation: str
    family: GroupFamily
    f: "GroupRingElement"
    quotients: tuple = ()
    injectivity_radii: tuple = ()
    K: int = 80
    kappa: float = 0.0
    samples: int = 1000
    radius: int = 1
    k_max: int = 200
    tol: float = 0.05
    root: int = 0
    h: "GroupRingElement | None" = None
    seed: int = 0
    engine: str = "auto"
    out: "str | None" = None
    caps: dict = field(default_factory=dict)

    def cap(self, name: str) -> int:
        return int(self.caps.get(name, DEFAULT_CAPS[name]))

    def header_lines(self) -> tuple:
        f_line = format_group_ring(self.f).strip().replace("\n", "; ")
        lines = [
            f"operation: {self.operation}",
            f"family: {self.family.spec}",
            f"f: {f_line}",
        ]
        if self.h is not None:
            lines.append(f"h: {format_group_ring(self.h).strip().replace(chr(10), '; ')}")
        if self.quotients:
            quots = "; ".join(f"{q.label or 'quotient'} (N={q.size})" for q in self.quotients)
            lines.append(f"quotients: {quots}")
            lines.append(f"injectivity_radii: {list(self.injectivity_radii)}")
        for name in PARAMS:
            if name == "out":  # out is not recorded, and the caps share one line
                break
            if name == "engine":
                # a fixed literal that the golden corpus and the benchmark digests
                # pin; wsf-marginals' sample workers do not change it or the bytes
                lines.append("threads: 1")
            lines.append(f"{name}: {_fmt(getattr(self, name))}")
        lines.append("caps: " + " ".join(f"{k}={self.cap(k)}" for k in sorted(DEFAULT_CAPS)))
        return tuple(lines)


def _config_value(key: str, value, kind):
    """A config value of its kind (int, float or str); ValueError naming key otherwise.

    A config file may hold any YAML value there.  Text is read as a number
    (YAML reads 1e-3 as text); a bool, a list, a mapping, a number no float
    holds (nan, infinity, an int past the float range) or a fraction where
    a whole number is due is refused, not truncated.  A str key takes text only.
    """
    if kind is str:
        if not isinstance(value, str):
            raise ValueError(f"{key} must be text, got {value!r}")
        return value
    whole = kind is int
    number = value
    if isinstance(value, str):
        try:
            number = int(value) if whole else float(value)
        except ValueError:
            pass
    ok = isinstance(number, (int, float)) and not isinstance(number, bool)
    if ok and whole and isinstance(number, float):
        ok = number.is_integer()
    if not ok:
        kind = "an integer" if whole else "a number"
        raise ValueError(f"{key} must be {kind}, got {value!r}")
    if not whole and not abs(number) <= sys.float_info.max:
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return int(number) if whole else float(number)


def read_utf8(path) -> str:
    """The text of a UTF-8 file; bytes that do not decode raise a plain ValueError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        # UnicodeDecodeError cannot be rebuilt from a message, as at_quotient does
        raise ValueError(str(err)) from None


def _config_list(key: str, value) -> tuple:
    """A list-valued key as a tuple, None as empty; a scalar is refused, not iterated."""
    if value is not None and not isinstance(value, (list, tuple)):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return tuple(value or ())


def resolve_config(
    operation: str,
    /,
    family: str = "free-abelian:1",
    f: str | None = None,
    moduli: str | None = None,
    quotient_files: tuple = (),
    ball_radii: tuple = (),
    h: str | None = None,
    **params,
) -> ExperimentConfig:
    """Validate and freeze a run configuration.

    f must be well-balanced and the quotient chain must have non-decreasing
    injectivity radii; both are checked here, before any computation.
    """
    if operation not in OPERATIONS:
        raise ValueError(f"unknown operation {operation!r}")
    fam = parse_family(family)
    elem = laplacian_element(fam) if f is None else parse_group_ring(fam, f)
    require_well_balanced(elem)
    h_elem = parse_group_ring(fam, h) if h is not None else None

    quotients = []
    if moduli:
        for mods in parse_moduli(moduli):
            quotients.append(FiniteQuotient.from_moduli(fam, mods))
    for path in _config_list("quotient_files", quotient_files):
        # open(0) would read stdin and close it
        if not isinstance(path, str):
            raise ValueError(f"quotient_files must be a list of paths, got {path!r}")
        quotients.append(
            at_quotient(
                len(quotients),
                str(path),
                lambda: FiniteQuotient.from_text(fam, read_utf8(path), label=str(path)),
                (GroupForestsError, ValueError),
            )
        )
    fields = dict(OPERATIONS[operation].defaults)
    caps = {}
    for key, value in params.items():
        if value is None:
            continue
        if key not in PARAMS:
            raise ValueError(f"unknown parameter {key!r}")
        value = _config_value(key, value, PARAMS[key][0])
        if key == "engine" and value not in ENGINES:
            raise ValueError(f"unknown engine {value!r}")
        if key not in DEFAULT_CAPS:
            fields[key] = value
        elif value < 0:
            raise ValueError(f"{key} must be >= 0, got {value}")
        else:
            caps[key] = value
    if fields.get("samples", 1) < 1:
        raise ValueError("samples must be >= 1")
    # no probe would report a covering radius of 0, a perfect density
    if caps.get("probes", 1) < 1:
        raise ValueError("probes must be >= 1")
    # sampling 0 components leaves no representative to measure
    if caps.get("max_enumerate", 1) < 1:
        raise ValueError("max_enumerate must be >= 1")
    seed = fields.get("seed", 0)
    # the Philox key holds the seed as one 64-bit word
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    for r in _config_list("ball_radii", ball_radii):
        radius = _config_value("ball_radii", r, int)
        quotients.append(free_ball_quotient(fam, radius, seed=seed))
    if not quotients and OPERATIONS[operation].chain:
        raise ValueError(f"operation {operation!r} needs at least one quotient")
    return ExperimentConfig(
        operation=operation,
        family=fam,
        f=elem,
        quotients=tuple(quotients),
        injectivity_radii=tuple(chain_radii(quotients)),
        h=h_elem,
        caps=caps,
        **fields,
    )


@dataclass
class Report:
    """CSV-ready result: resolved-config header, provenance columns, rows of cells."""

    operation: str
    config_lines: tuple
    columns: tuple
    rows: list
    notes: tuple = ()

    def to_csv(self) -> str:
        out = ["# config:"]
        out.extend(f"#   {line}" for line in self.config_lines)
        out.extend(f"# note: {note}" for note in self.notes)
        out.append(",".join(self.columns))
        out.extend(map(",".join, self.rows))
        return "\n".join(out) + "\n"


def _per_quotient(cfg: ExperimentConfig, fn) -> list:
    """fn(i, q, laplacian) for each quotient in chain order."""
    return [
        at_quotient(i, q.label, lambda i=i, q=q: fn(i, q, build_laplacian(q, cfg.f)))
        for i, q in enumerate(cfg.quotients)
    ]


def _spectrum_summary(cfg: ExperimentConfig, quotient: FiniteQuotient, lap):
    """Closed-form character spectrum on a moduli quotient of Z^d, else dense solve."""
    if quotient.family.kind == "free-abelian" and quotient.moduli is not None:
        return free_abelian_spectrum(quotient, cfg.f)
    _check_dense(cfg, lap.size, "dense eigensolve")
    return spectrum(lap)


def _check_dense(cfg: ExperimentConfig, n: int, what: str) -> None:
    cap = cfg.cap("max_dense")
    if n > cap:
        raise ResourceLimitError(f"{what} at N={n} exceeds max_dense={cap}")


def _check_exact_sizes(cfg: ExperimentConfig) -> None:
    """Fail before any work if a quotient is too large for the dense exact kernels."""
    for i, q in enumerate(cfg.quotients):
        at_quotient(i, q.label, lambda q=q: _check_dense(cfg, q.size, "dense exact kernel"))


def _walk_caps(cfg: ExperimentConfig) -> dict:
    return {
        "max_support": cfg.cap("max_support"),
        "max_grid_cells": cfg.cap("max_grid_cells"),
    }


# ----- identity and determinant suites --------------------------------------


def run_identity_suite(cfg: ExperimentConfig) -> Report:
    """Per quotient: exact tau = component-group order, plus the convergents.

    The defining assertion is exact big-integer equality between the
    spanning-tree count and the harmonic-component order; any mismatch
    raises IdentityMismatchError and the process exits nonzero.
    """
    _check_exact_sizes(cfg)
    notes = []
    ent_cell = ""
    try:
        # the column is dropped on a cap hit, so find that out before walking
        check_support_cap(cfg.f, cfg.K, cfg.engine, cfg.cap("max_support"))
        ent = tree_entropy(cfg.f, cfg.K, engine=cfg.engine, **_walk_caps(cfg))
        ent_cell = _fmt(ent.value)
        notes.append(f"tree_entropy engine: {ent.engine}")
    except (ResourceLimitError, UnsupportedFamilyError) as err:
        notes.append(f"tree_entropy column skipped: {err}")

    def row(i, q, lap):
        tau = spanning_tree_count(lap)
        try:
            comp = harmonic_component_group(lap, modulus=tau)
        except ValueError as err:  # the relation matrix refutes tau as the group's order
            raise IdentityMismatchError(f"tau {_int_text(tau)} is not the component order: {err}") from None
        if comp.order != tau:
            raise IdentityMismatchError(
                f"tau {_int_text(tau)} != component order {_int_text(comp.order)}"
            )
        fk = fk_estimate_eigen(_spectrum_summary(cfg, q, lap), kappa=cfg.kappa)
        return (
            str(i),
            str(q.size),
            str(cfg.injectivity_radii[i]),
            _int_text(tau),
            _int_text(comp.order),
            _fmt(math.log(tau) / q.size),
            _fmt(fk),
            ent_cell,
        )

    columns = (
        "n",
        "N",
        "injectivity_radius",
        "tau",
        "component_order",
        "log_tau_per_site",
        f"fk_eigen_kappa{cfg.kappa:g}",
        f"tree_entropy_K{cfg.K}",
    )
    return Report("identity", cfg.header_lines(), columns, _per_quotient(cfg, row), tuple(notes))


def run_fk_det(cfg: ExperimentConfig) -> Report:
    """Both determinant estimators side by side across the chain."""
    _check_exact_sizes(cfg)

    def row(i, q, lap):
        eig = fk_estimate_eigen(_spectrum_summary(cfg, q, lap), kappa=cfg.kappa)
        tre = fk_estimate_tree(lap)
        # the estimators differ by exactly log(N)/N at kappa=0
        gap = math.log(q.size) / q.size
        return (
            str(i),
            str(q.size),
            str(cfg.injectivity_radii[i]),
            _fmt(eig),
            _fmt(tre),
            _fmt(gap),
            _fmt(abs(eig - tre - gap)),
        )

    columns = (
        "n",
        "N",
        "injectivity_radius",
        f"fk_eigen_kappa{cfg.kappa:g}",
        "fk_tree",
        "log_n_over_n",
        "consistency_gap",
    )
    return Report("fk-det", cfg.header_lines(), columns, _per_quotient(cfg, row))


# ----- forests ---------------------------------------------------------------


def _mean_tree_degree(n: int) -> Fraction:
    """Mean degree of any spanning tree on n vertices: 2(n-1)/n."""
    return Fraction(2 * (n - 1), n)


def run_sample_ust(cfg: ExperimentConfig) -> Report:
    """Sampled spanning trees as edge lists, one row per tree edge.

    Every sample passes SpanningTree.validate, which raises (also under
    python -O) unless its edges are N-1 distinct copies without a cycle.
    """
    max_steps = cfg.cap("max_steps") or None

    def edge_rows(i, q, lap):
        graph = QuotientMultigraph(lap)
        # the cell of every vertex and slot; a bundle may be wider than N
        cell = list(map(str, range(max(graph.n, graph.copy_slot.max(initial=0) + 1)))).__getitem__
        out = []
        for s in range(cfg.samples):
            tree = wilson_sample(
                graph, root=cfg.root, rng=rng_stream(cfg.seed, i, s), max_steps=max_steps
            )
            tree.validate()
            ends = (map(cell, column) for column in tree.copies.T.tolist())
            out.extend(zip(itertools.repeat(str(i)), itertools.repeat(str(s)), *ends))
        return out

    rows = [row for chunk in _per_quotient(cfg, edge_rows) for row in chunk]
    notes = tuple(
        f"quotient {i}: mean tree degree {_mean_tree_degree(q.size)} on every sample"
        for i, q in enumerate(cfg.quotients)
    )
    columns = ("n", "sample", "u", "v", "slot")
    return Report("sample-ust", cfg.header_lines(), columns, rows, notes)


def run_forest_suite(cfg: ExperimentConfig) -> Report:
    """Window-edge marginal tables across the chain with per-row drift.

    Drift compares each edge frequency with the same window edge one
    quotient earlier; the mean-degree column is 2(N-1)/N, the mean degree
    of every spanning tree on N vertices.
    """
    tables = lift_marginals(
        cfg.quotients,
        cfg.f,
        cfg.radius,
        cfg.samples,
        seed=cfg.seed,
        max_steps=cfg.cap("max_steps") or None,
    )
    rows = []
    prev = None
    for i, (q, table) in enumerate(zip(cfg.quotients, tables)):
        mean = str(_mean_tree_degree(q.size))
        for row in table:
            drift = ""
            if prev is not None and row.label in prev:
                drift = format(abs(row.frequency - prev[row.label]), ".6f")
            rows.append(
                (
                    str(i),
                    str(q.size),
                    str(cfg.injectivity_radii[i]),
                    row.label,
                    format(row.frequency, ".6f"),
                    format(row.halfwidth, ".6f"),
                    drift,
                    str(cfg.samples),
                    mean,
                )
            )
        prev = {r.label: r.frequency for r in table}
    columns = (
        "n",
        "N",
        "injectivity_radius",
        "edge_word",
        "frequency",
        "halfwidth",
        "drift",
        "samples",
        "mean_degree",
    )
    return Report("wsf-marginals", cfg.header_lines(), columns, rows)


# ----- window density --------------------------------------------------------

PROBE_CHUNK = 256  # representatives per early-stop check in _covering_radius


def _component_window_values(cfg: ExperimentConfig, lap, window_vertices, stream_index):
    """Window coordinates of harmonic-mod-1 component representatives.

    Representatives are V . diag(1/d) . w over the invariant-factor box,
    enumerated exhaustively up to the cap and sampled uniformly beyond it.
    Returns (matrix reps x window, mode string, component order).
    """
    n = lap.size
    if n == 1:
        return np.zeros((1, len(window_vertices))), "enumerated", 1
    # tree-count modulus keeps the transform's entries bounded; without it
    # the plain reduction can blow up on matrices of any size
    factors, V = smith_with_transform(lap.reduced().tolist(), modulus=spanning_tree_count(lap))
    order = 1
    for d in factors:
        order *= d
    cap = cfg.cap("max_enumerate")
    k = len(factors)
    if order <= cap:
        W = np.array(list(itertools.product(*[range(d) for d in factors])), dtype=float)
        W = W.reshape(-1, k)
        mode = "enumerated"
    else:
        rng = rng_stream(cfg.seed, stream_index + 1)
        count = min(cap, 5000)
        W = np.zeros((count, k))
        for j, d in enumerate(factors):
            if d > 1:  # a unit factor's draw is zeros and leaves the stream as it was
                W[:, j] = rng.integers(0, d, size=count)
        mode = f"sampled({count})"
    # only the window's rows: vertex v >= 1 is row v - 1 of V, the root is 0
    rows, inverse = np.unique(window_vertices, return_inverse=True)
    live = rows != 0
    scale = np.array(
        [[V[r - 1][j] / factors[j] for j in range(k)] for r in rows[live]], dtype=float
    ).reshape(-1, k)
    vals = np.zeros((len(rows), W.shape[0]))
    vals[live] = (scale @ W.T) % 1.0
    return vals[inverse].T, mode, order


def _covering_radius(probes: np.ndarray, reps: np.ndarray) -> float:
    """Max over probes of sup-metric distance to the nearest component.

    Each component is a representative plus the constant circle direction,
    so the distance from probe t is min_c max_g d(t_g - y_g - c), which is
    (1 - largest circular gap of {t_g - y_g}) / 2.  That is monotone in the
    gap, so the scan keeps the least over probes of each probe's largest gap
    and halves once; a probe's scan stops once its gap reaches that least.
    Probes lie in [0, 1) and representatives in [0, 1] (`% 1.0` rounds a tiny
    negative up to 1.0), so t - y lies in [-1, 1), where adding 1 to each
    negative difference gives the bits of `% 1.0`.
    """
    if reps.shape[1] == 1:
        return 0.0
    neg = -reps
    least = 1.0
    for t in probes:
        gap = 0.0
        for start in range(0, len(neg), PROBE_CHUNK):
            delta = neg[start : start + PROBE_CHUNK] + t
            delta += delta < 0
            delta.sort(axis=1, kind="stable")  # faster on short rows; no -0.0 or NaN here
            wrap = 1.0 - (delta[:, -1] - delta[:, 0])
            gap = max(gap, (delta[:, 1:] - delta[:, :-1]).max(), wrap.max())
            if gap >= least:
                break
        else:
            least = gap
    return float((1.0 - least) / 2.0)


def run_window_density(cfg: ExperimentConfig) -> Report:
    """Covering radius of harmonic-component window projections per quotient.

    Estimated on a probe set shared across the whole chain, so nested
    component sets (e.g. cycle chains with dividing moduli) give a
    non-increasing column exactly.
    """
    _check_exact_sizes(cfg)
    support = support_words(cfg.f)
    window = word_ball(cfg.family, cfg.radius, generators=support)
    probe_count = cfg.cap("probes")
    probes = rng_stream(cfg.seed).random((probe_count, len(window)))

    def row(i, q, lap):
        inj = injectivity_radius(q, r_max=cfg.radius, generators=support)
        if inj < cfg.radius:
            raise WindowError(
                f"window radius {cfg.radius} exceeds support injectivity radius {inj}"
            )
        verts = [q.coset_of(w) for w in window]
        reps, mode, order = _component_window_values(cfg, lap, verts, i)
        rad = _covering_radius(probes, reps)
        return (
            str(i),
            str(q.size),
            str(inj),
            str(len(window)),
            _int_text(order),
            mode,
            _fmt(rad),
        )

    columns = (
        "n",
        "N",
        "injectivity_radius",
        "window_size",
        "component_order",
        "mode",
        f"covering_radius_probes{probe_count}",
    )
    return Report("window-density", cfg.header_lines(), columns, _per_quotient(cfg, row))


# ----- walk-side reports -----------------------------------------------------


def _checkpoints(K: int, limit: int = 200) -> list:
    stride = max(1, -(-K // limit))
    ks = list(range(stride, K + 1, stride))
    if not ks or ks[-1] != K:
        ks.append(K)
    return ks


def run_tree_entropy(cfg: ExperimentConfig) -> Report:
    res = tree_entropy(cfg.f, cfg.K, engine=cfg.engine, **_walk_caps(cfg))
    partials = res.partials
    rows = [
        (str(k), _fmt(float(res.terms[k])), _fmt(float(partials[k])))
        for k in _checkpoints(cfg.K)
    ]
    notes = [
        f"engine: {res.engine}",
        f"value: {_fmt(res.value)}",
        f"tail_estimate: {_fmt(res.tail_estimate)}",
    ]
    notes.extend(res.notes)
    columns = ("k", "term", f"partial_entropy_K{cfg.K}")
    return Report("tree-entropy", cfg.header_lines(), columns, rows, tuple(notes))


def run_green(cfg: ExperimentConfig) -> Report:
    # one extra shell so the residual over the requested window is defined
    green = green_truncation(cfg.f, cfg.K, cfg.radius + 1, engine=cfg.engine, **_walk_caps(cfg))
    residual = formal_inverse_residual(green, cfg.radius)
    window = word_ball(cfg.family, cfg.radius, generators=support_words(cfg.f))
    rows = [(format_word(w), _fmt(green.values[w.normal])) for w in window]
    notes = [
        f"engine: {green.engine}",
        f"residual_radius{cfg.radius}: {_fmt(residual)}",
        f"tail_estimate: {_fmt(green.tail_estimate)}",
    ]
    notes.extend(green.warnings)
    columns = ("word", f"green_K{cfg.K}")
    return Report("green", cfg.header_lines(), columns, rows, tuple(notes))


def _support_radius(f, words) -> int:
    """Distance of the farthest word from the identity in f's support metric."""
    support = support_words(f)
    targets = {w.normal for w in words}
    for r in range(65):
        ball = {w.normal for w in word_ball(f.family, r, generators=support)}
        if targets <= ball:
            return r
    raise WindowError("element support lies outside the radius-64 ball")


def run_homoclinic(cfg: ExperimentConfig) -> Report:
    require_transient(cfg.family)
    h = cfg.h if cfg.h is not None else cfg.f
    h_rad = _support_radius(cfg.f, [w for w, _ in h.items()])
    green_radius = cfg.radius + h_rad + 1
    green = green_truncation(cfg.f, cfg.K, green_radius, engine=cfg.engine, **_walk_caps(cfg))
    res = homoclinic_point(h, green, window_radius=cfg.radius)
    window = word_ball(cfg.family, cfg.radius, generators=support_words(cfg.f))
    rows = []
    for w in window:
        resid = res.residuals.get(w.normal)
        rows.append(
            (
                format_word(w),
                _fmt_circle(res.values[w.normal]),
                "" if resid is None else _fmt(resid),
            )
        )
    notes = [f"residual_max: {_fmt(res.residual_max)}", f"green_radius: {green_radius}"]
    notes.extend(res.notes)
    columns = ("word", f"x_K{cfg.K}", "residual")
    return Report("homoclinic", cfg.header_lines(), columns, rows, tuple(notes))


def run_spectral_radius(cfg: ExperimentConfig) -> Report:
    probe = spectral_radius_probe(
        cfg.f, cfg.k_max, engine=cfg.engine, tol=cfg.tol, **_walk_caps(cfg)
    )
    rows = [
        (
            str(k),
            _fmt(probe.root_estimates[j]),
            _fmt(probe.ratio_estimates[j]),
            _fmt(probe.extrapolated_estimates[j]),
        )
        for j, k in enumerate(probe.k_values)
    ]
    notes = (
        f"estimate: {_fmt(probe.estimate)}",
        f"amenable_like: {str(probe.amenable_like).lower()}",
        f"tol: {_fmt(probe.tol)}",
        f"engine: {probe.engine}",
    )
    columns = ("k", "root_estimate", "ratio_estimate", "extrapolated_estimate")
    return Report("spectral-radius", cfg.header_lines(), columns, rows, notes)


class Operation(NamedTuple):
    """A report, its parameter defaults, and whether it needs a quotient chain."""

    run: Callable[[ExperimentConfig], Report]
    defaults: dict
    chain: bool


# in CLI order; the subcommands, their help and the golden corpus read it
OPERATIONS = {
    "identity": Operation(run_identity_suite, {"K": 80, "kappa": 0.0}, True),
    "tree-entropy": Operation(run_tree_entropy, {"K": 400}, False),
    "fk-det": Operation(run_fk_det, {"kappa": 0.0}, True),
    "sample-ust": Operation(run_sample_ust, {"samples": 10, "root": 0}, True),
    "wsf-marginals": Operation(run_forest_suite, {"samples": 2000, "radius": 1}, True),
    "green": Operation(run_green, {"K": 60, "radius": 2}, False),
    "homoclinic": Operation(run_homoclinic, {"K": 60, "radius": 1}, False),
    "spectral-radius": Operation(run_spectral_radius, {"k_max": 200, "tol": 0.05}, False),
    "window-density": Operation(run_window_density, {"radius": 1}, True),
}


def run(cfg: ExperimentConfig) -> Report:
    return OPERATIONS[cfg.operation].run(cfg)
