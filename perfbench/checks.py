"""Output checks for benchmark reports, by routes independent of the library.

Each check reads only the CSV text and the report's own spec, and returns a
list of problems (empty when the report is correct).  Digest comparison
against reports captured from a known-good commit is done by the caller.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from workloads import WSF_WINDOW_EDGES, ReportSpec

DIGEST_FILE = Path(__file__).resolve().parent / "digests.json"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> dict:
    """SHA-256 of each full-size report at the default seed, by 'workload/op'."""
    return json.loads(DIGEST_FILE.read_text())


def parse_csv(text: str) -> tuple:
    """(columns, rows as dicts) of a report, skipping the '#' header block."""
    lines = [ln for ln in text.split("\n") if ln and not ln.startswith("#")]
    if not lines:
        return (), []
    columns = tuple(lines[0].split(","))
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"row has {len(cells)} cells, header has {len(columns)}: {ln!r}")
        rows.append(dict(zip(columns, cells)))
    return columns, rows


def _check_chain_rows(spec: ReportSpec, rows: list) -> list:
    sizes = spec.sizes()
    if len(rows) != len(sizes):
        return [f"{len(rows)} rows for {len(sizes)} quotients"]
    return [
        f"row {i}: N={row['N']}, expected {n}"
        for i, (row, n) in enumerate(zip(rows, sizes))
        if int(row["N"]) != n
    ]


def _check_identity(spec, rows):
    problems = _check_chain_rows(spec, rows)
    for i, row in enumerate(rows):
        if int(row["tau"]) != int(row["component_order"]):
            problems.append(f"row {i}: tau != component_order")
        if int(row["tau"]) < 1:
            problems.append(f"row {i}: tau < 1")
    return problems


def _check_fk_det(spec, rows):
    problems = _check_chain_rows(spec, rows)
    for i, row in enumerate(rows):
        if not float(row["consistency_gap"]) <= 1e-9:
            problems.append(f"row {i}: consistency_gap {row['consistency_gap']} > 1e-9")
    return problems


def _check_window_density(spec, rows):
    problems = _check_chain_rows(spec, rows)
    for i, row in enumerate(rows):
        radius = float(row[[c for c in row if c.startswith("covering_radius")][0]])
        if not 0.0 <= radius <= 0.5:
            problems.append(f"row {i}: covering radius {radius} outside [0, 1/2]")
        if int(row["component_order"]) < 1:
            problems.append(f"row {i}: component order < 1")
        if not (row["mode"] == "enumerated" or row["mode"].startswith("sampled(")):
            problems.append(f"row {i}: unknown mode {row['mode']!r}")
    return problems


def _check_wsf_marginals(spec, rows):
    problems = []
    sizes = spec.sizes()
    window = WSF_WINDOW_EDGES[spec.family]
    if len(rows) != window * len(sizes):
        problems.append(f"{len(rows)} rows, expected window {window} x chain {len(sizes)}")
    labels = {}
    for row in rows:
        q = int(row["n"])
        labels.setdefault(q, []).append(row["edge_word"])
        freq = float(row["frequency"])
        if not 0.0 <= freq <= 1.0:
            problems.append(f"quotient {q}: frequency {freq} outside [0, 1]")
        if int(row["samples"]) != spec.samples:
            problems.append(f"quotient {q}: samples {row['samples']} != {spec.samples}")
        n = sizes[q] if 0 <= q < len(sizes) else None
        if n is None or int(row["N"]) != n:
            problems.append(f"quotient {q}: N={row['N']} not in chain {sizes}")
        elif Fraction(row["mean_degree"]) != Fraction(2 * (n - 1), n):
            problems.append(f"quotient {q}: mean degree {row['mean_degree']} != 2(N-1)/N")
    if len({tuple(v) for v in labels.values()}) > 1:
        problems.append("window edge labels differ between quotients")
    return problems


def _find(parent: list, x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _check_sample_ust(spec, rows):
    """Every sample's edge rows must form a spanning tree (union-find)."""
    problems = []
    sizes = spec.sizes()
    trees = {}
    for row in rows:
        key = (int(row["n"]), int(row["sample"]))
        trees.setdefault(key, []).append((int(row["u"]), int(row["v"]), int(row["slot"])))
    expected = {(q, s) for q in range(len(sizes)) for s in range(spec.samples)}
    if set(trees) != expected:
        problems.append(f"{len(trees)} samples present, expected {len(expected)}")
    for (q, s), edges in sorted(trees.items()):
        if not 0 <= q < len(sizes):
            continue
        n = sizes[q]
        if len(edges) != n - 1:
            problems.append(f"quotient {q} sample {s}: {len(edges)} edges, expected {n - 1}")
            continue
        parent = list(range(n))
        for u, v, slot in edges:
            if not (0 <= u < v < n and slot >= 0):
                problems.append(f"quotient {q} sample {s}: bad edge ({u}, {v}, {slot})")
                break
            ru, rv = _find(parent, u), _find(parent, v)
            if ru == rv:
                problems.append(f"quotient {q} sample {s}: edges contain a cycle")
                break
            parent[ru] = rv
    return problems


def _check_spectral_radius(spec, rows):
    problems = []
    k_max = int(spec.option("--k-max"))
    ks = [int(row["k"]) for row in rows]
    if not ks or ks != sorted(ks) or ks[-1] > k_max or any(k % 2 for k in ks):
        problems.append(f"walk lengths {ks} are not ascending even values <= {k_max}")
    for row in rows:
        root = float(row["root_estimate"])
        if not 0.0 < root <= 1.0:
            problems.append(f"k={row['k']}: root estimate {root} outside (0, 1]")
    return problems


_CHECKS = {
    "identity": _check_identity,
    "fk-det": _check_fk_det,
    "window-density": _check_window_density,
    "wsf-marginals": _check_wsf_marginals,
    "sample-ust": _check_sample_ust,
    "spectral-radius": _check_spectral_radius,
}


def check_report(spec: ReportSpec, text: str) -> list:
    """Problems found in one report's CSV text by its independent check."""
    try:
        _, rows = parse_csv(text)
        return _CHECKS[spec.op](spec, rows)
    except (ValueError, KeyError, IndexError) as err:
        return [f"unreadable report: {type(err).__name__}: {err}"]
