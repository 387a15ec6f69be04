"""Workload definitions: the CLI reports each benchmark workload runs.

A workload is a list of reports.  Each report is the argv a user would type
after ``groupforests``.  Sampling reports take the workload seed as
``--seed``; the deterministic reports do not, so their bytes are the same at
every seed and can be checked against a stored digest at any seed.

Why these four (each stresses a different layer, and each later
optimisation has one workload that exercises it and one that bypasses it):

- torus-exact: big-integer Bareiss and Smith (intmat) take over 90% of the
  pass; N <= 256, so the Laplacian build and the walks are negligible.
  ``identity`` runs Bareiss twice per quotient and ``fk-det`` once.
  ``window-density`` is the only caller of ``smith_with_transform``.
- wsf-chain: Wilson's loop-erased-walk sampler dominates (6000 useful trees
  plus 3 held-out draws); builds are about 2% of the pass.
- ust-large: one N=4096 quotient, so the O(N^2) dense Laplacian build and
  ``QuotientMultigraph`` dominate, with few samples.
- heisenberg: the only non-abelian path, the only user of the direct walk
  engine and of the dense ``eigvalsh``.  Its ``identity`` spends most of its
  time in a tree-entropy series that hits ``max_support`` and is dropped;
  ``spectral-radius`` runs the same engine to completion.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class ReportSpec:
    """One CLI report of a workload."""

    op: str
    family: str
    moduli: str | None = None
    extra: tuple = ()
    seeded: bool = False

    def argv(self, seed: int) -> list:
        argv = [self.op, "--family", self.family]
        if self.moduli is not None:
            argv += ["--moduli", self.moduli]
        argv += list(self.extra)
        if self.seeded:
            argv += ["--seed", str(seed)]
        return argv

    @property
    def metric(self) -> str:
        """Name of the per-report wall-time metric."""
        return self.op.replace("-", "_") + "_s"

    def option(self, flag: str, default=None):
        extra = list(self.extra)
        if flag in extra:
            return extra[extra.index(flag) + 1]
        return default

    def sizes(self) -> list:
        """Vertex count N of each quotient in the chain."""
        if self.moduli is None:
            return []
        out = []
        for part in self.moduli.split(";"):
            mods = [int(tok) for tok in part.split(",")]
            n = 1
            for m in mods:
                n *= m
            # H mod m has m^3 elements; a single modulus names it
            out.append(n**3 if self.family == "heisenberg" else n)
        return out

    @property
    def samples(self) -> int:
        return int(self.option("--samples", 0))


TORUS = "free-abelian:2"

# Per-report CLI defaults a check relies on: wsf-marginals uses window
# radius 1, whose window on Z^2 with the nearest-neighbour Laplacian is the
# 4 edges at the origin plus 3 more at each of its 4 neighbours.
WSF_WINDOW_EDGES = {TORUS: 16}

WORKLOADS = {
    "torus-exact": (
        ReportSpec("identity", TORUS, "8,8;12,12;16,16"),
        ReportSpec("fk-det", TORUS, "8,8;12,12;16,16"),
        ReportSpec("window-density", TORUS, "4,4;6,6;8,8", seeded=True),
    ),
    "wsf-chain": (
        ReportSpec("wsf-marginals", TORUS, "8,8;16,16;24,24", ("--samples", "2000"), seeded=True),
    ),
    "ust-large": (
        ReportSpec("sample-ust", TORUS, "64,64", ("--samples", "10"), seeded=True),
    ),
    "heisenberg": (
        ReportSpec("identity", "heisenberg", "3;5"),
        ReportSpec("fk-det", "heisenberg", "3;5;7"),
        ReportSpec("spectral-radius", "heisenberg", None, ("--k-max", "20")),
    ),
}

# Tiny configs with the same reports and code paths, for the benchmark's
# own tests.  The walk cap is lowered so the heisenberg identity still hits
# it, as the full workload does, within milliseconds.
SMOKE_WORKLOADS = {
    "torus-exact": (
        ReportSpec("identity", TORUS, "4,4"),
        ReportSpec("fk-det", TORUS, "4,4"),
        ReportSpec("window-density", TORUS, "4,4", seeded=True),
    ),
    "wsf-chain": (
        ReportSpec("wsf-marginals", TORUS, "6,6;8,8", ("--samples", "20"), seeded=True),
    ),
    "ust-large": (
        ReportSpec("sample-ust", TORUS, "4,4", ("--samples", "2"), seeded=True),
    ),
    "heisenberg": (
        ReportSpec("identity", "heisenberg", "3", ("--max-support", "2000")),
        ReportSpec("fk-det", "heisenberg", "3"),
        ReportSpec("spectral-radius", "heisenberg", None, ("--k-max", "6")),
    ),
}

# every per-report metric name, in order of first appearance
REPORT_METRICS = tuple(
    dict.fromkeys(spec.metric for specs in WORKLOADS.values() for spec in specs)
)
