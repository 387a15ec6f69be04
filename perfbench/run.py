"""Benchmark of the groupforests command line, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --smoke --trace 0|1

Run it from the root of a checkout: it imports the library from ``src/``
there and fails without printing a result when that is missing.

Each pass runs every report of the workload in process, as a user's
``groupforests`` call would: parse the argv, resolve the config, run, and
render the CSV.  Passes repeat while the next one is expected to end within
``--seconds``, at least two untraced or one traced pair (closed loop, one
client, ``--threads 1``, BLAS/OpenMP pinned to one thread).  Every report
is checked: by SHA-256 against reports captured at the default seed where the
bytes are known, and by independent checks of the CSV at every seed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes in which every library layer is wrapped, and
prints per-layer metrics from the traced passes, per-report times from the
untraced ones, and the tracing overhead between them; the spans go to
``perfbench/out/`` as JSON lines.  ``--smoke`` runs tiny configs once and
asserts that every metric in BENCHMARK.json is emitted with its unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import calibrate
from checks import check_report, load_digests, sha256
from tracing import Tracer, layer_totals
from workloads import DEFAULT_SEED, REPORT_METRICS, SMOKE_WORKLOADS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# set-up is a few milliseconds per report, so it is repeated this many times
# before the timed passes and reported as the median
SETUP_ROUNDS = 50

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics as the traced run computes them; the untraced per-report
# times are added under their REPORT_METRICS names.
LAYER_UNITS = {
    "cli.parse_s": "s",
    "runner.resolve_s": "s",
    "groups.quotient_s": "s",
    "groups.injectivity_s": "s",
    "groups.injectivity_calls": "count",
    "linalg.build_s": "s",
    "linalg.build_calls": "count",
    "linalg.builds_per_quotient": "ratio",
    "linalg.dense_mb": "MB_computed",
    "linalg.spectrum_s": "s",
    "linalg.char_spectrum_s": "s",
    "linalg.tree_count_self_s": "s",
    "linalg.component_group_self_s": "s",
    "intmat.bareiss_s": "s",
    "intmat.bareiss_calls": "count",
    "intmat.bareiss_per_quotient": "ratio",
    "intmat.det_bits": "bits",
    "intmat.smith_s": "s",
    "intmat.smith_calls": "count",
    "intmat.smith_transform_s": "s",
    "forests.multigraph_s": "s",
    "forests.multigraph_calls": "count",
    "forests.wilson_s": "s",
    "forests.wilson_calls": "count",
    "forests.wilson_us_per_vertex": "us",
    "forests.useful_tree_ratio": "ratio",
    "forests.lift_self_s": "s",
    "walks.series_s": "s",
    "walks.series_calls": "count",
    "walks.tree_entropy_s": "s",
    "walks.probe_s": "s",
    "walks.cap_hits": "count",
    "walks.wasted_s": "s",
    "walks.useful_ratio": "ratio",
    "runner.run_self_s": "s",
    "runner.render_s": "s",
    "runner.report_bytes": "bytes",
    "trace.overhead_pct": "%",
}
LAYER_UNITS.update((name, "s") for name in REPORT_METRICS)

# Seconds of layers or reports that some workload never reaches, which are
# then 0 on every run of it.  A time that reads the same on every run cannot
# be told from a constant, so the result line carries these as a share of the
# pass's wall time (name ending in _pct); the table prints both, and the span
# file keeps the seconds.
AS_SHARE = (
    "linalg.spectrum_s",
    "linalg.char_spectrum_s",
    "linalg.tree_count_self_s",
    "linalg.component_group_self_s",
    "intmat.bareiss_s",
    "intmat.smith_transform_s",
    "forests.multigraph_s",
    "forests.wilson_s",
    "forests.lift_self_s",
    "walks.series_s",
    "walks.tree_entropy_s",
    "walks.probe_s",
    "walks.wasted_s",
) + REPORT_METRICS

# 0 on workloads without Wilson's sampler, and a share would mean nothing
TABLE_ONLY = ("forests.wilson_us_per_vertex",)


def _share_name(name: str) -> str:
    return name[: -len("_s")] + "_pct"


SHARE_UNITS = {_share_name(name): "%" for name in AS_SHARE}

# the per-layer metrics of the result line, as declared in BENCHMARK.json
PER_LAYER = tuple(
    (_share_name(name), "%") if name in AS_SHARE else (name, unit)
    for name, unit in LAYER_UNITS.items()
    if name not in TABLE_ONLY
)

# reports whose every Wilson sample reaches the CSV
SAMPLING_OPS = ("sample-ust", "wsf-marginals")

_UNTRACED = contextlib.nullcontext()


def _untraced_span(name):
    return _UNTRACED


@dataclass
class Outcome:
    """One report of one pass: its CSV text (dropped once checked, keeping
    its digest and size), raw timings, problems found, and the machine-speed
    factor that turns its raw seconds into reference seconds."""

    spec: object
    text: str | None
    total: float
    problems: list
    speed: float = 1.0
    warmth: float | None = None
    digest: str | None = None
    size: int = 0

    @property
    def seconds(self) -> float:
        return self.total * self.speed


def load_library():
    """Import cli and runner from this checkout's src/, or exit nonzero."""
    src = ROOT / "src"
    package = src / "groupforests"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no library source under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    from groupforests import cli, runner

    if Path(cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported groupforests from {cli.__file__}, not from {package}")
    return cli, runner


def run_report(spec, seed, cli, runner, tracer=None) -> Outcome:
    """Time parse, resolve, run and render of one report.

    The raw time excludes the calibration kernel's samples; ``speed``
    converts it to reference seconds.
    """
    span = tracer.span if tracer is not None else _untraced_span
    text, problems = None, []
    with calibrate.SpeedSampler() as sampler:
        t0 = time.perf_counter()
        try:
            with span("cli.parse"):
                args = cli.build_parser().parse_args(spec.argv(seed))
            with span("runner.resolve"):
                cfg = cli.config_from_args(args)
            with span("runner.run"):
                report = runner.run(cfg)
            with span("runner.render"):
                text = report.to_csv()
        except Exception as err:  # a failing report is counted, never skipped
            traceback.print_exc()
            problems.append(f"raised {type(err).__name__}: {err}")
        elapsed = time.perf_counter() - t0 - sampler.overhead
    return Outcome(spec, text, elapsed, problems, sampler.speed, sampler.warmth)


def run_pass(workload, specs, seed, cli, runner, digests, tracer=None, pass_index=0) -> list:
    """Run, calibrate and check every report once."""
    outcomes = []
    for spec in specs:
        if tracer is not None:
            tracer.report = f"{workload}/pass{pass_index}/{spec.op}"
        outcomes.append(run_report(spec, seed, cli, runner, tracer))
    for out in outcomes:
        if out.text is None:
            continue
        out.problems += check_report(out.spec, out.text)
        out.digest, out.size = sha256(out.text), len(out.text.encode())
        out.text = None
        if digests is not None and (not out.spec.seeded or seed == DEFAULT_SEED):
            want = digests.get(f"{workload}/{out.spec.op}")
            if want is None:
                out.problems.append("no stored digest for this report")
            elif out.digest != want:
                out.problems.append("report bytes differ from the stored digest")
    return outcomes


def setup_times(specs, seed, cli, rounds: int) -> list:
    """Per round, the summed parse + resolve time of every report, in
    reference seconds."""
    out = []
    for _ in range(rounds):
        total = 0.0
        with calibrate.SpeedSampler() as sampler:
            for spec in specs:
                t0 = time.perf_counter()
                cli.config_from_args(cli.build_parser().parse_args(spec.argv(seed)))
                total += time.perf_counter() - t0
            total -= sampler.overhead
        out.append(total * sampler.speed)
    return out


def layer_metrics(totals: dict, specs, report_bytes: int, speed: float) -> dict:
    """Per-layer metrics of one traced pass from its span totals; times are
    scaled to reference seconds by the pass's speed factor."""

    def get(name, key="time"):
        value = totals.get(name, {}).get(key, 0)
        return value * speed if key in ("time", "self", "capped_time") else value

    quotients = sum(len(s.sizes()) for s in specs)
    useful_trees = sum(s.samples * len(s.sizes()) for s in specs if s.op in SAMPLING_OPS)
    wilson_calls = get("forests.wilson_sample", "calls")
    wilson_vertices = get("forests.wilson_sample", "value")
    series_s = get("walks.return_series")
    wasted_s = get("walks.return_series", "capped_time")
    return {
        "cli.parse_s": get("cli.parse"),
        "runner.resolve_s": get("runner.resolve"),
        "groups.quotient_s": get("groups.from_moduli"),
        "groups.injectivity_s": get("groups.injectivity_radius"),
        "groups.injectivity_calls": get("groups.injectivity_radius", "calls"),
        "linalg.build_s": get("linalg.build_laplacian"),
        "linalg.build_calls": get("linalg.build_laplacian", "calls"),
        "linalg.builds_per_quotient": (
            get("linalg.build_laplacian", "calls") / quotients if quotients else 0.0
        ),
        # int64 entries of every dense N x N Laplacian built, computed from N
        "linalg.dense_mb": 8 * get("linalg.build_laplacian", "value") / 2**20,
        "linalg.spectrum_s": get("linalg.spectrum"),
        "linalg.char_spectrum_s": get("linalg.free_abelian_spectrum"),
        "linalg.tree_count_self_s": get("linalg.spanning_tree_count", "self"),
        "linalg.component_group_self_s": get("linalg.harmonic_component_group", "self"),
        "intmat.bareiss_s": get("intmat.bareiss_determinant"),
        "intmat.bareiss_calls": get("intmat.bareiss_determinant", "calls"),
        "intmat.bareiss_per_quotient": (
            get("intmat.bareiss_determinant", "calls") / quotients if quotients else 0.0
        ),
        "intmat.det_bits": get("intmat.bareiss_determinant", "value"),
        "intmat.smith_s": get("intmat.smith_normal_form"),
        "intmat.smith_calls": get("intmat.smith_normal_form", "calls"),
        "intmat.smith_transform_s": get("intmat.smith_with_transform"),
        "forests.multigraph_s": get("forests.QuotientMultigraph"),
        "forests.multigraph_calls": get("forests.QuotientMultigraph", "calls"),
        "forests.wilson_s": get("forests.wilson_sample"),
        "forests.wilson_calls": wilson_calls,
        "forests.wilson_us_per_vertex": (
            1e6 * get("forests.wilson_sample") / wilson_vertices if wilson_vertices else 0.0
        ),
        # 1 when no tree was drawn: nothing was wasted
        "forests.useful_tree_ratio": useful_trees / wilson_calls if wilson_calls else 1.0,
        "forests.lift_self_s": get("forests.lift_marginals", "self"),
        "walks.series_s": series_s,
        "walks.series_calls": get("walks.return_series", "calls"),
        "walks.tree_entropy_s": get("walks.tree_entropy"),
        "walks.probe_s": get("walks.spectral_radius_probe"),
        "walks.cap_hits": get("walks.return_series", "capped"),
        "walks.wasted_s": wasted_s,
        "walks.useful_ratio": (series_s - wasted_s) / series_s if series_s else 1.0,
        "runner.run_self_s": get("runner.run", "self"),
        "runner.render_s": get("runner.render"),
        "runner.report_bytes": report_bytes,
    }


def with_shares(metrics: dict, wall: float) -> dict:
    """The metrics plus each AS_SHARE time as a percentage of wall."""
    out = dict(metrics)
    for name in AS_SHARE:
        if name in metrics:
            out[_share_name(name)] = 100.0 * metrics[name] / wall
    return out


def report_metrics(passes) -> list:
    """Per pass: each report's time (0 for reports the workload does not
    run) and its share of the pass."""
    out = []
    for p in passes:
        times = dict.fromkeys(REPORT_METRICS, 0.0)
        times.update((o.spec.metric, o.seconds) for o in p)
        out.append(with_shares(times, sum(o.seconds for o in p)))
    return out


def medians(per_pass: list) -> dict:
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}


def tail(values):
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it, or None below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return round(100.0 * (n - 10) / n, 1), ordered[n - 11]


def describe(name, unit, values) -> str:
    med = statistics.median(values)
    t = tail(values)
    tail_text = f"p{t[0]:g} {t[1]:.6g}" if t else "no tail percentile (n < 11)"
    return (
        f"  {name:32s} median {med:.6g} {unit}  n={len(values)}  {tail_text}  "
        f"min {min(values):.6g}  max {max(values):.6g}"
    )


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "thread_pin": {var: os.environ[var] for var in THREAD_VARS},
        "cli_threads": 1,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny configs, one pass")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    cli, runner = load_library()

    specs = (SMOKE_WORKLOADS if args.smoke else WORKLOADS)[args.workload]
    digests = None if args.smoke else load_digests()
    seconds = 0.0 if args.smoke else args.seconds
    prov = provenance(args)
    print("provenance: " + json.dumps(prov))

    setups = setup_times(specs, args.seed, cli, 3 if args.smoke else SETUP_ROUNDS)
    untraced, traced, layers = [], [], []
    problems = []
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    durations = []
    # start another pass (or untraced + traced pair) only if it is expected
    # to end within the run time, so a run's length stays near --seconds;
    # an untraced run makes at least two passes so its median is not a
    # single sample
    min_passes = 1 if args.trace or args.smoke else 2
    while len(durations) < min_passes or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        begin = time.perf_counter()
        plain = run_pass(args.workload, specs, args.seed, cli, runner, digests)
        untraced.append(plain)
        if tracer is None:
            durations.append(time.perf_counter() - begin)
            continue
        first_span = len(tracer.spans)
        with tracer.installed():
            outcomes = run_pass(
                args.workload, specs, args.seed, cli, runner, digests, tracer, len(traced)
            )
        for out, ref in zip(outcomes, plain):
            if out.digest is not None and ref.digest is not None and out.digest != ref.digest:
                out.problems.append("traced report bytes differ from the untraced run")
        traced.append(outcomes)
        report_bytes = sum(o.size for o in outcomes)
        speed = statistics.median(o.speed for o in outcomes)
        totals = layer_totals(tracer.spans[first_span:])
        layers.append(
            with_shares(
                layer_metrics(totals, specs, report_bytes, speed),
                sum(o.seconds for o in outcomes),
            )
        )
        durations.append(time.perf_counter() - begin)

    all_outcomes = [o for p in untraced + traced for o in p]
    for o in all_outcomes:
        for problem in o.problems:
            problems.append(f"{o.spec.op}: {problem}")
    attempted = len(all_outcomes)
    failed = sum(1 for o in all_outcomes if o.problems)
    walls = [sum(o.seconds for o in p) for p in untraced]
    raw_walls = [sum(o.total for o in p) for p in untraced]

    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"passes {len(untraced)} untraced, {len(traced)} traced  "
        f"reports attempted {attempted}  failed {failed}  error_rate {failed / attempted:g}"
    )
    for problem in sorted(set(problems)):
        print(f"FAILED {problem}", file=sys.stderr)
    print("times in reference seconds (raw seconds x machine-speed factor):")
    print(describe("wall_s", "s", walls))
    print(describe("setup_s", "s", setups))
    for j, spec in enumerate(specs):
        print(describe(spec.metric, "s", [p[j].seconds for p in untraced]))
    print(describe("raw wall seconds", "s", raw_walls))
    print(describe("speed factor", "x", [o.speed for p in untraced for o in p]))
    warmth = [o.warmth for p in untraced for o in p if o.warmth is not None]
    if warmth:
        print(describe("bracket / in-report kernel speed", "x", warmth))

    if args.trace:
        wall_traced = statistics.median(sum(o.seconds for o in p) for p in traced)
        wall_plain = statistics.median(walls)
        metrics = medians(layers)
        metrics["trace.overhead_pct"] = 100.0 * (wall_traced - wall_plain) / wall_plain
        metrics.update(medians(report_metrics(untraced)))
        print("per-layer metrics (times in reference seconds, shares of the pass wall):")
        all_units = {**LAYER_UNITS, **SHARE_UNITS}
        for name, unit in all_units.items():
            print(f"  {name:36s} {metrics[name]:.6g} {unit}")
        units = dict(PER_LAYER)
        OUT_DIR.mkdir(exist_ok=True)
        prefix = "smoke-" if args.smoke else ""
        path = OUT_DIR / f"{prefix}trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(path, {"provenance": prov, "metrics": metrics})
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        print_breakdown(tracer.spans, traced[0], specs)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    if args.smoke:
        for problem in check_declared(result["metrics"], args.trace):
            print(f"FAILED {problem}", file=sys.stderr)
            problems.append(problem)
    print(json.dumps(result))
    return 1 if problems else 0


def print_breakdown(spans, first_pass, specs) -> None:
    """Self time by layer within each report of the first traced pass."""
    ids = {o.spec.op for o in first_pass}
    by_report = {}
    for span in spans:
        op = (span.report or "").rsplit("/", 1)[-1]
        if op in ids and "/pass0/" in (span.report or ""):
            by_report.setdefault(op, []).append(span)
    for spec in specs:
        totals = layer_totals(by_report.get(spec.op, []))
        rows = sorted(totals.items(), key=lambda kv: -kv[1]["self"])
        whole = sum(t["self"] for t in totals.values()) or 1.0
        print(f"  self time in {spec.op} (traced pass 0, raw seconds):")
        for name, t in rows[:6]:
            print(
                f"    {name:34s} {t['self']:9.4f} s  {100 * t['self'] / whole:5.1f}%  "
                f"calls {t['calls']}"
                + (f"  capped {t['capped']} ({t['capped_time']:.4f} s)" if t["capped"] else "")
            )


def check_declared(emitted: dict, trace: int) -> list:
    """Problems where the metrics differ from BENCHMARK.json's names and units."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in emitted.items()}
    problems = []
    if want != got:
        problems.append(f"metrics {got} differ from BENCHMARK.json {want}")
    for name, m in emitted.items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"metric {name} has no finite value: {m['value']!r}")
    return problems


if __name__ == "__main__":
    sys.exit(main())
