"""Experiment runner and command-line interface.

CSV outputs are parsed back and checked against closed forms (cycle tree
counts, torus entropy limits, exact covering radii), and reruns are compared
byte for byte.
"""

import argparse
import contextlib
import dataclasses
import io
import itertools
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import groupforests
from groupforests import (
    FiniteQuotient,
    GroupFamily,
    IdentityMismatchError,
    QuotientLaplacian,
    cli,
    forests,
    intmat,
    laplacian_element,
    linalg,
    return_series,
    runner,
    walks,
)
from groupforests.groups import word_ball
from groupforests.runner import (
    ExperimentConfig,
    _component_window_values,
    _covering_radius,
    _int_text,
    parse_family,
    parse_moduli,
    resolve_config,
)
from test_golden import CONFIGS as GOLDEN_CONFIGS

Z = GroupFamily.free_abelian(1)


def run_cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def column(text, name):
    header, rows = parse_csv(text)
    idx = header.index(name)
    return [row[idx] for row in rows]


# what each operation resolves to with no parameters given
RESOLVED_PARAMS = ("K", "kappa", "samples", "radius", "k_max", "tol", "root")
RESOLVED_DEFAULTS = {
    "identity": (80, 0.0, 1000, 1, 200, 0.05, 0),
    "tree-entropy": (400, 0.0, 1000, 1, 200, 0.05, 0),
    "fk-det": (80, 0.0, 1000, 1, 200, 0.05, 0),
    "sample-ust": (80, 0.0, 10, 1, 200, 0.05, 0),
    "wsf-marginals": (80, 0.0, 2000, 1, 200, 0.05, 0),
    "green": (60, 0.0, 1000, 2, 200, 0.05, 0),
    "homoclinic": (60, 0.0, 1000, 1, 200, 0.05, 0),
    "spectral-radius": (80, 0.0, 1000, 1, 200, 0.05, 0),
    "window-density": (80, 0.0, 1000, 1, 200, 0.05, 0),
}
CHAIN_OPERATIONS = {"identity", "fk-det", "sample-ust", "wsf-marginals", "window-density"}


class TestConfigParsing:
    def test_family_specs(self):
        assert parse_family("free-abelian:2").kind == "free-abelian"
        assert parse_family("free_abelian:3").rank == 3
        assert parse_family("free:2").kind == "free"
        assert parse_family("heisenberg").kind == "heisenberg"
        # the kind:rank spelling parses for every family, Heisenberg's too
        assert parse_family("heisenberg:2") == parse_family("heisenberg")
        with pytest.raises(ValueError, match="^the Heisenberg family has exactly 2 generators$"):
            parse_family("heisenberg:3")
        with pytest.raises(ValueError):
            parse_family("free-abelian")
        with pytest.raises(ValueError, match="^unknown family kind 'dihedral'$"):
            parse_family("dihedral:4")
        with pytest.raises(ValueError):
            parse_family("free:x")

    def test_heisenberg_rank_spelling_gives_the_golden_report(self, capsys):
        golden = os.path.join(os.path.dirname(__file__), "golden", "identity-heisenberg.csv")
        with open(golden, encoding="utf-8") as fh:
            expected = fh.read()
        assert run_cli(["identity", "--family", "heisenberg:2", "--moduli", "3"]) == (0, expected)
        code, _ = run_cli(["identity", "--family", "heisenberg:3", "--moduli", "3"])
        assert code == 1
        assert capsys.readouterr().err == "error: the Heisenberg family has exactly 2 generators\n"

    def test_moduli_specs(self):
        assert parse_moduli("4,4;8,8") == [(4, 4), (8, 8)]
        assert parse_moduli("3;5") == [(3,), (5,)]
        assert parse_moduli("4x4") == [(4, 4)]
        with pytest.raises(ValueError):
            parse_moduli(" ; ")

    def test_resolve_defaults_per_operation(self):
        cfg = resolve_config("green", family="free:2")
        assert cfg.K == 60 and cfg.radius == 2
        cfg = resolve_config("wsf-marginals", family="free-abelian:1", moduli="6")
        assert cfg.samples == 2000 and cfg.radius == 1

    @pytest.mark.parametrize("operation", sorted(RESOLVED_DEFAULTS))
    def test_operation_table_defaults(self, operation):
        # written out, not read from runner.OPERATIONS: six of these values
        # (tree-entropy's K, the sample counts, green's and homoclinic's K and
        # green's radius) appear in no golden header
        cfg = resolve_config(operation, family="free-abelian:1", moduli="4")
        resolved = tuple(getattr(cfg, name) for name in RESOLVED_PARAMS)
        assert resolved == RESOLVED_DEFAULTS[operation]
        assert (cfg.seed, cfg.engine, cfg.out, cfg.caps) == (0, "auto", None, {})

    @pytest.mark.parametrize("operation", sorted(RESOLVED_DEFAULTS))
    def test_operation_table_chain_flag(self, operation):
        if operation in CHAIN_OPERATIONS:
            message = f"^operation '{operation}' needs at least one quotient$"
            with pytest.raises(ValueError, match=message):
                resolve_config(operation, family="free-abelian:1")
        else:
            cfg = resolve_config(operation, family="free-abelian:1")
            assert cfg.quotients == () and cfg.injectivity_radii == ()

    def test_rejects_unbalanced_f(self):
        from groupforests import NotWellBalancedError

        with pytest.raises(NotWellBalancedError):
            resolve_config("tree-entropy", family="free-abelian:1", f="e 2\na -2")

    def test_rejects_nonmonotone_chain(self):
        with pytest.raises(ValueError):
            resolve_config("identity", family="free-abelian:1", moduli="8;4")

    def test_requires_quotients_for_chain_operations(self):
        with pytest.raises(ValueError):
            resolve_config("identity", family="free-abelian:1")

    def test_rejects_unknown_operation(self):
        with pytest.raises(ValueError):
            resolve_config("plot", family="free-abelian:1")

    def test_caps_flow_into_config(self):
        cfg = resolve_config(
            "window-density", family="free-abelian:1", moduli="4", max_enumerate=7, probes=3
        )
        assert cfg.cap("max_enumerate") == 7
        assert cfg.cap("probes") == 3
        assert cfg.cap("max_dense") == 4096

    def test_param_keys_are_config_fields_or_caps(self):
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        for key, _, _ in cli._PARAMS:
            assert key in names or key in runner.DEFAULT_CAPS, key


def _reference_parser():
    """The parser as built before the nine subcommands shared one flag set:
    every subcommand adds its own copy of every flag."""
    parser = argparse.ArgumentParser(
        prog="groupforests",
        description="Spanning forests and harmonic invariants on finite group quotients.",
    )
    sub = parser.add_subparsers(dest="operation", required=True)
    for name in runner.OPERATIONS:
        p = sub.add_parser(name, help=cli._DESCRIPTIONS[name])
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
        for key, kind, text in cli._PARAMS:
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, help=text)
    return parser


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _reference_window_values(cfg, lap, window_vertices, stream_index):
    """_component_window_values as it was before it kept only the window's
    rows: the product for all N - 1 non-root vertices, then the selection."""
    n = lap.size
    if n == 1:
        return np.zeros((1, len(window_vertices))), "enumerated", 1
    factors, V = intmat.smith_with_transform(
        lap.reduced().tolist(), modulus=linalg.spanning_tree_count(lap)
    )
    order = math.prod(factors)
    cap = cfg.cap("max_enumerate")
    k = len(factors)
    if order <= cap:
        W = np.array(list(itertools.product(*[range(d) for d in factors])), dtype=float)
        W = W.reshape(-1, k)
        mode = "enumerated"
    else:
        rng = forests.rng_stream(cfg.seed, stream_index + 1)
        count = min(cap, 5000)
        W = np.column_stack([rng.integers(0, d, size=count).astype(float) for d in factors])
        mode = f"sampled({count})"
    scale = np.array(
        [[V[r][j] / factors[j] for j in range(k)] for r in range(n - 1)], dtype=float
    ).reshape(n - 1, k)
    vals = (scale @ W.T) % 1.0
    full = np.vstack([np.zeros((1, vals.shape[1])), vals])
    return full[window_vertices, :].T, mode, order


def _reference_covering_radius(probes, reps):
    """_covering_radius without the early stop: every probe scans every
    representative."""
    worst = 0.0
    for t in probes:
        delta = (t[None, :] - reps) % 1.0
        if delta.shape[1] == 1:
            return 0.0
        delta.sort(axis=1)
        gaps = np.diff(delta, axis=1).max(axis=1)
        wrap = 1.0 - (delta[:, -1] - delta[:, 0])
        nearest = float(((1.0 - np.maximum(gaps, wrap)) / 2.0).min())
        worst = max(worst, nearest)
    return worst


@st.composite
def covering_cases(draw):
    """Probes and representatives around the scan's chunk boundaries, with
    repeated rows and, on a coarse grid, tied distances.  Planted cases copy
    every probe into a row (often a chunk's first or last), so the answer is
    0 unless the scan misses one of those rows."""
    rows = draw(st.sampled_from([1, 255, 256, 257, 5000]))
    cols = draw(st.integers(2, 6))
    count = draw(st.integers(0, 12))
    distinct = draw(st.integers(1, rows))
    grid = draw(st.sampled_from([0, 4, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probes = rng.random((count, cols))
    reps = rng.random((distinct, cols))[rng.integers(0, distinct, size=rows)]
    if grid:
        probes, reps = np.floor(probes * grid) / grid, np.floor(reps * grid) / grid
    edges = sorted({i for i in (0, 255, 256, 511, 512, rows - 1) if i < rows})
    row = st.one_of(st.sampled_from(edges), st.integers(0, rows - 1))
    if draw(st.booleans()):
        for probe in probes:
            reps[draw(row)] = probe
    return probes, reps


# values at the ends of the probe scan's domain: t - r is then exactly -1.0,
# -2**-53 or -(1 - 2**-53), or a negative that rounds up to 1.0 once shifted
EDGE_PROBES = (0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53)
EDGE_REPS = (0.0, 1.0, 2.0**-60, 2.0**-53, 0.5 + 2.0**-53, 1.0 - 2.0**-53)


@st.composite
def edge_covering_cases(draw):
    """covering_cases with a share of the entries set to the domain's edges."""
    probes, reps = draw(covering_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from([0.1, 0.5, 1.0]))
    for values, edges in ((probes, EDGE_PROBES), (reps, EDGE_REPS)):
        mask = rng.random(values.shape) < share
        values[mask] = rng.choice(edges, size=int(mask.sum()))
    return probes, reps


def _plain_state(value):
    """A bit generator's state with its arrays as lists, comparable by ==."""
    if isinstance(value, dict):
        return {k: _plain_state(v) for k, v in value.items()}
    return np.asarray(value).tolist()


def _window_case(family, moduli, vertex_order=None):
    cfg = resolve_config("window-density", family=family, moduli=moduli)
    quotient = cfg.quotients[0]
    lap = linalg.build_laplacian(quotient, cfg.f)
    window = word_ball(cfg.family, cfg.radius, generators=walks.support_words(cfg.f))
    verts = [quotient.coset_of(w) for w in window]
    if vertex_order is not None:
        verts = [verts[i] for i in vertex_order]
    return cfg, lap, verts


class TestParser:
    def test_help_matches_the_reference(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        new, ref = cli.build_parser(), _reference_parser()
        assert new.format_help() == ref.format_help()
        new_subs, ref_subs = _subcommands(new), _subcommands(ref)
        assert list(new_subs) == list(ref_subs) == list(runner.OPERATIONS)
        for name in runner.OPERATIONS:
            assert new_subs[name].format_help() == ref_subs[name].format_help(), name

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_parse_matches_the_reference(self, name):
        argv = GOLDEN_CONFIGS[name]
        assert vars(cli.build_parser().parse_args(argv)) == vars(_reference_parser().parse_args(argv))

    def test_repeated_flags_start_empty_on_every_parse(self):
        # the nine subcommands share their Action objects, so an append
        # action must not carry one parse's list into the next
        parser = cli.build_parser()
        first = parser.parse_args(
            ["identity", "--quotient-file", "a.txt", "--quotient-file", "b.txt",
             "--ball-radius", "2", "--ball-radius", "3"]
        )
        assert first.quotient_file == ["a.txt", "b.txt"] and first.ball_radius == [2, 3]
        second = parser.parse_args(["fk-det", "--quotient-file", "c.txt"])
        assert second.quotient_file == ["c.txt"] and second.ball_radius is None
        third = parser.parse_args(["identity"])
        assert third.quotient_file is None and third.ball_radius is None
        assert first.quotient_file == ["a.txt", "b.txt"] and first.ball_radius == [2, 3]

    def test_import_leaves_yaml_unloaded(self):
        # PyYAML is imported by --config alone, not on every start
        src = os.path.dirname(os.path.dirname(groupforests.__file__))
        done = subprocess.run(
            [sys.executable, "-c", "import sys, groupforests.cli; print('yaml' in sys.modules)"],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.stdout == "False\n"


class TestIdentitySuite:
    def test_cycle_chain_tau_column(self):
        code, out = run_cli(
            ["identity", "--family", "free-abelian:1", "--moduli", "3;4;5;6;7;8;9;10;11;12"]
        )
        assert code == 0
        taus = column(out, "tau")
        orders = column(out, "component_order")
        assert taus == [str(m) for m in range(3, 13)]
        assert orders == taus

    def test_torus_chain_monotone_to_limit(self):
        code, out = run_cli(
            ["identity", "--family", "free-abelian:2", "--moduli", "4,4;8,8;12,12;16,16"]
        )
        assert code == 0
        vals = [float(v) for v in column(out, "log_tau_per_site")]
        assert vals == sorted(vals)
        assert abs(vals[-1] - 1.16624) < 0.05
        fk = [float(v) for v in column(out, "fk_eigen_kappa0")]
        n_sizes = [int(v) for v in column(out, "N")]
        for v, f_val, n in zip(vals, fk, n_sizes):
            assert abs(f_val - (v + math.log(n) / n)) < 1e-9

    def test_mismatch_exits_nonzero(self, monkeypatch, capsys):
        monkeypatch.setattr(runner, "spanning_tree_count", lambda lap: 999)
        code, _ = run_cli(["identity", "--family", "free-abelian:1", "--moduli", "3"])
        assert code == 1
        err = capsys.readouterr().err
        assert "quotient 0" in err and "component order" in err


    def test_one_determinant_per_quotient(self, monkeypatch):
        # tau doubles as the Smith modulus, so the modular determinant runs
        # at most once per quotient, and never on a nearest-neighbour torus
        # or Heisenberg quotient, whose tau is a character product
        calls = []
        real = linalg.modular_determinant

        def counted(rows):
            calls.append(len(rows))
            return real(rows)

        monkeypatch.setattr(linalg, "modular_determinant", counted)
        code, out = run_cli(["identity", "--family", "free-abelian:2", "--moduli", "3,3;4,4"])
        assert code == 0
        assert column(out, "tau") == column(out, "component_order") == ["11664", "42467328"]
        assert calls == []
        code, out = run_cli(["identity", "--family", "heisenberg", "--moduli", "3;5"])
        assert code == 0
        assert column(out, "tau") == column(out, "component_order")
        assert calls == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "free-abelian:2", "--moduli", "4,4", "--f", "e 6; a -2; A -2; b -1; B -1"],
            ["--family", "free-abelian:3", "--moduli", "2,2,3"],
        ],
        ids=["other-f", "rank-3"],
    )
    def test_other_tori_take_the_character_product(self, monkeypatch, argv):
        # a moduli quotient of a torus under another f, or of rank 3, takes
        # the character product too: the modular determinant never runs
        calls = []
        real = linalg.modular_determinant

        def counted(rows):
            calls.append(len(rows))
            return real(rows)

        monkeypatch.setattr(linalg, "modular_determinant", counted)
        code, out = run_cli(["identity", *argv])
        assert code == 0
        assert column(out, "tau") == column(out, "component_order")
        assert calls == []

    @pytest.mark.parametrize("wrong", [lambda t: 2 * t, lambda t: t + 1, lambda t: t - 1])
    def test_wrong_torus_tau_is_a_mismatch(self, monkeypatch, wrong):
        real = linalg._torus_tree_count
        monkeypatch.setattr(linalg, "_torus_tree_count", lambda moduli, f: wrong(real(moduli, f)))
        cfg = resolve_config("identity", family="free-abelian:2", moduli="4,4;3,5")
        with pytest.raises(IdentityMismatchError, match="component order"):
            runner.run_identity_suite(cfg)

    @pytest.mark.parametrize("wrong", [lambda t: 2 * t, lambda t: t + 1, lambda t: t - 1])
    def test_wrong_heisenberg_tau_is_a_mismatch(self, monkeypatch, wrong):
        # the Smith form of the sweep still certifies the character product
        real = linalg._heisenberg_tree_count
        monkeypatch.setattr(linalg, "_heisenberg_tree_count", lambda m: wrong(real(m)))
        cfg = resolve_config("identity", family="heisenberg", moduli="3;5")
        with pytest.raises(IdentityMismatchError, match="component order"):
            runner.run_identity_suite(cfg)

    def test_a_divisor_of_tau_is_a_mismatch(self, monkeypatch):
        # Z/9 has the subgroup Z/3, so a Smith form modulo tau / 3 = 3 alone
        # would multiply to 3; the exponent's solve refutes that order
        real = linalg._torus_tree_count
        monkeypatch.setattr(
            linalg, "_torus_tree_count", lambda moduli, f: real(moduli, f) // (3 if tuple(moduli) == (9,) else 1)
        )
        cfg = resolve_config("identity", family="free-abelian:1", moduli="8;9")
        with pytest.raises(IdentityMismatchError, match="component order"):
            runner.run_identity_suite(cfg)

    @pytest.mark.parametrize("operation", ["identity", "fk-det"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "free-abelian:2", "--moduli", "4,4;3,5"],
            ["--family", "free-abelian:1", "--moduli", "3;8"],
            ["--family", "free-abelian:3", "--moduli", "2,2,3"],
        ],
        ids=["torus", "cycle", "rank-3"],
    )
    def test_torus_reports_form_no_matrix(self, monkeypatch, operation, argv):
        # tau is a character product and the group a layer sweep on the
        # sparse entries (along c, the one side of 3 or more on 2 x 2 x 3),
        # so no N x N matrix is formed, and the bytes are the same
        expected = run_cli([operation, *argv])
        assert expected[0] == 0

        def refuse(*args):
            raise AssertionError("matrix kernel on a nearest-neighbour torus")

        monkeypatch.setattr(QuotientLaplacian, "matrix", property(refuse))
        monkeypatch.setattr(linalg, "modular_determinant", refuse)
        assert run_cli([operation, *argv]) == expected

    @pytest.mark.parametrize(
        "argv, sizes",
        [
            (["--family", "free:2", "--ball-radius", "2"], [16]),
            (("text", "free-abelian:2", (4, 4)), [15]),
            (["--family", "heisenberg", "--moduli", "5", "--f", "e 6; a -2; A -2; b -1; B -1"], [124]),
            (("text", "heisenberg", 3), [26]),
        ],
        ids=["free-ball", "text-quotient", "heisenberg-other-f", "heisenberg-text"],
    )
    def test_other_quotients_reach_the_modular_determinant(self, monkeypatch, tmp_path, argv, sizes):
        if argv[0] == "text":
            # the same quotient as from_moduli builds, but read from a file
            _, family, moduli = argv
            q_file = tmp_path / "q.quot"
            q_file.write_text(FiniteQuotient.from_moduli(parse_family(family), moduli).to_text())
            argv = ["--family", family, "--quotient-file", str(q_file)]
        calls = []
        real = linalg.modular_determinant

        def counted(rows):
            calls.append(len(rows))
            return real(rows)

        monkeypatch.setattr(linalg, "modular_determinant", counted)
        code, out = run_cli(["identity", *argv])
        assert code == 0
        assert column(out, "tau") == column(out, "component_order")
        assert calls == sizes

    @pytest.mark.parametrize(
        "argv, smith_runs, tau_bits, reduced_calls",
        [
            # the four right-hand sides miss a factor 2 of the exponent here:
            # the product falls short, and the retry modulo D tau / P reaches it
            (["--family", "free-abelian:2", "--moduli", "8,8"], [(15, 15), (15, 16)], [107], 0),
            # b is the generator of order 5, then 9: K is the shorter side
            (["--family", "free-abelian:2", "--moduli", "3,5;6,9"], [(5, 9), (11, 28)], [24, 90], 0),
            (["--family", "heisenberg", "--moduli", "3"], [(17, 7)], [43], 0),
            # the ball's group is nearly cyclic: its exponent is tau / 2
            (["--family", "free:2", "--ball-radius", "3"], [(52, 85)], [86], 2),
        ],
        ids=["torus", "torus-rect", "heisenberg", "free-ball"],
    )
    def test_component_group_route(self, monkeypatch, argv, smith_runs, tau_bits, reduced_calls):
        # tori and Heisenberg quotients take the layer sweep's (2K-1)-square
        # matrix and never read the reduced Laplacian (tau is a character
        # product); a free ball has no layers and reads it for tau
        # and again for the (N-1)-square Smith form.  Each Smith form runs
        # modulo the group's exponent or, on a retry, a multiple of it: a
        # proper divisor of tau, never tau itself
        orders, runs, reads = [], [], []
        real_certified, real_smith = linalg.certified_smith_form, intmat.smith_normal_form
        real_reduced = QuotientLaplacian.reduced

        def certified(matrix, order):
            orders.append(order)
            return real_certified(matrix, order)

        def smith(matrix, modulus=None):
            if modulus is not None:  # the injectivity radius's lattice checks have none
                runs.append((len(matrix), modulus, orders[-1]))
            return real_smith(matrix, modulus=modulus)

        def reduced(self):
            reads.append(self.size)
            return real_reduced(self)

        monkeypatch.setattr(linalg, "certified_smith_form", certified)
        monkeypatch.setattr(intmat, "smith_normal_form", smith)
        monkeypatch.setattr(QuotientLaplacian, "reduced", reduced)
        code, out = run_cli(["identity", *argv])
        assert code == 0
        assert column(out, "tau") == column(out, "component_order")
        assert orders == [int(t) for t in column(out, "tau")]
        assert [tau.bit_length() for tau in orders] == tau_bits
        assert [(rows, modulus.bit_length()) for rows, modulus, _ in runs] == smith_runs
        assert all(tau % modulus == 0 and modulus < tau for _, modulus, tau in runs)
        assert len(reads) == reduced_calls

    @pytest.mark.parametrize("operation", ["identity", "fk-det", "window-density"])
    def test_exact_reports_never_run_bareiss(self, monkeypatch, operation):
        # every tau is a character product or a modular determinant, so no
        # report runs Bareiss elimination through either binding
        calls = []

        def refused(rows):
            calls.append(len(rows))
            raise AssertionError("Bareiss elimination on the CLI path")

        monkeypatch.setattr(linalg, "bareiss_determinant", refused)
        monkeypatch.setattr(intmat, "bareiss_determinant", refused)
        for argv in (["--family", "heisenberg", "--moduli", "3"], ["--family", "free-abelian:2", "--moduli", "4,4"]):
            code, _ = run_cli([operation, *argv])
            assert code == 0
        assert calls == []


class TestIdentityEntropyColumn:
    """The Heisenberg entropy column's support cap is checked before any walk."""

    def test_capped_column_walks_nothing(self, monkeypatch):
        def refused(*args):
            raise AssertionError("the capped walk ran")

        monkeypatch.setattr(walks, "_box_powers", refused)
        golden = os.path.join(os.path.dirname(__file__), "golden", "identity-heisenberg.csv")
        with open(golden, encoding="utf-8") as fh:
            expected = fh.read()
        assert run_cli(["identity", "--family", "heisenberg", "--moduli", "3"]) == (0, expected)
        code, out = run_cli(["identity", "--family", "heisenberg", "--moduli", "3;5"])
        assert code == 0
        assert "# note: tree_entropy column skipped: walk support 209504 exceeds cap 200000 at step 31\n" in out
        assert column(out, "tau")[0] == column(expected, "tau")[0]
        assert column(out, "tree_entropy_K80") == ["", ""]

    def test_grid_engine_note(self):
        code, out = run_cli(["identity", "--family", "heisenberg", "--moduli", "3", "--engine", "grid"])
        assert code == 0
        assert "# note: tree_entropy column skipped: grid engine needs a free-abelian family\n" in out
        assert column(out, "tree_entropy_K80") == [""]

    def test_column_under_a_larger_cap(self):
        code, out = run_cli(
            ["identity", "--family", "heisenberg", "--moduli", "3", "--max-support", "1000000", "--K", "20"]
        )
        assert code == 0
        assert "# note: tree_entropy engine: direct\n" in out
        assert column(out, "tree_entropy_K20") == ["1.21528517395"]


class TestDenseCap:
    """Exact reports refuse an N past max_dense before any dense work."""

    @pytest.mark.parametrize("operation", ["identity", "fk-det", "window-density"])
    def test_fails_before_the_dense_matrix(self, monkeypatch, capsys, operation):
        def refuse(self):
            raise AssertionError("dense matrix formed before the cap check")

        monkeypatch.setattr(QuotientLaplacian, "matrix", property(refuse))
        argv = [operation, "--family", "free-abelian:2", "--moduli", "4,4", "--max-dense", "15"]
        code, out = run_cli(argv)
        assert code == 1 and out == ""
        err = capsys.readouterr().err
        assert "quotient 0" in err
        assert "N=16 exceeds max_dense=15" in err

    def test_cap_checks_every_quotient_first(self, monkeypatch, capsys):
        monkeypatch.setattr(
            runner, "build_laplacian", lambda *a: pytest.fail("work started before the cap check")
        )
        argv = ["fk-det", "--family", "free-abelian:1", "--moduli", "3;20", "--max-dense", "10"]
        assert run_cli(argv)[0] == 1
        assert "quotient 1" in capsys.readouterr().err

    def test_cap_at_the_size_runs(self):
        argv = ["identity", "--family", "free-abelian:2", "--moduli", "4,4", "--max-dense", "16"]
        code, out = run_cli(argv)
        assert code == 0
        assert column(out, "tau") == ["42467328"]


class TestForestSuite:
    def test_cycle_marginals_and_drift(self):
        code, out = run_cli(
            [
                "wsf-marginals",
                "--family",
                "free-abelian:1",
                "--moduli",
                "6;12",
                "--samples",
                "600",
                "--radius",
                "1",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        header, rows = parse_csv(out)
        fi, mi, di = header.index("frequency"), header.index("mean_degree"), header.index("drift")
        for row in rows:
            m = {"6": 6, "12": 12}[row[header.index("N")]]
            assert abs(float(row[fi]) - (m - 1) / m) < 0.05
        first, second = rows[0], rows[len(rows) // 2]
        assert first[mi] == "5/3" and second[mi] == "11/6"
        assert first[di] == "" and second[di] != ""

    def test_sample_ust_edge_lists(self):
        code, out = run_cli(
            ["sample-ust", "--family", "free-abelian:1", "--moduli", "5", "--samples", "4"]
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "sample", "u", "v", "slot"]
        assert len(rows) == 4 * 4
        assert "mean tree degree 8/5" in out

    @pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "pool"])
    def test_wsf_marginals_applies_step_cap(self, capfd, monkeypatch, cpus):
        # a worker's error reaches the user once, prefixed in the parent;
        # capfd also sees what a forked worker writes
        monkeypatch.setattr(forests, "_cpus", lambda: cpus)
        base = ["--family", "free-abelian:2", "--moduli", "8,8", "--samples", "3"]
        code, _ = run_cli(["wsf-marginals", *base, "--max-steps", "1"])
        assert code == 1
        (line,) = capfd.readouterr().err.splitlines()
        assert line.startswith("error: quotient 0 (Z^2 mod 8x8): random walk exceeded 1 steps")


class TestWalkReports:
    def test_tree_entropy_final_partial(self):
        code, out = run_cli(["tree-entropy", "--family", "free:2", "--K", "80"])
        assert code == 0
        header, rows = parse_csv(out)
        assert rows[-1][0] == "80"
        assert abs(float(rows[-1][2]) - math.log(27 / 8)) < 1e-6

    @pytest.mark.parametrize(
        "family, K", [("free-abelian:2", 400), ("heisenberg", 24), ("free:2", 40)]
    )
    def test_tree_entropy_row_k_reads_step_k(self, family, K):
        # the free-abelian:2 report prints every second step, so its odd-step
        # terms are the zeros of a walk that returns only at even steps
        code, out = run_cli(["tree-entropy", "--family", family, "--K", str(K)])
        assert code == 0
        series = return_series(laplacian_element(parse_family(family)), K).values
        _, rows = parse_csv(out)
        for k, term, _ in rows:
            assert term == runner._fmt(series[int(k)] / int(k)), k
        value = out.split("# note: value: ")[1].split("\n")[0]
        assert rows[-1][0] == str(K)
        assert abs(float(rows[-1][2]) - float(value)) < 1e-12

    def test_green_identity_value(self):
        code, out = run_cli(["green", "--family", "free:2", "--K", "60", "--radius", "1"])
        assert code == 0
        header, rows = parse_csv(out)
        values = {row[0]: float(row[1]) for row in rows}
        assert abs(values["e"] - 3 / 8) < 1e-3
        assert "residual_radius1" in out

    def test_homoclinic_residual_note(self):
        code, out = run_cli(["homoclinic", "--family", "free:2", "--K", "40"])
        assert code == 0
        note = [ln for ln in out.splitlines() if "residual_max" in ln][0]
        assert float(note.split(":")[-1]) < 1e-2

    @pytest.mark.parametrize(
        "args, engine",
        [
            (["--family", "heisenberg"], "direct"),
            (["--family", "free-abelian:3", "--engine", "direct"], "direct"),
            (["--family", "free-abelian:3"], "grid"),
            (["--family", "free:2"], "tree"),
        ],
    )
    def test_homoclinic_walks_once(self, args, engine, engine_passes):
        code, _ = run_cli(["homoclinic", *args, "--K", "12", "--radius", "1"])
        assert code == 0
        assert engine_passes == {engine: 1}

    @pytest.mark.parametrize("family", ["free:1", "free-abelian:1"])
    def test_homoclinic_refuses_recurrent_family(self, family, engine_passes, capsys):
        # both spellings of Z fail before any walk
        code, out = run_cli(["homoclinic", "--family", family, "--K", "20", "--radius", "1"])
        assert code == 1
        assert out == ""
        assert "walks are recurrent" in capsys.readouterr().err
        assert not engine_passes

    @pytest.mark.parametrize(
        "args",
        [
            ["tree-entropy", "--family", "free-abelian:2", "--K", "40"],
            ["spectral-radius", "--family", "free-abelian:2", "--k-max", "10"],
            ["green", "--family", "free-abelian:3", "--K", "10", "--radius", "1"],
        ],
        ids=["tree-entropy", "spectral-radius", "green"],
    )
    def test_tree_engine_refuses_non_free_family(self, args, capsys):
        code, out = run_cli([*args, "--engine", "tree"])
        assert code == 1
        assert out == ""
        assert "error: tree engine needs a free family" in capsys.readouterr().err

    def test_circle_cells_stay_below_one(self):
        # x_e = 0.9999999999999996 rounds to 1 in 12 digits and wraps to 0
        assert runner._fmt_circle(0.9999999999999996) == "0"
        assert runner._fmt_circle(0.99381796707) == "0.99381796707"
        assert runner._fmt_circle(0.0) == "0"

    def test_spectral_radius_verdicts(self):
        code, out = run_cli(["spectral-radius", "--family", "free:2", "--k-max", "60"])
        assert code == 0
        assert "amenable_like: false" in out
        code, out = run_cli(["spectral-radius", "--family", "free-abelian:1", "--k-max", "60"])
        assert code == 0
        assert "amenable_like: true" in out


class TestWindowDensity:
    def test_nested_cycles_shrink(self):
        code, out = run_cli(
            ["window-density", "--family", "free-abelian:1", "--moduli", "4;8;16", "--radius", "1"]
        )
        assert code == 0
        vals = [float(v) for v in column(out, "covering_radius_probes64")]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < vals[0]
        assert column(out, "mode") == ["enumerated"] * 3
        assert column(out, "component_order") == ["4", "8", "16"]

    def test_single_coordinate_is_filled_by_constants(self):
        code, out = run_cli(
            ["window-density", "--family", "free-abelian:1", "--moduli", "3", "--radius", "0"]
        )
        assert code == 0
        assert column(out, "covering_radius_probes64") == ["0"]
        assert column(out, "component_order") == ["3"]

    def test_trivial_quotient(self):
        code, out = run_cli(
            ["window-density", "--family", "free-abelian:1", "--moduli", "1", "--radius", "0"]
        )
        assert code == 0
        assert column(out, "component_order") == ["1"]
        assert column(out, "covering_radius_probes64") == ["0"]

    def test_window_beyond_injectivity_fails(self, capsys):
        code, _ = run_cli(
            ["window-density", "--family", "free-abelian:1", "--moduli", "4", "--radius", "2"]
        )
        assert code == 1
        assert "injectivity" in capsys.readouterr().err

    def test_sampled_mode_after_cap(self):
        code, out = run_cli(
            [
                "window-density",
                "--family",
                "free-abelian:1",
                "--moduli",
                "16",
                "--radius",
                "1",
                "--max-enumerate",
                "8",
            ]
        )
        assert code == 0
        assert column(out, "mode") == ["sampled(8)"]

    def test_exact_covering_radius_formula(self):
        # single diagonal component {(c, c)}: probe (0, 1/2) sits at sup
        # distance 1/4
        reps = np.zeros((1, 2))
        assert _covering_radius(np.array([[0.0, 0.5]]), reps) == pytest.approx(0.25)
        assert _covering_radius(np.array([[0.3, 0.3]]), reps) == pytest.approx(0.0)

    def test_cycle_component_values(self):
        from groupforests import build_laplacian, laplacian_element

        m = 8
        cfg = resolve_config("window-density", family="free-abelian:1", moduli=str(m))
        lap = build_laplacian(cfg.quotients[0], cfg.f)
        reps, mode, order = _component_window_values(cfg, lap, [0, 1], 0)
        assert mode == "enumerated" and order == m
        # window {identity, generator} projections are (0, k/m) up to order
        offsets = sorted((reps[:, 1] - reps[:, 0]) % 1.0)
        assert np.allclose(offsets, [k / m for k in range(m)])
        # worst probe sits halfway between adjacent components
        worst = _covering_radius(np.array([[0.0, 1 / (2 * m)]]), reps)
        assert worst == pytest.approx(1 / (4 * m))


class TestWindowDensityReference:
    """The pruned window rows and probe scan against the full computations
    they replace: the same floats, hence the same report bytes."""

    @given(covering_cases())
    def test_probe_scan_matches_full_scan(self, case):
        probes, reps = case
        assert _covering_radius(probes, reps) == _reference_covering_radius(probes, reps)

    @pytest.mark.parametrize("rows", [257, 5000])
    def test_every_row_is_scanned(self, rows):
        # row `at` is at sup distance 0 from the second probe, every other
        # row at 1/4 from it and at 0 from the first probe
        for at in (0, 255, 256, rows - 1):
            reps = np.tile([0.0, 0.5], (rows, 1))
            reps[at] = (0.3, 0.3)
            probes = np.array([[0.0, 0.5], [0.3, 0.3]])
            assert _covering_radius(probes, reps) == 0.0
            assert _covering_radius(probes[::-1], reps) == 0.0

    def test_probe_scan_edge_cases(self):
        reps = np.random.default_rng(0).random((300, 3))
        assert _covering_radius(np.zeros((0, 3)), reps) == 0.0
        assert _covering_radius(np.random.default_rng(1).random((4, 1)), reps[:, :1]) == 0.0
        assert _covering_radius(np.zeros((0, 1)), reps[:, :1]) == 0.0

    def test_shift_is_mod_one_on_the_domain(self):
        t = np.array(EDGE_PROBES)[:, None]
        diff = (-np.array(EDGE_REPS) + t).ravel()
        assert {-1.0, -(2.0**-53), -(1.0 - 2.0**-53)} <= set(diff.tolist())
        shifted = diff + (diff < 0)
        assert shifted.tobytes() == (diff % 1.0).tobytes() and 1.0 in shifted

    @given(edge_covering_cases())
    def test_domain_edges_match_full_scan(self, case):
        probes, reps = case
        assert _covering_radius(probes, reps) == _reference_covering_radius(probes, reps)

    @pytest.mark.parametrize("rows", [1, 7, 300])
    def test_domain_edges_fixed(self, rows):
        # each probe has a row at t - r = -1.0, -2**-53, -(1 - 2**-53) or a
        # tiny negative in some column, representatives hold 0.0 and 1.0, and
        # the probes are copied onto rows
        probes = np.array([[0.0, 0.0, 0.5], [2.0**-53, 0.5, 1.0 - 2.0**-53], [0.0, 2.0**-53, 0.0]])
        edges = np.array(
            [[1.0, 2.0**-53, 1.0 - 2.0**-53], [2.0**-60, 1.0, 0.5 + 2.0**-53], [0.0, 0.0, 1.0]]
        )
        reps = np.random.default_rng(rows).random((rows, 3))
        reps[: min(rows, 3)] = edges[: min(rows, 3)]
        for placed in (reps, np.vstack([reps, probes]), np.vstack([probes, reps])):
            for subset in (probes, probes[::-1], probes[:1]):
                expected = _reference_covering_radius(subset, placed)
                assert _covering_radius(subset, placed) == expected

    @pytest.mark.parametrize("seed, index", [(0, 1), (0, 3), (7, 2), (2**40, 12)])
    def test_unit_draws_leave_the_stream_as_it_was(self, seed, index):
        # `_component_window_values` puts zeros where a unit factor would draw
        rng = forests.rng_stream(seed, index)
        before = _plain_state(rng.bit_generator.state)
        assert not rng.integers(0, 1, size=5000).any()
        assert _plain_state(rng.bit_generator.state) == before
        rng.integers(0, 2, size=1)
        assert _plain_state(rng.bit_generator.state) != before

    @pytest.mark.parametrize(
        "family, moduli, vertex_order, mode",
        [
            ("free-abelian:1", "8", None, "enumerated"),
            ("free-abelian:2", "4,4", None, "sampled(5000)"),
            ("free-abelian:2", "6,6", None, "sampled(5000)"),
            ("free-abelian:2", "4,4", [3, 1, 0, 4, 2], "sampled(5000)"),
        ],
        ids=["cycle8", "torus4", "torus6", "torus4-root-third"],
    )
    def test_window_rows_match_full_product(self, family, moduli, vertex_order, mode):
        cfg, lap, verts = _window_case(family, moduli, vertex_order)
        assert vertex_order is None or verts[0] != 0
        reps, got_mode, order = _component_window_values(cfg, lap, verts, 0)
        ref_reps, ref_mode, ref_order = _reference_window_values(cfg, lap, verts, 0)
        assert (got_mode, order) == (ref_mode, ref_order) and got_mode == mode
        assert np.array_equal(reps, ref_reps)

    @pytest.mark.parametrize(
        "argv",
        [
            *(
                ["--family", "free-abelian:2", "--moduli", "4,4;6,6;8,8", "--seed", str(seed)]
                for seed in range(4)
            ),
            ["--family", "free-abelian:2", "--moduli", "4,4;6,6;8,8", "--probes", "512"],
            ["--family", "free-abelian:2", "--moduli", "6,6;8,8", "--radius", "2"],
            ["--family", "free-abelian:1", "--moduli", "8;16;32;64;128"],
        ],
        ids=["seed0", "seed1", "seed2", "seed3", "probes512", "radius2", "cycles"],
    )
    def test_report_bytes_match_reference(self, monkeypatch, argv):
        code, out = run_cli(["window-density", *argv])
        assert code == 0
        monkeypatch.setattr(runner, "_component_window_values", _reference_window_values)
        monkeypatch.setattr(runner, "_covering_radius", _reference_covering_radius)
        ref_code, ref_out = run_cli(["window-density", *argv])
        assert (code, out) == (ref_code, ref_out)


class TestOutputContract:
    def test_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = [
            "wsf-marginals",
            "--family",
            "free-abelian:2",
            "--moduli",
            "3,3;6,6",
            "--samples",
            "200",
            "--radius",
            "0",
            "--seed",
            "5",
        ]
        assert cli.main(base + ["--out", str(a)]) == 0
        assert cli.main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_threads_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["identity", "--family", "free-abelian:1", "--moduli", "3", "--threads", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_header_block_records_config(self):
        _, out = run_cli(
            ["green", "--family", "free:2", "--K", "25", "--radius", "1", "--seed", "9"]
        )
        assert "#   operation: green" in out
        assert "#   family: free:2" in out
        assert "#   K: 25" in out
        assert "#   seed: 9" in out
        assert out.startswith("# config:")

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.yml"
        cfg_file.write_text(
            "family: free-abelian:1\nmoduli: '4;8'\nsamples: 150\nradius: 0\nseed: 7\n"
        )
        _, out = run_cli(["wsf-marginals", "--config", str(cfg_file), "--samples", "50"])
        assert "#   samples: 50" in out
        assert "#   seed: 7" in out

    def test_config_file_matches_flags_byte_for_byte(self, tmp_path):
        cfg_file = tmp_path / "run.yml"
        cfg_file.write_text("family: free-abelian:1\nmoduli: '4;8'\nsamples: 40\nseed: 7\n")
        _, from_file = run_cli(["sample-ust", "--config", str(cfg_file)])
        flags = ["--family", "free-abelian:1", "--moduli", "4;8", "--samples", "40", "--seed", "7"]
        _, from_flags = run_cli(["sample-ust", *flags])
        assert from_file == from_flags

    @pytest.mark.parametrize("key", ["foo", "threads"])
    def test_config_file_unknown_key_exits_cleanly(self, tmp_path, capsys, key):
        cfg_file = tmp_path / "run.yml"
        cfg_file.write_text(f"family: free-abelian:1\nmoduli: '4'\n{key}: 3\n")
        code, _ = run_cli(["identity", "--config", str(cfg_file)])
        assert code == 1
        assert capsys.readouterr().err == f"error: unknown parameter '{key}'\n"

    def test_config_file_operation_key_exits_cleanly(self, tmp_path, capsys):
        # the operation is the subcommand; a file cannot set it a second time
        cfg_file = tmp_path / "run.yml"
        cfg_file.write_text("operation: fk-det\nfamily: free-abelian:1\nmoduli: '4'\n")
        code, out = run_cli(["identity", "--config", str(cfg_file)])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == "error: unknown parameter 'operation'\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("max_dense: [3]", "max_dense must be an integer, got [3]"),
            ("kappa: {a: 1}", "kappa must be a number, got {'a': 1}"),
            ("tol: [0.1]", "tol must be a number, got [0.1]"),
            ("seed: 2.9", "seed must be an integer, got 2.9"),
            ("samples: 2.7", "samples must be an integer, got 2.7"),
            ("K: true", "K must be an integer, got True"),
            ("radius: '1.5'", "radius must be an integer, got '1.5'"),
            ("max_grid_cells: -1", "max_grid_cells must be >= 0, got -1"),
            ("probes: -3", "probes must be >= 0, got -3"),
            ("max_steps: -5", "max_steps must be >= 0, got -5"),
            ("kappa: .nan", "kappa must be a finite number, got nan"),
            ("kappa: -.inf", "kappa must be a finite number, got -inf"),
            ("tol: nan", "tol must be a finite number, got 'nan'"),
            ("tol: .inf", "tol must be a finite number, got inf"),
        ],
    )
    def test_config_file_value_of_wrong_type_or_sign(self, tmp_path, capsys, line, message):
        cfg_file = tmp_path / "run.yml"
        cfg_file.write_text(f"family: free-abelian:2\nmoduli: '4,4'\n{line}\n")
        code, out = run_cli(["window-density", "--config", str(cfg_file)])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["fk-det", "--family", "free-abelian:2", "--moduli", "4,4", "--kappa", "nan"],
            ["fk-det", "--family", "free-abelian:2", "--moduli", "4,4", "--kappa", "inf"],
            ["spectral-radius", "--family", "free-abelian:2", "--k-max", "8", "--tol", "nan"],
        ],
        ids=["kappa-nan", "kappa-inf", "tol-nan"],
    )
    def test_non_finite_number_flag_is_refused(self, capsys, argv):
        # nan printed fk_eigen 0 on every row and amenable_like false
        code, out = run_cli(argv)
        assert code == 1 and out == ""
        key = argv[-2].removeprefix("--")
        assert capsys.readouterr().err == f"error: {key} must be a finite number, got {argv[-1]}\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("ball_radii: 3", "ball_radii must be a list, got 3"),
            ("ball_radii: '34'", "ball_radii must be a list, got '34'"),
            ("ball_radii: {a: 2}", "ball_radii must be a list, got {'a': 2}"),
            ("quotient_files: 3", "quotient_files must be a list, got 3"),
            ("quotient_files: run.quot", "quotient_files must be a list, got 'run.quot'"),
            ("quotient_files: [0]", "quotient_files must be a list of paths, got 0"),
            ("quotient_files: [true]", "quotient_files must be a list of paths, got True"),
        ],
    )
    def test_config_file_list_key_of_wrong_type(self, tmp_path, capsys, line, message):
        # a scalar was iterated ('34' built radii 3 and 4) or raised TypeError,
        # and a path of 0 read the quotient from stdin and closed it
        cfg_file = tmp_path / "run.yml"
        cfg_file.write_text(f"family: free:2\n{line}\n")
        code, out = run_cli(["fk-det", "--config", str(cfg_file)])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_config_file_empty_list_key_means_none(self, tmp_path):
        cfg_file = tmp_path / "run.yml"
        cfg_file.write_text("family: free:2\nball_radii: [2]\nquotient_files:\n")
        flags = ["--family", "free:2", "--ball-radius", "2"]
        assert run_cli(["fk-det", "--config", str(cfg_file)]) == run_cli(["fk-det", *flags])

    @pytest.mark.parametrize(
        "lines, flags",
        [
            ("moduli: 4\n", ["--moduli", "4"]),
            ("moduli: 4\nf: 'e 2; a -1; A -1'\n", ["--moduli", "4", "--f", "e 2; a -1; A -1"]),
        ],
        ids=["int-moduli", "f-text"],
    )
    def test_config_file_values_reach_resolve_as_flags(self, tmp_path, lines, flags):
        # an int moduli is read as its text, an f as terms split at ';'
        cfg_file = tmp_path / "run.yml"
        cfg_file.write_text(f"family: free-abelian:1\n{lines}")
        from_file = run_cli(["fk-det", "--config", str(cfg_file)])
        assert from_file[0] == 0
        assert from_file == run_cli(["fk-det", "--family", "free-abelian:1", *flags])

    def test_config_file_null_quotient_files_reads_no_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.yml"
        cfg_file.write_text("family: free:2\nquotient_files: null\n")
        assert run_cli(["fk-det", "--config", str(cfg_file)]) == (1, "")
        assert capsys.readouterr().err == "error: operation 'fk-det' needs at least one quotient\n"

    def test_config_file_null_family_is_the_spec_none(self, tmp_path, capsys):
        # not the default family, and not an AttributeError on None
        cfg_file = tmp_path / "run.yml"
        cfg_file.write_text("family: null\nmoduli: '4'\n")
        assert run_cli(["identity", "--config", str(cfg_file)]) == (1, "")
        assert capsys.readouterr().err == (
            "error: family spec 'None' needs 'kind:rank' (or 'heisenberg')\n"
        )

    def test_int_past_the_float_range_is_refused(self):
        # float() of it would raise OverflowError, which main does not catch
        with pytest.raises(ValueError, match="^kappa must be a finite number, got 1000"):
            resolve_config("fk-det", family="free-abelian:1", moduli="4", kappa=10**400)

    def test_config_file_malformed_yaml_exits_cleanly(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.yml"
        cfg_file.write_text("family: free-abelian:1\nK: [\n")
        code, out = run_cli(["identity", "--config", str(cfg_file)])
        assert code == 1 and out == ""
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg_file}: ")
        assert "Traceback" not in err

    def test_config_file_fractional_ball_radius_is_refused(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.yml"
        cfg_file.write_text("family: free:2\nball_radii: [2.5]\n")
        code, out = run_cli(["fk-det", "--config", str(cfg_file)])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == "error: ball_radii must be an integer, got 2.5\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["green", "--family", "free-abelian:3", "--max-grid-cells", "-1"],
            ["window-density", "--family", "free-abelian:2", "--moduli", "4,4", "--probes", "-3"],
            ["sample-ust", "--family", "free-abelian:2", "--moduli", "4,4", "--max-steps", "-5"],
        ],
        ids=["max_grid_cells", "probes", "max_steps"],
    )
    def test_negative_cap_flag_is_refused(self, capsys, argv):
        code, out = run_cli(argv)
        assert code == 1 and out == ""
        key = argv[-2].removeprefix("--").replace("-", "_")
        assert capsys.readouterr().err == f"error: {key} must be >= 0, got {argv[-1]}\n"

    def test_zero_probes_is_refused(self, capsys):
        # an empty probe set would print a covering radius of 0 on every row
        argv = ["window-density", "--family", "free-abelian:2", "--moduli", "4,4", "--probes", "0"]
        code, out = run_cli(argv)
        assert code == 1 and out == ""
        assert capsys.readouterr().err == "error: probes must be >= 1\n"

    def test_zero_max_enumerate_is_refused(self, capsys):
        # a cap of 0 sampled 0 components and ended in a NumPy reduction error
        argv = ["window-density", "--family", "free-abelian:2", "--moduli", "4,4"]
        code, out = run_cli([*argv, "--max-enumerate", "0"])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == "error: max_enumerate must be >= 1\n"
        code, out = run_cli([*argv, "--max-enumerate", "1"])
        assert code == 0 and "sampled(1)" in out

    def test_config_file_integral_values_keep_working(self, tmp_path):
        # YAML reads 1e-3 as text; 3.0 samples and seed 2.0 are whole numbers
        cfg_file = tmp_path / "run.yml"
        cfg_file.write_text("family: free-abelian:2\nmoduli: '3,3'\nsamples: 3.0\nseed: 2.0\n")
        flags = ["--family", "free-abelian:2", "--moduli", "3,3", "--samples", "3", "--seed", "2"]
        assert run_cli(["sample-ust", "--config", str(cfg_file)]) == run_cli(["sample-ust", *flags])
        cfg = resolve_config("fk-det", family="free-abelian:1", moduli="4", kappa="1e-3", K="7")
        assert (cfg.kappa, cfg.K) == (0.001, 7)

    @pytest.mark.parametrize("seed", [-1, -2, 2**64])
    @pytest.mark.parametrize(
        "argv",
        [
            ["fk-det", "--family", "free:2", "--ball-radius", "2"],
            ["wsf-marginals", "--family", "free-abelian:2", "--moduli", "6,6", "--samples", "50"],
        ],
    )
    def test_seed_outside_64_bits_is_refused(self, capsys, argv, seed):
        code, out = run_cli([*argv, "--seed", str(seed)])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == f"error: seed must be in [0, 2**64), got {seed}\n"

    def test_seeds_past_2_63_draw_distinct_trees(self):
        argv = ["sample-ust", "--family", "free-abelian:2", "--moduli", "4,4", "--samples", "5"]
        outs = [run_cli([*argv, "--seed", str(s)]) for s in (2**63, 2**63 + 1, 2**64 - 1)]
        assert all(code == 0 for code, _ in outs)
        assert len({tuple(map(tuple, parse_csv(out)[1])) for _, out in outs}) == 3

    def test_f_file(self, tmp_path):
        f_file = tmp_path / "elem.txt"
        f_file.write_text("e 4\na -2\nA -2\n")
        code, out = run_cli(
            [
                "sample-ust",
                "--family",
                "free-abelian:1",
                "--moduli",
                "6",
                "--samples",
                "2",
                "--f-file",
                str(f_file),
            ]
        )
        assert code == 0
        assert "a -2" in out

    def test_quotient_file(self, tmp_path):
        q = FiniteQuotient.from_moduli(Z, (5,))
        q_file = tmp_path / "c5.quot"
        q_file.write_text(q.to_text())
        code, out = run_cli(
            ["identity", "--family", "free-abelian:1", "--quotient-file", str(q_file)]
        )
        assert code == 0
        assert column(out, "tau") == ["5"]
        assert str(q_file) in out

    def test_quotient_file_that_is_not_utf8_is_named(self, tmp_path, capsys):
        q_file = tmp_path / "bad.quot"
        q_file.write_bytes(b"3 2\n\xff\xfe 1\n")
        code, out = run_cli(["identity", "--family", "free:2", "--quotient-file", str(q_file)])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == (
            f"error: quotient 0 ({q_file}): 'utf-8' codec can't decode byte 0xff "
            "in position 4: invalid start byte\n"
        )

    @pytest.mark.parametrize("flag", ["--f-file", "--h-file"])
    def test_element_file_that_is_not_utf8_is_named(self, tmp_path, capsys, flag):
        bad = tmp_path / "elem.txt"
        bad.write_bytes(b"e 4\n\xff -2\n")
        code, out = run_cli(["homoclinic", "--family", "heisenberg", flag, str(bad)])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == (
            f"error: {flag} {bad}: 'utf-8' codec can't decode byte 0xff "
            "in position 4: invalid start byte\n"
        )

    @pytest.mark.parametrize(
        "family, message",
        [
            ("free-abelian:2", "generators 1,2 do not commute"),
            ("heisenberg", "commutator is not central in the quotient"),
        ],
    )
    def test_quotient_file_must_satisfy_the_relations(self, tmp_path, capsys, family, message):
        # S3 is a quotient of F2 but of neither Z^2 nor H
        q_file = tmp_path / "s3.quot"
        q_file.write_text("3 2\n1 2 0\n1 0 2\n")
        code, out = run_cli(["identity", "--family", family, "--quotient-file", str(q_file)])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == f"error: quotient 0 ({q_file}): {message}\n"

    def test_error_exit_paths(self, capsys):
        assert run_cli(["identity", "--family", "free-abelian:1"])[0] == 1
        assert "error:" in capsys.readouterr().err
        assert run_cli(["green", "--family", "nonsense:1"])[0] == 1
        capsys.readouterr()
        assert run_cli(["tree-entropy", "--family", "free-abelian:1", "--f", "e 1; a -1"])[0] == 1


class TestRuntimeChecks:
    """sample-ust validates every tree it samples, and python -O keeps the check."""

    @staticmethod
    def repeated_edge(tree):
        return dataclasses.replace(tree, copies=tree.copies[[0] * len(tree.copies)])

    @staticmethod
    def cyclic_edges(tree):
        # two copies of one doubled pair close a cycle on its endpoints
        return dataclasses.replace(tree, copies=np.array([[0, 1, 0], [0, 1, 1]]))

    @staticmethod
    def forged_copy(tree):
        # the pair (0, 1) has two copies, slots 0 and 1
        return dataclasses.replace(tree, copies=np.array([[0, 1, 0], [0, 1, 2]]))

    @pytest.mark.parametrize(
        "corrupt, f, message",
        [
            ("repeated_edge", None, "repeated edge copy"),
            ("cyclic_edges", "e 4\na -2\nA -2", "edge set contains a cycle"),
            ("forged_copy", "e 4\na -2\nA -2", r"edge \(0, 1, 2\) is not a copy"),
        ],
        ids=["repeated", "cycle", "forged"],
    )
    def test_invalid_tree_raises(self, monkeypatch, corrupt, f, message):
        real = runner.wilson_sample
        bad = getattr(self, corrupt)
        monkeypatch.setattr(runner, "wilson_sample", lambda *a, **kw: bad(real(*a, **kw)))
        cfg = resolve_config("sample-ust", family="free-abelian:1", f=f, moduli="3", samples=2)
        with pytest.raises(AssertionError, match=message):
            runner.run(cfg)

    def test_check_survives_optimized_mode(self):
        script = (
            "import dataclasses\n"
            "from groupforests import runner\n"
            "real = runner.wilson_sample\n"
            "def bad(*args, **kwargs):\n"
            "    tree = real(*args, **kwargs)\n"
            "    return dataclasses.replace(tree, copies=tree.copies[[0] * len(tree.copies)])\n"
            "runner.wilson_sample = bad\n"
            "cfg = runner.resolve_config('sample-ust', family='free-abelian:1', moduli='5')\n"
            "try:\n"
            "    runner.run(cfg)\n"
            "except AssertionError as err:\n"
            "    print('raised:', err)\n"
        )
        src = os.path.dirname(os.path.dirname(groupforests.__file__))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.stdout.startswith("raised: repeated edge copy")


class TestLargeIntegers:
    BIG = 10**5000 + 7
    BIG_TEXT = "1" + "0" * 4999 + "7"

    @pytest.mark.parametrize(
        "family, moduli, fe, rest",
        [
            # printed the same wrong 151-digit tau in both columns and exited 0
            ("free-abelian:2", "3,3", 2**63 + 4, "; ".join(f"{w} -{2**61 + 1}" for w in "aAbB")),
            # an OverflowError traceback while filling the int64 arrays
            ("free-abelian:1", "3", 2**65, f"a -{2**64}; A -{2**64}"),
            # a and A both join the 2-cycle's vertices: their sum wrapped positive
            ("free-abelian:1", "2", 2**63 + 2, f"a -{2**62 + 1}; A -{2**62 + 1}"),
        ],
        ids=["wrapped-tau", "overflow", "wrapped-entry"],
    )
    def test_refuses_identity_coefficient_past_int64(self, capsys, family, moduli, fe, rest):
        argv = ["identity", "--family", family, "--moduli", moduli, "--f", f"e {fe}; {rest}"]
        assert run_cli(argv) == (1, "")
        assert capsys.readouterr().err == (
            f"error: identity coefficient {fe} is 2**63 or more; Laplacian entries are int64\n"
        )

    def test_largest_identity_coefficient_builds(self):
        # f_e = 2**63 - 2 on the 2-cycle: its one entry -(2**63 - 2) still fits
        w = 2**62 - 1
        f = f"e {2 * w}; a -{w}; A -{w}"
        code, out = run_cli(["identity", "--family", "free-abelian:1", "--moduli", "2;3", "--f", f])
        assert code == 0
        assert column(out, "tau") == column(out, "component_order") == [str(2 * w), str(3 * w * w)]

    def test_int_text_past_the_digit_limit(self):
        assert _int_text(self.BIG) == self.BIG_TEXT
        assert _int_text(-self.BIG) == "-" + self.BIG_TEXT
        assert _int_text(12345) == "12345"
        assert _int_text(0) == "0"

    def test_identity_renders_huge_tau(self, monkeypatch):
        monkeypatch.setattr(runner, "spanning_tree_count", lambda lap: self.BIG)
        monkeypatch.setattr(
            runner,
            "harmonic_component_group",
            lambda lap, modulus=None: types.SimpleNamespace(order=self.BIG),
        )
        cfg = resolve_config("identity", family="free-abelian:1", moduli="5", K=4)
        text = runner.run(cfg).to_csv()
        assert column(text, "tau") == [self.BIG_TEXT]
        assert column(text, "component_order") == [self.BIG_TEXT]
