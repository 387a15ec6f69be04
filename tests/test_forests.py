"""Uniform spanning tree sampling and lifted marginals.

The sampling law is checked against exhaustive spanning-tree enumeration
(union-find over edge-copy subsets), and every statistical tolerance is at
least four standard errors wide at the stated sample counts.
"""

import functools
import itertools
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_linalg import multigraph_oracle, quotient_cases, symbol_decode

import groupforests
from groupforests import (
    DisconnectedGraphError,
    FamilyMismatchError,
    FiniteQuotient,
    GroupFamily,
    NotWellBalancedError,
    QuotientLaplacian,
    QuotientMultigraph,
    ResourceLimitError,
    SpanningTree,
    WindowError,
    build_laplacian,
    free_ball_quotient,
    injectivity_radius,
    laplacian_element,
    lift_marginals,
    parse_group_ring,
    rng_stream,
    spanning_tree_count,
    wilson_sample,
)
from groupforests import forests
from groupforests.forests import _wilson_exits, _window_edges

Z = GroupFamily.free_abelian(1)
Z2 = GroupFamily.free_abelian(2)
F2 = GroupFamily.free(2)
H = GroupFamily.heisenberg()


def cycle_graph(m, f_text=None):
    f = laplacian_element(Z) if f_text is None else parse_group_ring(Z, f_text)
    q = FiniteQuotient.from_moduli(Z, (m,))
    return QuotientMultigraph(build_laplacian(q, f))


def k4_graph():
    # hand-built: no self-adjoint f gives K4's matching edges singly, as a
    # 2-cycle of a Cayley graph has multiplicity f_s + f_{s^-1}
    return hand_graph(4 * np.eye(4, dtype=np.int64) - 1)


def torus_graph(m):
    q = FiniteQuotient.from_moduli(Z2, (m, m))
    return QuotientMultigraph(build_laplacian(q, laplacian_element(Z2)))


def hand_graph(rows):
    return QuotientMultigraph(QuotientLaplacian(np.array(rows)))


def is_spanning_tree(graph, edges):
    """Oracle: n-1 distinct copies that union-find merges without a cycle."""
    n = graph.n
    if len(edges) != n - 1 or len(set(edges)) != len(edges):
        return False
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def copy_array(edges):
    """Triples as the (len, 3) int64 array a SpanningTree holds."""
    return np.array(edges, dtype=np.int64).reshape(-1, 3)


def all_spanning_trees(graph):
    """Oracle: every (n-1)-subset of edge copies that is acyclic and spanning."""
    return [
        frozenset(subset)
        for subset in itertools.combinations(edge_copies(graph), graph.n - 1)
        if is_spanning_tree(graph, subset)
    ]


def edge_copies(graph):
    """Every (u, v, slot) copy, from the pair scan of the dense Laplacian."""
    bundles, _, _ = multigraph_oracle(graph.laplacian.matrix)
    return [(u, v, slot) for u, v, m in bundles for slot in range(m)]


def wilson_oracle(graph, root, gen):
    """Wilson's walk one step at a time, as the sampler was first written.

    Each step takes the next double of a 64-double block, leaves v by
    incidence[v][int(x * degree)] of the pair scan and records that copy;
    erasing the loop keeps each vertex's last record.  Returns the sorted
    (u, v, slot) tree edges and the number of steps.
    """
    n = graph.n
    _, incidence, _ = multigraph_oracle(graph.laplacian.matrix)
    in_tree = bytearray(n)
    in_tree[root] = 1
    nxt = [None] * n
    buf, pos, steps = None, 64, 0
    for start in range(n):
        v = start
        while not in_tree[v]:
            if pos == 64:
                buf, pos = gen.random(64), 0
            inc = incidence[v]
            nxt[v] = inc[int(buf[pos] * len(inc))]
            pos += 1
            steps += 1
            v = nxt[v][0]
        v = start
        while not in_tree[v]:
            in_tree[v] = 1
            v = nxt[v][0]
    exits = ((v, nxt[v][0], nxt[v][2]) for v in range(n) if v != root)
    return tuple(sorted((min(v, x), max(v, x), slot) for v, x, slot in exits)), steps


class ScriptedGenerator(np.random.Generator):
    """A Generator whose random(k) reads the next k values of a fixed script.

    The script is the given head followed by filler forever, so any block
    size consumes the same sequence of doubles.
    """

    def __init__(self, head, filler=0.1):
        super().__init__(np.random.PCG64(0))
        self.head, self.filler, self.pos = list(head), filler, 0

    def random(self, k):
        out = np.full(k, self.filler)
        head = self.head[self.pos : self.pos + k]
        out[: len(head)] = head
        self.pos += k
        return out


@st.composite
def connected_multigraphs(draw):
    """A random spanning tree plus extra edges, with multiplicities up to 3."""
    n = draw(st.integers(1, 12))
    mult = st.integers(1, 3)
    edges = [(draw(st.integers(0, i - 1)), i, draw(mult)) for i in range(1, n)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), mult)
    edges += [e for e in draw(st.lists(pair, max_size=2 * n)) if e[0] != e[1]]
    lap = np.zeros((n, n), dtype=np.int64)
    for u, v, m in edges:
        lap[[u, v], [v, u]] -= m
        lap[[u, v], [u, v]] += m
    return hand_graph(lap)


class TestMultigraph:
    def test_bundles_match_laplacian(self):
        g = k4_graph()
        assert g.n == 4
        assert g.neighbours == ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
        assert not g.copy_slot.any()
        assert np.diff(g.offsets).tolist() == [3, 3, 3, 3]
        assert g.regular_degree == 3

    def test_parallel_copies(self):
        g = cycle_graph(2)
        assert g.neighbours == ((1, 1), (0, 0))
        assert g.copy_slot.tolist() == [0, 1, 0, 1]
        assert np.diff(g.offsets).tolist() == [2, 2]

    def test_symbol_decode(self):
        g = cycle_graph(5)
        q, M = g.laplacian.quotient, g.laplacian.matrix
        for (u, v), symbols in symbol_decode(g.laplacian).items():
            assert len(symbols) == -M[u][v]
            for word, j in symbols:
                assert q.act(u, word) == v

    def test_hand_graph_rows(self):
        # a double edge {0, 1} and a single {0, 2}: rows by neighbour, then slot
        g = hand_graph([[3, -2, -1], [-2, 2, 0], [-1, 0, 1]])
        assert g.offsets.tolist() == [0, 3, 5, 6]
        assert g.copy_neighbour.tolist() == [1, 1, 2, 0, 0, 0]
        assert g.copy_slot.tolist() == [0, 1, 0, 0, 1, 0]
        assert g.neighbours == ((1, 1, 2), (0, 0), (0,))
        assert g.regular_degree is None

    def test_tree_count_equals_enumeration(self):
        for g in (k4_graph(), cycle_graph(4), cycle_graph(4, "e 4\na -2\nA -2")):
            assert len(all_spanning_trees(g)) == spanning_tree_count(g.laplacian)


class TestLargeQuotient:
    def test_torus_128_builds_sparse(self, monkeypatch):
        # the dense route would need a 2 GB int64 matrix at N = 16384
        def refuse(self):
            raise AssertionError("dense matrix formed")

        monkeypatch.setattr(QuotientLaplacian, "matrix", property(refuse))
        q = FiniteQuotient.from_moduli(Z2, (128, 128))
        f = laplacian_element(Z2)
        tracemalloc.start()
        try:
            graph = QuotientMultigraph(build_laplacian(q, f))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert graph.n == 16384
        assert graph.regular_degree == 4 and graph.offsets[-1] == 4 * 16384
        assert not graph.copy_slot.any()  # 2 * 16384 edges, none parallel
        assert graph.neighbours[0] == (1, 127, 128, 16256)
        tree = wilson_sample(graph, rng=rng_stream(0))
        tree.validate()


class TestWilson:
    def test_every_sample_is_a_tree(self):
        g = k4_graph()
        valid = set(all_spanning_trees(g))
        for i in range(300):
            t = wilson_sample(g, root=i % 4, rng=rng_stream(1, 0, i))
            t.validate()
            assert frozenset(t.edges) in valid

    def test_uniform_on_complete_graph(self):
        # 16 trees; 20000 samples puts six standard errors near 0.011
        g = k4_graph()
        m = 20000
        seen = Counter(wilson_sample(g, rng=rng_stream(2, 0, i)).edges for i in range(m))
        assert len(seen) == 16
        for count in seen.values():
            assert abs(count / m - 1 / 16) < 0.011

    def test_uniform_on_cycle(self):
        g = cycle_graph(4)
        m = 20000
        seen = Counter(wilson_sample(g, rng=rng_stream(3, 0, i)).edges for i in range(m))
        assert len(seen) == 4
        for count in seen.values():
            assert abs(count / m - 1 / 4) < 0.02

    def test_parallel_edges_fair(self):
        g = cycle_graph(2)
        m = 10000
        seen = Counter(wilson_sample(g, rng=rng_stream(4, 0, i)).edges for i in range(m))
        assert len(seen) == 2
        for count in seen.values():
            assert abs(count / m - 1 / 2) < 0.025

    def test_root_does_not_bias_law(self):
        g = k4_graph()
        m = 5000
        a = Counter(wilson_sample(g, root=0, rng=rng_stream(5, 0, i)).edges for i in range(m))
        b = Counter(wilson_sample(g, root=3, rng=rng_stream(6, 0, i)).edges for i in range(m))
        keys = set(a) | set(b)
        tv = sum(abs(a[k] / m - b[k] / m) for k in keys) / 2
        assert tv < 0.04

    def test_seed_reproducibility(self):
        g = cycle_graph(7)
        t1 = wilson_sample(g, rng=rng_stream(42, 1, 9))
        t2 = wilson_sample(g, rng=rng_stream(42, 1, 9))
        assert t1.edges == t2.edges
        t3 = wilson_sample(g, rng=rng_stream(42, 1, 10))
        t4 = wilson_sample(g, rng=rng_stream(43, 1, 9))
        # distinct cells give independent streams; collisions are possible in
        # principle but these two differ
        assert t3.edges != t1.edges or t4.edges != t1.edges

    def test_seeds_past_2_63_get_distinct_streams(self):
        # a Python list holding 2**63 went through float64, merging these keys
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = {tuple(rng_stream(s).random(4)) for s in (0, 2**63, 2**63 + 1)}
            draws |= {tuple(rng_stream(0, 0, s).random(4)) for s in (2**63, 2**63 + 1)}
        assert len(draws) == 5

    def test_integer_seed_accepted(self):
        g = cycle_graph(5)
        assert wilson_sample(g, rng=17).edges == wilson_sample(g, rng=17).edges

    def test_disconnected_raises(self):
        g = hand_graph([[1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 1]])
        with pytest.raises(DisconnectedGraphError):
            wilson_sample(g)

    def test_step_cap(self):
        g = cycle_graph(6)
        with pytest.raises(ResourceLimitError):
            wilson_sample(g, rng=0, max_steps=0)

    def test_bad_root(self):
        with pytest.raises(ValueError):
            wilson_sample(cycle_graph(3), root=5)

    def test_edge_list_export(self):
        g = cycle_graph(5)
        t = wilson_sample(g, rng=8)
        listing = t.edges
        assert len(listing) == 4
        assert listing == tuple(sorted(listing))
        for u, v, slot in listing:
            assert 0 <= u < v < 5
            assert slot == 0


class TestWilsonKernel:
    """The block-drawing kernel against the step-by-step oracle, tree for tree."""

    @staticmethod
    def assert_matches_oracle(graph, seed):
        for root in range(graph.n):
            tree = wilson_sample(graph, root=root, rng=rng_stream(seed, 0, root))
            assert tree.edges == wilson_oracle(graph, root, rng_stream(seed, 0, root))[0]

    @settings(max_examples=60)
    @given(connected_multigraphs(), st.integers(0, 2**32))
    def test_hand_multigraphs(self, graph, seed):
        self.assert_matches_oracle(graph, seed)

    @settings(max_examples=60)
    @given(quotient_cases(), st.integers(0, 2**32))
    def test_quotients(self, case, seed):
        quotient, f = case
        self.assert_matches_oracle(QuotientMultigraph(build_laplacian(quotient, f)), seed)

    @staticmethod
    def assert_step_cap_is_exact(graph, sample):
        """Exactly the oracle's k draws give its tree and k - 1 raise; returns k."""
        edges, k = wilson_oracle(graph, 0, rng_stream(4, 0, sample))
        assert wilson_sample(graph, rng=rng_stream(4, 0, sample), max_steps=k).edges == edges
        message = re.escape(f"random walk exceeded {k - 1} steps; graph may be malformed")
        with pytest.raises(ResourceLimitError, match=message):
            wilson_sample(graph, rng=rng_stream(4, 0, sample), max_steps=k - 1)
        with pytest.raises(ResourceLimitError, match="exceeded 0 steps"):
            wilson_sample(graph, rng=rng_stream(4, 0, sample), max_steps=0)
        return k

    # the 16 x 16 sample takes 517 steps, so its walk crosses a draw block
    @pytest.mark.parametrize("m, sample", [(3, 0), (16, 2)])
    def test_step_cap_is_exact(self, m, sample):
        g = torus_graph(m)
        assert g.regular_degree == 4
        k = self.assert_step_cap_is_exact(g, sample)
        assert (k > 256) == (m == 16)

    # fixed points of the radius-3 ball's action fold into loops, leaving
    # rows of length 2 beside rows of length 4; sample 8 takes 275 steps
    @pytest.mark.parametrize("sample", [0, 8])
    def test_step_cap_is_exact_on_irregular_graph(self, sample):
        q = free_ball_quotient(F2, 3, seed=0)
        g = QuotientMultigraph(build_laplacian(q, laplacian_element(F2)))
        assert g.regular_degree is None and set(np.diff(g.offsets).tolist()) == {2, 4}
        k = self.assert_step_cap_is_exact(g, sample)
        assert (k > 256) == (sample == 8)

    def test_tie_double_keeps_the_float_product(self):
        # x * 3 rounds to 2.0 although floor(3x) is 1 exactly, so an index
        # from exact arithmetic or raw bits would leave vertex 1 by another edge
        x = ((2**54 - 1) // 3) / 2**53
        assert int(x * 3) == 2 and (2**54 - 1) // 3 * 3 >> 53 == 1
        g = k4_graph()
        assert g.regular_degree == 3
        tree = wilson_sample(g, rng=ScriptedGenerator([x]))
        assert tree.edges == wilson_oracle(g, 0, ScriptedGenerator([x]))[0]
        assert tree.edges != wilson_oracle(g, 0, ScriptedGenerator([0.5]))[0]

    def test_no_walk_needs_no_draw(self):
        assert wilson_sample(hand_graph([[0]]), max_steps=0).edges == ()

    # a regular torus, a free-ball quotient with rows of lengths 2 and 4, and
    # bundles of 5 copies on 3 vertices, so slots run past N
    @settings(max_examples=60)
    @given(st.sampled_from(["torus", "free-ball", "wide"]), st.integers(0, 2**32), st.data())
    def test_copies_are_the_sorted_exit_triples(self, name, seed, data):
        graph = ordering_graph(name)
        root = data.draw(st.sampled_from([0, graph.n - 1, graph.n // 2]))
        # the tree as sorted tuples, as wilson_sample built it before it kept an array
        exits = _wilson_exits(graph, root, rng_stream(seed), None)
        at = np.delete(graph.offsets[:-1] + np.array(exits, dtype=np.int64), root)
        x, y = np.delete(np.arange(graph.n), root), graph.copy_neighbour[at]
        u, v = np.minimum(x, y).tolist(), np.maximum(x, y).tolist()
        expected = tuple(sorted(zip(u, v, graph.copy_slot[at].tolist())))
        tree = wilson_sample(graph, root=root, rng=rng_stream(seed))
        assert tree.copies.dtype == np.int64 and tree.copies.shape == (graph.n - 1, 3)
        assert not tree.copies.flags.writeable
        assert tree.edges == expected
        tree.validate()


@functools.cache
def ordering_graph(name):
    if name == "torus":
        return torus_graph(6)
    if name == "free-ball":
        q = free_ball_quotient(F2, 3, seed=0)
        return QuotientMultigraph(build_laplacian(q, laplacian_element(F2)))
    return cycle_graph(3, "e 10\na -5\nA -5")


def tree_degrees(tree):
    """Degree of each vertex in the tree, counted from its edge list."""
    degrees = [0] * tree.graph.n
    for u, v, _ in tree.edges:
        degrees[u] += 1
        degrees[v] += 1
    return degrees


class TestDegreeStatistics:
    def test_mean_is_exact(self):
        g = k4_graph()
        for i in range(50):
            degrees = tree_degrees(wilson_sample(g, rng=rng_stream(7, 0, i)))
            assert Fraction(sum(degrees), len(degrees)) == Fraction(2 * 3, 4)
            assert min(degrees) >= 1

    def test_two_vertices(self):
        g = cycle_graph(2)
        assert tree_degrees(wilson_sample(g, rng=1)) == [1, 1]

    def test_star_frequency_on_complete_graph(self):
        # exactly one of the 16 trees is the star at vertex 0
        g = k4_graph()
        m = 20000
        hits = 0
        for i in range(m):
            t = wilson_sample(g, rng=rng_stream(8, 0, i))
            if tree_degrees(t)[0] == 3:
                hits += 1
        assert abs(hits / m - 1 / 16) < 0.011


class TestValidate:
    """validate accepts exactly the spanning trees, by exhaustive enumeration."""

    @pytest.mark.parametrize(
        "make_graph",
        [lambda: cycle_graph(5), k4_graph, lambda: cycle_graph(4, "e 4\na -2\nA -2")],
        ids=["cycle", "complete", "doubled"],
    )
    def test_accepts_exactly_the_trees(self, make_graph):
        g = make_graph()
        trees = set(all_spanning_trees(g))
        for subset in itertools.combinations(edge_copies(g), g.n - 1):
            tree = SpanningTree(graph=g, root=0, copies=copy_array(subset))
            if frozenset(subset) in trees:
                tree.validate()
            else:
                with pytest.raises(AssertionError, match="edge set contains a cycle"):
                    tree.validate()

    @settings(max_examples=100)
    @given(quotient_cases(), st.data())
    def test_swaps_from_a_tree(self, case, data):
        # swapping tree edges for other copies closes cycles unless the new
        # copies reconnect the pieces
        quotient, f = case
        g = QuotientMultigraph(build_laplacian(quotient, f))
        edges = list(wilson_sample(g, rng=data.draw(st.integers(0, 99))).edges)
        copies = edge_copies(g)
        for _ in range(data.draw(st.integers(0, 3)) if edges else 0):
            edges[data.draw(st.integers(0, len(edges) - 1))] = data.draw(st.sampled_from(copies))
        tree = SpanningTree(graph=g, root=0, copies=copy_array(edges))
        if is_spanning_tree(g, edges):
            tree.validate()
        else:
            repeated = len(set(edges)) < len(edges)
            message = "repeated edge copy" if repeated else "edge set contains a cycle"
            with pytest.raises(AssertionError, match=message):
                tree.validate()

    @settings(max_examples=60)
    @given(quotient_cases(), st.integers(0, 2**32))
    def test_triples_are_oracle_rows_at_exits(self, case, seed):
        # vertex x's tree edge is entry exits[x] of the pair scan's row x; a
        # triple with a slot past its multiplicity, reversed ends or no
        # Laplacian entry is not a copy
        quotient, f = case
        g = QuotientMultigraph(build_laplacian(quotient, f))
        bundles, incidence, _ = multigraph_oracle(g.laplacian.matrix)
        exits = _wilson_exits(g, 0, rng_stream(seed), None)
        expected = []
        for x, i in enumerate(exits):
            if x != 0:
                y, _, slot = incidence[x][i]
                expected.append((min(x, y), max(x, y), slot))
        tree = wilson_sample(g, rng=rng_stream(seed))
        assert tree.edges == tuple(sorted(expected))
        tree.validate()
        if not tree.edges:
            return
        multiplicity = {(u, v): m for u, v, m in bundles}
        u, v, _ = tree.edges[0]
        forged = [(u, v, multiplicity[u, v]), (v, u, 0)]
        pairs = itertools.combinations(range(g.n), 2)
        forged += [(a, b, 0) for a, b in pairs if (a, b) not in multiplicity][:1]
        for edge in forged:
            tree = SpanningTree(graph=g, root=0, copies=copy_array((edge,) + tree.edges[1:]))
            with pytest.raises(AssertionError, match=re.escape(f"edge {edge} is not a copy")):
                tree.validate()

    def test_count_repeat_and_cycle(self):
        g = cycle_graph(4, "e 4\na -2\nA -2")
        # pairs (0, 1), (0, 3), (1, 2) and (2, 3), two copies each
        cases = [
            (((0, 1, 0), (0, 3, 0)), "expected 3 edges, got 2"),
            (((0, 1, 0), (0, 1, 0), (0, 3, 0)), "repeated edge copy"),
            # unsorted, the repeats apart: no neighbouring rows are equal
            (((1, 2, 0), (0, 3, 0), (1, 2, 0)), "repeated edge copy"),
            (((0, 1, 0), (0, 1, 1), (0, 3, 0)), "edge set contains a cycle"),
            (((0, 1, 0), (0, 2, 0), (0, 3, 0)), "edge (0, 2, 0) is not a copy"),
            (((0, 1, 2), (1, 2, 0), (0, 3, 0)), "edge (0, 1, 2) is not a copy"),
            (((1, 0, 0), (1, 2, 0), (0, 3, 0)), "edge (1, 0, 0) is not a copy"),
            (((0, 1, -1), (1, 2, 0), (0, 3, 0)), "edge (0, 1, -1) is not a copy"),
            (((0, 1, 0), (1, 2, 0), (3, 4, 0)), "edge (3, 4, 0) is not a copy"),
        ]
        for edges, message in cases:
            with pytest.raises(AssertionError, match=re.escape(message)):
                SpanningTree(graph=g, root=0, copies=copy_array(edges)).validate()

    def test_survives_optimized_mode(self):
        script = (
            "import numpy as np\n"
            "from groupforests import *\n"
            "Z = GroupFamily.free_abelian(1)\n"
            "f = parse_group_ring(Z, 'e 4\\na -2\\nA -2')\n"
            "g = QuotientMultigraph(build_laplacian(FiniteQuotient.from_moduli(Z, (4,)), f))\n"
            "for edges in [((0, 1, 0), (0, 3, 0)), ((0, 1, 0), (0, 1, 0), (0, 3, 0)),\n"
            "              ((0, 1, 0), (0, 1, 1), (0, 3, 0)), ((0, 1, 2), (1, 2, 0), (0, 3, 0))]:\n"
            "    try:\n"
            "        copies = np.array(edges, dtype=np.int64)\n"
            "        SpanningTree(graph=g, root=0, copies=copies).validate()\n"
            "    except AssertionError as err:\n"
            "        print('raised:', err)\n"
        )
        src = os.path.dirname(os.path.dirname(groupforests.__file__))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.stdout.splitlines() == [
            "raised: expected 3 edges, got 2",
            "raised: repeated edge copy",
            "raised: edge set contains a cycle",
            "raised: edge (0, 1, 2) is not a copy",
        ]


class TestWindowEdges:
    def test_rank_one_window(self):
        rows = _window_edges(laplacian_element(Z), 1)
        labels = [label for _, label in rows]
        assert sorted(labels) == ["A:A", "a:a", "e:A", "e:a"]

    def test_identity_window(self):
        rows = _window_edges(laplacian_element(Z2), 0)
        labels = {label for _, label in rows}
        assert labels == {"e:a", "e:A", "e:b", "e:B"}

    def test_parallel_copies_labeled(self):
        rows = _window_edges(parse_group_ring(Z, "e 4\na -2\nA -2"), 0)
        labels = {label for _, label in rows}
        assert labels == {"e:a#0", "e:a#1", "e:A#0", "e:A#1"}

    def test_free_window_count(self):
        # 20 directed window edges, 4 interior pairs merge: 16 classes
        rows = _window_edges(laplacian_element(F2), 1)
        assert len(rows) == 16


# window cases of lift_marginals: doubled bundles, a non-abelian chain and
# free-group balls (moduli None)
MARGINAL_CASES = [
    (Z2, "e 6\na -2\nA -2\nb -1\nB -1", ((6, 6), (8, 8)), 1),
    (H, None, ((5,), (7,)), 1),
    (F2, None, None, 1),
]
MARGINAL_IDS = ["doubled-torus", "heisenberg", "free-ball"]


def marginal_case(family, f_text, moduli):
    """f and the quotient chain of one MARGINAL_CASES row."""
    f = laplacian_element(family) if f_text is None else parse_group_ring(family, f_text)
    if moduli is None:
        return f, [free_ball_quotient(family, r, seed=1) for r in (2, 3)]
    return f, [FiniteQuotient.from_moduli(family, m) for m in moduli]


def forced_cpus(monkeypatch, cpus):
    """Make lift_marginals see cpus CPUs in the affinity mask."""
    monkeypatch.setattr(forests, "_cpus", lambda: cpus)


class TestLiftMarginals:
    def test_cycle_law(self):
        f = laplacian_element(Z)
        chain = [FiniteQuotient.from_moduli(Z, (m,)) for m in (6, 8, 16)]
        tables = lift_marginals(chain, f, radius=1, samples=4000, seed=11)
        for m, table in zip((6, 8, 16), tables):
            for row in table:
                assert abs(row.frequency - (m - 1) / m) < 0.025

    def test_rows_aligned_across_quotients(self):
        f = laplacian_element(Z)
        chain = [FiniteQuotient.from_moduli(Z, (m,)) for m in (6, 12)]
        tables = lift_marginals(chain, f, radius=1, samples=50, seed=0)
        assert [r.label for r in tables[0]] == [r.label for r in tables[1]]
        assert [r.key for r in tables[0]] == [r.key for r in tables[1]]

    def test_parallel_copies_agree(self):
        f = parse_group_ring(Z, "e 4\na -2\nA -2")
        chain = [FiniteQuotient.from_moduli(Z, (8,))]
        (table,) = lift_marginals(chain, f, radius=0, samples=5000, seed=5)
        by_label = {r.label: r.frequency for r in table}
        assert abs(by_label["e:a#0"] - by_label["e:a#1"]) < 0.04
        # doubled cycle: a copy is present iff its gap is spanned (7/8) and
        # it beats its twin (1/2)
        for freq in by_label.values():
            assert abs(freq - 7 / 16) < 0.03

    def test_torus_identity_edge_tends_to_half(self):
        f = laplacian_element(Z2)
        chain = [FiniteQuotient.from_moduli(Z2, (m, m)) for m in (3, 9)]
        tables = lift_marginals(chain, f, radius=0, samples=1500, seed=9)
        first, last = ({r.label: r.frequency for r in t}["e:a"] for t in tables)
        assert abs(last - 0.5) < abs(first - 0.5) + 0.02
        assert abs(last - 0.5) < 0.05

    def test_free_group_window(self):
        f = laplacian_element(F2)
        from groupforests import free_ball_quotient

        chain = [free_ball_quotient(F2, 2, seed=0)]
        (table,) = lift_marginals(chain, f, radius=1, samples=400, seed=2)
        assert len(table) == 16
        for row in table:
            assert 0.0 <= row.frequency <= 1.0
            assert row.halfwidth < 0.06

    @pytest.mark.parametrize("family, f_text, moduli, radius", MARGINAL_CASES, ids=MARGINAL_IDS)
    def test_counts_match_sampled_trees(self, family, f_text, moduli, radius):
        # exits decide membership; the oracle looks each copy up in a built tree
        f, quotients = marginal_case(family, f_text, moduli)
        samples = 60
        tables = lift_marginals(quotients, f, radius, samples, seed=4)
        window = _window_edges(f, radius)
        for qi, (q, table) in enumerate(zip(quotients, tables)):
            graph = QuotientMultigraph(build_laplacian(q, f))
            symbols = symbol_decode(graph.laplacian)
            ends, copies = [], []
            for (g, s, j), _ in window:
                u, v = q.coset_of(g), q.act(q.coset_of(g), s)
                pair = (min(u, v), max(u, v))
                copies.append(pair + (symbols[pair].index((s if u < v else s.inverse(), j)),))
                ends.append((u, v))
            assert any(0 in uv for uv in ends)  # copies at the root are counted too
            trees = [
                set(wilson_sample(graph, root=0, rng=rng_stream(4, qi, i)).edges)
                for i in range(samples)
            ]
            assert [row.count for row in table] == [
                sum(c in t for t in trees) for c in copies
            ]

    @pytest.mark.parametrize("family, f_text, moduli, radius", MARGINAL_CASES, ids=MARGINAL_IDS)
    def test_tables_do_not_depend_on_worker_count(
        self, monkeypatch, family, f_text, moduli, radius
    ):
        f, quotients = marginal_case(family, f_text, moduli)
        contexts = []
        get_context = multiprocessing.get_context

        def recorded(method):
            contexts.append(method)
            return get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", recorded)
        tables = []
        for cpus in (1, 2, 3):
            forced_cpus(monkeypatch, cpus)
            tables.append(lift_marginals(quotients, f, radius, 60, seed=4))
        assert contexts == ["fork", "fork"]  # 2 and 3 workers ran in a pool
        assert tables[0] == tables[1] == tables[2]

    def test_no_worker_outlives_the_call(self, monkeypatch):
        forced_cpus(monkeypatch, 2)
        f = laplacian_element(Z2)
        chain = [FiniteQuotient.from_moduli(Z2, (8, 8))]
        lift_marginals(chain, f, radius=0, samples=10, seed=1)
        assert multiprocessing.active_children() == []
        message = "quotient 0 (Z^2 mod 8x8): random walk exceeded 1 steps"
        with pytest.raises(ResourceLimitError, match=re.escape(message)):
            lift_marginals(chain, f, radius=0, samples=10, seed=1, max_steps=1)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus, samples", [(1, 40), (4, 1)], ids=["one-cpu", "one-sample"])
    def test_one_worker_forks_nothing(self, monkeypatch, cpus, samples):
        f = laplacian_element(Z)
        chain = [FiniteQuotient.from_moduli(Z, (8,))]
        expected = lift_marginals(chain, f, radius=1, samples=samples, seed=6)

        def no_fork(method):
            raise RuntimeError(f"asked for a {method} context")

        forced_cpus(monkeypatch, cpus)
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        assert lift_marginals(chain, f, radius=1, samples=samples, seed=6) == expected

    def test_no_affinity_mask_means_one_cpu(self, monkeypatch):
        # macOS and Windows have no sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert forests._cpus() == 1

    @settings(max_examples=60)
    @given(quotient_cases(window=True))
    def test_window_bundles_decode_to_one_word(self, case):
        # lift_marginals reads copy j of a window edge as slot j of its pair
        quotient, f = case
        symbols = symbol_decode(build_laplacian(quotient, f))
        gens = [w for w, c in f.items() if c < 0 and not w.is_identity()]
        # every radius whose window lift_marginals admits
        for radius in range(injectivity_radius(quotient, generators=gens)):
            for (g, s, j), _ in _window_edges(f, radius):
                u = quotient.coset_of(g)
                v = quotient.act(u, s)
                word = s if u < v else s.inverse()
                decode = symbols[min(u, v), max(u, v)]
                assert {w for w, _ in decode} == {word}
                assert decode[j] == (word, j)

    def test_window_needs_injectivity_margin(self):
        f = laplacian_element(Z)
        chain = [FiniteQuotient.from_moduli(Z, (8,)), FiniteQuotient.from_moduli(Z, (4,))]
        # the prefix names the quotient once, as on the other chain reports
        message = "quotient 1 (Z^1 mod 4): injectivity radius 1; the window needs at least 2"
        with pytest.raises(WindowError, match=re.escape(message) + "$"):
            lift_marginals(chain, f, radius=1, samples=10, seed=0)

    def test_rejects_unbalanced_or_mismatched(self):
        chain = [FiniteQuotient.from_moduli(Z, (6,))]
        with pytest.raises(NotWellBalancedError):
            lift_marginals(chain, parse_group_ring(Z, "e 2\na -2"), 0, 10)
        with pytest.raises(FamilyMismatchError):
            lift_marginals(chain, laplacian_element(Z2), 0, 10)

    def test_plain_sequence_matches_chain(self):
        f = laplacian_element(Z)
        quotients = [FiniteQuotient.from_moduli(Z, (m,)) for m in (6, 8)]
        from_list = lift_marginals(quotients, f, 1, 50, seed=3)
        assert lift_marginals(tuple(quotients), f, 1, 50, seed=3) == from_list
        with pytest.raises(FamilyMismatchError):
            lift_marginals(quotients + [FiniteQuotient.from_moduli(Z2, (6, 6))], f, 1, 50)

    def test_rejects_bad_parameters(self):
        f = laplacian_element(Z)
        chain = [FiniteQuotient.from_moduli(Z, (6,))]
        with pytest.raises(ValueError):
            lift_marginals(chain, f, radius=0, samples=0)
        with pytest.raises(ValueError):
            lift_marginals(chain, f, radius=-1, samples=5)

    def test_deterministic_tables(self):
        f = laplacian_element(Z)
        chain = [FiniteQuotient.from_moduli(Z, (6,))]
        a = lift_marginals(chain, f, radius=0, samples=300, seed=21)
        b = lift_marginals(chain, f, radius=0, samples=300, seed=21)
        assert a == b
