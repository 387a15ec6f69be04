"""Uniform spanning trees on quotient multigraphs and lifted edge statistics.

The sampler is Wilson's algorithm: loop-erased random walks from each
unvisited vertex into the growing tree, which yields the exact uniform law
on spanning trees with parallel edges handled by weighting steps
proportionally to multiplicity.  Orientation toward the root gives a finite
analogue of the oriented forest model, and lifting tree indicators through
a chain of quotients estimates forest edge marginals on the group itself.

Randomness is counter-based: every (seed, quotient, sample) triple owns an
independent stream, so results do not depend on scheduling or batching.
Each walk step reads one stream double x (drawn 256 at a time) and leaves v
by exit index int(x * degree).  On a regular multigraph the degree is one
number d, so the indices of a whole block come from one NumPy multiply and
truncation, the same IEEE product; otherwise each step multiplies by its
own row length.  The exits left when the walk meets the tree are the tree
edges, so marginals need no built tree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DisconnectedGraphError,
    FamilyMismatchError,
    ResourceLimitError,
    WindowError,
)
from .groups import GroupWord, component_labels, format_word, injectivity_radius, word_ball
from .linalg import QuotientLaplacian, build_laplacian
from .walks import GroupRingElement, require_well_balanced

_MASK64 = (1 << 64) - 1
_DRAW_BLOCK = 256  # doubles per generator call in Wilson's walk


def rng_stream(seed: int, quotient_index: int = 0, sample_index: int = 0) -> np.random.Generator:
    """Independent counter-based stream for one (seed, quotient, sample) cell."""
    # uint64 arrays: NumPy reads a Python list holding 2**63 or more as
    # float64, which merges neighbouring keys and casts 2**64 - 1 to 0
    counter = np.array([0, 0, 0, int(sample_index) & _MASK64], dtype=np.uint64)
    key = np.array([int(seed) & _MASK64, int(quotient_index) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


class QuotientMultigraph:
    """Undirected multigraph on the cosets, one bundle per unordered pair.

    bundles[b] = (u, v, multiplicity) with u < v and multiplicity -M[u][v],
    in (u, v) order: the upper-triangle entries of the sparse Laplacian;
    loops never appear (the Laplacian folds them away).  An edge copy is
    addressed as (bundle, slot).  incidence[x] lists (neighbour, bundle,
    slot) for every copy at x, by neighbour and then slot; neighbours[x] is
    the same list reduced to its neighbour entries, all that a random walk
    reads.  regular_degree is the common length of those rows, or None when
    they differ (fixed points of the action fold into loops).  When the
    Laplacian remembers its quotient and group ring element, each slot of a
    bundle decodes to a (word, copy) symbol as read from the lower endpoint,
    i.e. lower * word = upper.  Everything is built with array operations in
    O(N |S|); no N x N matrix is formed.
    """

    def __init__(self, laplacian: QuotientLaplacian):
        n = laplacian.size
        self.laplacian = laplacian
        self.n = n
        upper = laplacian.rows < laplacian.cols
        bu, bv = laplacian.rows[upper], laplacian.cols[upper]
        mult = -laplacian.values[upper]
        self.bundles = tuple(zip(bu.tolist(), bv.tolist(), mult.tolist()))
        self.bundle_index = {(u, v): b for b, (u, v, _) in enumerate(self.bundles)}
        copies = np.maximum(mult, 0)
        bundle = np.repeat(np.arange(len(mult)), copies)
        slot = np.arange(len(bundle)) - np.repeat(np.cumsum(copies) - copies, copies)
        # both ends of every copy, in (vertex, bundle, slot) order
        vertex = np.concatenate([bu[bundle], bv[bundle]])
        neighbour = np.concatenate([bv[bundle], bu[bundle]])
        bundle, slot = np.tile(bundle, 2), np.tile(slot, 2)
        order = np.lexsort((slot, bundle, vertex))
        neighbour = neighbour[order].tolist()
        entries = list(zip(neighbour, bundle[order].tolist(), slot[order].tolist()))
        degrees = np.bincount(vertex, minlength=n)
        ranges = [(end - d, end) for d, end in zip(degrees.tolist(), np.cumsum(degrees).tolist())]
        self.degrees = tuple(degrees.tolist())
        regular = n > 0 and degrees.min() == degrees.max()
        self.regular_degree = int(degrees[0]) if regular else None
        self.incidence = tuple(tuple(entries[a:b]) for a, b in ranges)
        self.neighbours = tuple(tuple(neighbour[a:b]) for a, b in ranges)
        self.symbols = None
        q, f = laplacian.quotient, laplacian.source
        if q is not None and f is not None:
            self.symbols = self._decode_symbols(q, f, bu, bv, mult)

    @property
    def edge_count(self) -> int:
        return sum(m for _, _, m in self.bundles)

    def is_connected(self) -> bool:
        return self.laplacian.is_connected()

    def endpoints(self, bundle: int) -> tuple:
        u, v, _ = self.bundles[bundle]
        return u, v

    def _decode_symbols(self, quotient, f, bu, bv, mult):
        slots = [[] for _ in self.bundles]
        found = np.zeros(len(mult), dtype=np.int64)
        for w, c in f.items():
            if c >= 0 or w.is_identity():
                continue
            m = int(-c)
            hits = np.flatnonzero(quotient.word_permutation(w)[bu] == bv)
            found[hits] += m
            copies = [(w, j) for j in range(m)]
            for b in hits.tolist():
                slots[b].extend(copies)
        if not np.array_equal(found, mult):
            raise AssertionError("bundle multiplicity disagrees with symbol decode")
        return tuple(tuple(s) for s in slots)

    def slot_of(self, bundle: int, word: GroupWord, copy: int) -> int:
        """Slot of the copy that reads as (word, copy) from the lower endpoint."""
        if self.symbols is None:
            raise ValueError("graph carries no symbol decode")
        for slot, (w, j) in enumerate(self.symbols[bundle]):
            if j == copy and w == word:
                return slot
        raise KeyError(f"no slot for ({word}, {copy}) in bundle {bundle}")

    def __repr__(self):
        return f"<QuotientMultigraph n={self.n} bundles={len(self.bundles)} edges={self.edge_count}>"


@dataclass(frozen=True)
class SpanningTree:
    """N-1 edge copies forming a spanning tree, plus the sampling root."""

    graph: QuotientMultigraph
    root: int
    edges: tuple

    def validate(self) -> None:
        """Raise AssertionError unless the edges are N-1 distinct copies.

        N-1 copies that connect every vertex have no cycle; connectivity is
        one `component_labels` pass over the copies' endpoints.
        """
        n = self.graph.n
        if len(self.edges) != n - 1:
            raise AssertionError(f"expected {n - 1} edges, got {len(self.edges)}")
        flat = itertools.chain.from_iterable(self.edges)
        bundle, slot = np.fromiter(flat, dtype=np.int64, count=2 * n - 2).reshape(-1, 2).T
        order = np.lexsort((slot, bundle))
        b, s = bundle[order], slot[order]
        if np.any((b[1:] == b[:-1]) & (s[1:] == s[:-1])):
            raise AssertionError("repeated edge copy")
        lap = self.graph.laplacian
        upper = lap.rows < lap.cols
        u, v = lap.rows[upper][bundle], lap.cols[upper][bundle]
        # a nonzero label is a vertex outside vertex 0's component
        if component_labels(n, u, v).any():
            raise AssertionError("edge set contains a cycle")

    def degrees(self) -> tuple:
        deg = [0] * self.graph.n
        for b, _ in self.edges:
            u, v = self.graph.endpoints(b)
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    def as_edge_list(self) -> list:
        """(u, v, slot) triples, u < v, sorted; slots distinguish parallel copies."""
        out = []
        for b, slot in self.edges:
            u, v = self.graph.endpoints(b)
            out.append((u, v, slot))
        return sorted(out)


def _wilson_exits(graph: QuotientMultigraph, root: int, gen, max_steps) -> list:
    """Wilson's walk: exits[v] indexes v's tree edge in incidence[v].

    exits[root] is -1.  max_steps is a draw budget; draw max_steps + 1 raises.
    Each draw x becomes the exit index int(x * len(row)); on a regular graph
    the block's indices come at once as (x * d).astype(int64), which is the
    same multiply and truncation.
    """
    n = graph.n
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range")
    if not graph.is_connected():
        raise DisconnectedGraphError("spanning trees need a connected multigraph")
    if max_steps is None:
        max_steps = max(1_000_000, 200 * n * n)
    left = max_steps
    d = graph.regular_degree

    def block():
        nonlocal left
        if left <= 0:
            raise ResourceLimitError(
                f"random walk exceeded {max_steps} steps; graph may be malformed"
            )
        k = min(_DRAW_BLOCK, left)
        left -= k
        x = gen.random(k)
        return x.tolist() if d is None else (x * d).astype(np.int64).tolist()

    draws = itertools.chain.from_iterable(iter(block, None))
    nbr = graph.neighbours
    in_tree = bytearray(n)
    in_tree[root] = 1
    exits = [-1] * n
    for start in range(n):
        if in_tree[start]:
            continue
        v = start
        if d is None:
            for x in draws:
                row = nbr[v]
                i = int(x * len(row))
                exits[v] = i
                v = row[i]
                if in_tree[v]:
                    break
        else:
            for i in draws:
                exits[v] = i
                v = nbr[v][i]
                if in_tree[v]:
                    break
        v = start
        while not in_tree[v]:
            in_tree[v] = 1
            v = nbr[v][exits[v]]
    return exits


def wilson_sample(graph: QuotientMultigraph, root: int = 0, rng=0, max_steps=None) -> SpanningTree:
    """One uniform spanning tree via loop-erased random walks.

    rng may be an integer seed (expanded through the stream contract) or a
    ready Generator, which advances by whole blocks of 256 doubles.  Each
    step takes the next double x and leaves v by incidence[v][int(x *
    degree)], which weights parallel bundles by multiplicity; a vertex's
    tree edge is its last such exit before the walk meets the tree.  On a
    regular graph the indices of a block are computed together, with the
    same float product, so the tree does not depend on the path taken.
    max_steps caps the draws (default max(10**6, 200 N^2)) for malformed graphs.
    """
    gen = rng if isinstance(rng, np.random.Generator) else rng_stream(rng)
    exits = _wilson_exits(graph, root, gen, max_steps)
    edges = sorted(graph.incidence[v][i][1:] for v, i in enumerate(exits) if v != root)
    return SpanningTree(graph=graph, root=root, edges=tuple(edges))


@dataclass(frozen=True)
class DegreeStatistics:
    """Per-vertex tree degrees with histogram and exact mean."""

    degrees: tuple
    histogram: dict
    mean: Fraction


def degree_statistics(tree: SpanningTree) -> DegreeStatistics:
    deg = tree.degrees()
    hist: dict = {}
    for d in deg:
        hist[d] = hist.get(d, 0) + 1
    # sum of degrees is 2(N-1) for any tree, so the mean is exact
    return DegreeStatistics(
        degrees=deg,
        histogram=dict(sorted(hist.items())),
        mean=Fraction(sum(deg), len(deg)),
    )


@dataclass(frozen=True)
class OrientedForestConfig:
    """Every non-root vertex points along its unique tree edge toward the root.

    parent[v] is the next vertex on the path to the root (-1 at the root),
    edge_for[v] the (bundle, slot) copy carrying that step, and symbols[v]
    the (word, copy) decode when the graph knows one: parent = v * word on
    cosets.  Words from upper endpoints are inverses of stored bundle
    symbols, so they need not lie in the support itself.
    """

    root: int
    parent: tuple
    edge_for: tuple
    symbols: tuple

    def validate(self) -> None:
        """Raise AssertionError unless every pointer path reaches the root.

        The N-1 edges (v, parent[v]), v != root, connect all N vertices
        exactly when they form a tree, and then each pointer path, one
        pointer per vertex, runs to the root.  A vertex outside the root's
        component never reaches it, so its path runs into a directed cycle.
        """
        n = len(self.parent)
        if self.parent[self.root] != -1:
            raise AssertionError("root must not point anywhere")
        v = np.delete(np.arange(n), self.root)
        w = np.array(self.parent, dtype=np.int64)[v]
        outside = (w < 0) | (w >= n)
        if outside.any():
            raise AssertionError(f"vertex {v[outside][0]} points outside the graph")
        label = component_labels(n, v, w)
        stray = np.flatnonzero(label != label[self.root])
        if len(stray):
            raise AssertionError(f"directed cycle reachable from {stray[0]}")


def orient_to_root(tree: SpanningTree) -> OrientedForestConfig:
    """Breadth-first orientation of a spanning tree toward its root."""
    graph = tree.graph
    n = graph.n
    adj = [[] for _ in range(n)]
    for b, slot in tree.edges:
        u, v = graph.endpoints(b)
        adj[u].append((v, b, slot))
        adj[v].append((u, b, slot))
    parent = [-1] * n
    edge_for: list = [None] * n
    symbols: list = [None] * n
    seen = bytearray(n)
    seen[tree.root] = 1
    frontier = [tree.root]
    while frontier:
        nxt_frontier = []
        for p in frontier:
            for child, b, slot in adj[p]:
                if seen[child]:
                    continue
                seen[child] = 1
                parent[child] = p
                edge_for[child] = (b, slot)
                if graph.symbols is not None:
                    word, j = graph.symbols[b][slot]
                    lower, _ = graph.endpoints(b)
                    # stored symbol reads lower -> upper; flip if the child
                    # sits at the upper endpoint
                    symbols[child] = (word, j) if child == lower else (word.inverse(), j)
                nxt_frontier.append(child)
        frontier = nxt_frontier
    if not all(seen):
        raise AssertionError("tree does not span; run validate() on it")
    return OrientedForestConfig(
        root=tree.root,
        parent=tuple(parent),
        edge_for=tuple(edge_for),
        symbols=tuple(symbols),
    )


@dataclass(frozen=True)
class MarginalRow:
    """Empirical inclusion data for one lifted window edge."""

    key: tuple
    label: str
    count: int
    frequency: float
    halfwidth: float


@dataclass(frozen=True)
class MarginalTable:
    """Window edge marginals for one quotient of a chain."""

    quotient_index: int
    radius: int
    samples: int
    rows: tuple

    def frequency(self, label: str) -> float:
        for row in self.rows:
            if row.label == label:
                return row.frequency
        raise KeyError(label)

    def csv_rows(self) -> list:
        out = []
        for row in self.rows:
            out.append(
                f"{self.quotient_index},{row.label},{row.frequency:.6f},"
                f"{row.halfwidth:.6f},{self.samples}"
            )
        return out


MARGINAL_CSV_HEADER = "quotient_index,edge_word,frequency,halfwidth,samples"


def _window_edges(f: GroupRingElement, radius: int):
    """Canonical window of group edges: (g, word, copy) with g in the ball.

    Each undirected edge {(g, s, j), (gs, s^-1, j)} appears once, represented
    from the endpoint closer to the identity (ties broken by ball order).
    """
    fam = f.family
    neg = [(w, int(-c)) for w, c in f.items() if c < 0 and not w.is_identity()]
    gens = [w for w, _ in neg]
    ball = word_ball(fam, radius, generators=gens)
    position = {w.normal: i for i, w in enumerate(ball)}
    chosen = []
    seen = set()
    for g in ball:
        for s, mult in neg:
            partner_g = g * s
            partner_s = s.inverse()
            for j in range(mult):
                key = (position[g.normal], g.normal, s.normal, j)
                rep = (g, s, j)
                alt_pos = position.get(partner_g.normal)
                if alt_pos is not None:
                    alt = (alt_pos, partner_g.normal, partner_s.normal, j)
                    if alt < key:
                        key = alt
                        rep = (partner_g, partner_s, j)
                if key in seen:
                    continue
                seen.add(key)
                label = f"{format_word(rep[0])}:{format_word(rep[1])}"
                if mult > 1:
                    label += f"#{j}"
                chosen.append((key, rep, label))
    chosen.sort(key=lambda t: t[0])
    return [(rep, label) for _, rep, label in chosen]


def lift_marginals(
    quotients,
    f: GroupRingElement,
    radius: int,
    samples: int,
    seed: int = 0,
    max_steps=None,
) -> list:
    """Estimate forest edge marginals on the group through a quotient chain.

    quotients is any sequence of quotients of f's family, a QuotientChain
    included; max_steps caps each random walk as in wilson_sample.  For each
    quotient, the window of group edges within the given radius is
    pulled back to multigraph edge copies (injectivity radius at least
    radius + 1 makes this well defined and injective), and the empirical
    inclusion frequency over uniform spanning tree samples is tabulated.
    Rows are aligned across quotients for convergence display.  A sample
    counts a window copy when the copy is the walk's exit at one of its
    endpoints, so no SpanningTree is built per sample.
    """
    require_well_balanced(f)
    if any(q.family != f.family for q in quotients):
        raise FamilyMismatchError("chain and element families differ")
    if samples < 1:
        raise ValueError("need at least one sample")
    if radius < 0:
        raise ValueError("window radius must be >= 0")
    window = _window_edges(f, radius)
    gens = [w for w, c in f.items() if c < 0 and not w.is_identity()]
    tables = []
    for qi, quotient in enumerate(quotients):
        inj = injectivity_radius(quotient, r_max=radius + 1, generators=gens)
        if inj < radius + 1:
            raise WindowError(
                f"quotient {qi} has injectivity radius {inj}; the window "
                f"needs at least {radius + 1}"
            )
        graph = QuotientMultigraph(build_laplacian(quotient, f))
        # each window copy as (u, its exit index at u, v, its exit index at v);
        # it is a tree edge iff it is an endpoint's exit (the root's is -1)
        ends = []
        for (g, s, j), _ in window:
            u = quotient.coset_of(g)
            v = quotient.act(u, s)
            if u == v:
                raise AssertionError("window edge collapsed to a loop")
            b = graph.bundle_index[(min(u, v), max(u, v))]
            slot = graph.slot_of(b, s if u < v else s.inverse(), j)
            iu = graph.incidence[u].index((v, b, slot))
            ends.append((u, iu, v, graph.incidence[v].index((u, b, slot))))
        counts = [0] * len(ends)
        for sample_index in range(samples):
            exits = _wilson_exits(graph, 0, rng_stream(seed, qi, sample_index), max_steps)
            for i, (u, iu, v, iv) in enumerate(ends):
                if exits[u] == iu or exits[v] == iv:
                    counts[i] += 1
        rows = []
        for ((g, s, j), label), count in zip(window, counts):
            p = count / samples
            halfwidth = 1.96 * math.sqrt(p * (1.0 - p) / samples)
            rows.append(MarginalRow((g.normal, s.normal, j), label, count, p, halfwidth))
        tables.append(
            MarginalTable(
                quotient_index=qi, radius=radius, samples=samples, rows=tuple(rows)
            )
        )
    return tables
