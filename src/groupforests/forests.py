"""Uniform spanning trees on quotient multigraphs and lifted edge statistics.

The multigraph is a view of the quotient Laplacian: each vertex's edge
copies are its Laplacian row with every neighbour repeated by its
multiplicity, and an edge copy is one (u, v, slot) triple.  The sampler is
Wilson's algorithm: loop-erased random walks from each unvisited vertex
into the growing tree, which yields the exact uniform law on spanning trees
with parallel edges handled by weighting steps proportionally to
multiplicity.  Lifting tree indicators through a chain of quotients
estimates forest edge marginals on the group itself.

Randomness is counter-based: every (seed, quotient, sample) triple owns an
independent stream, so results do not depend on scheduling or batching.
`lift_marginals` deals each quotient's samples round-robin to one forked
worker per CPU in the process's affinity mask and sums their integer
counts, so its tables are the same bytes at any worker count.
Each walk step reads one stream double x (drawn 256 at a time) and leaves v
by exit index int(x * degree), for a whole block at once by one NumPy
multiply on a regular multigraph, the same IEEE product.  The exits left
when the walk meets the tree are its edges.  A SpanningTree keeps them as
one sorted (N-1) x 3 int64 array, which its checks read with NumPy and
`edges` shows as tuples; marginals read the exits and build no tree.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedGraphError,
    FamilyMismatchError,
    ResourceLimitError,
    WindowError,
    at_quotient,
)
from .groups import component_labels, format_word, injectivity_radius, word_ball
from .linalg import QuotientLaplacian, build_laplacian
from .walks import GroupRingElement, require_well_balanced, support_words

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
    """Walk view of a quotient Laplacian: each entry repeated by its multiplicity.

    Row x is the Laplacian's row x with neighbour v repeated -M[x][v] times,
    the CSR slice offsets[x]:offsets[x + 1] of copy_neighbour, and
    copy_slot numbers the repeats of each neighbour from 0.  An edge copy
    is addressed as (u, v, slot) with u < v: the slot-th repeat of v in row
    u, which is also the slot-th repeat of u in row v.  Loops never appear
    (the Laplacian folds them away).  neighbours[x] is row x as a tuple, all
    that a random walk reads; regular_degree is the common length of the
    rows, or None when they differ (fixed points of the action fold into
    loops).  Everything is built with array operations in O(N |S|); no
    N x N matrix is formed.
    """

    def __init__(self, laplacian: QuotientLaplacian):
        n = self.n = laplacian.size
        self.laplacian = laplacian
        copies = -laplacian.values
        self.copy_neighbour = np.repeat(laplacian.cols, copies)
        run_end = np.cumsum(copies)
        self.copy_slot = np.arange(len(self.copy_neighbour)) - np.repeat(run_end - copies, copies)
        # row x starts at the first copy of its first entry
        row_start = np.searchsorted(laplacian.rows, np.arange(n + 1))
        self.offsets = np.concatenate([[0], run_end])[row_start]
        degrees = np.diff(self.offsets)
        regular = n > 0 and degrees.min() == degrees.max()
        self.regular_degree = int(degrees[0]) if regular else None
        neighbour, ends = self.copy_neighbour.tolist(), self.offsets.tolist()
        self.neighbours = tuple(tuple(neighbour[a:b]) for a, b in zip(ends, ends[1:]))


@dataclass(frozen=True, eq=False)
class SpanningTree:
    """N-1 edge copies, sorted int64 rows (u, v, slot) with u < v, plus the root."""

    graph: QuotientMultigraph
    root: int
    copies: np.ndarray

    @functools.cached_property
    def edges(self) -> tuple:
        """The rows of copies as a tuple of triples, built on first use."""
        return tuple(map(tuple, self.copies.tolist()))

    def validate(self) -> None:
        """Raise AssertionError unless the rows are N-1 distinct copies.

        A copy (u, v, slot) needs u < v, a Laplacian entry at (u, v) and
        slot < -M[u][v]; sorted ids entry * (largest multiplicity + 1) + slot
        find a repeat in any row order.  N-1 copies that connect every vertex
        have no cycle; connectivity is one `component_labels` pass over their ends.
        """
        n = self.graph.n
        if len(self.copies) != n - 1:
            raise AssertionError(f"expected {n - 1} edges, got {len(self.copies)}")
        u, v, slot = self.copies.T
        lap = self.graph.laplacian
        # entry keys u * n + v ascend, as the entries are sorted; n * n closes
        # them with multiplicity 0 and stands for every pair out of range
        keys = np.append(lap.rows * n + lap.cols, n * n)
        mult = np.append(-lap.values, 0)
        pair = np.where((0 <= u) & (u < v) & (v < n), u * n + v, n * n)
        at = np.searchsorted(keys, pair)
        copy = (keys[at] == pair) & (0 <= slot) & (slot < mult[at])
        if not copy.all():
            raise AssertionError(f"edge {tuple(self.copies[~copy][0].tolist())} is not a copy")
        if not np.diff(np.sort(at * (mult.max() + 1) + slot)).all():
            raise AssertionError("repeated edge copy")
        # a nonzero label is a vertex outside vertex 0's component
        if component_labels(n, u, v).any():
            raise AssertionError("edge set contains a cycle")


def _wilson_exits(graph: QuotientMultigraph, root: int, gen, max_steps) -> list:
    """Wilson's walk: exits[v] indexes v's tree edge in row v of the graph.

    exits[root] is -1.  max_steps is a draw budget; draw max_steps + 1 raises.
    Each draw x becomes the exit index int(x * len(row)); on a regular graph
    the block's indices come at once as (x * d).astype(int64), which is the
    same multiply and truncation.
    """
    n = graph.n
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range")
    if not graph.laplacian.is_connected():
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
    step takes the next double x and leaves v by copy int(x * degree) of its
    row, which weights each neighbour by its multiplicity; a vertex's
    tree edge is its last such exit before the walk meets the tree.  On a
    regular graph the indices of a block are computed together, with the
    same float product, so the tree does not depend on the path taken.
    max_steps caps the draws (default max(10**6, 200 N^2)) for malformed graphs.
    """
    gen = rng if isinstance(rng, np.random.Generator) else rng_stream(rng)
    exits = _wilson_exits(graph, root, gen, max_steps)
    at = np.delete(graph.offsets[:-1] + np.array(exits, dtype=np.int64), root)
    x, y = np.delete(np.arange(graph.n), root), graph.copy_neighbour[at]
    copies = np.stack([np.minimum(x, y), np.maximum(x, y), graph.copy_slot[at]], axis=1)
    copies = copies[np.lexsort(copies.T[::-1])]
    copies.setflags(write=False)  # edges caches a view of these rows
    return SpanningTree(graph=graph, root=root, copies=copies)


def _cpus() -> int:
    """CPUs in this process's affinity mask; 1 where there is no mask to read."""
    getaffinity = getattr(os, "sched_getaffinity", None)  # absent on macOS and Windows
    return len(getaffinity(0)) if getaffinity is not None else 1


def _window_counts(graph, ends, seed, qi, sample_indices, max_steps) -> list:
    """Per window copy, how many of the given samples of quotient qi hold it.

    ends lists each copy as (u, its exit index at u, v, its exit index at
    v); a sample holds the copy iff it is the walk's exit at an endpoint
    (the root's exit is -1).  Module-level so that a pool worker can run it.
    """
    counts = [0] * len(ends)
    for sample_index in sample_indices:
        exits = _wilson_exits(graph, 0, rng_stream(seed, qi, sample_index), max_steps)
        for i, (u, iu, v, iv) in enumerate(ends):
            if exits[u] == iu or exits[v] == iv:
                counts[i] += 1
    return counts


@dataclass(frozen=True)
class MarginalRow:
    """Empirical inclusion data for one lifted window edge."""

    key: tuple
    label: str
    count: int
    frequency: float
    halfwidth: float


def _window_edges(f: GroupRingElement, radius: int):
    """Canonical window of group edges: (g, word, copy) with g in the ball.

    Each undirected edge {(g, s, j), (gs, s^-1, j)} appears once, represented
    from the endpoint that comes first in the ball; f is self-adjoint, so
    that endpoint lists it with the same multiplicity.  Rows come in ball
    order, then f's word order, then copy.
    """
    neg = [(s, -f.coefficient(s)) for s in support_words(f)]  # f is well-balanced
    ball = word_ball(f.family, radius, generators=[s for s, _ in neg])
    position = {w.normal: i for i, w in enumerate(ball)}
    chosen = []
    for i, g in enumerate(ball):
        for s, mult in neg:
            if position.get((g * s).normal, i) < i:
                continue  # listed from g*s, earlier in the ball
            label = f"{format_word(g)}:{format_word(s)}"
            chosen.extend(((g, s, j), f"{label}#{j}" if mult > 1 else label) for j in range(mult))
    return chosen


def lift_marginals(
    quotients,
    f: GroupRingElement,
    radius: int,
    samples: int,
    seed: int = 0,
    max_steps=None,
) -> list:
    """Estimate forest edge marginals on the group through a quotient chain.

    quotients is a sequence of quotients of f's family; max_steps caps each
    random walk as in wilson_sample.  For each quotient, the window of
    group edges within the given radius is pulled back to multigraph edge
    copies (injectivity radius at least radius + 1 makes this well defined
    and injective), and the empirical inclusion frequency over uniform
    spanning tree samples is tabulated: one tuple of MarginalRow per
    quotient, aligned across quotients for convergence display.  A sample
    counts a window copy when the copy is the walk's exit at one of its
    endpoints, so no SpanningTree is built per sample.

    Each quotient's samples are dealt round-robin to min(CPUs in the
    affinity mask, samples) workers of one fork pool, closed before this
    returns or raises.  Sample i of quotient qi reads stream (seed, qi, i)
    on any worker and counts are integer sums, so the tables do not depend
    on the worker count.  With one worker, or no affinity mask, nothing is
    forked.
    """
    require_well_balanced(f)
    if any(q.family != f.family for q in quotients):
        raise FamilyMismatchError("chain and element families differ")
    if samples < 1:
        raise ValueError("need at least one sample")
    if radius < 0:
        raise ValueError("window radius must be >= 0")
    window = _window_edges(f, radius)
    gens = support_words(f)

    def table(qi, quotient):
        inj = injectivity_radius(quotient, r_max=radius + 1, generators=gens)
        if inj < radius + 1:
            raise WindowError(
                f"injectivity radius {inj}; the window needs at least {radius + 1}"
            )
        graph = QuotientMultigraph(build_laplacian(quotient, f))
        nbr = graph.neighbours
        # Each window copy as (u, its exit index at u, v, its exit index at
        # v), as _window_counts reads it.  Copy j is slot j, as the repeats
        # of v in row u are s's copies alone: a support word w != s with
        # u.w = v would put g.w and g.s on one coset inside B(radius + 1),
        # where the map was just checked injective; from v, v.w' = u means
        # u.w'^-1 = v, the same case as f is self-adjoint.
        ends = []
        for (g, s, j), _ in window:
            u = quotient.coset_of(g)
            v = quotient.act(u, s)
            if u == v:
                raise AssertionError("window edge collapsed to a loop")
            ends.append((u, nbr[u].index(v) + j, v, nbr[v].index(u) + j))
        shares = [
            (graph, ends, seed, qi, range(r, samples, workers), max_steps)
            for r in range(workers)
        ]
        parts = pool.starmap(_window_counts, shares) if pool else [_window_counts(*shares[0])]
        counts = [sum(column) for column in zip(*parts)]
        rows = []
        for ((g, s, j), label), count in zip(window, counts):
            p = count / samples
            halfwidth = 1.96 * math.sqrt(p * (1.0 - p) / samples)
            rows.append(MarginalRow((g.normal, s.normal, j), label, count, p, halfwidth))
        return tuple(rows)

    workers = min(_cpus(), samples)
    import multiprocessing  # only this report forks, so other runs skip its import

    # Pool forks in its constructor, before its handler threads start, and
    # the workers run Python and Philox alone (no BLAS); the block
    # terminates and joins them on return and on error
    pool_context = (
        multiprocessing.get_context("fork").Pool(workers)
        if workers > 1
        else contextlib.nullcontext()
    )
    with pool_context as pool:
        return [
            at_quotient(qi, q.label, lambda qi=qi, q=q: table(qi, q))
            for qi, q in enumerate(quotients)
        ]
