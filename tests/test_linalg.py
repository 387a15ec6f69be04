"""Quotient Laplacians, tree counts, component groups, spectra.

Every derived number here is checked against an independent route: explicit
convolution-operator assembly, brute-force spanning tree enumeration,
integral-point counting for component group orders, and closed-form circulant
eigenvalues.
"""

import itertools
import math
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from groupforests import (
    DisconnectedGraphError,
    FamilyMismatchError,
    FiniteQuotient,
    GroupFamily,
    GroupRingElement,
    NotWellBalancedError,
    QuotientLaplacian,
    QuotientMultigraph,
    build_laplacian,
    fk_estimate_eigen,
    fk_estimate_tree,
    free_abelian_spectrum,
    free_ball_quotient,
    harmonic_component_group,
    laplacian_element,
    parse_group_ring,
    spanning_tree_count,
    spectrum,
)
from groupforests import intmat, linalg, walks
from groupforests.groups import GroupWord
from groupforests.intmat import bareiss_determinant, modular_determinant, smith_normal_form

Z = GroupFamily.free_abelian(1)
Z2 = GroupFamily.free_abelian(2)
F2 = GroupFamily.free(2)
H = GroupFamily.heisenberg()


def minor(L, base):
    """The Laplacian with the base vertex's row and column struck, as int rows."""
    return np.delete(np.delete(L.matrix, base, axis=0), base, axis=1).tolist()


# K4 = 4I - J: its matching edges are 2-cycles of a Cayley graph of Z/4, and a
# 2-cycle has multiplicity f_s + f_{s^-1}, even for a self-adjoint f
K4 = 4 * np.eye(4, dtype=np.int64) - 1

# self-adjoint closures of two one-sided elements, written as the one-sided
# terms, then the inverse words and the identity mass they need:
# 6 - a - A - 2a^3 - 2A^3, and 6 - (a + a^2 + a^3 + inverses), which is K4
# with every edge doubled on Z/4
CUBE_F = "e 4\na -1\nA -1\na a a -2\nA A A -2\ne 2"
DOUBLE_K4_F = "e 3\na -1\na a -1\na a a -1\nA -1\nA A -1\nA A A -1\ne 3"


def cycle_quotient(m):
    return FiniteQuotient.from_moduli(Z, (m,))


def torus_quotient(m):
    return FiniteQuotient.from_moduli(Z2, (m, m))


# --- independent oracle routes ---


def operator_matrix_oracle(quotient, f):
    """Assemble sum_s f_s [u.s = v] one coset at a time, identity included.

    Row sums vanish because the coefficients of f sum to zero, so this is the
    whole Laplacian with loops folded into the diagonal automatically.
    """
    n = quotient.size
    out = [[0] * n for _ in range(n)]
    for word, c in f.items():
        for u in range(n):
            out[u][quotient.act(u, word)] += int(c)
    return out


def multigraph_oracle(matrix, quotient=None, f=None):
    """Bundles, incidence and symbols by scanning every pair u < v of a
    dense Laplacian, bundle by bundle and slot by slot."""
    n = len(matrix)
    bundles = []
    for u in range(n):
        for v in range(u + 1, n):
            mult = -int(matrix[u][v])
            if mult:
                bundles.append((u, v, mult))
    incidence = [[] for _ in range(n)]
    for b, (u, v, mult) in enumerate(bundles):
        for slot in range(mult):
            incidence[u].append((v, b, slot))
            incidence[v].append((u, b, slot))
    symbols = None
    if quotient is not None:
        neg = [(w, int(-c)) for w, c in f.items() if c < 0 and not w.is_identity()]
        symbols = []
        for u, v, mult in bundles:
            slots = []
            for w, m in neg:
                if quotient.act(u, w) == v:
                    slots.extend((w, j) for j in range(m))
            assert len(slots) == mult
            symbols.append(tuple(slots))
        symbols = tuple(symbols)
    return tuple(bundles), tuple(tuple(inc) for inc in incidence), symbols


def multigraph_rows(graph):
    """Each row of a multigraph as its (neighbour, slot) copies, read from
    the CSR arrays offsets, copy_neighbour and copy_slot."""
    ends = graph.offsets.tolist()
    copies = list(zip(graph.copy_neighbour.tolist(), graph.copy_slot.tolist()))
    return tuple(tuple(copies[a:b]) for a, b in zip(ends, ends[1:]))


def oracle_rows(incidence):
    """The pair scan's incidence reduced to (neighbour, slot) copies."""
    return tuple(tuple((x, slot) for x, _, slot in inc) for inc in incidence)


def symbol_decode(laplacian):
    """Each pair u < v's copies as (word, copy) symbols read from u.

    Slot k of the pair (u, v) decodes to the k-th (w, j) with u * w = v, in
    the order of f's support and then copy j; every pair must decode to
    exactly its multiplicity of symbols.
    """
    upper = laplacian.rows < laplacian.cols
    u, v = laplacian.rows[upper], laplacian.cols[upper]
    slots = {pair: [] for pair in zip(u.tolist(), v.tolist())}
    for w, c in laplacian.source.items():
        if c >= 0 or w.is_identity():
            continue
        hits = np.flatnonzero(laplacian.quotient.word_permutation(w)[u] == v)
        for b in hits.tolist():
            slots[int(u[b]), int(v[b])].extend((w, j) for j in range(int(-c)))
    assert [len(s) for s in slots.values()] == (-laplacian.values[upper]).tolist()
    return {pair: tuple(s) for pair, s in slots.items()}


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def edge_copies(matrix):
    """Multigraph edge list from a Laplacian, one entry per parallel copy."""
    n = len(matrix)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            for _ in range(-int(matrix[u][v])):
                edges.append((u, v))
    return edges


def brute_force_tree_count(matrix):
    """Enumerate all (n-1)-subsets of edge copies and count the spanning trees."""
    n = len(matrix)
    if n == 1:
        return 1
    edges = edge_copies(matrix)
    count = 0
    for subset in itertools.combinations(edges, n - 1):
        uf = UnionFind(n)
        if all(uf.union(u, v) for u, v in subset):
            count += 1
    return count


def fraction_inverse(rows):
    """Exact inverse over the rationals (Gauss-Jordan)."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col])
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                r = a[i][col]
                a[i] = [x - r * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]


def integral_point_order_oracle(reduced):
    """Count points y in [0,1)^n with (reduced) y integral, by enumerating
    candidate integer images z = A y inside the box that A maps [0,1)^n into."""
    n = len(reduced)
    inv = fraction_inverse(reduced)
    lo = [sum(min(0, x) for x in row) for row in reduced]
    hi = [sum(max(0, x) for x in row) for row in reduced]
    count = 0
    for z in itertools.product(*[range(l, h + 1) for l, h in zip(lo, hi)]):
        y = [sum(inv[i][j] * z[j] for j in range(n)) for i in range(n)]
        if all(0 <= yi < 1 for yi in y):
            count += 1
    return count


# --- Laplacian assembly ---


class TestBuildLaplacian:
    @pytest.mark.parametrize(
        "quotient,f_text",
        [
            (cycle_quotient(7), "e 2\na -1\nA -1"),
            (cycle_quotient(6), CUBE_F),
            (torus_quotient(4), "e 4\na -1\nA -1\nb -1\nB -1"),
            (FiniteQuotient.from_moduli(H, (2,)), "e 4\na -1\nA -1\nb -1\nB -1"),
            (free_ball_quotient(F2, 2), "e 4\na -1\nA -1\nb -1\nB -1"),
            (cycle_quotient(4), DOUBLE_K4_F),
        ],
    )
    def test_matches_operator_oracle(self, quotient, f_text):
        f = parse_group_ring(quotient.family, f_text)
        L = build_laplacian(quotient, f)
        assert L.matrix.tolist() == operator_matrix_oracle(quotient, f)

    def test_double_edge(self):
        L = build_laplacian(cycle_quotient(2), laplacian_element(Z))
        assert L.matrix.tolist() == [[2, -2], [-2, 2]]

    def test_loops_fold_away(self):
        # on Z/2 the a^2 and A^2 terms are loops at every vertex and must vanish
        f = parse_group_ring(Z, "e 6\na -1\nA -1\na a -2\nA A -2")
        L = build_laplacian(cycle_quotient(2), f)
        assert L.matrix.tolist() == [[2, -2], [-2, 2]]

    def test_trivial_quotient(self):
        L = build_laplacian(cycle_quotient(1), laplacian_element(Z))
        assert L.matrix.tolist() == [[0]]
        assert L.size == 1

    def test_family_mismatch(self):
        with pytest.raises(FamilyMismatchError):
            build_laplacian(cycle_quotient(3), laplacian_element(F2))

    def test_rejects_bad_sum(self):
        with pytest.raises(NotWellBalancedError):
            build_laplacian(cycle_quotient(3), parse_group_ring(Z, "e 2\na -1"))

    def test_rejects_bad_sign(self):
        with pytest.raises(NotWellBalancedError):
            build_laplacian(cycle_quotient(3), parse_group_ring(Z, "e -2\na 1\nA 1"))

    def test_rejects_asymmetric_image(self):
        # 3 - a - a^2 - a^3 is not self-adjoint, though its image mod 4 (K4) is
        f = parse_group_ring(Z, "e 3\na -1\na a -1\na a a -1")
        with pytest.raises(NotWellBalancedError, match="not self-adjoint"):
            build_laplacian(cycle_quotient(4), f)

    def test_matrix_is_read_only(self):
        L = build_laplacian(cycle_quotient(3), laplacian_element(Z))
        with pytest.raises(ValueError):
            L.matrix[0, 0] = 5

    def test_reduced_strikes_base(self):
        # vertex 0 is the base: its row and column go
        L = QuotientLaplacian(np.array([[3, -2, -1], [-2, 2, 0], [-1, 0, 1]]))
        reduced = L.reduced()
        assert reduced.dtype == np.int64 and not reduced.flags.writeable
        assert reduced.tolist() == [[2, 0], [0, 1]]
        assert QuotientLaplacian(np.zeros((1, 1))).reduced().shape == (0, 0)


# --- spanning tree counts ---


class TestSpanningTreeCount:
    def test_known_cycles(self):
        # a cycle has exactly m spanning trees (drop any one edge)
        for m in (3, 4, 5, 9):
            L = build_laplacian(cycle_quotient(m), laplacian_element(Z))
            assert spanning_tree_count(L) == m

    def test_complete_graph_from_residues(self):
        # K4, whose matching edges no self-adjoint f gives singly; Cayley's
        # formula gives 4^2
        assert spanning_tree_count(QuotientLaplacian(K4)) == 16

    def test_double_edge_has_two_trees(self):
        L = build_laplacian(cycle_quotient(2), laplacian_element(Z))
        assert spanning_tree_count(L) == 2

    @pytest.mark.parametrize(
        "quotient,f_text",
        [
            (cycle_quotient(5), "e 2\na -1\nA -1"),
            (cycle_quotient(4), DOUBLE_K4_F),
            (cycle_quotient(6), CUBE_F),
            (torus_quotient(3), "e 4\na -1\nA -1\nb -1\nB -1"),
            (FiniteQuotient.from_moduli(H, (2,)), "e 4\na -1\nA -1\nb -1\nB -1"),
        ],
    )
    def test_matches_brute_force_enumeration(self, quotient, f_text):
        f = parse_group_ring(quotient.family, f_text)
        L = build_laplacian(quotient, f)
        assert spanning_tree_count(L) == brute_force_tree_count(L.matrix.tolist())

    def test_base_independence(self):
        L = build_laplacian(torus_quotient(3), laplacian_element(Z2))
        counts = {bareiss_determinant(minor(L, base)) for base in range(L.size)}
        assert counts == {spanning_tree_count(L)}

    def test_trivial_quotient(self):
        L = build_laplacian(cycle_quotient(1), laplacian_element(Z))
        assert spanning_tree_count(L) == 1

    def test_disconnected_raises(self):
        M = np.array(
            [[1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 1]]
        )
        L = QuotientLaplacian(M)
        with pytest.raises(DisconnectedGraphError):
            spanning_tree_count(L)


@st.composite
def torus_elements(draw):
    """A small moduli quotient of Z^d, d <= 3, and a well-balanced f on it.

    Every generator carries a coefficient, so the support spans Z^d and the
    multigraph is connected; extra words, loops among them, carry
    coefficients up to 2**40, past the 2**26 of the character primes.
    """
    rank = draw(st.integers(1, 3))
    family = GroupFamily.free_abelian(rank)
    moduli = tuple(draw(st.lists(st.integers(1, 5), min_size=rank, max_size=rank)))
    assume(math.prod(moduli) >= 2)
    words = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    words += draw(st.lists(st.tuples(*[st.integers(-6, 6)] * rank), max_size=3))
    coeffs = {}
    for w in words:
        if any(w):
            c = draw(st.integers(1, 2**40))
            for x in (w, tuple(-a for a in w)):
                coeffs[x] = coeffs.get(x, 0) - c
    coeffs[(0,) * rank] = -sum(coeffs.values())
    return FiniteQuotient.from_moduli(family, moduli), GroupRingElement(family, coeffs)


class TestTorusTreeCount:
    """The character product on moduli quotients of Z^d against the matrix kernels."""

    @settings(max_examples=15)
    @given(st.lists(st.integers(1, 24), min_size=1, max_size=2))
    @example([23, 21])
    def test_norm_matches_the_determinants(self, moduli):
        # the modular kernel reaches N = 600, past what Bareiss does in test time
        assume(math.prod(moduli) <= 600)
        family = GroupFamily.free_abelian(len(moduli))
        f = laplacian_element(family)
        L = build_laplacian(FiniteQuotient.from_moduli(family, tuple(moduli)), f)
        tau = spanning_tree_count(L)
        rows = L.reduced()
        assert tau == modular_determinant(rows)
        if L.size > 1:  # the trivial quotient has no nonzero eigenvalue
            assert linalg._torus_tree_count(tuple(moduli), f) == tau
        if L.size <= 64:
            assert tau == bareiss_determinant(rows)

    @settings(max_examples=40, deadline=None)
    @given(torus_elements())
    @example((FiniteQuotient.from_moduli(Z, (2,)), parse_group_ring(Z, f"e {2**63 - 2}\na -{2**62 - 1}\nA -{2**62 - 1}")))
    def test_any_f_matches_the_determinant(self, case):
        quotient, f = case
        L = build_laplacian(quotient, f)
        expected = modular_determinant(L.reduced())
        with mock.patch.object(linalg, "modular_determinant", side_effect=AssertionError("matrix route")):
            assert spanning_tree_count(L) == expected

    @pytest.mark.parametrize(
        "family, moduli",
        [(Z2, (6, 6)), (GroupFamily.free_abelian(3), (2, 3, 4)), (H, (3,))],
        ids=["torus", "rank-3", "heisenberg"],
    )
    def test_prime_shortage_takes_the_determinant(self, monkeypatch, family, moduli):
        # the primes = 1 (mod M) below 64 multiply to at most 2**30, short of
        # twice the bound on the product of the nonzero eigenvalues
        L = build_laplacian(FiniteQuotient.from_moduli(family, moduli), laplacian_element(family))
        expected = modular_determinant(L.reduced())
        calls = []

        def counted(rows):
            calls.append(len(rows))
            return modular_determinant(rows)

        monkeypatch.setattr(linalg, "_CHAR_PRIME_BOUND", 64)
        monkeypatch.setattr(linalg, "modular_determinant", counted)
        assert spanning_tree_count(L) == expected
        assert calls == [L.size - 1]

    @pytest.mark.parametrize(
        "m, bound, prime_bound",
        [(6, 2**200, 2**26), (4093, 2**4000, 2**26), (2, 2**3000, 3 * 2**16 + 5)],
        ids=["m6", "m4093", "cut-window"],
    )
    def test_takes_the_primes_of_the_walk(self, monkeypatch, m, bound, prime_bound):
        # largest first from primes_below, stopping at the first prime whose
        # product passes 2 bound; a bound inside a window cuts it
        expected, product = [], 1
        for q in intmat.primes_below(prime_bound):
            if q % m == 1:
                expected.append(q)
                product *= q
                if product > 2 * bound:
                    break
        seen = []

        def values(p, powers):
            seen.extend(p[:, 0].tolist())
            return np.ones((len(p), 3), dtype=np.int64)

        monkeypatch.setattr(linalg, "_CHAR_PRIME_BOUND", prime_bound)
        assert linalg._character_tree_count(1, bound, m, 3, values) == 1
        assert seen == expected

    def test_unreached_bound_returns_none(self):
        # the primes = 1 (mod 2003) below 2**26 number at most 2**26 / 2003 + 1
        # and each is below 2**26, so their product is short of this bound
        def values(p, powers):
            raise AssertionError("evaluated the factors without enough primes")

        bound = 2 ** (26 * (2**26 // 2003 + 1))
        assert linalg._character_tree_count(1, bound, 2003, 1, values) is None

    def test_inexact_norm_raises(self, monkeypatch):
        # a lift off by one leaves N tau indivisible by N = 12
        real = linalg.crt
        monkeypatch.setattr(linalg, "crt", lambda residues, primes: (real(residues, primes)[0] + 1, None))
        with pytest.raises(ArithmeticError, match="is not a multiple of 12"):
            linalg._torus_tree_count((4, 3), laplacian_element(Z2))

    def test_hand_built_laplacian_is_read_as_a_matrix(self):
        # M is twice the 5 x 5 torus Laplacian (2**8 * 5**14 trees), whose
        # 24-square reduced minor gains 2**24; no quotient names a torus
        q = torus_quotient(5)
        M = build_laplacian(q, parse_group_ring(Z2, "e 8\na -2\nA -2\nb -2\nB -2")).matrix
        L = QuotientLaplacian(M)
        assert L.quotient is None and L.source is None
        assert spanning_tree_count(L) == bareiss_determinant(L.reduced()) == 2**32 * 5**14


class TestHeisenbergTreeCount:
    """The character product on H mod m against the modular determinant."""

    @pytest.mark.parametrize("m", range(1, 9))
    def test_product_matches_the_determinant(self, monkeypatch, m):
        L = build_laplacian(FiniteQuotient.from_moduli(H, m), laplacian_element(H))
        expected = modular_determinant(L.reduced())

        def refuse(*args):
            raise AssertionError("matrix kernel on H mod m")

        monkeypatch.setattr(linalg, "modular_determinant", refuse)
        monkeypatch.setattr(QuotientLaplacian, "reduced", refuse)
        assert spanning_tree_count(L) == expected

    def test_h_mod_11_is_fast(self):
        start = time.perf_counter()
        tau = linalg._heisenberg_tree_count(11)
        assert time.perf_counter() - start < 1.0
        # 11 tau = tau_torus prod_(k != 0, l) det J_kl, a multiple of the 11 x 11 torus's count
        assert 11 * tau % linalg._torus_tree_count((11, 11), laplacian_element(Z2)) == 0

    def test_inexact_product_raises(self, monkeypatch):
        # a lift off by one leaves m tau indivisible by m = 3
        real = linalg.crt
        monkeypatch.setattr(linalg, "crt", lambda residues, primes: (real(residues, primes)[0] + 1, None))
        with pytest.raises(ArithmeticError, match="is not a multiple of 3"):
            linalg._heisenberg_tree_count(3)


# --- harmonic component groups ---


class TestComponentGroup:
    def test_triangle(self):
        L = build_laplacian(cycle_quotient(3), laplacian_element(Z))
        g = harmonic_component_group(L)
        assert g.invariant_factors == (1, 3)
        assert g.order == 3

    def test_complete_graph(self):
        g = harmonic_component_group(QuotientLaplacian(K4))
        assert g.invariant_factors == (1, 4, 4)
        assert g.order == 16

    def test_cycle_group_is_cyclic(self):
        L = build_laplacian(cycle_quotient(5), laplacian_element(Z))
        g = harmonic_component_group(L)
        assert g.invariant_factors == (1, 1, 1, 5)
        assert g.order == 5

    @pytest.mark.parametrize(
        "quotient,f_text",
        [
            (cycle_quotient(3), "e 2\na -1\nA -1"),
            (cycle_quotient(4), DOUBLE_K4_F),
            (cycle_quotient(5), "e 2\na -1\nA -1"),
            (cycle_quotient(6), CUBE_F),
            (torus_quotient(2), "e 4\na -1\nA -1\nb -1\nB -1"),
        ],
    )
    def test_order_matches_integral_point_enumeration(self, quotient, f_text):
        f = parse_group_ring(quotient.family, f_text)
        L = build_laplacian(quotient, f)
        g = harmonic_component_group(L)
        assert g.order == integral_point_order_oracle(L.reduced())

    def test_order_equals_tree_count(self):
        # the headline identity, on quotients small and large
        cases = [
            (cycle_quotient(12), laplacian_element(Z)),
            (torus_quotient(5), laplacian_element(Z2)),
            (FiniteQuotient.from_moduli(H, (3,)), laplacian_element(H)),
            (free_ball_quotient(F2, 2), laplacian_element(F2)),
            (torus_quotient(9), laplacian_element(Z2)),
        ]
        for quotient, f in cases:
            L = build_laplacian(quotient, f)
            assert harmonic_component_group(L).order == spanning_tree_count(L)

    def test_entry_growth_regression(self):
        # this 63x63 reduced Laplacian once drove the unreduced Smith loop
        # into thousand-digit intermediate entries; with the determinant
        # modulus it must finish fast with the order identity intact
        q = FiniteQuotient.from_moduli(H, (4,))
        f = parse_group_ring(H, "e 10\nA -3\nB -2\nb -2\na -3")
        L = build_laplacian(q, f)
        start = time.monotonic()
        g = harmonic_component_group(L)
        assert time.monotonic() - start < 30.0
        assert g.order == spanning_tree_count(L)
        assert g.invariant_factors[-1] == 26880

    def test_known_large_torus_order(self):
        # regression pin: 8x8 torus, two independent exact routes agree
        L = build_laplacian(torus_quotient(8), laplacian_element(Z2))
        tau = spanning_tree_count(L)
        assert tau == 89927963805390785392395474173952
        assert harmonic_component_group(L).order == tau

    def test_base_independence(self):
        f = parse_group_ring(Z, CUBE_F)
        L = build_laplacian(cycle_quotient(6), f)
        tau = spanning_tree_count(L)
        groups = {tuple(smith_normal_form(minor(L, base), modulus=tau)) for base in range(6)}
        assert groups == {harmonic_component_group(L).invariant_factors}

    def test_trivial_quotient(self):
        L = build_laplacian(cycle_quotient(1), laplacian_element(Z))
        g = harmonic_component_group(L)
        assert g.order == 1
        assert g.invariant_factors == ()

    def test_disconnected_raises(self):
        M = np.array(
            [[1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 1]]
        )
        L = QuotientLaplacian(M)
        with pytest.raises(DisconnectedGraphError):
            harmonic_component_group(L)


# --- the layer sweep against the dense Smith form ---

UNIT_F = "e 6\na -1\nA -1\nb -2\nB -2"  # a unit coefficient on a only
NO_UNIT_F = "e 8\na -2\nA -2\nb -2\nB -2"


def assert_dense_factors(L):
    """The component group's factors are the (N-1)-square Smith form's."""
    tau = spanning_tree_count(L)
    g = harmonic_component_group(L, modulus=tau)
    assert g.invariant_factors == tuple(smith_normal_form(L.reduced(), modulus=tau))
    assert g.order == tau
    assert harmonic_component_group(L).invariant_factors == g.invariant_factors


class TestLayerSweep:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.lists(st.integers(1, 8), min_size=d, max_size=d)))
    def test_tori_match_the_dense_smith_form(self, moduli):
        assume(math.prod(moduli) <= 160)
        family = GroupFamily.free_abelian(len(moduli))
        quotient = FiniteQuotient.from_moduli(family, tuple(moduli))
        L = build_laplacian(quotient, laplacian_element(family))
        relations = linalg._layer_sweep(L)
        if max(moduli) < 3:
            assert relations is None
        else:
            # b is a generator of the largest modulus: the least layer size
            assert len(relations) == 2 * L.size // max(moduli) - 1
        assert_dense_factors(L)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_heisenberg_matches_the_dense_smith_form(self, m):
        L = build_laplacian(FiniteQuotient.from_moduli(H, (m,)), laplacian_element(H))
        relations = linalg._layer_sweep(L)
        # K is the normal subgroup <a, c> of m^2 cosets; at m = 2 b has order 2
        assert (relations is None) if m == 2 else len(relations) == 2 * m * m - 1
        assert_dense_factors(L)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8))
    def test_unit_coefficient_on_one_letter(self, p, r):
        assume(p * r <= 160)
        L = build_laplacian(FiniteQuotient.from_moduli(Z2, (p, r)), parse_group_ring(Z2, UNIT_F))
        relations = linalg._layer_sweep(L)
        # only a has coefficient -1, so the layers run along a
        assert (relations is None) if p < 3 else len(relations) == 2 * r - 1
        assert_dense_factors(L)

    @pytest.mark.parametrize("m", [3, 4])
    def test_unit_coefficient_on_heisenberg(self, m):
        L = build_laplacian(FiniteQuotient.from_moduli(H, (m,)), parse_group_ring(H, UNIT_F))
        assert len(linalg._layer_sweep(L)) == 2 * m * m - 1
        assert_dense_factors(L)

    @pytest.mark.parametrize(
        "L",
        [
            build_laplacian(torus_quotient(5), parse_group_ring(Z2, NO_UNIT_F)),
            build_laplacian(free_ball_quotient(F2, 3), laplacian_element(F2)),
            QuotientLaplacian(build_laplacian(torus_quotient(5), laplacian_element(Z2)).matrix),
        ],
        ids=["no-unit-coefficient", "free-ball", "hand-built"],
    )
    def test_fallback_is_the_dense_smith_form(self, L, monkeypatch):
        assert linalg._layer_sweep(L) is None
        sizes = []
        real = intmat.smith_normal_form

        def recorded(rows, modulus=None):
            sizes.append(len(rows))
            return real(rows, modulus=modulus)

        monkeypatch.setattr(intmat, "smith_normal_form", recorded)
        assert_dense_factors(L)
        assert sizes == [L.size - 1] * 2  # with the modulus tau, then without

    def test_layers_are_checked_on_the_laplacian(self):
        # quotient and f admit layers, but the entries are another f's: those
        # from layer j to j + 1 are -2, so there is no unit pivot
        q = torus_quotient(5)
        N = build_laplacian(q, parse_group_ring(Z2, NO_UNIT_F))
        L = QuotientLaplacian._from_sparse(
            q, laplacian_element(Z2), N.size, N.rows, N.cols, N.values, N.diagonal
        )
        assert linalg._layers(L) is not None
        assert linalg._layer_sweep(L) is None
        tau = spanning_tree_count(N)
        assert harmonic_component_group(L, modulus=tau) == harmonic_component_group(N)


# --- the Smith form modulo the exponent, certified by tau ---


@st.composite
def relation_matrices(draw):
    """(relation matrix, tau) of a small torus, of H mod m, or under another f.

    Tori and H mod m >= 3 take the layer sweep; NO_UNIT_F has no unit
    coefficient, so a torus under it takes the reduced Laplacian.
    """
    kind = draw(st.sampled_from(["torus", "heisenberg", "other-f"]))
    if kind == "torus":
        rank = draw(st.integers(1, 3))
        moduli = draw(st.lists(st.integers(1, 8), min_size=rank, max_size=rank))
        assume(math.prod(moduli) <= 160)
        family = GroupFamily.free_abelian(len(moduli))
        L = build_laplacian(FiniteQuotient.from_moduli(family, tuple(moduli)), laplacian_element(family))
    elif kind == "heisenberg":
        L = build_laplacian(FiniteQuotient.from_moduli(H, (draw(st.integers(2, 5)),)), laplacian_element(H))
    else:
        moduli = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
        assume(math.prod(moduli) <= 48)
        L = build_laplacian(FiniteQuotient.from_moduli(Z2, moduli), parse_group_ring(Z2, NO_UNIT_F))
        assert linalg._layer_sweep(L) is None
    relations = linalg._layer_sweep(L)
    return (L.reduced().tolist() if relations is None else relations), spanning_tree_count(L)


# the 3 x 5 torus: its sweep's group is Z/29^3 x Z/435
TORUS_3X5 = build_laplacian(FiniteQuotient.from_moduli(Z2, (3, 5)), laplacian_element(Z2))
TAU_3X5 = 29**3 * 435


class TestCertifiedGroup:
    @settings(max_examples=60, deadline=None)
    @given(relation_matrices(), st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_matches_the_smith_form_modulo_tau(self, case, seed, rhs):
        relations, tau = case
        with mock.patch.object(intmat, "_RHS_SEED", seed), mock.patch.object(intmat, "_RHS", rhs):
            factors = intmat.certified_smith_form(relations, tau)
        assert factors == smith_normal_form(relations, modulus=tau)

    @pytest.mark.parametrize("q, moduli", [(3, [145, 435]), (29, [15, TAU_3X5])])
    def test_an_unlucky_exponent_on_the_3x5_torus(self, monkeypatch, q, moduli):
        # two right-hand sides can give D = 145 = 435 / 3 here; the factors
        # then multiply to P = tau / 3, and the retry runs modulo D tau / P.
        # At D = 15 = 435 / 29 that is tau itself
        relations = linalg._layer_sweep(TORUS_3X5)
        assert intmat.certified_smith_form(relations, TAU_3X5) == [1, 29, 29, 29, 435]
        ran = []
        real = intmat._smith_mod

        def recorded(a, modulus):
            ran.append(modulus)
            return real(a, modulus)

        monkeypatch.setattr(intmat, "_exponent", lambda a, order: 435 // q)
        monkeypatch.setattr(intmat, "_smith_mod", recorded)
        g = harmonic_component_group(TORUS_3X5)
        assert g.invariant_factors == (1,) * 10 + (29, 29, 29, 435)
        assert g.order == TAU_3X5
        assert ran == moduli

    def test_two_right_hand_sides_on_the_3x5_torus(self, monkeypatch):
        # some seeds miss the factor 3 of the exponent; every seed ends on the group
        monkeypatch.setattr(intmat, "_RHS", 2)
        for seed in range(10):
            monkeypatch.setattr(intmat, "_RHS_SEED", seed)
            assert harmonic_component_group(TORUS_3X5).invariant_factors[-4:] == (29, 29, 29, 435)


# --- spectra and determinant estimates ---


def reference_torus_spectrum(quotient, f):
    """The closed-form spectrum's character sums on the moduli grid, as they
    were computed before `walks.torus_symbol` served the grid and the spectrum."""
    shape = tuple(quotient.moduli)
    d = f.family.rank
    lam = np.zeros(shape)
    grids = np.meshgrid(
        *[2.0 * np.pi * np.arange(m) / m for m in shape], indexing="ij", sparse=True
    )
    for nf, c in f._coeffs.items():
        phase = np.zeros(shape)
        for i in range(d):
            if nf[i]:
                phase = phase + nf[i] * grids[i]
        lam += int(c) * np.cos(phase)
    return lam


class TestSpectrum:
    def test_cycle_closed_form(self):
        m = 8
        L = build_laplacian(cycle_quotient(m), laplacian_element(Z))
        expected = sorted(2 - 2 * math.cos(2 * math.pi * j / m) for j in range(m))
        s = spectrum(L)
        assert np.allclose(s.eigenvalues, expected, atol=1e-12)
        assert s.zero_count == 1

    def test_torus_closed_form(self):
        m = 4
        L = build_laplacian(torus_quotient(m), laplacian_element(Z2))
        expected = sorted(
            4
            - 2 * math.cos(2 * math.pi * j / m)
            - 2 * math.cos(2 * math.pi * k / m)
            for j in range(m)
            for k in range(m)
        )
        assert np.allclose(spectrum(L).eigenvalues, expected, atol=1e-12)

    @pytest.mark.parametrize(
        "quotient,f_text",
        [
            (torus_quotient(4), "e 4\na -1\nA -1\nb -1\nB -1"),
            (cycle_quotient(8), "e 6\na -1\nA -1\na a -2\nA A -2"),
            (cycle_quotient(4), DOUBLE_K4_F),
            (FiniteQuotient.from_moduli(Z2, (2, 6)), "e 4\na -1\nA -1\nb -1\nB -1"),
        ],
    )
    def test_multiplier_route_matches_dense(self, quotient, f_text):
        f = parse_group_ring(quotient.family, f_text)
        L = build_laplacian(quotient, f)
        dense = spectrum(L).eigenvalues
        closed = free_abelian_spectrum(quotient, f).eigenvalues
        assert np.allclose(dense, closed, atol=1e-9)

    @settings(max_examples=150)
    @given(torus_elements())
    def test_multiplier_route_is_bit_identical(self, case):
        # non-cubic moduli and words past the nearest neighbours, each
        # against the loop the closed form ran before `torus_symbol`
        quotient, f = case
        terms = [(nf, int(c)) for nf, c in f._coeffs.items()]
        lam = walks.torus_symbol(terms, quotient.moduli)
        assert np.array_equal(lam, reference_torus_spectrum(quotient, f))
        vals = np.sort(lam.ravel())
        vals[np.abs(vals) < 1e-12 * max(1.0, float(f.one_norm()))] = 0.0
        assert np.array_equal(free_abelian_spectrum(quotient, f).eigenvalues, vals)

    def test_multiplier_route_rejects_asymmetric_image(self):
        f = parse_group_ring(Z, "e 3\na -1\na a -1\na a a -1")
        with pytest.raises(NotWellBalancedError, match="not self-adjoint"):
            free_abelian_spectrum(cycle_quotient(4), f)

    def test_multiplier_route_needs_moduli(self):
        q = FiniteQuotient.from_text(Z, cycle_quotient(3).to_text())
        with pytest.raises(ValueError):
            free_abelian_spectrum(q, laplacian_element(Z))

    def test_multiplier_route_needs_free_abelian(self):
        q = FiniteQuotient.from_moduli(H, (2,))
        with pytest.raises(FamilyMismatchError):
            free_abelian_spectrum(q, laplacian_element(H))

    def test_zero_count_is_structural(self):
        L = build_laplacian(cycle_quotient(4), laplacian_element(Z))
        # eigenvalues are {0, 2, 2, 4}; the zero count comes from connectivity,
        # not magnitude thresholding
        s = spectrum(L)
        assert s.zero_count == 1
        assert len(s.nonzero_eigenvalues()) == 3

    def test_nonzero_product_equals_size_times_trees(self):
        for quotient, f in [
            (cycle_quotient(12), laplacian_element(Z)),
            (torus_quotient(5), laplacian_element(Z2)),
        ]:
            L = build_laplacian(quotient, f)
            s = spectrum(L)
            log_prod = float(np.sum(np.log(s.nonzero_eigenvalues())))
            target = math.log(L.size) + math.log(spanning_tree_count(L))
            assert abs(log_prod - target) < 1e-6 * abs(target)


class TestDeterminantEstimates:
    def test_eigen_estimate_identity(self):
        # (1/N) sum log lambda_i = (log N + log tau) / N, exactly in exact math
        for quotient, f in [
            (cycle_quotient(9), laplacian_element(Z)),
            (torus_quotient(4), laplacian_element(Z2)),
            (FiniteQuotient.from_moduli(H, (2,)), laplacian_element(H)),
        ]:
            L = build_laplacian(quotient, f)
            est = fk_estimate_eigen(spectrum(L))
            n = L.size
            target = (math.log(n) + math.log(spanning_tree_count(L))) / n
            assert abs(est - target) < 1e-9

    def test_tree_estimate_relation(self):
        L = build_laplacian(torus_quotient(4), laplacian_element(Z2))
        n = L.size
        eigen = fk_estimate_eigen(spectrum(L))
        tree = fk_estimate_tree(L)
        assert abs(tree - (eigen - math.log(n) / n)) < 1e-12

    def test_kappa_drops_small_eigenvalues(self):
        L = build_laplacian(cycle_quotient(4), laplacian_element(Z))
        # spectrum {0, 2, 2, 4}; kappa=2.5 keeps only the 4
        est = fk_estimate_eigen(spectrum(L), kappa=2.5)
        assert abs(est - math.log(4.0) / 4) < 1e-12

    def test_cycle_estimate_closed_form(self):
        # product of nonzero cycle eigenvalues is m^2, so the estimate is
        # 2 log(m) / m
        m = 16
        L = build_laplacian(cycle_quotient(m), laplacian_element(Z))
        assert abs(fk_estimate_eigen(spectrum(L)) - 2 * math.log(m) / m) < 1e-9

    def test_torus_estimate_approaches_lattice_constant(self):
        # per-site tree count of the square lattice is 4G/pi (Catalan's G)
        target = 1.1662436161
        L = build_laplacian(torus_quotient(24), laplacian_element(Z2))
        q = FiniteQuotient.from_moduli(Z2, (24, 24))
        est = fk_estimate_eigen(free_abelian_spectrum(q, laplacian_element(Z2)))
        assert abs(est - target) < 1e-2
        assert abs(fk_estimate_tree(L) - target) < 1e-2

    def test_trivial_quotient_estimates(self):
        L = build_laplacian(cycle_quotient(1), laplacian_element(Z))
        assert fk_estimate_tree(L) == 0.0


# --- sparse build against the dense oracles ---


@st.composite
def quotient_cases(draw, window=False):
    """A quotient and a well-balanced f on it.

    Free-abelian moduli include 1 (every letter a loop) and 2 (a and A
    collapse into multiplicity-2 bundles); f is either the default
    Laplacian or carries a second word with coefficient -2.

    With window set, moduli and ball radii are drawn larger, so that most
    cases have injectivity radius >= 1 under the support metric and hence a
    window to check.
    """
    kind = draw(st.sampled_from(["free-abelian", "heisenberg", "free"]))
    if kind == "free-abelian":
        family = GroupFamily.free_abelian(draw(st.integers(1, 3)))
        ranges = {1: (5, 16), 2: (5, 9), 3: (5, 7)} if window else {1: (1, 9), 2: (1, 5), 3: (1, 3)}
        low, top = ranges[family.rank]
        moduli = draw(st.lists(st.integers(low, top), min_size=family.rank, max_size=family.rank))
        quotient = FiniteQuotient.from_moduli(family, tuple(moduli))
    elif kind == "heisenberg":
        family = H
        m = draw(st.integers(3, 6) if window else st.integers(1, 4))
        quotient = FiniteQuotient.from_moduli(H, (m,))
    else:
        family = F2
        radius = draw(st.integers(2, 3) if window else st.integers(1, 2))
        quotient = free_ball_quotient(F2, radius, seed=draw(st.integers(0, 3)))
    f = laplacian_element(family)
    if draw(st.booleans()):
        letters = "abc"[: family.rank]
        word = " ".join(draw(st.lists(st.sampled_from(letters), min_size=2, max_size=3)))
        inverse = " ".join(reversed(word.upper().split()))
        terms = [f"e {2 * family.rank + 4}", f"{word} -2", f"{inverse} -2"]
        terms += [f"{x} -1" for letter in letters for x in (letter, letter.upper())]
        f = parse_group_ring(family, "\n".join(terms))
    return quotient, f


class TestSparseOperator:
    @settings(max_examples=80)
    @given(quotient_cases())
    def test_sparse_build_matches_operator_oracle(self, case):
        quotient, f = case
        L = build_laplacian(quotient, f)
        assert L._dense is None
        keys = L.rows * L.size + L.cols
        assert np.all(np.diff(keys) > 0)
        assert np.all(L.rows != L.cols) and np.all(L.values < 0)
        oracle = operator_matrix_oracle(quotient, f)
        assert L.matrix.tolist() == oracle

    @settings(max_examples=80)
    @given(quotient_cases())
    def test_multigraph_matches_pair_scan(self, case):
        quotient, f = case
        L = build_laplacian(quotient, f)
        graph = QuotientMultigraph(L)
        bundles, incidence, symbols = multigraph_oracle(
            operator_matrix_oracle(quotient, f), quotient, f
        )
        assert multigraph_rows(graph) == oracle_rows(incidence)
        assert graph.neighbours == tuple(tuple(x for x, _, _ in inc) for inc in incidence)
        assert symbol_decode(L) == {(u, v): s for (u, v, _), s in zip(bundles, symbols)}
        degrees = {len(inc) for inc in incidence}
        assert graph.regular_degree == (degrees.pop() if len(degrees) == 1 else None)
        assert L._dense is None

    def test_hand_built_matrix_round_trips(self):
        M = np.array([[3, -2, -1], [-2, 2, 0], [-1, 0, 1]])
        L = QuotientLaplacian(M)
        assert L.rows.tolist() == [0, 0, 1, 2]
        assert L.cols.tolist() == [1, 2, 0, 0]
        assert L.diagonal.tolist() == [3, 2, 1]
        assert np.array_equal(L.matrix, M)
        graph = QuotientMultigraph(L)
        assert multigraph_rows(graph) == oracle_rows(multigraph_oracle(M.tolist())[1])

    def test_component_count_on_disconnected_matrix(self):
        # an edge, a double edge and an isolated vertex: three components
        M = np.array(
            [
                [1, -1, 0, 0, 0],
                [-1, 1, 0, 0, 0],
                [0, 0, 2, -2, 0],
                [0, 0, -2, 2, 0],
                [0, 0, 0, 0, 0],
            ]
        )
        L = QuotientLaplacian(M)
        assert L.component_count() == 3
        assert not L.is_connected()
        assert L._dense is None
        assert QuotientLaplacian(np.zeros((1, 1))).component_count() == 1

    def test_build_never_forms_the_dense_matrix(self, monkeypatch):
        def refuse(self):
            raise AssertionError("dense matrix formed")

        monkeypatch.setattr(QuotientLaplacian, "matrix", property(refuse))
        L = build_laplacian(torus_quotient(6), laplacian_element(Z2))
        assert L.is_connected()
        assert (len(L.values), len(L.diagonal)) == (4 * 36, 36)

    def test_supplied_modulus_gives_the_same_group(self):
        for quotient, f in [
            (torus_quotient(4), laplacian_element(Z2)),
            (FiniteQuotient.from_moduli(H, (3,)), laplacian_element(H)),
            (cycle_quotient(6), parse_group_ring(Z, CUBE_F)),
        ]:
            L = build_laplacian(quotient, f)
            tau = spanning_tree_count(L)
            assert harmonic_component_group(L, modulus=tau) == harmonic_component_group(L)
