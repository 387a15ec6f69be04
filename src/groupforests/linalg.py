"""Quotient Laplacians and their exact and spectral invariants.

A well-balanced group-ring element f acts on a finite quotient as an integer
convolution operator; this module builds that operator as a sparse Laplacian
in O(N |S|) from the quotient's permutation of each support word, and
computes, exactly where the theory is exact:

- the spanning-tree count of the quotient Cayley multigraph.  On a moduli
  quotient of a torus (any rank, any f) and on a nearest-neighbour H mod m
  it is the product of L's nonzero eigenvalues, character by character,
  over N: mod primes p = 1 (mod M), where the characters' roots of unity
  are integers, lifted by CRT (`_character_tree_count`).  Elsewhere, and
  when those primes run out, it is the exact determinant of the reduced
  Laplacian, by CRT over word-size primes with a float64 LDL^T per prime
  (`intmat.modular_determinant`),
- the component group of harmonic-mod-1 points (Smith normal form of the
  reduced Laplacian; its order equals the tree count).  When a support word
  b with coefficient -1 cycles m >= 3 layers of K vertices that the other
  support words keep in place, a unit-pivot sweep along b reduces the
  Laplacian to a (2K - 1)-square matrix with the same cokernel, and the
  Smith form runs on that (`_layer_sweep`); other quotients, an f without
  such a b, and hand-built Laplacians use the (N - 1)-square one.  Either
  way the Smith form runs modulo the group's exponent, the common
  denominator of a p-adic solve with a few right-hand sides, not modulo
  the tree count, and the factors must multiply to the tree count
  (`intmat.certified_smith_form`),
- the eigenvalue spectrum with a structural zero count,
- log-determinant estimates: the eigenvalue form with a spectral cutoff and
  the tree form (1/N) log tau.

Only the exact kernels and the dense eigensolve build the N x N matrix;
the sweep reads the sparse entries, and the character products read none.
On a torus and on H mod m the tree count and the group order thus come
from routes that share no matrix: the group's route takes the tree count
only as the order its factors must reach.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedGraphError, FamilyMismatchError
from .groups import FiniteQuotient, GroupWord, component_labels
# bareiss_determinant is unused here; perfbench's tracer wraps it under this
# name too, and its smoke test checks that both bindings are wrapped
from .intmat import bareiss_determinant, certified_smith_form, crt, modular_determinant, prime_windows  # noqa: F401
from .walks import GroupRingElement, laplacian_element, require_well_balanced, torus_symbol


class QuotientLaplacian:
    """The convolution Laplacian of f on a finite quotient, stored sparse.

    M[u][v] for u != v sums f_s over all s with u*s = v; diagonal entries
    complete every row sum to 0, which folds and cancels any loop
    contributions (s fixing a coset).  The matrix is symmetric with
    non-positive off-diagonal entries.

    The nonzero off-diagonal entries are three parallel int64 arrays
    (rows, cols, values) sorted by (row, col), so the entries with
    row < col list the upper triangle in row-major order; the diagonal is
    a fourth array.  `matrix` is a dense N x N view built on first use and
    cached; only the exact kernels (through `reduced`) and the dense
    eigensolve read it.  `build_laplacian` attaches the quotient and the
    source f; a hand-built `QuotientLaplacian(M)` converts M to the sparse
    form once and has neither (`quotient = source = None`).
    """

    __slots__ = (
        "quotient", "source", "size", "rows", "cols", "values", "diagonal",
        "_dense", "_components",
    )

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=np.int64)
        off = m.copy()
        np.fill_diagonal(off, 0)
        rows, cols = np.nonzero(off)  # row-major, hence sorted by (row, col)
        self._init(None, None, m.shape[0], rows, cols, off[rows, cols], np.diag(m))

    @classmethod
    def _from_sparse(cls, quotient, source, size, rows, cols, values, diagonal):
        # the entries must be source's on quotient: the tree count trusts both
        lap = cls.__new__(cls)
        lap._init(quotient, source, size, rows, cols, values, diagonal)
        return lap

    def _init(self, quotient, source, size, rows, cols, values, diagonal):
        self.quotient = quotient
        self.source = source
        self.size = int(size)
        self.rows, self.cols, self.values, self.diagonal = (
            _frozen(a) for a in (rows, cols, values, diagonal)
        )
        self._dense = None
        self._components = None

    @property
    def matrix(self) -> np.ndarray:
        """The dense read-only N x N matrix, built from the sparse form once."""
        if self._dense is None:
            n = self.size
            m = np.zeros((n, n), dtype=np.int64)
            m[self.rows, self.cols] = self.values
            np.fill_diagonal(m, self.diagonal)
            m.setflags(write=False)
            self._dense = m
        return self._dense

    def reduced(self) -> np.ndarray:
        """The read-only int64 matrix with vertex 0's row and column deleted."""
        return self.matrix[1:, 1:]

    def component_count(self) -> int:
        """Number of connected components of the quotient multigraph."""
        if self._components is None:
            label = component_labels(self.size, self.rows, self.cols)
            self._components = int(np.count_nonzero(label == np.arange(self.size)))
        return self._components

    def is_connected(self) -> bool:
        return self.component_count() == 1


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=np.int64)
    out.setflags(write=False)
    return out


def build_laplacian(quotient: FiniteQuotient, f: GroupRingElement) -> QuotientLaplacian:
    """Assemble the convolution Laplacian of a well-balanced f on a quotient.

    O(N |S|) for a support S: each support word contributes the pairs
    (u, u*s) it moves, and equal pairs are summed exactly in int64.  As f
    is self-adjoint and the quotient is an action, s^-1 contributes the
    pair (u*s, u) with the same coefficient, so the matrix is symmetric.
    f_e must be below 2**63: no entry or row sum is larger in magnitude, so
    all fit in int64.
    """
    if f.family != quotient.family:
        raise FamilyMismatchError("element and quotient families differ")
    require_well_balanced(f)
    fe = f.identity_coefficient
    if fe >= 1 << 63:
        raise ValueError(
            f"identity coefficient {fe} is 2**63 or more; Laplacian entries are int64"
        )
    n = quotient.size
    ident = f.family.identity_normal()
    cosets = np.arange(n, dtype=np.int64)
    keys, coeffs = [], []
    for nf, c in f._coeffs.items():
        if nf == ident:
            continue
        perm = quotient.word_permutation(GroupWord.from_normal(f.family, nf))
        moved = np.flatnonzero(perm != cosets)  # loops fold into the diagonal and cancel
        keys.append(moved * n + perm[moved])
        coeffs.append(np.full(len(moved), int(c), dtype=np.int64))
    keys = np.concatenate(keys)
    order = np.argsort(keys)
    keys, coeffs = keys[order], np.concatenate(coeffs)[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    # every off-identity coefficient is negative, so no sum is zero
    values = np.add.reduceat(coeffs, starts) if len(starts) else coeffs
    keys = keys[starts]
    rows, cols = keys // n, keys % n
    row_sums = np.zeros(n, dtype=np.int64)
    np.add.at(row_sums, rows, values)
    return QuotientLaplacian._from_sparse(quotient, f, n, rows, cols, values, -row_sums)


def _require_connected(L: QuotientLaplacian) -> None:
    if not L.is_connected():
        raise DisconnectedGraphError(
            f"quotient multigraph has {L.component_count()} components; "
            "spanning-tree and component-group counts need a connected graph"
        )


def spanning_tree_count(L: QuotientLaplacian) -> int:
    """Exact number of spanning trees of the quotient multigraph.

    On a moduli quotient of a torus (any rank, any f) or of H mod m (the
    default f), with L from `build_laplacian`, it is a character product
    that forms no matrix (`_character_tree_count`).  Otherwise, and when
    that runs out of primes, it is `modular_determinant` of the reduced
    Laplacian (vertex 0 struck; by the matrix-tree theorem every vertex
    gives the same count), which is positive definite on a connected graph.
    """
    _require_connected(L)
    if L.size == 1:
        return 1
    q, f, tau = L.quotient, L.source, None
    if q is not None and q.moduli is not None:
        if q.family.kind == "free-abelian":
            tau = _torus_tree_count(q.moduli, f)
        elif q.family.kind == "heisenberg" and f == laplacian_element(q.family):
            tau = _heisenberg_tree_count(q.moduli[0])
    return modular_determinant(L.reduced()) if tau is None else tau


# Primes below 2**26 keep every product of two residues below 2**52, inside
# int64.  A batch of primes holds about _CHAR_ENTRIES residues per array.
_CHAR_PRIME_BOUND = 2**26
_CHAR_ENTRIES = 2**16


def _character_tree_count(n: int, bound: int, m: int, count: int, values) -> int | None:
    """tau = P / n for a product P of count integers, 0 < P <= bound.

    The factors are known mod primes p = 1 (mod m) below _CHAR_PRIME_BOUND,
    picked from each cached sieve window by one mask, largest first:
    values(p, powers) returns them as a (B, count) int64 array of residues
    for a batch of B such primes, p of shape (B, 1), where powers[:, j] =
    w^j mod p for a primitive m-th root of unity w mod p (`_root_powers`).
    Each prime's factors are multiplied by pairwise halving, and the
    products are lifted by CRT once the primes multiply past 2 bound.  No
    step divides mod p.

    Returns None when the primes run out first.

    Raises:
        ArithmeticError: if P is not a multiple of n.
    """
    primes, modulus, limit = [], 1, 2 * bound
    candidates = (w[w % m == 1].tolist() for w in prime_windows(_CHAR_PRIME_BOUND))
    for p in itertools.chain.from_iterable(candidates):
        primes.append(p)
        modulus *= p
        if modulus > limit:
            break
    else:
        return None
    batch = max(1, _CHAR_ENTRIES // count)
    residues = []
    for i in range(0, len(primes), batch):
        chunk = primes[i : i + batch]
        p = np.array(chunk, dtype=np.int64)[:, None]
        x = values(p, np.array([_root_powers(q, m) for q in chunk]))
        while (width := x.shape[1]) > 1:  # fold the back half onto the front
            h = (width + 1) // 2
            x[:, : width - h] = x[:, : width - h] * x[:, h:] % p
            x = x[:, :h]
        residues += x[:, 0].tolist()
    product = crt(residues, primes)[0]
    tau, rest = divmod(product, n)
    if rest:
        raise ArithmeticError(f"character product {product} is not a multiple of {n}")
    return tau


def _torus_tree_count(moduli, f: GroupRingElement) -> int | None:
    """Spanning trees of f's Cayley multigraph on Z^d / (n_1 Z x ... x n_d Z).

    With w a primitive M-th root of unity, M = lcm(moduli), the characters
    chi_j(s) = w^(sum_i j_i s_i M / n_i) diagonalize L with eigenvalues
    f^(chi_j) = sum_s c_s chi_j(s), one for each residue vector j, so N tau
    is the product of the N - 1 values at j != 0.  Each c_s is reduced mod
    p before it multiplies a power of w, so every term stays below 2**52.
    No vertex's degree exceeds f_e, and tau is at most the product of the
    N - 1 non-root degrees, so N tau <= N f_e^(N - 1).  None when the
    primes run out.
    """
    shape = tuple(moduli)
    n, m = math.prod(shape), math.lcm(*shape)
    j = np.indices(shape).reshape(len(shape), -1).T[1:] * (m // np.array(shape))
    exponents = j @ (np.array(list(f._coeffs)) % m).T % m  # <j, s> for each j != 0 and word s

    def values(p, powers):
        out = np.zeros((len(p), n - 1), dtype=np.int64)
        for i, (c, e) in enumerate(zip(f._coeffs.values(), exponents.T), 1):
            out += c % p * powers[:, e]  # below 2**52: 2**10 such terms fit in int64
            if i % 2**10 == 0:
                out %= p
        return out % p

    return _character_tree_count(n, n * f.identity_coefficient ** (n - 1), m, n - 1, values)


def _heisenberg_tree_count(m: int) -> int | None:
    """Spanning trees of the nearest-neighbour Cayley graph of H mod m, m >= 2.

    Right multiplication by the centre shifts c in (a, b, c) and commutes
    with L, and in the central character k and then the character l of b,
    L acts on functions of a as the periodic Jacobi matrix J_kl with
    diagonal d_a = 4 - w^(ka + l) - w^-(ka + l), w = exp(2 pi i / m), and
    -1 between a and a +- 1 mod m.  J_00 is the m-cycle's Laplacian, whose
    nonzero eigenvalues multiply to m^2, so N tau = m^2 P with P =
    prod_((k, l) != (0, 0)) det J_kl, and tau = P / m, P <= m 4^(N - 1).

    det J = tr(T_(m-1) ... T_0) - 2 with T_a = [[d_a, -1], [1, 0]] (at m = 2
    the two -1 of J merge into -2, and the trace still gives d_0 d_1 - 4).
    The product is carried on the columns e_0 and e_1 as (top, bottom)
    pairs, one T_a at a time, over every (p, k, l) at once.  None when the
    primes run out.
    """
    k = np.arange(m)[:, None]
    l = np.arange(m)

    def values(p, powers):
        p = p[..., None]
        top = np.zeros((len(p), m, m, 2), dtype=np.int64)
        bottom = np.zeros_like(top)
        top[..., 0] = bottom[..., 1] = 1
        for a in range(m):
            e = (k * a + l) % m
            d = (4 - powers[:, e] - powers[:, -e % m]) % p
            top, bottom = (d[..., None] * top - bottom) % p[..., None], top
        return ((top[..., 0] + bottom[..., 1] - 2) % p).reshape(len(p), -1)[:, 1:]

    return _character_tree_count(m, m << 2 * (m**3 - 1), m, m * m - 1, values)


@functools.lru_cache(maxsize=2**10)
def _root_powers(p: int, m: int) -> np.ndarray:
    """[w^j mod p for j < m] for a primitive m-th root of unity w mod p."""
    for g in range(2, p):
        w = pow(g, (p - 1) // m, p)  # w^m = 1; primitive unless some w^j = 1
        powers = [1]
        for _ in range(m - 1):
            powers.append(powers[-1] * w % p)
        if 1 not in powers[1:]:
            powers = np.array(powers, dtype=np.int64)
            powers.setflags(write=False)
            return powers


@dataclass(frozen=True)
class ComponentGroup:
    """Invariant-factor decomposition of the reduced Laplacian's cokernel.

    The group of harmonic-mod-1 points on the quotient modulo the constant
    circle is a product of cyclic groups Z/d_1 x ... x Z/d_{N-1} with
    d_1 | d_2 | ...; its order equals the spanning-tree count.
    """

    invariant_factors: tuple
    order: int


def harmonic_component_group(L: QuotientLaplacian, modulus: int | None = None) -> ComponentGroup:
    """The reduced Laplacian's cokernel as a ComponentGroup.

    When `_layer_sweep` finds layers for L, the relation matrix is its
    (2K - 1)-square one, whose cokernel is the same group, and the factors
    are padded with leading 1s to N - 1; otherwise it is the (N - 1)-square
    reduced Laplacian.  `intmat.certified_smith_form` finds the group's
    exponent from one p-adic solve, runs the Smith form modulo it, and
    accepts the factors only if they multiply to the order.

    modulus is that order, |det| of the reduced Laplacian: the tree count a
    caller already holds, or else `spanning_tree_count(L)`.

    Raises:
        ValueError: the relation matrix refutes modulus as the order.
    """
    _require_connected(L)
    n = L.size
    if n == 1:
        return ComponentGroup(invariant_factors=(), order=1)
    if modulus is None:
        modulus = spanning_tree_count(L)
    relations = _layer_sweep(L)
    if relations is None:
        relations = L.reduced().tolist()
    factors = [1] * (n - 1 - len(relations)) + certified_smith_form(relations, modulus)
    return ComponentGroup(invariant_factors=tuple(factors), order=math.prod(factors))


def _layer_sweep(L: QuotientLaplacian) -> list | None:
    """A (2K - 1)-square integer matrix with the reduced Laplacian's cokernel.

    Needs a support word b of f with coefficient -1 whose right
    multiplication cycles m >= 3 layers of K vertices each (`_layers`), and
    an L whose entries respect them: every off-diagonal entry (v, g) joins
    layer j to layer j or j +- 1, and the only ones from layer j to j + 1 are
    (g b, g) with value -1.  Returns None otherwise.

    Column g of L, read as the relation sum_v L[v, g] e_v = 0 of the
    cokernel, then has a unit pivot at e_{g b}.  With e_0 = 0 and the
    vertices of layers 0 and 1 as unknowns, the columns at layers 1 .. m - 2
    give e_{g b} as an integer vector over the unknowns, one layer after the
    next; the columns at layers m - 1 and 0 (vertex 0's struck) are the
    relations left.  Only unit pivots are eliminated, so the cokernel of
    their matrix is the reduced Laplacian's.
    """
    found = _layers(L)
    if found is None:
        return None
    layer, shift, m = found
    n = L.size
    step = (layer[L.rows] - layer[L.cols]) % m
    forward = step == 1
    if not (
        ((step == 0) | forward | (step == m - 1)).all()
        and np.count_nonzero(forward) == n
        and np.array_equal(L.rows[forward], shift[L.cols[forward]])
        and (L.values[forward] == -1).all()
    ):
        return None
    cosets = np.arange(n)
    unknown = np.flatnonzero(layer <= 1)[1:]  # vertex 0 comes first
    x = np.zeros((n, len(unknown)), dtype=object)
    x[unknown, np.arange(len(unknown))] = 1
    # every entry of L, diagonal included, grouped by the layer of its column
    rows = np.concatenate([L.rows, cosets])
    cols = np.concatenate([L.cols, cosets])
    order = np.lexsort((cols, layer[cols]))
    rows, cols = rows[order], cols[order]
    values = np.concatenate([L.values, L.diagonal])[order].astype(object)
    bounds = np.searchsorted(layer[cols], np.arange(m + 1))

    def column_sums(j):
        """(g, sum_v L[v, g] x_v) for the columns g of layer j, ascending."""
        lo, hi = bounds[j], bounds[j + 1]
        c = cols[lo:hi]
        first = np.flatnonzero(np.r_[True, c[1:] != c[:-1]])
        return c[first], np.add.reduceat(values[lo:hi, None] * x[rows[lo:hi]], first, axis=0)

    for j in range(1, m - 1):
        # x at g b is still 0, so the column's sum is the rest of its relation
        g, sums = column_sums(j)
        x[shift[g]] = sums
    return np.concatenate([column_sums(m - 1)[1], column_sums(0)[1][1:]]).tolist()


def _layers(L: QuotientLaplacian):
    """(layer, shift, m) for the support word b of least layer size, or None.

    For each support word b of f with coefficient -1, the blocks start as
    the components of the edges of the support words other than b and b^-1,
    and are merged until right multiplication by b (the permutation `shift`)
    maps every block onto one block.  b qualifies when the blocks form one
    b-cycle of m >= 3 blocks; layer[v] numbers v's block along that cycle
    from vertex 0's.
    """
    q, f = L.quotient, L.source
    if q is None or f is None:
        return None
    n = L.size
    cosets = np.arange(n)
    moves = [(w, q.word_permutation(w)) for w in f.support() if not w.is_identity()]
    best = None
    for b, shift in moves:
        if f.coefficient(b) != -1:
            continue
        others = [p for w, p in moves if w != b and w != b.inverse()]
        label = component_labels(
            n, np.tile(cosets, len(others)), np.concatenate([cosets[:0], *others])
        )
        while True:  # u ~ v must give u b ~ v b
            coarser = component_labels(
                n, np.concatenate([cosets, shift]), np.concatenate([label, shift[label]])
            )
            if np.array_equal(coarser, label):
                break
            label = coarser
        m = int(np.count_nonzero(label == cosets))
        if m < 3 or (best is not None and m <= best[2]):
            continue
        orbit = [0]
        for _ in range(m - 1):
            orbit.append(int(shift[orbit[-1]]))
        blocks = label[orbit]
        if len(np.unique(blocks)) != m:
            continue
        index = np.empty(n, dtype=np.int64)
        index[blocks] = np.arange(m)
        best = (index[label], shift, m)
    return best


@dataclass(frozen=True)
class SpectrumSummary:
    """All eigenvalues of a quotient Laplacian, ascending, with metadata.

    zero_count is determined structurally (one zero per connected component
    of the multigraph), never by magnitude thresholding.
    """

    eigenvalues: np.ndarray
    zero_count: int

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    def nonzero_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[self.zero_count :]


def spectrum(L: QuotientLaplacian) -> SpectrumSummary:
    """Dense symmetric eigensolve of the Laplacian."""
    vals = np.linalg.eigvalsh(L.matrix.astype(np.float64))
    vals.sort()
    return SpectrumSummary(eigenvalues=vals, zero_count=L.component_count())


def free_abelian_spectrum(quotient: FiniteQuotient, f: GroupRingElement) -> SpectrumSummary:
    """Closed-form spectrum on a congruence quotient of a free-abelian family.

    The Laplacian diagonalizes in characters: for each residue vector j the
    eigenvalue is the sum of f_s * cos(2 pi <j, s> / moduli) over the support,
    real because f is self-adjoint.
    Only valid for quotients built from moduli; use spectrum() otherwise.
    """
    if quotient.family != f.family or f.family.kind != "free-abelian":
        raise FamilyMismatchError("closed-form spectrum needs a matching free-abelian quotient")
    if quotient.moduli is None:
        raise ValueError("quotient was not built from moduli; use spectrum()")
    require_well_balanced(f)
    lam = torus_symbol(((nf, int(c)) for nf, c in f._coeffs.items()), tuple(quotient.moduli))
    vals = np.sort(lam.ravel())
    # characters are exact: clamp the single structural zero's rounding dust
    vals[np.abs(vals) < 1e-12 * max(1.0, float(f.one_norm()))] = 0.0
    return SpectrumSummary(eigenvalues=vals, zero_count=1)


def fk_estimate_eigen(summary: SpectrumSummary, kappa: float = 0.0) -> float:
    """Normalized log-determinant from the spectrum: (1/N) sum of log of
    eigenvalues above the cutoff.

    Structural zeros are excluded outright; among the remaining eigenvalues
    only those strictly above kappa contribute.  With kappa = 0 and a
    connected graph this equals (1/N)(log tau + log N).
    """
    vals = summary.nonzero_eigenvalues()
    kept = vals[vals > kappa]
    if len(kept) == 0:
        return 0.0
    return float(np.sum(np.log(kept)) / summary.size)


def fk_estimate_tree(L: QuotientLaplacian) -> float:
    """Normalized log spanning-tree count (1/N) log tau, exact big-int inside."""
    tau = spanning_tree_count(L)
    return math.log(tau) / L.size
