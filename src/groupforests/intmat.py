"""Exact integer matrix kernels: determinants and Smith normal form.

`modular_determinant` is the determinant of every reduced Laplacian: det
mod p for a deterministic list of word-size primes, each from a float64
LDL^T factorization whose O(n^3) work is `np.matmul` over a stack of primes,
then combined by the Chinese remainder theorem (`crt`, which the
Heisenberg tree count in `linalg` shares) past twice a determinant bound
(Hadamard's, or the diagonal product on a diagonally dominant input), which
proves the result exact.  `bareiss_determinant` (fraction-free
elimination in Python integers) is the independent route it is tested
against, and the kernel of the small norm matrices of the torus tree count
in `linalg`.

Everything else here works on plain Python integers (arbitrary precision).
Both Smith functions run one elimination, `_smith` (balanced remainders,
smallest pivot first, each pivot made to divide the rest of its block); only
`smith_with_transform` carries the column transform V.  With a modulus D, a
nonzero multiple of det(A), every entry of A and V is kept as a balanced
residue mod D and each pivot is mapped to its gcd with D.  That bounds
coefficient growth by the determinant size, and it is sound because
D * Z^n lies inside A * Z^n (Cramer): augmenting the column space by D * I
leaves the cokernel unchanged.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def bareiss_determinant(rows) -> int:
    """Exact determinant by Bareiss fraction-free Gaussian elimination.

    Args:
        rows: square matrix as a sequence of sequences of ints.

    Returns:
        det(rows) as a Python int (0 for singular input).
    """
    a = [[int(x) for x in row] for row in rows]
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pkk, rowk = a[k][k], a[k]
        for i in range(k + 1, n):
            aik = a[i][k]
            rowi = a[i]
            for j in range(k + 1, n):
                # exact division: these are (k+1)-minors of the original matrix
                rowi[j] = (pkk * rowi[j] - aik * rowk[j]) // prev
            rowi[k] = 0
        prev = pkk
    return sign * a[n - 1][n - 1]


# float64 holds every integer below 2**53.  With n * (p - 1)**2 < 2**52 and
# residues balanced, |r| <= (p + 1) / 2, every product the factorization
# forms (a GEMM of inner dimension below n, a residue times an inverse) is
# an exact integer below 2**52.
_EXACT = 2**52
# bytes of one batch's stack of residue matrices; the factorization's working
# set is about twice that, kept small so that it stays under the peak memory
# of the rest of a report.  Past _MAX_BATCH primes stacking no longer saves
# Python overhead.
_STACK_BYTES = 2**21
_MAX_BATCH = 8
# blocks up to this size are factored one pivot at a time
_LEAF = 16


def prime_bound(n: int) -> int:
    """Every prime below this keeps the GEMMs of an n x n elimination exact."""
    return math.isqrt((_EXACT - 1) // max(n, 1)) + 1


def primes_below(bound: int):
    """Primes below bound, largest first, sieved 2**16 numbers at a time."""
    root = math.isqrt(bound)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for q in range(2, math.isqrt(root) + 1):
        if small[q]:
            small[q * q :: q] = False
    small = np.flatnonzero(small).tolist()
    hi = bound
    while hi > 2:
        lo = max(2, hi - 2**16)
        window = np.ones(hi - lo, dtype=bool)
        for q in small:
            window[max(q * q, -(-lo // q) * q) - lo :: q] = False
        yield from (lo + np.flatnonzero(window)[::-1]).tolist()
        hi = lo


def reduce_mod(x: np.ndarray, p: np.ndarray, inv_p: np.ndarray) -> np.ndarray:
    """Replace float64 integers |x| <= 2**52 by their balanced residues mod p.

    x * (1/p) is within 1/p of x/p, so rounding it gives a residue of
    magnitude at most (p + 1) / 2: nonzero unless p divides x, and small
    enough that no correction is needed.  np.mod and np.fmod cost about 12
    and 75 times more per element on operands of this size.  p broadcasts
    against x; x is changed in place and returned.
    """
    q = x * inv_p
    np.rint(q, out=q)
    q *= p
    x -= q
    return x


def _ldl_leaf(a, primes, p, inv_p):
    """`_ldl` on a small block, one pivot at a time; p, inv_p have shape (B, 1).

    Row reduction of [A | I] by L^-1 leaves D L^T on the left and L^-1 on
    the right; by symmetry the multipliers of pivot j are row j over d_j.
    """
    n = a.shape[-1]
    aug = np.zeros(a.shape[:2] + (2 * n,))
    aug[:, :, :n] = a
    aug[:, range(n), range(n, 2 * n)] = 1.0
    d = np.empty(a.shape[:2])
    d_inv = np.empty(a.shape[:2])
    for j in range(n):
        d[:, j] = aug[:, j, j]
        d_inv[:, j] = [pow(int(x), -1, q) if x else 0 for x, q in zip(d[:, j].tolist(), primes)]
        if j + 1 < n:
            l = reduce_mod(aug[:, j, j + 1 : n] * d_inv[:, j, None], p, inv_p)
            rest = aug[:, j + 1 :, j + 1 :]
            rest -= l[:, :, None] * aug[:, j, None, j + 1 :]
            reduce_mod(rest, p[:, :, None], inv_p[:, :, None])
    return d, d_inv, aug[:, :, n:]


def _ldl(a, primes, p, inv_p, inverse: bool):
    """a = L diag(d) L^T mod p for a stack of symmetric residue matrices.

    a has shape (B, n, n), one matrix of balanced residues per prime, and
    p, inv_p have shape (B, 1, 1).  Returns (d, 1/d, L^-1) with d of shape
    (B, n); L^-1 is None unless asked for.  The recursion splits a in halves:
    with U12 = L11^-1 A12 the lower block is L21 = U12^T D1^-1 (a is
    symmetric), and the rest is the factorization of the Schur complement
    A22 - L21 U12, which overwrites A22.  A zero pivot gets the inverse 0, so
    the rest of that prime's factorization is garbage; the caller drops
    every prime whose pivots hold a zero.
    """
    n = a.shape[-1]
    if n <= _LEAF:
        return _ldl_leaf(a, primes, p[:, 0], inv_p[:, 0])
    h = n // 2
    d1, d1_inv, w11 = _ldl(a[:, :h, :h], primes, p, inv_p, True)
    u12 = reduce_mod(w11 @ a[:, :h, h:], p, inv_p)
    if not inverse:
        w11 = None  # the working set is what bounds the batch: free what is done
    l21 = reduce_mod(u12.transpose(0, 2, 1) * d1_inv[:, None, :], p, inv_p)
    s = a[:, h:, h:]
    s -= l21 @ u12
    reduce_mod(s, p, inv_p)
    u12 = None
    if not inverse:
        l21 = None
    d2, d2_inv, w22 = _ldl(s, primes, p, inv_p, inverse)
    d = np.concatenate([d1, d2], axis=1)
    d_inv = np.concatenate([d1_inv, d2_inv], axis=1)
    if not inverse:
        return d, d_inv, None
    w = np.zeros_like(a)
    w[:, :h, :h] = w11
    w[:, h:, h:] = w22
    w21 = reduce_mod(w22 @ reduce_mod(l21 @ w11, p, inv_p), p, inv_p)
    np.negative(w21, out=w[:, h:, :h])
    return d, d_inv, w


def modular_determinant(rows) -> int:
    """Exact determinant of a symmetric int64 matrix, by CRT over primes.

    Each prime's residue is the product of the pivots of an LDL^T
    factorization mod p without pivoting (`_ldl`), so every leading principal
    minor must be nonzero; reduced Laplacians of connected graphs, which are
    positive definite, qualify.  The primes lie below sqrt(2**52 / n), so
    every product the factorization forms is an exact float64 integer.
    Residues are combined until the modulus M satisfies M > 2 B, with B a
    bound on |det| and on every leading principal minor (`_bound_squared`),
    and the balanced residue mod M is then the determinant.

    A prime whose first zero pivot sits at index k divides the (k+1)-th
    leading minor.  Once the product of such primes for one k exceeds B,
    that minor is 0 over the integers, and the input is refused.

    Raises:
        ValueError: input that is not a square symmetric int64 matrix, or
            that has a leading principal minor 0 (a singular matrix
            included).
    """
    try:
        a = np.array(rows, dtype=np.int64)
    except (ValueError, TypeError, OverflowError) as err:
        raise ValueError(f"determinant needs a square int64 matrix: {err}") from None
    if a.shape in ((0,), (0, 0)):
        return 1
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"determinant needs a square matrix, not shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise ValueError("modular determinant needs a symmetric matrix")
    h2 = _bound_squared(a)
    if h2 == 0:
        raise ValueError("a leading principal minor is 0: the matrix has a zero row")
    n = len(a)
    bound = prime_bound(n)
    primes = primes_below(bound)
    batch = max(1, min(_MAX_BATCH, _STACK_BYTES // (8 * n * n)))
    residue, modulus = 0, 1
    skipped = {}  # first zero pivot index -> product of the primes dropped there
    while modulus**2 <= 4 * h2:
        missing = (4 * h2).bit_length() / 2 - modulus.bit_length() + 1
        chunk = list(itertools.islice(primes, min(batch, math.ceil(missing / (bound.bit_length() - 1)))))
        if not chunk:
            raise ValueError("ran out of primes below the exactness bound")
        stack = np.empty((len(chunk), n, n))
        for i, q in enumerate(chunk):
            r = stack[i]
            r[...] = a % q
            np.subtract(r, q, out=r, where=r > q / 2)  # balanced residues
        p = np.array(chunk, dtype=np.float64)[:, None, None]
        pivots = _ldl(stack, chunk, p, 1.0 / p, False)[0]
        for q, piv in zip(chunk, pivots.tolist()):
            det = 1
            for k, x in enumerate(piv):
                if not x:
                    skipped[k] = skipped.get(k, 1) * q
                    if skipped[k] ** 2 > h2:
                        raise ValueError(f"leading principal minor {k + 1} is 0")
                    break
                det = det * int(x) % q
            else:
                residue, modulus = crt([det], [q], residue, modulus)
    return residue - modulus if 2 * residue > modulus else residue


def crt(residues, primes, residue: int = 0, modulus: int = 1) -> tuple[int, int]:
    """Fold x = r mod q for each (r, q) into x = residue mod modulus.

    The primes must be coprime to modulus and to each other.  Returns the
    new (residue, modulus), with 0 <= residue < modulus.
    """
    for r, q in zip(residues, primes):
        residue += modulus * ((r - residue) * pow(modulus, -1, q) % q)
        modulus *= q
    return residue, modulus


def _bound_squared(a: np.ndarray) -> int:
    """B**2 for a bound B on |det a| and on each leading principal minor.

    B is the Hadamard bound H, the product of the row norms (a leading
    block's rows are no longer, and each is >= 1 unless it is 0).  If the
    diagonal is positive and a_ii >= sum_(j != i) |a_ij|, as in a reduced
    Laplacian, B = min(H, prod a_ii): each leading block keeps both
    properties, so by Gershgorin it is positive semidefinite, and by
    Hadamard-Fischer its determinant is at most its diagonal product, which
    is at most prod a_ii since every a_ii >= 1.
    """
    top = max(int(a.max()), -int(a.min()))
    exact = a if len(a) * top**2 < 2**63 else a.astype(object)
    h2 = math.prod(np.einsum("ij,ij->i", exact, exact).tolist())
    diag = np.diagonal(exact)
    if diag.min() > 0 and (2 * diag >= np.abs(exact).sum(axis=1)).all():
        h2 = min(h2, math.prod(diag.tolist()) ** 2)
    return h2


def _balanced_quotient(q: int, p: int) -> int:
    """f such that q - f*p lies in (-|p|/2, |p|/2]."""
    if p < 0:
        return -_balanced_quotient(q, -p)
    return (2 * q + p) // (2 * p)


def _modulus(modulus: int | None) -> int | None:
    """|modulus| when it exceeds 1; otherwise None (no reduction)."""
    return abs(modulus) if modulus and abs(modulus) > 1 else None


def _row_sub(dst: list, src: list, f: int, lo: int, D: int | None) -> None:
    """dst[lo:] -= f * src[lo:], as residues in (-D/2, D/2] when D is given."""
    if D is None:
        dst[lo:] = [x - f * y for x, y in zip(dst[lo:], src[lo:])]
    else:
        h = (D - 1) // 2  # (x + h) % D - h is the balanced residue of x
        dst[lo:] = [(x - f * y + h) % D - h for x, y in zip(dst[lo:], src[lo:])]


def _col_sub(a: list, top: int, j: int, f: int, D: int | None) -> None:
    """Column j -= f * column top on rows top.. (the rest of A, then V)."""
    if D is None:
        for row in a[top:]:
            row[j] -= f * row[top]
    else:
        h = (D - 1) // 2
        for row in a[top:]:
            row[j] = (row[j] - f * row[top] + h) % D - h


def _col_swap(a: list, top: int, j: int) -> None:
    for row in a[top:]:
        row[top], row[j] = row[j], row[top]


def _smallest_entry(a: list, n: int, top: int):
    """(row, col) of the first nonzero block entry of least magnitude, or None."""
    best = None
    for i in range(top, n):
        for j, x in enumerate(a[i][top:], top):
            if x and (best is None or abs(x) < best[0]):
                best = (abs(x), i, j)
                if best[0] == 1:
                    return i, j
    return None if best is None else best[1:]


def _smith(rows, modulus: int | None, transform: bool):
    """The one Smith elimination behind both public functions.

    Returns (diagonal, V).  The diagonal holds the min(rows, cols) entries
    in pivot order: |pivot|, 0 past the rank, or with a modulus D each entry
    mapped to gcd(entry, D).  Each pivot column is signed so that its pivot
    is nonnegative.  When transform is set, V starts as the identity stacked
    under A, so that every column operation carries it; otherwise V is None.
    """
    a = [[int(x) for x in row] for row in rows]
    n = len(a)
    m = len(a[0]) if n else 0
    if any(len(row) != m for row in a):
        raise ValueError("ragged matrix")
    D = _modulus(modulus)
    if D is not None:
        h = (D - 1) // 2
        a = [[(x + h) % D - h for x in row] for row in a]
    if transform:
        a += [[int(i == j) for j in range(m)] for i in range(m)]
    top = 0
    while top < min(n, m):
        pivot = _smallest_entry(a, n, top)
        if pivot is None:
            break
        a[top], a[pivot[0]] = a[pivot[0]], a[top]
        _col_swap(a, top, pivot[1])
        while True:  # clear column top below the pivot, then row top to its right
            at = a[top]
            for i in range(top + 1, n):
                if a[i][top]:
                    _row_sub(a[i], at, _balanced_quotient(a[i][top], at[top]), top, D)
                    if a[i][top]:  # a remainder smaller than the pivot: promote it
                        a[top], a[i] = a[i], at
                        break
            else:
                for j in range(top + 1, m):
                    if at[j]:
                        _col_sub(a, top, j, _balanced_quotient(at[j], at[top]), D)
                        if at[j]:
                            _col_swap(a, top, j)
                            break
                else:
                    break
        # the pivot must divide the rest of the block before it can be split off
        p = abs(a[top][top])
        bad = None if p == 1 else next(
            (ai for ai in a[top + 1 : n] if any(x % p for x in ai[top + 1 :])), None
        )
        if bad:
            _row_sub(a[top], bad, -1, top, D)
            continue
        if a[top][top] < 0:  # flipping a column's sign is a unimodular column op
            for row in a[top:]:
                row[top] = -row[top]
        top += 1
    diag = [a[i][i] for i in range(min(n, m))]
    if D is not None:
        # Residue arithmetic determines each true factor only up to gcd with D,
        # and a factor equal to D itself reduces to an all-zero block (0 -> D).
        # Sound only because the modulus contract guarantees full rank.
        diag = [math.gcd(x, D) for x in diag]
    return diag, a[n:] if transform else None


def smith_normal_form(rows, modulus: int | None = None) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix.

    Args:
        rows: matrix as a sequence of sequences of ints (need not be square).
        modulus: optional nonzero integer D with D * Z^n inside the column
            space (any multiple of the determinant, for nonsingular square
            input).  When given, entries are kept in balanced residue form
            mod |D|, which bounds coefficient growth.

    Returns:
        The nonzero invariant factors in divisibility order.  For a
        nonsingular square matrix their product equals |det|; a rank-deficient
        matrix yields fewer factors than min(rows, cols).
    """
    factors = [d for d in _smith(rows, modulus, transform=False)[0] if d]
    # the gcd mapping of a modded run can break the chain: restore it
    k = len(factors)
    for i in range(k):
        for j in range(i + 1, k):
            if factors[j] % factors[i]:
                g = math.gcd(factors[i], factors[j])
                factors[j] = factors[i] // g * factors[j]
                factors[i] = g
    return sorted(factors)


def smith_with_transform(
    rows, modulus: int | None = None
) -> tuple[list[int], list[list[int]]]:
    """Smith normal form with the column transform, for solving A y = w mod Z.

    Returns (diagonal, V) with U A V = diag for unimodular U, V; V is returned
    as a full square matrix (column count of A).  Without a modulus the
    diagonal list includes zeros for rank deficiency and satisfies the
    divisibility chain, but intermediate entries can grow without bound.

    With a modulus D (any nonzero multiple of the determinant of a
    nonsingular square input) V is reduced mod |D| too.  Column j still
    satisfies A v_j = 0 (mod diag[j]), and the points v_j / diag[j] on the
    torus are unchanged by the reduction, because every diag[j] divides D.
    The diagonal entries multiply to |det| but are not necessarily in
    divisibility order; reordering them would break the pairing with V's
    columns, so no reordering is done.
    """
    diag, v = _smith(rows, modulus, transform=True)
    if _modulus(modulus) is None and any(x and y % x for x, y in zip(diag, diag[1:])):
        raise AssertionError("divisibility chain violated in smith_with_transform")
    return diag, v


def lattice_spans_z_d(vectors, d: int) -> bool:
    """Whether the integer span of the given d-dimensional vectors is all of Z^d."""
    vecs = [list(v) for v in vectors]
    if not vecs:
        return d == 0
    if any(len(v) != d for v in vecs):
        raise ValueError("vector dimension mismatch")
    factors = smith_normal_form(vecs)
    return len(factors) == d and all(f == 1 for f in factors)
