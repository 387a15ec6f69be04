"""Exact integer matrix kernels: determinants and Smith normal form.

`modular_determinant` is the determinant of every reduced Laplacian: det
mod p for a deterministic list of word-size primes (`primes_below`, whose
sieve windows every caller shares), each from a float64 LDL^T factorization
whose O(n^3) work is `np.matmul` over a stack of primes, then combined by
the Chinese remainder theorem (`crt`, which the character tree counts in
`linalg` share) past twice a determinant bound (Hadamard's, or the diagonal
product on a diagonally dominant input), which proves the result exact.
`bareiss_determinant` (fraction-free elimination in Python integers) is the
independent route it is tested against; no report runs it.

Everything else here works on plain Python integers (arbitrary precision).
Both Smith functions run one elimination, `_smith` (balanced remainders,
smallest pivot first, each pivot made to divide the rest of its block); only
`smith_with_transform` carries the column transform V.  With a modulus D,
every entry of A and V is kept as a balanced residue mod D and each pivot is
mapped to its gcd with D, which bounds coefficient growth by the size of D.
The elimination then runs on [A | D I], whose factors are gcd(d_i, D) for
the factors d_i of A: A's own when D is a multiple of each d_i, e.g. of
det(A) (Cramer: D * Z^n then lies inside A * Z^n).

`certified_smith_form` takes D to be the exponent of the cokernel (its
largest factor), which is often far smaller than det(A).  D comes from a
p-adic solve (Dixon) that starts from A^-1 modulo one word prime, taken from
the same LDL^T kernel, and the factors are accepted only if they multiply
to |det A|, which the caller supplies.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

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


_WINDOW = 2**16


def prime_windows(bound: int):
    """Primes below bound as int64 arrays of one 2**16 window each, largest first."""
    for k in range(-(-bound // _WINDOW) - 1, -1, -1):
        primes = _window_primes(k)
        yield primes[primes < bound]


def primes_below(bound: int):
    """Primes below bound, largest first, sieved 2**16 numbers at a time."""
    for primes in prime_windows(bound):
        for i in range(0, len(primes), 2**8):  # a caller that stops early converts little
            yield from primes[i : i + 2**8].tolist()


@functools.cache
def _window_primes(k: int) -> np.ndarray:
    """The primes in [k 2**16, (k + 1) 2**16), largest first, read-only.

    Every determinant, Smith form and character product walks the same
    windows below its bound, so each is sieved once per process.
    """
    lo, hi = max(2, k * _WINDOW), (k + 1) * _WINDOW
    small = np.ones(math.isqrt(hi) + 1, dtype=bool)
    small[:2] = False
    for q in range(2, math.isqrt(len(small)) + 1):
        if small[q]:
            small[q * q :: q] = False
    window = np.ones(hi - lo, dtype=bool)
    for q in np.flatnonzero(small).tolist():
        window[max(q * q, -(-lo // q) * q) - lo :: q] = False
    primes = lo + np.flatnonzero(window)[::-1]
    primes.setflags(write=False)
    return primes


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
        # x is a balanced residue already, so where y is 0 it stays
        dst[lo:] = [(x - f * y + h) % D - h if y else x for x, y in zip(dst[lo:], src[lo:])]


def _col_sub(at: list, vt: list, top: int, j: int, f: int, D: int | None) -> None:
    """Column j -= f * column top on A's row top and on V (vt holds V's
    columns as rows): called once A's column top is 0 below the pivot, where
    every entry would stay as it is."""
    at[j] -= f * at[top]  # a balanced remainder by the pivot: reduced mod D already
    if vt:
        _row_sub(vt[j], vt[top], f, 0, D)


def _col_swap(a: list, vt: list, top: int, j: int) -> None:
    for row in a[top:]:
        row[top], row[j] = row[j], row[top]
    if vt:
        vt[top], vt[j] = vt[j], vt[top]


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
    is nonnegative.  V, None unless transform is set, starts as the identity
    and is kept as its columns, so that column operations are row operations.
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
    vt = [[int(i == j) for j in range(m)] for i in range(m)] if transform else []
    top = 0
    while top < min(n, m):
        pivot = _smallest_entry(a, n, top)
        if pivot is None:
            break
        a[top], a[pivot[0]] = a[pivot[0]], a[top]
        _col_swap(a, vt, top, pivot[1])
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
                        _col_sub(at, vt, top, j, _balanced_quotient(at[j], at[top]), D)
                        if at[j]:
                            _col_swap(a, vt, top, j)
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
            a[top][top] = -a[top][top]  # column top is 0 below the pivot
            if vt:
                vt[top] = [-x for x in vt[top]]
        top += 1
    diag = [a[i][i] for i in range(min(n, m))]
    if D is not None:
        # Residue arithmetic determines each true factor only up to gcd with D,
        # and a factor that D divides reduces to an all-zero block (0 -> D).
        diag = [math.gcd(x, D) for x in diag]
    return diag, [list(col) for col in zip(*vt)] if transform else None


def smith_normal_form(rows, modulus: int | None = None) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix.

    Args:
        rows: matrix as a sequence of sequences of ints (need not be square).
        modulus: optional nonzero integer D.  When given, entries are kept
            in balanced residue form mod |D|, which bounds coefficient
            growth, and each factor d comes out as gcd(d, |D|), so a D that
            every factor divides (any multiple of the determinant, for
            nonsingular square input) gives the factors themselves.

    Returns:
        The nonzero invariant factors in divisibility order.  For a
        nonsingular square matrix their product equals |det|; a rank-deficient
        matrix yields fewer factors than min(rows, cols) unless a modulus
        is given.
    """
    # each pivot divides its block, so every later entry is a multiple of
    # gcd(pivot, D) mod D: the pivot-order diagonal is already the chain
    return [d for d in _smith(rows, modulus, transform=False)[0] if d]


# right-hand sides of the exponent's solve, with entries in [-_RHS_RANGE, _RHS_RANGE)
_RHS = 4
_RHS_RANGE = 100
_RHS_SEED = 0


def certified_smith_form(rows, order: int) -> list[int]:
    """Invariant factors of a nonsingular square integer matrix A of |det A| = order.

    The Smith form runs modulo D, the exponent of the cokernel (its largest
    factor s) as found from a few fixed right-hand sides b: y = order A^-1 b
    is an integer vector, and D = order / gcd(order, y) is the least common
    denominator of A^-1 b, which is s with high probability (Eberly,
    Giesbrecht and Villard 2000).  y comes from Dixon's p-adic lifting
    (`_exponent`) and is checked exactly, A y = order b over Z.

    Over Z/D the elimination yields gcd(d_i, D), so the product of the factors
    is order exactly when every d_i divides D: that is the certificate.  If it
    falls short at P, every d_i divides D order / P (d_i / gcd(d_i, D) divides
    order / P), and the Smith form modulo that must then give order.

    Raises:
        ValueError: order is refuted as |det A|: det(A)^2 differs from
            order^2 mod the solve's prime, A y = order b fails, or the factors
            do not multiply to order.  Also raised for a singular A.
    """
    a = [[int(x) for x in row] for row in rows]
    if any(len(row) != len(a) for row in a):
        raise ValueError("certified Smith form needs a square matrix")
    if order < 1:
        raise ValueError("the order of a finite cokernel is positive")
    D = _exponent(a, order)
    factors = _smith_mod(a, D)
    product = math.prod(factors)
    if product != order and order % product == 0:
        factors = _smith_mod(a, D * (order // product))
        product = math.prod(factors)
    if product != order:
        raise ValueError("the invariant factors do not multiply to the order")
    return factors


def _smith_mod(a: list, D: int) -> list[int]:
    # smith_normal_form takes a modulus of 1 for none; modulo 1 every factor is 1
    return [1] * len(a) if D == 1 else smith_normal_form(a, modulus=D)


def _exponent(a: list, order: int) -> int:
    """order / gcd(order, y) for y = order A^-1 b on the fixed right-hand sides b.

    x = A^-1 b is lifted p-adically (Dixon 1982) from A^-1 mod one word prime
    p (`_inverse_mod`), and y is the balanced residue of order x mod p^k.
    A y = order b over Z proves y right, as A is nonsingular.  That is
    checked first at p^k > 2 n^2 |b| order, which holds y in practice, and
    else at p^k > 2 n |b| H, with H the lesser of the row- and column-norm
    Hadamard bounds: every entry of y = +-adj(A) b is below n |b| H when
    order is |det A|, so a failure there refutes the order.  The residual
    r_(i+1) = (r_i - A x_i) / p stays exact: float64 while n |A| p < 2**52,
    otherwise A in signed limbs of float64 matrices whose products are
    exact, summed as Python ints.
    """
    n = len(a)
    if n == 0:
        return 1
    exact = np.array(a, dtype=object)
    p, inverse = _inverse_mod(exact, order)
    rng = random.Random(_RHS_SEED)  # numpy.random would add 5 MB to a report's peak
    b = np.array([[rng.randrange(-_RHS_RANGE, _RHS_RANGE) for _ in range(_RHS)] for _ in range(n)])
    squares = exact * exact
    h2 = min(math.prod(squares.sum(axis=1).tolist()), math.prod(squares.sum(axis=0).tolist()))
    top = int(np.abs(exact).max())
    # limbs of w bits keep every product of a limb and a residue below 2**52
    w = (_EXACT // (n * (p + 1))).bit_length() - 1
    if top.bit_length() <= w:
        limbs = [exact.astype(np.float64)]
    else:
        sign, rest = np.sign(exact), np.abs(exact)
        limbs = []
        for _ in range(-(-top.bit_length() // w)):
            limbs.append((sign * (rest & (2**w - 1))).astype(np.float64))
            rest >>= w
    residual = b.astype(np.float64 if len(limbs) == 1 else object)
    fp = float(p)
    solution, pk = np.zeros(b.shape, dtype=object), 1
    proven = 4 * (n * _RHS_RANGE) ** 2 * h2
    for bound in (min(proven, 4 * (n * n * _RHS_RANGE * order) ** 2), proven):
        while pk**2 <= bound:
            r = (residual % p).astype(np.float64) if residual.dtype == object else residual.copy()
            x = reduce_mod(inverse @ reduce_mod(r, fp, 1 / fp), fp, 1 / fp)
            solution += x.astype(np.int64).astype(object) * pk
            if len(limbs) == 1:
                residual = (residual - limbs[0] @ x) / fp  # exact: p divides it
            else:
                ax = sum(
                    (limb @ x).astype(np.int64).astype(object) << (w * i) for i, limb in enumerate(limbs)
                )
                residual = (residual - ax) // p
            pk *= p
        y = order * solution % pk
        y[2 * y > pk] -= pk
        if (exact.dot(y) == order * b.astype(object)).all():
            return order // math.gcd(order, *y.flat)
    raise ValueError("the order is not |det A|: A y != order b for y = order A^-1 b mod p^k")


def _inverse_mod(a: np.ndarray, order: int):
    """(p, A^-1 mod p as balanced float64) for the first usable word prime p.

    A^-1 = L^-T D^-1 L^-1 A^T for the LDL^T factorization (`_ldl`) of the
    symmetric A^T A mod p, which is nonsingular mod p when p does not divide
    det A.  Primes that divide order are passed over, and so are primes with
    a zero pivot: such a prime divides a leading Gram minor of A's columns.
    Once the primes passed over at one pivot multiply past the product of
    the squared column norms, which bounds every such minor, it is 0 over Z
    and A is singular.  The pivots multiply to det(A)^2 mod p, which must be
    order^2 mod p.
    """
    n = len(a)
    skipped = {}
    for q in primes_below(prime_bound(n)):
        if order % q == 0:
            continue
        fq = float(q)
        r = reduce_mod((a % q).astype(np.float64), fq, 1 / fq)
        g = reduce_mod(r.T @ r, fq, 1 / fq)
        stacked = np.full((1, 1, 1), fq)
        d, d_inv, w = (x[0] for x in _ldl(g[None], [q], stacked, 1 / stacked, True))
        zero = np.flatnonzero(d == 0)
        if len(zero):
            k = int(zero[0])
            skipped[k] = skipped.get(k, 1) * q
            if skipped[k] > math.prod((a * a).sum(axis=0).tolist()):
                raise ValueError("certified Smith form needs a nonsingular matrix")
            continue
        if math.prod(int(x) for x in d.tolist()) % q != order * order % q:
            raise ValueError(f"the order is not |det A|: their squares differ mod {q}")
        inverse = reduce_mod(w.T @ reduce_mod(d_inv[:, None] * w, fq, 1 / fq), fq, 1 / fq)
        return q, reduce_mod(inverse @ r.T, fq, 1 / fq)
    raise ValueError("ran out of primes below the exactness bound")


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
