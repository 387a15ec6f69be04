"""Exact integer matrix kernels: fraction-free determinants and Smith normal form.

Everything here works on plain Python integers (arbitrary precision).  Both
Smith functions run one elimination, `_smith` (balanced remainders, smallest
pivot first, each pivot made to divide the rest of its block); only
`smith_with_transform` carries the column transform V.  With a modulus D, a
nonzero multiple of det(A), every entry of A and V is kept as a balanced
residue mod D and each pivot is mapped to its gcd with D.  That bounds
coefficient growth by the determinant size, and it is sound because
D * Z^n lies inside A * Z^n (Cramer): augmenting the column space by D * I
leaves the cokernel unchanged.
"""

from __future__ import annotations

import math


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
