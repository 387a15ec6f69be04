"""Exact integer matrix kernels, checked against independent elementary routes."""

import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from groupforests import (
    FiniteQuotient,
    GroupFamily,
    build_laplacian,
    free_ball_quotient,
    intmat,
    laplacian_element,
    linalg,
)
from groupforests.intmat import (
    bareiss_determinant,
    certified_smith_form,
    lattice_spans_z_d,
    modular_determinant,
    prime_bound,
    primes_below,
    reduce_mod,
    smith_normal_form,
    smith_with_transform,
)
from groupforests.linalg import spanning_tree_count
from groupforests.runner import resolve_config


def det_fraction_elimination(rows):
    """Oracle: textbook Gaussian elimination over exact rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = None
        for i in range(k, n):
            if a[i][k]:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            r = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= r * a[k][j]
    return det


def cokernel_torsion_counts(rows, k):
    """Oracle: number of x in (1/k)Z^n / Z^n with A x integral.

    For cokernel Z^n / A Z^n with invariant factors d_i this count is the
    product of gcd(k, d_i), by the structure theorem.  Enumerates k^n grid
    points exactly, so keep n and k tiny.
    """
    n = len(rows)
    count = 0
    idx = [0] * n

    def ok(vec):
        for row in rows:
            s = sum(r * v for r, v in zip(row, vec))
            if s % k:
                return False
        return True

    total = k**n
    for t in range(total):
        x = t
        for i in range(n):
            idx[i] = x % k
            x //= k
        if ok(idx):
            count += 1
    return count


class TestBareiss:
    def test_identity_and_empty(self):
        assert bareiss_determinant([]) == 1
        assert bareiss_determinant([[7]]) == 7
        assert bareiss_determinant([[1, 0], [0, 1]]) == 1

    def test_two_by_two(self):
        assert bareiss_determinant([[2, 4], [6, 8]]) == -8

    def test_singular(self):
        assert bareiss_determinant([[1, 2], [2, 4]]) == 0
        assert bareiss_determinant([[0, 0], [1, 5]]) == 0

    def test_needs_pivot_swap(self):
        assert bareiss_determinant([[0, 1], [1, 0]]) == -1

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            bareiss_determinant([[1, 2], [3]])

    def test_random_vs_fraction_elimination(self):
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randint(1, 6)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert bareiss_determinant(rows) == det_fraction_elimination(rows)

    def test_big_integer_growth(self):
        # entries force determinants beyond 64-bit range
        rng = random.Random(5)
        n = 13
        rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        d = bareiss_determinant(rows)
        assert d == det_fraction_elimination(rows)
        assert abs(d) > 2**63  # the point of exact arithmetic


class TestSmith:
    def test_known_small(self):
        assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
        assert smith_normal_form([[4, 0], [0, 6]]) == [2, 12]
        assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]

    def test_triangle_reduced_laplacian(self):
        assert smith_normal_form([[2, -1], [-1, 2]]) == [1, 3]

    def test_rank_deficient(self):
        assert smith_normal_form([[1, 2], [2, 4]]) == [1]
        assert smith_normal_form([[0, 0], [0, 0]]) == []

    def test_rectangular(self):
        assert smith_normal_form([[2, 4, 6]]) == [2]
        assert smith_normal_form([[2], [4], [6]]) == [2]

    def test_divisibility_and_product_random(self):
        rng = random.Random(7)
        for _ in range(80):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            det = bareiss_determinant(rows)
            factors = smith_normal_form(rows)
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0
            if det:
                prod = 1
                for f in factors:
                    prod *= f
                assert prod == abs(det)
            else:
                assert len(factors) < n

    def test_modulus_matches_plain(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 5)
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            det = bareiss_determinant(rows)
            if det == 0:
                continue
            assert smith_normal_form(rows, modulus=det) == smith_normal_form(rows)

    def test_torsion_counts_against_enumeration(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 3)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if bareiss_determinant(rows) == 0:
                continue
            factors = smith_normal_form(rows)
            for k in (2, 3, 4):
                expected = 1
                for d in factors:
                    expected *= math.gcd(k, d)
                assert cokernel_torsion_counts(rows, k) == expected


class TestSmithTransform:
    def test_transform_relation_random(self):
        rng = random.Random(19)
        for _ in range(60):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
            diag, v = smith_with_transform(rows)
            # V must be unimodular
            assert abs(bareiss_determinant(v)) == 1
            # A V must be U^{-1} D for unimodular U: columns divisible by diag,
            # and the scaled-down matrix must itself be unimodular
            av = [
                [sum(rows[i][k] * v[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            if all(diag):
                scaled = [[av[i][j] // diag[j] for j in range(n)] for i in range(n)]
                for i in range(n):
                    for j in range(n):
                        assert av[i][j] % diag[j] == 0
                assert abs(bareiss_determinant(scaled)) == 1
            factors = [d for d in diag if d]
            assert factors == smith_normal_form(rows)

    def test_zero_matrix(self):
        diag, v = smith_with_transform([[0, 0], [0, 0]])
        assert diag == [0, 0]
        assert v == [[1, 0], [0, 1]]

    def test_modular_column_congruence(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 5)
            while True:
                rows = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
                det = bareiss_determinant(rows)
                if det:
                    break
            diag, v = smith_with_transform(rows, modulus=det)
            prod = 1
            for d in diag:
                prod *= d
            assert prod == abs(det)
            for j in range(n):
                for i in range(n):
                    av = sum(rows[i][k] * v[k][j] for k in range(n))
                    assert av % diag[j] == 0

    def test_modular_matches_plain_on_torus(self):
        # both routes must parametrize the same set of cokernel points,
        # each exactly once; compare exactly after scaling by the order
        rng = random.Random(29)
        for _ in range(40):
            n = rng.randint(2, 4)
            while True:
                rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
                det = bareiss_determinant(rows)
                if det and abs(det) <= 60:
                    break

            def torus_points(diag, v):
                order = 1
                for d in diag:
                    order *= d
                pts = set()
                for w in itertools.product(*[range(d) for d in diag]):
                    pts.add(
                        tuple(
                            sum(w[j] * (order // diag[j]) * v[r][j] for j in range(n))
                            % order
                            for r in range(n)
                        )
                    )
                return order, pts

            o_plain, plain = torus_points(*smith_with_transform(rows))
            o_mod, mod = torus_points(*smith_with_transform(rows, modulus=det))
            assert o_plain == o_mod == abs(det)
            assert plain == mod
            assert len(plain) == abs(det)

    def test_modulus_one_collapses_group(self):
        # unimodular input: trivial cokernel, every factor 1
        diag, v = smith_with_transform([[2, 1], [3, 2]], modulus=1)
        assert diag == [1, 1]
        assert len(v) == 2


@pytest.mark.parametrize("smith", [smith_normal_form, smith_with_transform])
@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]]])
def test_smith_rejects_ragged(smith, rows):
    with pytest.raises(ValueError, match="ragged matrix"):
        smith(rows)


def invariant_factors(diagonal):
    """Oracle: the divisibility chain of a nonzero diagonal, prime by prime.

    Each invariant factor takes, for every prime, the matching entry of the
    sorted exponents of that prime across the diagonal.
    """
    exponents: dict[int, list[int]] = {}
    for d in diagonal:
        p = 2
        while d > 1:
            if p * p > d:
                p = d
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            if e:
                exponents.setdefault(p, []).append(e)
            p += 1
    factors = [1] * len(diagonal)
    for p, es in exponents.items():
        es = [0] * (len(diagonal) - len(es)) + sorted(es)
        for i, e in enumerate(es):
            factors[i] *= p**e
    return factors


def matrix_times(rows, v):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*v)] for row in rows]


@st.composite
def int_matrices(draw, square=False, min_size=1, entry=None):
    """Small integer matrices, square or rectangular, by default often singular."""
    n = draw(st.integers(min_size, 5))
    m = n if square or draw(st.booleans()) else draw(st.integers(min_size, 5))
    if entry is None:
        entry = st.one_of(st.integers(-2, 2), st.integers(-30, 30))
    row = st.lists(entry, min_size=m, max_size=m)
    return draw(st.lists(row, min_size=n, max_size=n))


def is_chain(factors):
    return all(b % a == 0 for a, b in zip(factors, factors[1:]))


class TestSmithProperties:
    """One elimination, two contracts: properties over random small matrices."""

    @settings(max_examples=300)
    @given(int_matrices())
    def test_chain_and_determinant(self, rows):
        factors = smith_normal_form(rows)
        assert is_chain(factors) and all(d > 0 for d in factors)
        assert len(factors) <= min(len(rows), len(rows[0]))
        if len(rows) == len(rows[0]):
            det = bareiss_determinant(rows)
            if det:
                assert math.prod(factors) == abs(det) and len(factors) == len(rows)
            else:
                assert len(factors) < len(rows)

    @settings(max_examples=300)
    @given(int_matrices())
    def test_transform_columns_and_unimodular(self, rows):
        diag, v = smith_with_transform(rows)
        m = len(rows[0])
        assert len(v) == m and abs(bareiss_determinant(v)) == 1
        assert len(diag) == min(len(rows), m) and is_chain([d for d in diag if d])
        av = matrix_times(rows, v)
        for j, d in enumerate(diag):
            column = [row[j] for row in av]
            assert all((x % d == 0) if d else x == 0 for x in column)
        assert [d for d in diag if d] == smith_normal_form(rows)

    # wide entries on 3x3 and up: there a modded pivot is now and then a
    # residue that only its gcd with the modulus turns into the true factor
    @settings(max_examples=300)
    @given(
        int_matrices(square=True, min_size=3, entry=st.integers(-30, 30)),
        st.sampled_from([1, -1, 3]),
    )
    def test_modulus_matches_plain(self, rows, scale):
        det = bareiss_determinant(rows)
        assume(det != 0)
        modulus = scale * det
        assert smith_normal_form(rows, modulus) == smith_normal_form(rows)
        diag, v = smith_with_transform(rows, modulus)
        assert math.prod(diag) == abs(det)
        assert invariant_factors(diag) == smith_normal_form(rows)
        av = matrix_times(rows, v)
        for j, d in enumerate(diag):
            assert all(row[j] % d == 0 for row in av)

    @settings(max_examples=300)
    @given(int_matrices(), st.sampled_from([None, 1, "det"]))
    def test_normal_form_is_the_repaired_transform_diagonal(self, rows, modulus):
        if modulus == "det":
            square = len(rows) == len(rows[0])
            modulus = bareiss_determinant(rows) if square else None
        diag, _ = smith_with_transform(rows, modulus)
        expected = invariant_factors([d for d in diag if d])
        assert smith_normal_form(rows, modulus) == expected


def _reference_smith(rows, modulus, transform):
    """intmat._smith as it was before its column operations skipped A's rows
    below the pivot: V stacked under A, every column operation and the
    pivot's sign flip on all rows from the pivot down, each entry reduced."""
    a = [[int(x) for x in row] for row in rows]
    n = len(a)
    m = len(a[0]) if n else 0
    if any(len(row) != m for row in a):
        raise ValueError("ragged matrix")
    D = abs(modulus) if modulus and abs(modulus) > 1 else None
    h = (D - 1) // 2 if D else 0

    def reduce(x):
        return x if D is None else (x + h) % D - h

    def quotient(q, p):  # f with q - f p in (-|p|/2, |p|/2]
        return -quotient(q, -p) if p < 0 else (2 * q + p) // (2 * p)

    def row_sub(dst, src, f, lo):
        dst[lo:] = [reduce(x - f * y) for x, y in zip(dst[lo:], src[lo:])]

    def col_sub(top, j, f):
        for row in a[top:]:
            row[j] = reduce(row[j] - f * row[top])

    def col_swap(top, j):
        for row in a[top:]:
            row[top], row[j] = row[j], row[top]

    def smallest(top):
        best = None
        for i in range(top, n):
            for j, x in enumerate(a[i][top:], top):
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if best[0] == 1:
                        return i, j
        return None if best is None else best[1:]

    a = [[reduce(x) for x in row] for row in a]
    if transform:
        a += [[int(i == j) for j in range(m)] for i in range(m)]
    top = 0
    while top < min(n, m):
        pivot = smallest(top)
        if pivot is None:
            break
        a[top], a[pivot[0]] = a[pivot[0]], a[top]
        col_swap(top, pivot[1])
        while True:
            at = a[top]
            for i in range(top + 1, n):
                if a[i][top]:
                    row_sub(a[i], at, quotient(a[i][top], at[top]), top)
                    if a[i][top]:
                        a[top], a[i] = a[i], at
                        break
            else:
                for j in range(top + 1, m):
                    if at[j]:
                        col_sub(top, j, quotient(at[j], at[top]))
                        if at[j]:
                            col_swap(top, j)
                            break
                else:
                    break
        p = abs(a[top][top])
        bad = None if p == 1 else next(
            (ai for ai in a[top + 1 : n] if any(x % p for x in ai[top + 1 :])), None
        )
        if bad:
            row_sub(a[top], bad, -1, top)
            continue
        if a[top][top] < 0:
            for row in a[top:]:
                row[top] = -row[top]
        top += 1
    diag = [a[i][i] for i in range(min(n, m))]
    if D is not None:
        diag = [math.gcd(x, D) for x in diag]
    return diag, a[n:] if transform else None


@st.composite
def smith_cases(draw):
    """Square, rectangular, singular and all-zero matrices, with entries
    small or past 2**64, and no modulus, 1, a small one, a multiple of the
    determinant or one above 2**64."""
    rows = draw(
        int_matrices(
            min_size=0,
            entry=st.one_of(st.integers(-2, 2), st.integers(-30, 30), st.integers(-(2**70), 2**70)),
        )
    )
    shape = draw(st.sampled_from(["any", "singular", "zero"]))
    if shape == "zero":
        rows = [[0] * len(row) for row in rows]
    elif shape == "singular" and rows:
        rows.append([2 * x - 3 * y for x, y in zip(rows[0], rows[-1])])
    square = len(rows) == len(rows[0] if rows else [])
    modulus = draw(
        st.one_of(
            st.none(),
            st.sampled_from([1, -1]),
            st.integers(2, 60),
            st.integers(-60, -2),
            st.integers(2**64 + 1, 2**80),
            st.sampled_from([1, 3]).map(lambda k: k * bareiss_determinant(rows) if square else None),
        )
    )
    return rows, modulus


def _window_density_laplacians():
    """The reduced Laplacians of the 4x4, 6x6 and 8x8 tori with their tree
    counts, as `window-density` passes them to `smith_with_transform`."""
    cfg = resolve_config("window-density", family="free-abelian:2", moduli="4,4;6,6;8,8")
    for quotient in cfg.quotients:
        lap = build_laplacian(quotient, cfg.f)
        yield lap.reduced().tolist(), spanning_tree_count(lap)


class TestSmithReference:
    """The elimination that updates only the rows a column operation changes,
    against the one that updated every row: the same factors and V."""

    @settings(max_examples=400)
    @given(smith_cases(), st.booleans())
    def test_matches_the_reference(self, case, transform):
        rows, modulus = case
        assert intmat._smith(rows, modulus, transform) == _reference_smith(rows, modulus, transform)

    @pytest.mark.parametrize("transform", [True, False])
    def test_window_density_tori(self, transform):
        for rows, tau in _window_density_laplacians():
            assert intmat._smith(rows, tau, transform) == _reference_smith(rows, tau, transform)

    def test_heisenberg_mod_5_sweep(self):
        # the 49-square layer-sweep relations of H mod 5, modulo the exponent
        # that `certified_smith_form` finds and modulo tau
        cfg = resolve_config("identity", family="heisenberg", moduli="5")
        lap = build_laplacian(cfg.quotients[0], cfg.f)
        rows, tau = linalg._layer_sweep(lap), spanning_tree_count(lap)
        assert len(rows) == 49
        for modulus in (intmat._exponent(rows, tau), tau):
            for transform in (False, True):
                got = intmat._smith(rows, modulus, transform)
                assert got == _reference_smith(rows, modulus, transform)


def _reference_smith_normal_form(rows, modulus):
    """smith_normal_form as it was when it restored the divisibility chain
    after the gcd mapping and sorted the factors."""
    factors = [d for d in intmat._smith(rows, modulus, transform=False)[0] if d]
    k = len(factors)
    for i in range(k):
        for j in range(i + 1, k):
            if factors[j] % factors[i]:
                g = math.gcd(factors[i], factors[j])
                factors[j] = factors[i] // g * factors[j]
                factors[i] = g
    return sorted(factors)


class TestSmithChain:
    """The nonzero pivot-order diagonal is already the divisibility chain, with
    no modulus, a unit, a small or composite one and one past 2**64."""

    @settings(max_examples=400)
    @given(smith_cases())
    def test_pivot_order_is_the_chain(self, case):
        rows, modulus = case
        factors = smith_normal_form(rows, modulus)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        assert factors == _reference_smith_normal_form(rows, modulus)


class TestCertifiedSmith:
    """The Smith form modulo the exponent, against the one modulo the determinant."""

    @settings(max_examples=200, deadline=None)
    @given(
        int_matrices(square=True, entry=st.integers(-30, 30)),
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
    )
    def test_matches_the_form_modulo_the_determinant(self, rows, seed, rhs):
        # one or two right-hand sides often miss a factor of the exponent,
        # so the retry modulo D order / P runs here too
        det = bareiss_determinant(rows)
        assume(det != 0)
        with mock.patch.object(intmat, "_RHS_SEED", seed), mock.patch.object(intmat, "_RHS", rhs):
            assert certified_smith_form(rows, abs(det)) == smith_normal_form(rows, modulus=det)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10), st.integers(24, 90), st.randoms(use_true_random=False))
    def test_wide_entries_take_the_limb_path(self, n, bits, rnd):
        # B diag(d) C with B of wide entries: past about 2**22 the residual
        # A x_i runs on limbs of A; the diagonal gives a non-cyclic group
        b = [[rnd.randrange(-(2**bits), 2**bits) for _ in range(n)] for _ in range(n)]
        c = [[rnd.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        d = [rnd.choice([1, 2, 3, 4, 6, 12]) for _ in range(n)]
        rows = matrix_times(b, [[x * y for x, y in zip(row, d)] for row in c])
        det = bareiss_determinant(rows)
        assume(det != 0)
        assert certified_smith_form(rows, abs(det)) == smith_normal_form(rows, modulus=det)

    @pytest.mark.parametrize(
        "wrong", [lambda t: 2 * t, lambda t: t + 1, lambda t: t - 1, lambda t: t // 3]
    )
    @pytest.mark.parametrize("rows", [[[9]], [[3, 9], [0, 9]]], ids=["cyclic", "Z3xZ9"])
    def test_a_wrong_order_is_refuted(self, rows, wrong):
        # modulo 3, Z/9 has the factor gcd(9, 3) = 3: a product check alone
        # would take the order 9 / 3 = 3
        order = abs(bareiss_determinant(rows))
        assert certified_smith_form(rows, order)
        with pytest.raises(ValueError, match="squares differ"):
            certified_smith_form(rows, wrong(order))

    def test_the_solve_refutes_an_order_congruent_to_the_determinant(self):
        # 9 + p has the square of 9 mod the solve's prime p, but A y = order b
        # has no solution y = order A^-1 b mod p^k for it
        p = first_prime(1)
        with pytest.raises(ValueError, match="A y != order b"):
            certified_smith_form([[9]], 9 + p)

    @pytest.mark.parametrize("order", [28, 54, 81])
    def test_the_product_refutes_what_the_factors_cannot_reach(self, monkeypatch, order):
        # with the solve's checks passed (here skipped), Z/3 x Z/9 modulo
        # D = 9 multiplies to 27, and modulo D order / 27 too, if it divides
        monkeypatch.setattr(intmat, "_exponent", lambda a, order: 9)
        with pytest.raises(ValueError, match="do not multiply to the order"):
            certified_smith_form([[3, 0], [0, 9]], order)

    @pytest.mark.parametrize("q, moduli", [(3, [3, 9]), (9, [1, 27])])
    def test_an_unlucky_exponent_is_retried(self, monkeypatch, q, moduli):
        # D = 9 / q: the factors gcd(3, D), gcd(9, D) fall short of 27 at P,
        # and every factor divides D 27 / P; at D = 1 that is 27 itself
        ran = []
        real = intmat._smith_mod

        def recorded(a, modulus):
            ran.append(modulus)
            return real(a, modulus)

        monkeypatch.setattr(intmat, "_exponent", lambda a, order: 9 // q)
        monkeypatch.setattr(intmat, "_smith_mod", recorded)
        assert certified_smith_form([[3, 9], [0, 9]], 27) == [3, 9]
        assert ran == moduli

    def test_refuses_singular_and_malformed_input(self):
        with pytest.raises(ValueError, match="nonsingular"):
            certified_smith_form([[1, 2], [2, 4]], 1)
        with pytest.raises(ValueError, match="square"):
            certified_smith_form([[1, 2]], 1)
        with pytest.raises(ValueError, match="positive"):
            certified_smith_form([[2]], 0)

    def test_empty_and_unimodular(self):
        assert certified_smith_form([], 1) == []
        assert certified_smith_form([[2, 1], [1, 1]], 1) == [1, 1]


class TestLatticeSpan:
    def test_full_and_proper(self):
        assert lattice_spans_z_d([(1, 0), (0, 1)], 2)
        assert not lattice_spans_z_d([(2, 0), (0, 1)], 2)
        # all three generators have even coordinate sum: index-2 sublattice
        assert not lattice_spans_z_d([(2, 0), (0, 2), (1, 1)], 2)

    def test_non_obvious_basis(self):
        # (2,1) and (3,2) have determinant 1
        assert lattice_spans_z_d([(2, 1), (3, 2)], 2)
        # (2,0) and (3,3): determinant 6, index-6 sublattice
        assert not lattice_spans_z_d([(2, 0), (3, 3)], 2)

    def test_one_dimensional(self):
        assert lattice_spans_z_d([(2,), (3,)], 1)
        assert not lattice_spans_z_d([(2,), (4,)], 1)

    def test_redundant_generators(self):
        # (5,2) breaks the even-coordinate-sum pattern of the first two
        assert lattice_spans_z_d([(1, 1), (1, -1), (5, 2)], 2)

    def test_empty(self):
        assert not lattice_spans_z_d([], 1)
        assert lattice_spans_z_d([], 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lattice_spans_z_d([(1, 2, 3)], 2)


@st.composite
def connected_laplacians(draw):
    """Reduced Laplacians of random connected multigraphs with edge weights.

    A random tree (vertex i hangs off some j < i) keeps the graph connected;
    extra edges, repeated ones and weights up to 1000 make it a weighted
    multigraph.
    """
    n = draw(st.integers(2, 40))  # past the 16-pivot leaf, so the recursion runs
    weight = st.integers(1, 1000)
    edges = [(draw(st.integers(0, i - 1)), i, draw(weight)) for i in range(1, n)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight)
    edges += [e for e in draw(st.lists(pair, max_size=2 * n)) if e[0] != e[1]]
    lap = np.zeros((n, n), dtype=np.int64)
    for u, v, w in edges:
        lap[u, v] -= w
        lap[v, u] -= w
        lap[u, u] += w
        lap[v, v] += w
    base = draw(st.integers(0, n - 1))
    return np.delete(np.delete(lap, base, axis=0), base, axis=1).tolist()


@st.composite
def dominant_matrices(draw):
    """Symmetric integer matrices with a positive, weakly dominant diagonal.

    Off-diagonal entries take either sign, and a_ii = sum_(j != i) |a_ij|
    plus a slack of 0 to 3, so singular inputs (slack 0 throughout) occur.
    """
    n = draw(st.integers(1, 12))
    a = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        a[i][j] = a[j][i] = draw(st.integers(-99, 99))
    for i in range(n):
        a[i][i] = max(1, sum(abs(x) for x in a[i]) + draw(st.integers(0, 3)))
    return a


def first_prime(n):
    return next(primes_below(prime_bound(n)))


class TestModularDeterminant:
    """The multimodular kernel against Bareiss, its independent oracle."""

    @settings(max_examples=150)
    @given(connected_laplacians())
    def test_matches_bareiss_on_connected_multigraphs(self, rows):
        det = modular_determinant(rows)
        assert det == bareiss_determinant(rows) and det > 0

    @pytest.mark.parametrize(
        "quotient",
        [
            FiniteQuotient.from_moduli(GroupFamily.free_abelian(2), (5, 7)),
            FiniteQuotient.from_moduli(GroupFamily.free_abelian(3), (3, 3, 4)),
            FiniteQuotient.from_moduli(GroupFamily.heisenberg(), (3,)),
            FiniteQuotient.from_moduli(GroupFamily.heisenberg(), (4,)),
            free_ball_quotient(GroupFamily.free(2), 3, seed=0),
            free_ball_quotient(GroupFamily.free(3), 2, seed=5),
        ],
        ids=lambda q: f"N={q.size}",
    )
    def test_matches_bareiss_on_quotients(self, quotient):
        rows = build_laplacian(quotient, laplacian_element(quotient.family)).reduced()
        assert modular_determinant(rows) == bareiss_determinant(rows)

    @settings(max_examples=300)
    @given(int_matrices(square=True, entry=st.integers(-9, 9)))
    def test_symmetric_input_exact_or_refused(self, rows):
        # symmetrize; the kernel is exact exactly when no leading minor is 0
        n = len(rows)
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        minors = [bareiss_determinant([r[:k] for r in rows[:k]]) for k in range(1, n + 1)]
        if all(minors):
            assert modular_determinant(rows) == minors[-1]
        else:
            with pytest.raises(ValueError, match="leading principal minor"):
                modular_determinant(rows)

    @pytest.mark.parametrize(
        "make",
        [
            lambda p: [[p, 1], [1, 2]],  # first leading minor p
            lambda p: [[2, 1, 0], [1, (p + 1) // 2, 1], [0, 1, 3]],  # second minor p
            lambda p: [[p + 1, 1], [1, 1]],  # the determinant itself is p
            lambda p: [[3 * p, p], [p, 2 * p]],  # every pivot divisible by p
        ],
    )
    def test_skips_a_prime_dividing_a_leading_minor(self, make):
        p = first_prime(len(make(5)))
        rows = make(p)
        assert modular_determinant(rows) == bareiss_determinant(rows)

    def test_empty_and_one_by_one(self):
        assert modular_determinant([]) == 1
        # the reduced Laplacian of a one-vertex quotient
        assert modular_determinant(np.zeros((0, 0), np.int64)) == 1
        assert modular_determinant([[7]]) == 7
        assert modular_determinant(np.array([[2, -1], [-1, 2]])) == 3

    def test_entries_past_the_int64_square(self):
        # the Hadamard bound of these rows overflows int64 and is taken exactly
        rows = [[2**40, 1, 0], [1, 2**40, 3], [0, 3, 2**40]]
        assert modular_determinant(rows) == bareiss_determinant(rows)

    def test_many_primes_off_base_zero(self):
        # tau of the 12 x 12 torus has 241 bits: a dozen primes in the CRT
        q = FiniteQuotient.from_moduli(GroupFamily.free_abelian(2), (12, 12))
        m = build_laplacian(q, laplacian_element(q.family)).matrix
        rows = np.delete(np.delete(m, 5, axis=0), 5, axis=1).tolist()
        det = modular_determinant(rows)
        assert det == bareiss_determinant(rows) and det.bit_length() == 241

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 2], [3]],  # ragged
            [[1, 2, 3], [4, 5, 6]],  # not square
            [[[1]]],  # not a matrix
            [[2, 1], [0, 2]],  # not symmetric
            [[2**70, 0], [0, 1]],  # not int64
        ],
    )
    def test_rejects_malformed_input(self, rows):
        with pytest.raises(ValueError):
            modular_determinant(rows)

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 1], [1, 0]],  # first leading minor 0, determinant -1
            [[1, 1], [1, 1]],  # singular
            [[0, 0], [0, 5]],  # zero row
            [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],  # unreduced Laplacian
            [[4, 2, 1], [2, 1, 3], [1, 3, 9]],  # second leading minor 0
        ],
    )
    def test_zero_leading_minor_is_refused(self, rows):
        with pytest.raises(ValueError, match="leading principal minor"):
            modular_determinant(rows)

    def test_singular_laplacian_stops_at_the_hadamard_bound(self, monkeypatch):
        # every prime sees the zero pivot; the search stops once the dropped
        # primes multiply past the bound, here the diagonal product 4**27
        # (54 bits) under H = 20**13.5 (58 bits): 3 primes, or one batch
        drawn = []

        def counted(bound):
            for q in primes_below(bound):
                drawn.append(q)
                yield q

        monkeypatch.setattr(intmat, "primes_below", counted)
        q = FiniteQuotient.from_moduli(GroupFamily.heisenberg(), (3,))
        lap = build_laplacian(q, laplacian_element(q.family)).matrix
        with pytest.raises(ValueError, match="leading principal minor 27 is 0"):
            modular_determinant(lap)
        assert 3 <= len(drawn) <= 8

    @settings(max_examples=150)
    @given(dominant_matrices())
    def test_dominant_input_under_the_diagonal_bound(self, rows):
        # every leading minor is at most the diagonal product, so it bounds
        # the CRT: the result is exact, or refused on a zero leading minor
        diagonal = math.prod(rows[i][i] for i in range(len(rows)))
        assert intmat._bound_squared(np.array(rows)) == diagonal**2
        minors = [bareiss_determinant([r[:k] for r in rows[:k]]) for k in range(1, len(rows) + 1)]
        assert all(0 <= m <= diagonal for m in minors)
        if all(minors):
            assert modular_determinant(rows) == minors[-1]
        else:
            with pytest.raises(ValueError, match="leading principal minor"):
                modular_determinant(rows)

    @pytest.mark.parametrize(
        "rows, h2",
        [
            ([[1, 2], [2, 1]], 25),  # |det| = 3 > 1 * 1: the diagonal is no bound
            ([[-2, 1], [1, -2]], 25),  # dominant, but the diagonal is negative
            ([[3, -1, -1], [-1, 1, -1], [-1, -1, 4]], 11 * 3 * 18),  # row 1 is not dominant
        ],
    )
    def test_other_input_keeps_the_hadamard_bound(self, rows, h2):
        assert intmat._bound_squared(np.array(rows)) == h2
        assert modular_determinant(rows) == bareiss_determinant(rows)

    def test_refusal_survives_optimized_python(self):
        code = (
            "from groupforests.intmat import modular_determinant as d\n"
            "for rows in ([[2, 1], [0, 2]], [[0, 1], [1, 0]]):\n"
            "    try:\n"
            "        d(rows)\n"
            "    except ValueError:\n"
            "        continue\n"
            "    raise SystemExit(1)\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestResidueArithmetic:
    """Float64 residues are exact up to the 2**52 limit the primes are chosen for."""

    @pytest.mark.parametrize("n", [1, 2, 343, 4096, 10**5])
    def test_prime_bound_keeps_gemms_exact(self, n):
        p = first_prime(n)
        assert n * (p - 1) ** 2 < 2**52
        # balanced residues leave the same headroom for the Schur update
        assert n * ((p + 1) // 2) ** 2 + (p + 1) // 2 < 2**52

    def test_primes_below_lists_every_prime_largest_first(self):
        # the bound spans two sieve windows
        bound = 2**16 + 50
        oracle = [q for q in range(bound - 1, 1, -1) if all(q % r for r in range(2, math.isqrt(q) + 1))]
        assert list(primes_below(bound)) == oracle

    @pytest.mark.parametrize("bound", [0, 2, 3, 2**16 - 1, 2**16, 2**16 + 1, 2**17, 3 * 2**16 + 5, 2**26, 2**26 + 3])
    def test_primes_below_at_window_edges(self, bound):
        # the windows are cached and aligned to multiples of 2**16; a bound
        # inside one cuts it, and a second walk yields the same primes
        head = list(itertools.islice(primes_below(bound), 400))
        top = head[-1] if len(head) == 400 else 2
        oracle = [q for q in range(bound - 1, top - 1, -1) if all(q % r for r in range(2, math.isqrt(q) + 1))]
        assert head == oracle
        assert list(itertools.islice(primes_below(bound), 400)) == head

    @pytest.mark.parametrize("n", [1, 343, 4096])
    def test_reduction_at_the_limit(self, n):
        rng = random.Random(n)
        for p in itertools.islice(primes_below(prime_bound(n)), 3):
            xs = [2**52, -(2**52), 2**52 - 1, 1 - 2**52, p * (2**52 // p), p // 2, -(p // 2)]
            xs += [rng.randrange(-(2**52), 2**52) for _ in range(200)]
            xs += [x + k for x in (p * (2**52 // p) - p // 2,) for k in range(-2, 3)]
            r = reduce_mod(np.array(xs, dtype=np.float64), float(p), 1.0 / p)
            for x, y in zip(xs, r.tolist()):
                assert y == int(y) and (x - int(y)) % p == 0
                assert abs(y) <= (p + 1) // 2

    def test_gemm_at_the_limit(self):
        # n residues of the largest magnitude: the dot product is exact
        n = 4096
        p = first_prime(n)
        h = float((p + 1) // 2)
        row = np.full((1, n), h)
        assert int((row @ row.T)[0, 0]) == n * ((p + 1) // 2) ** 2
