"""Exact integer matrix kernels, checked against independent elementary routes."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from groupforests.intmat import (
    bareiss_determinant,
    lattice_spans_z_d,
    smith_normal_form,
    smith_with_transform,
)


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
