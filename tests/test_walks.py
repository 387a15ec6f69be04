"""Group ring arithmetic and random walk series.

Oracles used here and nowhere in the package: the exact walk (rational
convolution powers of the step law, which the walk engines are compared
against), central binomial coefficients for rank-1 and rank-2 lattice
walks, a radial birth-death chain for the regular tree, explicit path
enumeration with matrix products for the nilpotent family, and numeric
double integrals for lattice constants.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupforests import (
    FamilyMismatchError,
    GroupFamily,
    GroupRingElement,
    NotWellBalancedError,
    ResourceLimitError,
    UnsupportedFamilyError,
    WindowError,
    format_group_ring,
    format_word,
    formal_inverse_residual,
    green_truncation,
    homoclinic_point,
    laplacian_element,
    parse_group_ring,
    require_well_balanced,
    return_series,
    spectral_radius_probe,
    tree_entropy,
)
from groupforests import walks
from groupforests.groups import GroupWord, parse_word

Z = GroupFamily.free_abelian(1)
Z2 = GroupFamily.free_abelian(2)
Z3 = GroupFamily.free_abelian(3)
F2 = GroupFamily.free(2)
F3 = GroupFamily.free(3)
H = GroupFamily.heisenberg()


def elt(family, text):
    return parse_group_ring(family, text)


# --- oracles ---


@dataclass(frozen=True)
class WalkDistribution:
    """An exact rational probability distribution on the group: one mu^k."""

    family: GroupFamily
    step_count: int
    coeffs: dict  # normal form -> Fraction

    def mass(self) -> Fraction:
        return sum(self.coeffs.values(), Fraction(0))

    def coefficient(self, w: GroupWord) -> Fraction:
        if w.family != self.family:
            raise FamilyMismatchError("word family does not match")
        return self.coeffs.get(w.normal, Fraction(0))

    @property
    def at_identity(self) -> Fraction:
        return self.coeffs.get(self.family.identity_normal(), Fraction(0))

    def validate(self) -> None:
        if any(c < 0 for c in self.coeffs.values()):
            raise AssertionError("negative probability")
        if self.mass() != 1:
            raise AssertionError(f"mass {self.mass()} != 1")


def walk_distribution(f):
    """The step distribution mu = -(f - f_e)/f_e of a well-balanced f."""
    require_well_balanced(f)
    fe = f.identity_coefficient
    coeffs = {w.normal: Fraction(-c, fe) for w, c in f.items() if not w.is_identity()}
    return WalkDistribution(f.family, 1, coeffs)


def convolve_powers(f, k_max):
    """Yield mu^0, mu^1, ..., mu^k_max as exact WalkDistributions."""
    fam = f.family
    mu = walk_distribution(f).coeffs
    cur = {fam.identity_normal(): Fraction(1)}
    yield WalkDistribution(fam, 0, cur)
    for k in range(1, k_max + 1):
        nxt = {}
        for a, p in cur.items():
            for b, q in mu.items():
                ab = fam.multiply_normals(a, b)
                nxt[ab] = nxt.get(ab, 0) + p * q
        cur = nxt
        yield WalkDistribution(fam, k, cur)


def return_probability(f, k):
    """Exact rational (mu^k) at the identity."""
    return list(convolve_powers(f, k))[-1].at_identity


def binomial_return_oracle(k):
    """Lazy walker on Z: exact return probability C(k, k/2) / 2^k."""
    if k % 2:
        return Fraction(0)
    return Fraction(math.comb(k, k // 2), 2**k)


def planar_return_oracle(k):
    """Uniform 4-step walk on the square lattice: (C(k, k/2) / 2^k)^2."""
    if k % 2:
        return Fraction(0)
    return binomial_return_oracle(k) ** 2


def radial_chain_oracle(K):
    """Distance-to-origin chain of the simple walk on the 4-regular tree.

    From 0 the walker must step out; from n >= 1 it steps out with
    probability 3/4 and back with probability 1/4.  Exact fractions.
    """
    dist = {0: Fraction(1)}
    out = [Fraction(1)]
    for _ in range(K):
        nxt = {}
        for d, p in dist.items():
            if d == 0:
                nxt[1] = nxt.get(1, Fraction(0)) + p
            else:
                nxt[d + 1] = nxt.get(d + 1, Fraction(0)) + p * Fraction(3, 4)
                nxt[d - 1] = nxt.get(d - 1, Fraction(0)) + p * Fraction(1, 4)
        dist = nxt
        out.append(dist.get(0, Fraction(0)))
    return out


HEIS_MATS = {
    1: np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
    -1: np.array([[1, -1, 0], [0, 1, 0], [0, 0, 1]]),
    2: np.array([[1, 0, 0], [0, 1, 1], [0, 0, 1]]),
    -2: np.array([[1, 0, 0], [0, 1, -1], [0, 0, 1]]),
}


def nilpotent_path_oracle(k):
    """Exact return probability of the uniform 4-generator walk in the
    integer Heisenberg group, by brute force over all 4^k paths realized
    as unitriangular matrix products."""
    letters = list(HEIS_MATS)
    count = 0
    total = 0
    stack = [(np.eye(3, dtype=np.int64), 0)]
    while stack:
        m, depth = stack.pop()
        if depth == k:
            total += 1
            if np.array_equal(m, np.eye(3, dtype=np.int64)):
                count += 1
            continue
        for l in letters:
            stack.append((m @ HEIS_MATS[l], depth + 1))
    return Fraction(count, total)


# --- group ring elements ---


def product(a, b):
    """a * b in the group ring by the dictionary walk's step."""
    return GroupRingElement(a.family, walks._dict_step(a.family, a._coeffs, b._coeffs))


def violations(f):
    """The clauses require_well_balanced names for f, in order; () if none."""
    try:
        require_well_balanced(f)
    except NotWellBalancedError as err:
        return tuple(str(err).split("; "))
    return ()


class TestGroupRing:
    def test_parse_and_format_roundtrip(self):
        f = elt(F2, "e 4\na -1\nA -1\nb -1\nB -1")
        again = parse_group_ring(F2, format_group_ring(f))
        assert again == f

    def test_parse_accumulates_and_skips_comments(self):
        f = elt(Z, "# cost\ne 1\na -2\n\na 1  # partial cancel")
        assert f == elt(Z, "e 1\na -1")

    @pytest.mark.parametrize("text", ["e 1/2", "a 0.25", "e 2\na 1.0"])
    def test_parse_refuses_rational_coefficients(self, text):
        line = text.splitlines()[-1]
        with pytest.raises(ValueError, match=f"coefficient must be an integer: '{line}'"):
            elt(Z, text)

    def test_parse_rejects_bare_word(self):
        with pytest.raises(ValueError):
            parse_group_ring(Z, "a")

    def test_parse_rejects_unknown_letter(self):
        with pytest.raises(ValueError):
            parse_group_ring(Z, "b 1")

    def test_difference_of_units(self):
        # (1 - a)(1 + a) = 1 - a^2
        one_minus = elt(Z, "e 1\na -1")
        one_plus = elt(Z, "e 1\na 1")
        assert product(one_minus, one_plus) == elt(Z, "e 1\na a -1")

    def test_identity_element_is_neutral(self):
        delta = elt(F2, "e 1")
        f = elt(F2, "a b 2\nB 3\ne -1")
        assert product(delta, f) == f
        assert product(f, delta) == f

    def test_noncommutative_product_order(self):
        a = elt(F2, "a 1")
        b = elt(F2, "b 1")
        assert product(a, b) == elt(F2, "a b 1")
        assert product(a, b) != product(b, a)

    def test_adjoint_reverses_and_inverts(self):
        f = elt(F2, "a b 2\nb -3")
        adj = f.adjoint()
        assert adj == elt(F2, "B A 2\nB -3")
        assert adj.adjoint() == f

    def test_adjoint_fixes_balanced_element(self):
        f = laplacian_element(F2)
        assert f.adjoint() == f
        assert f.is_self_adjoint()

    def test_associativity_spot_check(self):
        f = elt(F2, "a 1\nB 2")
        g = elt(F2, "b 1\ne -1")
        h = elt(F2, "A 3\na b 1")
        assert product(product(f, g), h) == product(f, product(g, h))

    def test_family_mismatch(self):
        with pytest.raises(FamilyMismatchError):
            elt(Z, "e 1").coefficient(parse_word(Z2, "a"))

    def test_one_norm_and_radius(self):
        f = elt(F2, "e 4\na -1\nA -1\nb -1\nB -1")
        assert f.one_norm() == 8

    def test_integerness(self):
        assert all(type(c) is int for _, c in elt(Z, "e 2\na -2").items())
        for c in (Fraction(1, 2), Fraction(2), 0.5, True, np.int64(1)):
            with pytest.raises(TypeError):
                GroupRingElement(Z, {(0,): c})


class TestWellBalanced:
    def test_standard_elements_pass(self):
        for fam in (Z, Z2, F2, F3, H):
            assert violations(laplacian_element(fam)) == ()

    def test_asymmetric_fails_adjoint_only(self):
        assert violations(elt(Z, "e 2\na -2")) == (
            "not self-adjoint: coefficients at s and s^{-1} differ somewhere",
        )

    def test_nonzero_sum_fails(self):
        assert violations(elt(Z, "e 3\na -1\nA -1")) == ("coefficient sum is 1, expected 0",)

    def test_positive_off_identity_fails(self):
        assert violations(elt(Z, "e -2\na 1\nA 1")) == (
            "positive coefficient 1 at A (must be <= 0 off identity)",
            "positive coefficient 1 at a (must be <= 0 off identity)",
        )

    def test_fractional_fails(self):
        # a rational element is refused where it enters, before any clause
        with pytest.raises(ValueError, match="coefficient must be an integer: 'a -1/2'"):
            elt(Z, "e 1\na -1/2\nA -1/2")

    def test_generation_failure_lattice(self):
        # doubled steps only reach the even sublattice
        f = elt(Z2, "e 8\na a -2\nA A -2\nb b -2\nB B -2")
        assert violations(f) == ("support does not span Z^2 as a lattice",)
        with pytest.raises(NotWellBalancedError):
            require_well_balanced(f)

    def test_generation_failure_missing_letter(self):
        assert violations(elt(F2, "e 2\na -1\nA -1")) == (
            "support misses generator 2 and its inverse",
        )

    def test_long_range_generation_passes(self):
        # steps 2 and 3 together generate the integers
        f = elt(Z, "e 4\na a -1\nA A -1\na a a -1\nA A A -1")
        assert violations(f) == ()


class TestWalkDistribution:
    def test_step_distribution(self):
        mu = walk_distribution(laplacian_element(F2))
        assert mu.mass() == 1
        assert mu.at_identity == 0
        assert mu.coefficient(parse_word(F2, "a")) == Fraction(1, 4)
        mu.validate()

    def test_weighted_steps(self):
        mu = walk_distribution(elt(Z, "e 6\na -2\nA -2\na a -1\nA A -1"))
        assert mu.coefficient(parse_word(Z, "a")) == Fraction(1, 3)
        assert mu.coefficient(parse_word(Z, "a a")) == Fraction(1, 6)
        assert mu.mass() == 1

    def test_coefficient_rejects_foreign_word(self):
        mu = walk_distribution(laplacian_element(H))
        with pytest.raises(FamilyMismatchError):
            mu.coefficient(parse_word(Z3, "a"))

    def test_powers_stay_probability_and_symmetric(self):
        f = laplacian_element(F2)
        for k, power in zip(range(4), convolve_powers(f, 3)):
            assert power.step_count == k
            assert power.mass() == 1
            for nf, c in power.coeffs.items():
                assert c >= 0
                assert power.coeffs[F2.invert_normal(nf)] == c


# --- return series against oracles ---


def reference_grid_multiplier(f, m):
    """The grid engine's Fourier multiplier of mu on the m^d grid, as it was
    computed before `walks.torus_symbol` served the grid and the spectrum."""
    d = f.family.rank
    theta = 2.0 * np.pi * np.arange(m) / m
    lam = np.zeros((m,) * d)
    for nf, w in walks._mu_float(f).items():
        phase = np.zeros((m,) * d)
        for i, s_i in enumerate(nf):
            if s_i:
                shape = [1] * d
                shape[i] = m
                phase = phase + s_i * theta.reshape(shape)
        lam += w * np.cos(phase)
    return lam


@st.composite
def torus_walks(draw):
    """A well-balanced f on Z^d, d <= 3, and a grid edge m.

    Every generator carries a coefficient, so the support generates; up to
    three more words reach as far as 4 in each coordinate.
    """
    rank = draw(st.integers(1, 3))
    words = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    words += draw(st.lists(st.tuples(*[st.integers(-4, 4)] * rank), max_size=3))
    coeffs = {}
    for w in words:
        if any(w):
            c = draw(st.integers(1, 50))
            for x in (w, tuple(-a for a in w)):
                coeffs[x] = coeffs.get(x, 0) - c
    coeffs[(0,) * rank] = -sum(coeffs.values())
    return GroupRingElement(GroupFamily.free_abelian(rank), coeffs), draw(st.integers(1, 12))


class TestTorusSymbol:
    @settings(max_examples=150)
    @given(torus_walks())
    def test_grid_multiplier_is_bit_identical(self, case):
        f, m = case
        require_well_balanced(f)
        lam = walks.torus_symbol(walks._mu_float(f).items(), (m,) * f.family.rank)
        assert np.array_equal(lam, reference_grid_multiplier(f, m))


class TestReturnSeries:
    def test_exact_rank_one_returns(self):
        f = laplacian_element(Z)
        for k in range(9):
            assert return_probability(f, k) == binomial_return_oracle(k)

    def test_exact_planar_returns(self):
        f = laplacian_element(Z2)
        for k in range(7):
            assert return_probability(f, k) == planar_return_oracle(k)

    def test_exact_tree_returns(self):
        f = laplacian_element(F2)
        oracle = radial_chain_oracle(8)
        for k in range(9):
            assert return_probability(f, k) == oracle[k]

    def test_exact_nilpotent_returns(self):
        f = laplacian_element(H)
        for k in (2, 4, 6):
            assert return_probability(f, k) == nilpotent_path_oracle(k)

    def test_return_probability_needs_nonnegative_k(self):
        with pytest.raises(ValueError):
            return_series(laplacian_element(Z), -1)

    def test_support_cap(self):
        with pytest.raises(ResourceLimitError):
            return_series(laplacian_element(F2), 40, engine="direct", max_support=100)

    @pytest.mark.parametrize(
        "family, f_text",
        [(Z, "e 6\na -2\nA -2\na a -1\nA A -1"), (Z2, None), (Z3, None), (F2, None)],
        ids=["Z-weighted", "Z2", "Z3", "F2"],
    )
    @pytest.mark.parametrize("max_exact", [walks.DEFAULT_MAX_EXACT_SUPPORT, 0, 5])
    def test_dict_powers_match_exact_distribution(self, family, f_text, max_exact):
        # exact phase, through the step whose support first exceeds
        # max_exact: each value is the float of an exact rational, as the
        # integer walk counts divide correctly rounded; float phase after:
        # within rounding of it
        f = laplacian_element(family) if f_text is None else elt(family, f_text)
        dists = list(convolve_powers(f, 6))
        switch = next((d.step_count for d in dists if len(d.coeffs) > max_exact), 7)
        for dist, (k, value_at) in zip(dists[1:], walks._dict_powers(f, 6, 10**6, max_exact)):
            assert dist.step_count == k
            for nf, p in dist.coeffs.items():
                if k <= switch:
                    assert value_at(nf) == float(p)
                else:
                    assert abs(value_at(nf) - float(p)) <= 1e-14 * float(p)
        series = return_series(f, 6, engine="direct").values
        assert list(series) == [float(d.at_identity) for d in dists]

    def test_grid_engine_matches_exact(self):
        f = laplacian_element(Z)
        series = return_series(f, 50, engine="grid")
        for k in (0, 1, 2, 10, 25, 50):
            assert abs(series.values[k] - float(binomial_return_oracle(k))) < 1e-13

    def test_tree_engine_matches_oracle(self):
        f = laplacian_element(F2)
        series = return_series(f, 80, engine="tree")
        oracle = radial_chain_oracle(80)
        for k in range(81):
            assert abs(series.values[k] - float(oracle[k])) < 1e-13

    def test_tree_engine_matches_direct_weighted(self):
        # unequal generator weights exercise the multi-weight passage arrays
        f = elt(F2, "e 6\na -2\nA -2\nb -1\nB -1")
        tree = return_series(f, 8, engine="tree").values
        direct = return_series(f, 8, engine="direct").values
        assert np.allclose(tree, direct, atol=1e-15)

    def test_rank_three_free_engines_agree(self):
        f = laplacian_element(F3)
        tree = return_series(f, 6, engine="tree").values
        direct = return_series(f, 6, engine="direct").values
        assert np.allclose(tree, direct, atol=1e-15)

    def test_planar_grid_matches_direct(self):
        f = laplacian_element(Z2)
        grid = return_series(f, 12, engine="grid").values
        direct = return_series(f, 12, engine="direct").values
        assert np.allclose(grid, direct, atol=1e-14)

    def test_auto_engine_selection(self):
        assert return_series(laplacian_element(Z2), 2).engine == "grid"
        assert return_series(laplacian_element(F2), 2).engine == "tree"
        assert return_series(laplacian_element(H), 2).engine == "direct"
        # long-range free support falls back to the direct engine
        f = elt(F2, "e 6\na -1\nA -1\nb -1\nB -1\na b -1\nB A -1")
        assert return_series(f, 2).engine == "direct"

    def test_tree_engine_rejects_long_range(self):
        f = elt(F2, "e 6\na -1\nA -1\nb -1\nB -1\na b -1\nB A -1")
        with pytest.raises(UnsupportedFamilyError):
            return_series(f, 4, engine="tree")

    def test_grid_engine_rejects_free(self):
        with pytest.raises(UnsupportedFamilyError):
            return_series(laplacian_element(F2), 4, engine="grid")

    @pytest.mark.parametrize("family", [Z3, H], ids=["Z3", "H"])
    def test_tree_engine_rejects_non_free(self, family):
        with pytest.raises(UnsupportedFamilyError, match="tree engine needs a free family"):
            return_series(laplacian_element(family), 4, engine="tree")
        with pytest.raises(UnsupportedFamilyError):
            green_truncation(laplacian_element(family), K=4, radius=1, engine="tree")

    def test_small_grid_wrap_is_flagged_and_upper_bounds(self):
        f = laplacian_element(Z)
        # a 16-cell cap forces the grid to 16 < K + 1
        series = return_series(f, 30, engine="grid", max_grid_cells=16)
        assert series.alias_free_through == 15
        assert series.notes
        for k in range(16):
            assert abs(series.values[k] - float(binomial_return_oracle(k))) < 1e-15
        # wrapped mass only adds probability
        for k in range(16, 31):
            assert series.values[k] >= float(binomial_return_oracle(k)) - 1e-15

    def test_rejects_unbalanced_input(self):
        with pytest.raises(NotWellBalancedError):
            return_series(elt(Z, "e 2\na -2"), 4)

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            return_series(laplacian_element(Z), 4, engine="magic")


class TestHeisenbergBox:
    """The direct engine's dense (x, y, z) kernel against exact rationals."""

    SHEAR = "e 10\na -2\nA -2\nb -2\nB -2\na b -1\nB A -1"
    HEAVY = "e 1000\na -250\nA -250\nb -250\nB -250"

    @staticmethod
    def exact_returns(f, K):
        return [float(d.at_identity) for d in convolve_powers(f, k_max=K)]

    def test_laplacian_returns_bit_exact(self):
        f = laplacian_element(H)
        values = return_series(f, 12, engine="direct").values
        assert list(values) == self.exact_returns(f, 12)

    def test_every_cell_matches_exact_distribution(self):
        # f_e^8 < 2^63, so every step runs in the integer phase
        f = elt(H, self.SHEAR)
        for dist, (k, value_at) in zip(
            list(convolve_powers(f, k_max=8))[1:], walks._box_powers(f, 8, 10**6)
        ):
            assert dist.step_count == k
            for nf, p in dist.coeffs.items():
                assert value_at(nf) == float(p)
            assert value_at((4 * k, 0, 0)) == 0.0

    def test_shear_words_match_exact(self):
        f = elt(H, self.SHEAR)
        require_well_balanced(f)
        values = return_series(f, 10, engine="direct").values
        exact = self.exact_returns(f, 10)
        for k in range(11):
            assert abs(values[k] - exact[k]) <= 1e-12 * exact[k]

    def test_float_phase_matches_exact(self):
        f = elt(H, self.HEAVY)
        # steps 7 and on run in floats: 1000^7 no longer fits in int64
        assert 1000**6 < 1 << 63 <= 1000**7
        values = return_series(f, 12, engine="direct").values
        exact = self.exact_returns(f, 12)
        for k in range(13):
            assert abs(values[k] - exact[k]) <= 1e-12 * exact[k]

    def test_cap_matches_dictionary_kernel(self):
        f = laplacian_element(H)
        with pytest.raises(ResourceLimitError) as box:
            return_series(f, 40, max_support=2000)
        with pytest.raises(ResourceLimitError) as dic:
            for _ in walks._dict_powers(f, 40, 2000, walks.DEFAULT_MAX_EXACT_SUPPORT):
                pass
        assert str(box.value) == str(dic.value)
        assert str(box.value) == "walk support 2577 exceeds cap 2000 at step 10"
        with pytest.raises(ResourceLimitError) as check:
            walks.check_support_cap(f, 40, "auto", 2000)
        assert str(check.value) == str(box.value)

    @staticmethod
    def cap_error(fn, *args, **kwargs):
        try:
            fn(*args, **kwargs)
        except ResourceLimitError as err:
            return str(err)
        return None

    @settings(max_examples=60)
    @given(st.sampled_from(["e 4\na -1\nA -1\nb -1\nB -1", SHEAR, HEAVY]), st.data())
    def test_cap_check_raises_exactly_when_the_walk_does(self, text, data):
        f = elt(H, text)
        fe = f.identity_coefficient
        # every step the check decides runs in the walk's int64 phase
        K = data.draw(st.integers(0, max(k for k in range(64) if fe**k < 1 << 63)), label="K")
        cap = data.draw(st.integers(0, 30_000), label="max_support")
        walk = self.cap_error(return_series, f, K, engine="direct", max_support=cap)
        assert self.cap_error(walks.check_support_cap, f, K, "direct", cap) == walk

    def test_cap_check_stops_where_counts_leave_int64(self):
        f = elt(H, self.HEAVY)
        assert 1000**6 < 1 << 63 <= 1000**7
        sizes = [len(d.coeffs) for d in convolve_powers(f, k_max=7)]
        cap = max(sizes[:7])
        assert sizes[7] > cap
        # the float walk passes the cap at step 7, which the check leaves undecided
        with pytest.raises(ResourceLimitError, match=f"support {sizes[7]} exceeds cap {cap} at step 7$"):
            return_series(f, 12, engine="direct", max_support=cap)
        walks.check_support_cap(f, 12, "direct", cap)
        with pytest.raises(ResourceLimitError, match=f"cap {cap - 1} at step 6$"):
            walks.check_support_cap(f, 12, "direct", cap - 1)

    @pytest.mark.parametrize(
        "family, engine", [(H, "grid"), (H, "tree"), (Z2, "direct"), (F2, "auto")]
    )
    def test_cap_check_leaves_other_walks_to_themselves(self, family, engine):
        walks.check_support_cap(laplacian_element(family), 40, engine, 0)

    def test_green_matches_exact_sums(self):
        f = elt(H, self.SHEAR)
        green = green_truncation(f, K=6, radius=1, engine="direct")
        dists = list(convolve_powers(f, k_max=6))
        for nf, value in green.values.items():
            exact = sum((d.coeffs.get(nf, Fraction(0)) for d in dists), Fraction(0)) / 10
            assert abs(value - float(exact)) <= 1e-14 * float(exact)


# --- tree entropy ---


class TestTreeEntropy:
    def test_regular_tree_closed_form(self):
        # 4-regular tree: per-site spanning constant log(27/8)
        res = tree_entropy(laplacian_element(F2), K=80)
        assert abs(res.value - math.log(27 / 8)) < 1e-6

    def test_matches_radial_oracle_term_by_term(self):
        res = tree_entropy(laplacian_element(F2), K=40)
        oracle = radial_chain_oracle(40)
        expected = math.log(4) - math.fsum(
            float(oracle[k]) / k for k in range(1, 41)
        )
        assert abs(res.value - expected) < 1e-12

    def test_rank_one_series_value(self):
        # partial sums: log 2 - sum C(2j,j)/(2j 4^j); slow but computable
        K = 400
        res = tree_entropy(laplacian_element(Z), K=K)
        expected = math.log(2) - math.fsum(
            float(binomial_return_oracle(k)) / k for k in range(1, K + 1)
        )
        assert abs(res.value - expected) < 1e-12

    def test_partials_monotone_nonincreasing(self):
        res = tree_entropy(laplacian_element(Z), K=200)
        partials = res.partials
        assert np.all(np.diff(partials) <= 1e-12)
        assert abs(partials[-1] - res.value) < 1e-12

    def test_square_lattice_constant(self):
        # double integral of log(4 - 2cos x - 2cos y) over the torus
        scipy_integrate = pytest.importorskip("scipy.integrate")
        target, err = scipy_integrate.dblquad(
            lambda y, x: math.log(4 - 2 * math.cos(x) - 2 * math.cos(y)),
            1e-12,
            2 * math.pi,
            1e-12,
            2 * math.pi,
        )
        target /= (2 * math.pi) ** 2
        assert err < 1e-6
        # the integral is 4G/pi for Catalan's constant G
        assert abs(target - 1.1662436161) < 1e-6
        res = tree_entropy(laplacian_element(Z2), K=2000)
        assert abs(res.value - target) < 1e-3

    def test_engine_consistency_small(self):
        f = laplacian_element(Z)
        a = tree_entropy(f, K=30, engine="grid").value
        b = tree_entropy(f, K=30, engine="direct").value
        assert abs(a - b) < 1e-13

    def test_tail_estimate_reasonable(self):
        # for the transient tree walk the tail estimate should bound the
        # actual remaining correction to the closed form
        res = tree_entropy(laplacian_element(F2), K=40)
        actual_gap = abs(res.value - math.log(27 / 8))
        assert res.tail_estimate >= actual_gap * 0.5
        assert res.tail_estimate < 1e-3


# --- truncated Green's function ---


class TestGreenTruncation:
    def test_tree_identity_value(self):
        # G(e) for the 4-regular tree equals 3/(2 fe) = 3/8 at fe = 4
        g = green_truncation(laplacian_element(F2), K=60, radius=2)
        assert abs(g.at_identity - 3 / 8) < 1e-5

    def test_engines_agree_on_window(self):
        # K = 8 keeps the direct engine's support under its cap
        f = laplacian_element(F2)
        tree = green_truncation(f, K=8, radius=2, engine="tree")
        direct = green_truncation(f, K=8, radius=2, engine="direct")
        assert set(tree.values) == set(direct.values)
        for key, v in tree.values.items():
            assert abs(v - direct.values[key]) < 1e-12

    def test_truncation_residual_identity(self):
        # omega_K * f = delta_e - mu^{K+1}, so the window residual must equal
        # the corresponding power coefficients exactly
        f = laplacian_element(F2)
        K = 8
        g = green_truncation(f, K=K, radius=2, engine="tree")
        powers = list(convolve_powers(f, K + 1))
        latest = powers[-1]
        worst = 0.0
        for w in (parse_word(F2, t) for t in ("e", "a", "b", "A", "B")):
            worst = max(worst, abs(float(latest.coefficient(w))))
        assert abs(formal_inverse_residual(g, 1) - worst) < 1e-12

    def test_residual_shrinks_with_order(self):
        # odd K so the residual (mu^{K+1})_e is an even power, hence nonzero
        f = laplacian_element(F2)
        resid = [
            formal_inverse_residual(green_truncation(f, K=K, radius=1), 0)
            for K in (9, 19, 39)
        ]
        assert resid[0] > resid[1] > resid[2]
        assert resid[2] < 1e-4

    def test_residual_needs_margin(self):
        g = green_truncation(laplacian_element(F2), K=10, radius=1)
        with pytest.raises(WindowError):
            formal_inverse_residual(g, 1)

    def test_window_lookup(self):
        g = green_truncation(laplacian_element(F2), K=10, radius=1)
        assert g.values[parse_word(F2, "e").normal] == g.at_identity
        assert parse_word(F2, "a b").normal not in g.values

    def test_symmetric_values(self):
        g = green_truncation(laplacian_element(F2), K=20, radius=1)
        a, A, b = (g.values[parse_word(F2, w).normal] for w in ("a", "A", "b"))
        assert abs(a - A) < 1e-15
        assert abs(a - b) < 1e-15

    def test_recurrent_family_warns(self):
        with pytest.warns(UserWarning):
            g = green_truncation(laplacian_element(Z), K=10, radius=1)
        assert g.warnings

    def test_transient_lattice_grid(self):
        f = laplacian_element(Z3)
        g = green_truncation(f, K=60, radius=1)
        assert g.engine == "grid"
        assert not g.warnings
        assert formal_inverse_residual(g, 0) < 5e-3
        a, A = (g.values[parse_word(Z3, w).normal] for w in ("a", "A"))
        assert a == pytest.approx(A, abs=1e-12)

    def test_ball_contents(self):
        g = green_truncation(laplacian_element(F2), K=4, radius=1)
        words = {format_word(GroupWord.from_normal(F2, nf)) for nf in g.values}
        assert words == {"e", "a", "A", "b", "B"}

    @pytest.mark.parametrize(
        "family, engine", [(H, "direct"), (Z3, "direct"), (Z3, "grid"), (F2, "tree")]
    )
    def test_one_engine_pass(self, family, engine, engine_passes):
        # the tail estimate reads the identity series of the same walk
        g = green_truncation(laplacian_element(family), K=8, radius=1, engine=engine)
        assert math.isfinite(g.tail_estimate)
        assert engine_passes == {engine: 1}


# --- homoclinic points ---


class TestHomoclinic:
    def test_identity_mass_recovers_green_mod_one(self):
        f = laplacian_element(F2)
        g = green_truncation(f, K=30, radius=2)
        x = homoclinic_point(elt(F2, "e 1"), g, window_radius=1)
        for w in ("e", "a", "b"):
            nf = parse_word(F2, w).normal
            assert x.values[nf] == pytest.approx(g.values[nf] % 1.0, abs=1e-12)

    def test_source_convolution_vanishes(self):
        # h = f makes x = (f * omega) mod 1 nearly the delta at e, so the
        # fractional parts are near zero and the residuals tiny
        f = laplacian_element(F2)
        g = green_truncation(f, K=60, radius=3)
        x = homoclinic_point(f, g, window_radius=2)
        assert x.residual_max < 1e-4
        for w, v in x.values.items():
            dist = min(v, 1 - v)
            if w != F2.identity_normal():
                assert dist < 1e-4

    def test_values_live_on_circle(self):
        f = laplacian_element(F2)
        g = green_truncation(f, K=20, radius=2)
        x = homoclinic_point(elt(F2, "e 2\na -1"), g, window_radius=1)
        for v in x.values.values():
            assert 0 <= v < 1

    def test_window_too_large(self):
        f = laplacian_element(F2)
        g = green_truncation(f, K=10, radius=1)
        with pytest.raises(WindowError, match="plus the support of h exceeds the Green ball"):
            homoclinic_point(elt(F2, "e 1"), g, window_radius=3)

    def test_needs_integer_mass(self):
        # h is an element, so its mass is an integer before it reaches here
        with pytest.raises(ValueError):
            elt(F2, "e 1/2")
        with pytest.raises(TypeError):
            GroupRingElement(F2, {(): Fraction(1, 2)})

    def test_rejects_low_rank_lattice(self):
        # free:1 is Z under another name: its walk is just as recurrent
        for family in (Z2, GroupFamily.free(1)):
            with pytest.warns(UserWarning):
                g = green_truncation(laplacian_element(family), K=10, radius=1)
            with pytest.raises(UnsupportedFamilyError):
                homoclinic_point(elt(family, "e 1"), g, window_radius=0)

    def test_family_mismatch(self):
        g = green_truncation(laplacian_element(F2), K=10, radius=1)
        with pytest.raises(FamilyMismatchError):
            homoclinic_point(elt(Z, "e 1"), g, window_radius=0)


# --- spectral radius probe ---


class TestSpectralRadiusProbe:
    def test_regular_tree_radius(self):
        # the simple walk on the 4-regular tree has spectral radius sqrt(3)/2
        probe = spectral_radius_probe(laplacian_element(F2), k_max=200)
        assert abs(probe.estimate - math.sqrt(3) / 2) < 0.01
        assert not probe.amenable_like

    def test_lattice_is_amenable_like(self):
        probe = spectral_radius_probe(laplacian_element(Z2), k_max=400)
        assert probe.estimate > 0.95
        assert probe.amenable_like

    def test_rank_one_is_amenable_like(self):
        probe = spectral_radius_probe(laplacian_element(Z), k_max=200)
        assert probe.estimate > 0.95
        assert probe.amenable_like

    def test_raw_roots_undershoot(self):
        # plain 2k-th roots approach the radius from below; extrapolation
        # must improve on them for the tree
        probe = spectral_radius_probe(laplacian_element(F2), k_max=200)
        raw = probe.root_estimates[-1]
        target = math.sqrt(3) / 2
        assert raw < target
        assert abs(probe.estimate - target) < abs(raw - target)

    def test_estimate_capped_at_one(self):
        probe = spectral_radius_probe(laplacian_element(Z), k_max=100)
        assert probe.estimate <= 1.0

    def test_rejects_odd_k_max(self):
        with pytest.raises(ValueError):
            spectral_radius_probe(laplacian_element(Z), k_max=7)
        with pytest.raises(ValueError):
            spectral_radius_probe(laplacian_element(Z), k_max=0)

    def test_root_sequence_cauchy_schwarz(self):
        # even return probabilities are moments, so (mu^{2k})_e^{1/2k} rises
        probe = spectral_radius_probe(laplacian_element(F2), k_max=60)
        roots = probe.root_estimates
        assert all(b >= a - 1e-12 for a, b in zip(roots, roots[1:]))
