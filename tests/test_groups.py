"""Group families, words, quotient actions, injectivity radii."""

import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupforests.errors import FamilyMismatchError, GroupForestsError
from groupforests.groups import (
    FAMILIES,
    FiniteQuotient,
    Free,
    FreeAbelian,
    GroupFamily,
    GroupWord,
    Heisenberg,
    chain_radii,
    component_labels,
    format_word,
    free_ball_quotient,
    injectivity_radius,
    parse_word,
    word_ball,
)
from groupforests.runner import parse_family

Z1 = GroupFamily.free_abelian(1)
Z2 = GroupFamily.free_abelian(2)
F2 = GroupFamily.free(2)
H = GroupFamily.heisenberg()


def rand_word(fam, rng, max_len=6):
    n = rng.randrange(0, max_len + 1)
    return GroupWord.from_letters(
        fam, [rng.choice([1, -1] * 1 + [l for l in fam.letters]) for _ in range(n)]
    )


# ----- multiplication and normal forms ---------------------------------


def test_free_abelian_multiply_adds_exponents():
    u = parse_word(Z2, "a")
    v = parse_word(Z2, "abB")
    assert (u * v).normal == (2, 0)
    assert parse_word(Z2, "aB").normal == (1, -1)


def test_free_reduction():
    w = parse_word(F2, "abBA")
    assert w.is_identity()
    w = parse_word(F2, "abA")
    assert w.normal == (1, 2, -1)
    assert (w * w.inverse()).is_identity()


def test_heisenberg_triple_product():
    x = parse_word(H, "a")
    y = parse_word(H, "b")
    assert x.normal == (1, 0, 0)
    assert y.normal == (0, 1, 0)
    assert (x * y).normal == (1, 1, 1)
    assert (y * x).normal == (1, 1, 0)
    comm = x * y * x.inverse() * y.inverse()
    assert comm.normal == (0, 0, 1)


def test_heisenberg_matches_matrix_model():
    # oracle: (a,b,c) <-> [[1,a,c],[0,1,b],[0,0,1]], product = matrix product
    def to_mat(nf):
        a, b, c = nf
        return np.array([[1, a, c], [0, 1, b], [0, 0, 1]], dtype=object)

    rng = random.Random(7)
    for _ in range(50):
        u = rand_word(H, rng)
        v = rand_word(H, rng)
        assert np.array_equal(to_mat((u * v).normal), to_mat(u.normal) @ to_mat(v.normal))
        assert np.array_equal(
            to_mat(u.inverse().normal) @ to_mat(u.normal), to_mat((0, 0, 0))
        )


def test_letters_of_normal_round_trips():
    rng = random.Random(3)
    for fam in (Z1, Z2, F2, H):
        for _ in range(40):
            w = rand_word(fam, rng)
            again = GroupWord.from_letters(fam, fam.letters_of_normal(w.normal))
            assert again == w


def test_associativity_randomized():
    rng = random.Random(11)
    for fam in (Z2, F2, H):
        for _ in range(40):
            u, v, w = (rand_word(fam, rng) for _ in range(3))
            assert (u * v) * w == u * (v * w)


def test_word_equality_ignores_spelling():
    w1 = parse_word(F2, "abBa")
    w2 = parse_word(F2, "aa")
    assert w1 == w2
    assert hash(w1) == hash(w2)
    assert len(w1.letters) == 4  # original spelling is kept


def test_family_mismatch_raises():
    with pytest.raises(FamilyMismatchError):
        parse_word(Z1, "a") * parse_word(F2, "a")


def test_letter_out_of_range():
    with pytest.raises(ValueError):
        parse_word(Z1, "b")
    with pytest.raises(ValueError):
        GroupWord.from_letters(F2, [3])


def test_format_word():
    assert format_word(parse_word(F2, "aB")) == "aB"
    assert format_word(parse_word(H, "e")) == "e"
    assert format_word(GroupWord.from_normal(Z2, (-2, 1))) == "AAb"


# ----- quotients --------------------------------------------------------


def test_cyclic_quotient_action():
    q = FiniteQuotient.from_moduli(Z1, [5])
    u2 = parse_word(Z1, "aa")
    assert q.act(3, u2) == 0
    assert q.act(0, parse_word(Z1, "A")) == 4


def test_identity_word_acts_trivially():
    q = FiniteQuotient.from_moduli(Z2, [3, 4])
    e = parse_word(Z2, "e")
    for c in range(q.size):
        assert q.act(c, e) == c


def test_right_action_property():
    rng = random.Random(23)
    qs = [
        FiniteQuotient.from_moduli(Z2, [4, 6]),
        FiniteQuotient.from_moduli(H, [3]),
        free_ball_quotient(F2, 3, seed=1),
    ]
    for q in qs:
        fam = q.family
        for _ in range(30):
            v, w = rand_word(fam, rng), rand_word(fam, rng)
            c = rng.randrange(q.size)
            assert q.act(q.act(c, v), w) == q.act(c, v * w)


def test_klein_four_quotient_of_f2():
    # F2 onto Z/2 x Z/2: a -> (1,0), b -> (0,1), regular action on 4 cosets
    perms = {1: [2, 3, 0, 1], 2: [1, 0, 3, 2]}
    q = FiniteQuotient(F2, {k: np.array(v) for k, v in perms.items()})
    w = parse_word(F2, "abab")
    assert q.coset_of(w) == 0


def test_inverse_pairing_enforced():
    q = FiniteQuotient.from_moduli(Z1, [6])
    p = q.perms[1]
    pinv = q.perms[-1]
    assert np.array_equal(p[pinv], np.arange(6))
    bad = {1: np.array([1, 2, 0]), -1: np.array([1, 2, 0])}
    with pytest.raises(ValueError):
        FiniteQuotient(Z1, bad)


def test_non_permutation_rejected():
    with pytest.raises(ValueError):
        FiniteQuotient(Z1, {1: np.array([0, 0, 1])})


def test_intransitive_rejected():
    # two 2-cycles: a acts within {0,1} and {2,3}
    with pytest.raises(ValueError):
        FiniteQuotient(Z1, {1: np.array([1, 0, 3, 2])})


def test_intransitive_text_rejected():
    # a and b both swap cosets 0 and 1, so coset 2 is a fixed point of the action
    with pytest.raises(ValueError, match="do not act transitively"):
        FiniteQuotient.from_text(F2, "3 2\n1 0 2\n1 0 2\n")


def bfs_labels(n, edges):
    """Oracle: breadth-first search from each unlabelled vertex in ascending order."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    label = [-1] * n
    for start in range(n):
        if label[start] >= 0:
            continue
        label[start] = start
        queue = [start]
        for x in queue:
            for y in adj[x]:
                if label[y] < 0:
                    label[y] = start
                    queue.append(y)
    return label


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 40))
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=60))


@settings(max_examples=200)
@given(edge_lists())
@example((1, []))
@example((1, [(0, 0)]))
@example((5, [(3, 1), (1, 3), (3, 1), (4, 4)]))
@example((6, [(5, 4), (4, 3), (3, 2), (2, 1), (1, 0)]))
def test_component_labels_match_bfs(case):
    n, edges = case
    u = np.array([a for a, _ in edges], dtype=np.int64)
    v = np.array([b for _, b in edges], dtype=np.int64)
    assert component_labels(n, u, v).tolist() == bfs_labels(n, edges)


def test_component_labels_star_takes_few_rounds():
    # a star whose centre is its largest vertex, centre-first edges: hooking the
    # centre onto an arbitrary smaller leaf would need about n rounds of O(n)
    n = 20000
    leaves = np.arange(n - 1)
    start = time.perf_counter()
    label = component_labels(n, np.full(n - 1, n - 1), leaves)
    assert time.perf_counter() - start < 2.0
    assert not label.any()


def test_heisenberg_quotient_relations_and_size():
    q = FiniteQuotient.from_moduli(H, [3])
    assert q.size == 27
    x, y = q.perms[1], q.perms[2]
    # x*y followed by the inverses is the central commutator, nontrivial
    z = q.word_permutation(parse_word(H, "abAB"))
    assert not np.array_equal(z, np.arange(27))
    assert np.array_equal(z[x], x[z])


# S3 on three cosets: a is a 3-cycle, b the transposition (0 1)
S3_TEXT = "3 2\n1 2 0\n1 0 2\n"


def test_s3_action_is_refused_by_the_relations():
    # a and b do not commute, and their commutator, a 3-cycle, is not central
    with pytest.raises(GroupForestsError, match="generators 1,2 do not commute"):
        FiniteQuotient.from_text(Z2, S3_TEXT)
    with pytest.raises(GroupForestsError, match="commutator is not central"):
        FiniteQuotient.from_text(H, S3_TEXT)
    # the free group has no relations: S3 is one of its quotients
    assert FiniteQuotient.from_text(F2, S3_TEXT).size == 3


def test_word_permutation_matches_act():
    q = FiniteQuotient.from_moduli(H, [2])
    rng = random.Random(5)
    for _ in range(20):
        w = rand_word(H, rng)
        arr = q.word_permutation(w)
        for c in range(q.size):
            assert arr[c] == q.act(c, w)


def test_quotient_text_round_trip(tmp_path):
    q = free_ball_quotient(F2, 2, seed=4)
    text = q.to_text()
    q2 = FiniteQuotient.from_text(F2, text)
    assert q2.size == q.size
    for l in F2.letters:
        assert np.array_equal(q2.perms[l], q.perms[l])
    lines = text.splitlines()
    assert lines[0] == f"{q.size} 2"


def test_quotient_text_validation():
    with pytest.raises(ValueError):
        FiniteQuotient.from_text(F2, "4 1\n1 2 3 0\n")
    with pytest.raises(ValueError):
        FiniteQuotient.from_text(Z1, "3 1\n0 1\n")


# ----- injectivity radius ----------------------------------------------


def test_injectivity_radius_cycle():
    q = FiniteQuotient.from_moduli(Z1, [7])
    assert injectivity_radius(q) == 3


def test_injectivity_radius_trivial_quotient():
    q = FiniteQuotient.from_moduli(Z1, [1])
    assert injectivity_radius(q) == 0


def test_injectivity_radius_free_abelian_lower_bound():
    for m in (2, 3, 5, 8, 12):
        q = FiniteQuotient.from_moduli(Z2, [m, m])
        assert injectivity_radius(q) >= (m - 1) // 2


def test_injectivity_radius_brute_force_heisenberg():
    # oracle: enumerate all words up to radius 4 and compare coset images
    q = FiniteQuotient.from_moduli(H, [3])

    def brute(rmax):
        fam = q.family
        elems = {fam.identity_normal(): 0}
        level = [fam.identity_normal()]
        radius = rmax
        for r in range(1, rmax + 1):
            nxt = []
            for nf in level:
                for l in fam.letters:
                    nf2 = fam.multiply_normals(nf, fam._letter_normal(l))
                    if nf2 not in elems:
                        elems[nf2] = r
                        nxt.append(nf2)
            level = nxt
            cosets = {}
            clash = False
            for nf in elems:
                c = q.act(0, GroupWord.from_normal(fam, nf))
                if c in cosets and cosets[c] != nf:
                    clash = True
                    break
                cosets[c] = nf
            if clash:
                return r - 1
        return radius

    assert injectivity_radius(q, r_max=4) == brute(4)


def test_torus_injectivity_radius_closed_form_matches_bfs():
    # the letters passed explicitly take the word-ball BFS; the default
    # takes (min(moduli) - 1) // 2, capped at r_max
    vectors = [(m,) for m in range(1, 10)]
    vectors += list(itertools.product(range(1, 10), repeat=2))
    vectors += list(itertools.product(range(1, 6), repeat=3))
    cases = 0
    for moduli in vectors:
        fam = GroupFamily.free_abelian(len(moduli))
        q = FiniteQuotient.from_moduli(fam, moduli)
        letters = [GroupWord.from_letters(fam, (l,)) for l in fam.letters]
        for r_max in (0, 1, 2, 512):
            expected = injectivity_radius(q, r_max=r_max, generators=letters)
            assert injectivity_radius(q, r_max=r_max) == expected, (moduli, r_max)
            cases += 1
    assert cases == 860


def test_injectivity_radius_with_support_generators():
    # with respect to {u^2, u^3} on Z/12 the ball grows faster than with {u}
    q = FiniteQuotient.from_moduli(Z1, [12])
    gens = [parse_word(Z1, "aa"), parse_word(Z1, "aaa")]
    r_letters = injectivity_radius(q)
    r_support = injectivity_radius(q, generators=gens)
    assert r_letters == 5
    assert r_support < r_letters


def test_ball_and_injectivity_share_the_generator_closure():
    # identity skipped, inverses added, another family's word refused alike
    q = FiniteQuotient.from_moduli(Z1, [12])
    gens = [parse_word(Z1, "aa"), parse_word(Z1, "aaa")]
    with_identity = [parse_word(Z1, "e"), *gens]
    assert word_ball(Z1, 2, generators=with_identity) == word_ball(Z1, 2, generators=gens)
    assert injectivity_radius(q, generators=with_identity) == injectivity_radius(q, generators=gens)
    stranger = [parse_word(Z2, "a")]
    with pytest.raises(FamilyMismatchError, match="^generator family does not match$"):
        word_ball(Z1, 2, generators=stranger)
    with pytest.raises(FamilyMismatchError, match="^generator family does not match$"):
        injectivity_radius(q, generators=stranger)


def test_free_ball_quotient_radii():
    for r, n in ((2, 17), (3, 53)):
        q = free_ball_quotient(F2, r, seed=0)
        assert q.size == n
        assert injectivity_radius(q, r_max=8) == r


def test_chain_radius_monotonicity():
    assert chain_radii([FiniteQuotient.from_moduli(Z1, [m]) for m in (4, 8, 16)]) == [1, 3, 7]
    with pytest.raises(ValueError, match=r"non-decreasing along the chain, got \[7, 1\]"):
        chain_radii([FiniteQuotient.from_moduli(Z1, [16]), FiniteQuotient.from_moduli(Z1, [4])])


# ----- the family contract ----------------------------------------------

# each family at two ranks, on both sides of its transience threshold
CONTRACT_RANKS = {"free-abelian": (1, 3), "free": (1, 2), "heisenberg": (2,)}
CONTRACT_FAMILIES = [cls(r) for kind, cls in FAMILIES.items() for r in CONTRACT_RANKS[kind]]


@pytest.mark.parametrize("fam", CONTRACT_FAMILIES, ids=lambda fam: fam.spec)
def test_family_contract(fam):
    assert parse_family(fam.spec) == fam
    # families of one rank stay apart, and so do their identity words
    others = [cls(fam.rank) for cls in FAMILIES.values() if cls is not type(fam) and cls.kind != "heisenberg"]
    for other in others:
        assert other != fam
        assert GroupWord.from_letters(other, ()) != GroupWord.from_letters(fam, ())
    ident = fam.identity_normal()
    for l in fam.letters:
        assert fam.multiply_normals(fam._letter_normal(l), fam._letter_normal(-l)) == ident
        assert fam.letters_of_normal(fam._letter_normal(l)) == (l,)
    if isinstance(fam, Free):
        with pytest.raises(ValueError, match="^free-group quotients are given by explicit permutations$"):
            FiniteQuotient.from_moduli(fam, [3])
        return
    for m in (1, 2, 5):
        q = FiniteQuotient.from_moduli(fam, [m])
        fam.check_relations(q.perms)
        assert q.size == m ** len(ident)


def test_family_contract_texts():
    assert GroupFamily.free(2) != GroupFamily.free_abelian(2)
    assert {GroupFamily.free(2), GroupFamily.free_abelian(2)} == {Free(2), FreeAbelian(2)}
    assert [fam.is_transient() for fam in (Z1, Z2, GroupFamily.free(1))] == [False, False, False]
    assert [fam.is_transient() for fam in (GroupFamily.free_abelian(3), F2, H)] == [True, True, True]
    with pytest.raises(ValueError, match="^expected 2 moduli, got 3$"):
        FiniteQuotient.from_moduli(Z2, [2, 3, 4])
    with pytest.raises(ValueError, match="^heisenberg quotients take a single modulus$"):
        FiniteQuotient.from_moduli(H, [2, 3])
    with pytest.raises(ValueError, match="^the Heisenberg family has exactly 2 generators$"):
        Heisenberg(3)
    with pytest.raises(ValueError, match="^rank must be a positive integer$"):
        FreeAbelian(0)


@pytest.mark.parametrize("rank", [0, 1, 2])
def test_bare_base_family_is_refused(rank):
    # it built with kind "" and failed at first use, on identity_normal
    message = "^GroupFamily is a base: use FreeAbelian, Free, Heisenberg or FAMILIES$"
    with pytest.raises(TypeError, match=message):
        GroupFamily(rank)
    # every subclass at a valid rank still builds, through each spelling
    built = [FreeAbelian(rank + 1), Free(rank + 1), Heisenberg(2)]
    assert built == [FAMILIES[fam.kind](fam.rank) for fam in built]
    assert [GroupFamily.free_abelian(rank + 1), GroupFamily.free(rank + 1)] == built[:2]
    assert GroupFamily.heisenberg() == built[2]
