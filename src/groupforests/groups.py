"""Finitely generated groups, their words, and finite quotient actions.

Three families are supported: free abelian groups Z^d, free groups F_k, and
the discrete Heisenberg group (upper unitriangular 3x3 integer matrices).
Each family is one subclass of GroupFamily, which carries a normal form for
its elements, so words multiply and compare cheaply, together with its
congruence quotients and the relations a quotient must satisfy.  A finite
quotient is stored as one permutation of the coset set per generator letter
(right translation); quotients of the free-abelian and Heisenberg families
are generated from moduli, while free-group quotients are arbitrary
transitive permutation actions supplied by the caller.

Generator letters are signed integers: +i is the i-th generator, -i its
inverse.  The text rendering uses 'a', 'b', ... for generators and
'A', 'B', ... for inverses, with 'e' for the identity.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import FamilyMismatchError, GroupForestsError


@dataclass(frozen=True)
class GroupFamily:
    """A group presentation family together with its generator count.

    rank: number of generators (d for Z^d, k for F_k, always 2 for Heisenberg).
    Each family is a subclass naming its `kind` (the --family spelling) and
    the least rank at which its simple random walks are transient.
    """

    rank: int
    kind = ""
    transient_rank = 1

    def __post_init__(self):
        if not self.kind:
            raise TypeError("GroupFamily is a base: use FreeAbelian, Free, Heisenberg or FAMILIES")
        if self.rank < 1:
            raise ValueError("rank must be a positive integer")

    @classmethod
    def free_abelian(cls, d: int) -> "GroupFamily":
        return FreeAbelian(d)

    @classmethod
    def free(cls, k: int) -> "GroupFamily":
        return Free(k)

    @classmethod
    def heisenberg(cls) -> "GroupFamily":
        return Heisenberg(2)

    @property
    def spec(self) -> str:
        """The --family spelling, 'kind:rank'."""
        return f"{self.kind}:{self.rank}"

    @property
    def letters(self) -> tuple[int, ...]:
        """All generator letters, positive then negative."""
        pos = tuple(range(1, self.rank + 1))
        return pos + tuple(-i for i in pos)

    def is_transient(self) -> bool:
        return self.rank >= self.transient_rank

    def _check_letter(self, letter: int):
        if not isinstance(letter, int) or letter == 0 or abs(letter) > self.rank:
            raise ValueError(f"letter {letter!r} out of range for rank {self.rank}")

    # ----- normal forms -------------------------------------------------

    def normal_of_letters(self, letters) -> tuple:
        nf = self.identity_normal()
        for l in letters:
            self._check_letter(l)
            nf = self.multiply_normals(nf, self._letter_normal(l))
        return nf

    def _letter_normal(self, letter: int):
        """Generator i is the i-th unit coordinate of the identity's normal form."""
        v = list(self.identity_normal())
        v[abs(letter) - 1] = 1 if letter > 0 else -1
        return tuple(v)

    def congruence_action(self, moduli: list):
        """(perms, label, moduli) of the congruence quotient from positive moduli."""
        raise ValueError("free-group quotients are given by explicit permutations")

    def check_relations(self, perms: dict):
        """Raise unless the family's defining relations hold among perms."""


class FreeAbelian(GroupFamily):
    """Z^d; an element's normal form is its coordinate vector."""

    kind = "free-abelian"
    transient_rank = 3

    def identity_normal(self):
        return (0,) * self.rank

    def multiply_normals(self, a: tuple, b: tuple) -> tuple:
        return tuple(x + y for x, y in zip(a, b))

    def invert_normal(self, a: tuple) -> tuple:
        return tuple(-x for x in a)

    def letters_of_normal(self, a: tuple) -> tuple[int, ...]:
        """A canonical word (letter sequence) evaluating to the element."""
        out = []
        for i, v in enumerate(a):
            out.extend([i + 1 if v > 0 else -(i + 1)] * abs(v))
        return tuple(out)

    def congruence_action(self, moduli: list):
        """A length-d vector (one modulus stands for all d): the product of cyclic groups."""
        if len(moduli) == 1 and self.rank > 1:
            moduli = moduli * self.rank
        if len(moduli) != self.rank:
            raise ValueError(f"expected {self.rank} moduli, got {len(moduli)}")
        coords = np.unravel_index(np.arange(int(np.prod(moduli))), moduli)
        perms = {}
        for i in range(self.rank):
            shifted = list(coords)
            shifted[i] = (coords[i] + 1) % moduli[i]
            perms[i + 1] = np.ravel_multi_index(tuple(shifted), moduli)
        return perms, "Z^%d mod %s" % (self.rank, "x".join(map(str, moduli))), tuple(moduli)

    def check_relations(self, perms: dict):
        """The generators commute."""
        for i in range(1, self.rank + 1):
            for j in range(i + 1, self.rank + 1):
                a, b = perms[i], perms[j]
                if not np.array_equal(a[b], b[a]):
                    raise GroupForestsError(f"generators {i},{j} do not commute")


class Free(GroupFamily):
    """F_k; an element's normal form is its reduced word.  No relations."""

    kind = "free"
    transient_rank = 2

    def identity_normal(self):
        return ()

    def _letter_normal(self, letter: int):
        return (letter,)

    def multiply_normals(self, a: tuple, b: tuple) -> tuple:
        # concatenate with cancellation at the seam
        a = list(a)
        i = 0
        while a and i < len(b) and a[-1] == -b[i]:
            a.pop()
            i += 1
        return tuple(a) + tuple(b[i:])

    def invert_normal(self, a: tuple) -> tuple:
        return tuple(-l for l in reversed(a))

    def letters_of_normal(self, a: tuple) -> tuple[int, ...]:
        return tuple(a)


class Heisenberg(GroupFamily):
    """H; (x, y, z) times (u, v, w) is (x + u, y + v, z + w + x v)."""

    kind = "heisenberg"
    spec = "heisenberg"

    def __post_init__(self):
        if self.rank != 2:
            raise ValueError("the Heisenberg family has exactly 2 generators")

    def identity_normal(self):
        return (0, 0, 0)

    def multiply_normals(self, a: tuple, b: tuple) -> tuple:
        x, y, z = a
        u, v, w = b
        return (x + u, y + v, z + w + x * v)

    def invert_normal(self, a: tuple) -> tuple:
        x, y, z = a
        return (-x, -y, -z + x * y)

    def letters_of_normal(self, a: tuple) -> tuple[int, ...]:
        x, y, z = a
        out = [1 if x > 0 else -1] * abs(x)
        out += [2 if y > 0 else -2] * abs(y)
        # remaining central part: z - x*y copies of the commutator [x,y]
        c = z - x * y
        comm = (1, 2, -1, -2) if c > 0 else (2, 1, -2, -1)
        out += list(comm) * abs(c)
        return tuple(out)

    def congruence_action(self, moduli: list):
        """A single modulus m, all three matrix entries reduced mod m: m^3 cosets."""
        if len(set(moduli)) != 1:
            raise ValueError("heisenberg quotients take a single modulus")
        m = moduli[0]
        a, b, c = np.unravel_index(np.arange(m**3), (m, m, m))
        perms = {
            1: np.ravel_multi_index(((a + 1) % m, b, c), (m, m, m)),
            2: np.ravel_multi_index((a, (b + 1) % m, (c + a) % m), (m, m, m)),
        }
        return perms, f"H mod {m}", (m,)

    def check_relations(self, perms: dict):
        """The commutator is central."""
        x, y = perms[1], perms[2]
        z = perms[-2][perms[-1][y[x]]]  # right-action composite for the commutator word
        for g in (x, y):
            if not np.array_equal(z[g], g[z]):
                raise GroupForestsError("commutator is not central in the quotient")


FAMILIES = {cls.kind: cls for cls in (FreeAbelian, Free, Heisenberg)}


@dataclass(frozen=True, eq=False)
class GroupWord:
    """A group element: the letters it was built from plus its normal form.

    Words compare and hash by normal form, so different spellings of the same
    element are equal.
    """

    family: GroupFamily
    letters: tuple[int, ...]
    normal: tuple

    @classmethod
    def from_letters(cls, family: GroupFamily, letters) -> "GroupWord":
        letters = tuple(letters)
        return cls(family, letters, family.normal_of_letters(letters))

    @classmethod
    def from_normal(cls, family: GroupFamily, normal: tuple) -> "GroupWord":
        return cls(family, family.letters_of_normal(normal), tuple(normal))

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        if self.family != other.family:
            raise FamilyMismatchError("cannot multiply words from different families")
        return GroupWord.from_normal(
            self.family, self.family.multiply_normals(self.normal, other.normal)
        )

    def inverse(self) -> "GroupWord":
        return GroupWord.from_normal(self.family, self.family.invert_normal(self.normal))

    def is_identity(self) -> bool:
        return self.normal == self.family.identity_normal()

    def __hash__(self):
        return hash((self.family, self.normal))

    def __eq__(self, other):
        return (
            isinstance(other, GroupWord)
            and self.family == other.family
            and self.normal == other.normal
        )


def parse_word(family: GroupFamily, text: str) -> GroupWord:
    """Parse a word like "aB" or "a B" (case encodes inversion), "e" = identity."""
    letters = []
    for ch in text.replace(" ", ""):
        if ch == "e":
            continue
        if "a" <= ch <= "z":
            idx = ord(ch) - ord("a") + 1
        elif "A" <= ch <= "Z":
            idx = -(ord(ch) - ord("A") + 1)
        else:
            raise ValueError(f"bad character {ch!r} in word {text!r}")
        if abs(idx) > family.rank:
            raise ValueError(f"letter {ch!r} exceeds family rank {family.rank}")
        letters.append(idx)
    return GroupWord.from_letters(family, letters)


def format_word(word: GroupWord) -> str:
    if not word.letters:
        return "e"
    out = []
    for l in word.letters:
        ch = chr(ord("a") + abs(l) - 1)
        out.append(ch if l > 0 else ch.upper())
    return "".join(out)


def component_labels(n: int, u, v) -> np.ndarray:
    """label[x] = the least vertex of x's component; edges are (u[i], v[i]).

    Shiloach-Vishkin hook and jump: each round points every root that an
    edge joins to a smaller root at the least such root, then jumps pointers
    until every label is a root.  Labels only decrease, so the root left in a
    component is its least vertex.  Hooking onto the least root merges every
    tree with another within two rounds, so there are O(log n) rounds; an
    arbitrary smaller root would take a round per leaf of some stars.
    """
    label = np.arange(n)
    while not np.array_equal(lu := label[u], lv := label[v]):
        cross = lu != lv
        # (larger root, smaller root) of each cross edge as one sorted key
        key = np.sort(np.maximum(lu, lv)[cross] * n + np.minimum(lu, lv)[cross])
        hi, lo = np.divmod(key, n)
        least = np.ones(len(key), dtype=bool)  # the first, so least, lo of each hi
        least[1:] = hi[1:] != hi[:-1]
        label[hi[least]] = lo[least]
        while not np.array_equal(jumped := label[label], label):
            label = jumped
    return label


class FiniteQuotient:
    """A transitive right action of a family on cosets {0, ..., N-1}.

    Stores one permutation per positive generator letter; inverse letters act
    by the inverse permutations.  Coset 0 is the identity coset.
    """

    def __init__(self, family: GroupFamily, perms: dict[int, np.ndarray], label: str = ""):
        self.family = family
        self.label = label
        sizes = {len(p) for p in perms.values()}
        if len(sizes) != 1:
            raise ValueError("generator permutations have inconsistent lengths")
        self.size = sizes.pop()
        if self.size < 1:
            raise ValueError("a quotient needs at least one coset")
        self.perms: dict[int, np.ndarray] = {}
        for i in range(1, family.rank + 1):
            if i not in perms:
                raise ValueError(f"missing permutation for generator {i}")
            p = np.asarray(perms[i], dtype=np.int64)
            self._check_permutation(p)
            inv = np.empty_like(p)
            inv[p] = np.arange(self.size, dtype=np.int64)
            p.setflags(write=False)
            inv.setflags(write=False)
            self.perms[i] = p
            self.perms[-i] = inv
        for letter, p in perms.items():
            if letter < 0:
                # caller supplied an explicit inverse: must match the derived one
                if not np.array_equal(np.asarray(p, dtype=np.int64), self.perms[letter]):
                    raise ValueError(
                        f"permutation for letter {letter} is not the inverse of {-letter}"
                    )
        if not self._is_transitive():
            raise ValueError("the generator permutations do not act transitively")
        family.check_relations(self.perms)
        self.moduli = None  # set by from_moduli for congruence quotients

    def _check_permutation(self, p: np.ndarray):
        if p.ndim != 1:
            raise ValueError("permutation must be one-dimensional")
        seen = np.zeros(self.size, dtype=bool)
        if p.min(initial=0) < 0 or p.max(initial=0) >= self.size:
            raise ValueError("permutation image out of range")
        seen[p] = True
        if not seen.all():
            raise ValueError("not a permutation: repeated images")

    def _is_transitive(self) -> bool:
        # the edges (c, c * a_i) of the positive letters; inverses add no new pairs
        cosets = np.arange(self.size, dtype=np.int64)
        rank = self.family.rank
        targets = np.concatenate([self.perms[i] for i in range(1, rank + 1)])
        return not component_labels(self.size, np.tile(cosets, rank), targets).any()

    # ----- constructors -------------------------------------------------

    @classmethod
    def from_moduli(cls, family: GroupFamily, moduli) -> "FiniteQuotient":
        """Congruence quotient from a modulus vector (`family.congruence_action`)."""
        moduli = [int(m) for m in np.atleast_1d(moduli)]
        if any(m < 1 for m in moduli):
            raise ValueError("moduli must be >= 1")
        perms, label, moduli = family.congruence_action(moduli)
        q = cls(family, perms, label=label)
        q.moduli = moduli
        return q

    @classmethod
    def from_text(cls, family: GroupFamily, text: str, label: str = "") -> "FiniteQuotient":
        """Parse the quotient file format.

        First line: "N k" (coset count, generator count).  Then k lines, one
        per generator, each with N space-separated 0-based images.  Inverse
        letters are derived from the generator permutations.  Blank lines and
        '#' comments are skipped.
        """
        lines = [ln for ln in (l.strip() for l in io.StringIO(text)) if ln and not ln.startswith("#")]
        if not lines:
            raise ValueError("empty quotient description")
        head = lines[0].split()
        if len(head) != 2:
            raise ValueError("header must be 'N k'")
        n, k = int(head[0]), int(head[1])
        if k != family.rank:
            raise ValueError(f"file has {k} generators, family has rank {family.rank}")
        if len(lines) != 1 + k:
            raise ValueError(f"expected {k} permutation lines, got {len(lines) - 1}")
        perms = {}
        for i in range(k):
            images = [int(t) for t in lines[1 + i].split()]
            if len(images) != n:
                raise ValueError(f"permutation line {i + 1} has {len(images)} entries, expected {n}")
            perms[i + 1] = np.array(images, dtype=np.int64)
        return cls(family, perms, label=label)

    def to_text(self) -> str:
        out = [f"{self.size} {self.family.rank}"]
        for i in range(1, self.family.rank + 1):
            out.append(" ".join(str(int(v)) for v in self.perms[i]))
        return "\n".join(out) + "\n"

    # ----- the action ---------------------------------------------------

    def act(self, coset: int, word: GroupWord) -> int:
        """Right-translate a coset by a word."""
        if word.family != self.family:
            raise FamilyMismatchError("word family does not match quotient family")
        c = coset
        for l in self.family.letters_of_normal(word.normal):
            c = int(self.perms[l][c])
        return c

    def word_permutation(self, word: GroupWord) -> np.ndarray:
        """The permutation c -> c*word as an array over all cosets."""
        if word.family != self.family:
            raise FamilyMismatchError("word family does not match quotient family")
        arr = np.arange(self.size, dtype=np.int64)
        for l in self.family.letters_of_normal(word.normal):
            arr = self.perms[l][arr]
        return arr

    def coset_of(self, word: GroupWord) -> int:
        """Image of a group element under the quotient map (its coset index)."""
        return self.act(0, word)


def _closure(family: GroupFamily, generators) -> list:
    """The generators and their inverses, identity skipped; the letters if None."""
    if generators is None:
        return [GroupWord.from_letters(family, (l,)) for l in family.letters]
    gens = []
    for g in generators:
        if g.family != family:
            raise FamilyMismatchError("generator family does not match")
        if not g.is_identity():
            gens += [g, g.inverse()]
    return gens


def injectivity_radius(
    quotient: FiniteQuotient, r_max: int = 512, generators=None
) -> int:
    """Largest r <= r_max such that the quotient map is injective on the word ball B(r).

    The ball is taken with respect to `generators` (GroupWords, closed under
    inverses implicitly; defaults to the family's letters).  BFS expands group
    elements by normal form while tracking coset images; the first time two
    distinct elements land on one coset at depth r, the radius is r - 1.
    On Z^d mod moduli with the letters it is (min(moduli) - 1) // 2: a
    nonzero vector of the lattice of moduli-multiples has l1 norm at least
    min(moduli), and ceil(m/2) e_i, -floor(m/2) e_i share a coset.
    """
    fam = quotient.family
    if generators is None and isinstance(fam, FreeAbelian) and quotient.moduli is not None:
        return min(r_max, (min(quotient.moduli) - 1) // 2)
    gen_pairs = [(g.normal, quotient.word_permutation(g)) for g in _closure(fam, generators)]
    ident = fam.identity_normal()
    reached = {0}  # cosets of the elements found so far
    seen = {ident}
    frontier = [(ident, 0)]
    for r in range(1, r_max + 1):
        nxt = []
        for nf, c in frontier:
            for gnf, gperm in gen_pairs:
                nf2 = fam.multiply_normals(nf, gnf)
                if nf2 in seen:
                    continue
                c2 = int(gperm[c])
                if c2 in reached:
                    return r - 1
                seen.add(nf2)
                reached.add(c2)
                nxt.append((nf2, c2))
        if not nxt:
            break
        frontier = nxt
    return r_max


def word_ball(family: GroupFamily, radius: int, generators=None) -> list:
    """All group elements within word-metric distance `radius` of the identity.

    The metric is taken with respect to `generators` (GroupWords, closed under
    inverses implicitly; defaults to the family's letters).  Returns GroupWords
    in breadth-first order with a deterministic tie-break, identity first.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    gen_normals = sorted({g.normal for g in _closure(family, generators)})
    ident = family.identity_normal()
    seen = {ident}
    out = [ident]
    frontier = [ident]
    for _ in range(radius):
        nxt = []
        for nf in frontier:
            for gnf in gen_normals:
                nf2 = family.multiply_normals(nf, gnf)
                if nf2 not in seen:
                    seen.add(nf2)
                    nxt.append(nf2)
        nxt.sort()
        out.extend(nxt)
        frontier = nxt
        if not nxt:
            break
    return [GroupWord.from_normal(family, nf) for nf in out]


def chain_radii(quotients) -> list:
    """Injectivity radii of a chain of quotients, which must not decrease."""
    radii = [injectivity_radius(q) for q in quotients]
    if any(b < a for a, b in zip(radii, radii[1:])):
        raise ValueError(
            f"injectivity radii must be non-decreasing along the chain, got {radii}"
        )
    return radii


def free_ball_quotient(family: GroupFamily, radius: int, seed: int = 0) -> FiniteQuotient:
    """A transitive permutation action of a free group with injectivity radius >= radius.

    Takes the Cayley-tree ball of the given radius as the coset set and closes
    each generator's partial permutation by matching boundary half-edges with
    a seeded bijection.  Near the identity coset the action is exactly the
    tree, so word balls of the given radius embed.  Useful for generating
    quotient files for free-group experiments.
    """
    if not isinstance(family, Free):
        raise ValueError("free_ball_quotient only applies to free families")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    words = [()]
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for l in family.letters:
                if w and w[-1] == -l:
                    continue
                nxt.append(w + (l,))
        words.extend(nxt)
        frontier = nxt
    index = {w: i for i, w in enumerate(words)}
    n = len(words)
    rng = np.random.default_rng(seed)
    perms = {}
    for g in range(1, family.rank + 1):
        out = np.full(n, -1, dtype=np.int64)
        has_in = np.zeros(n, dtype=bool)
        for w, i in index.items():
            tgt = w[:-1] if (w and w[-1] == -g) else w + (g,)
            j = index.get(tgt)
            if j is not None:
                out[i] = j
                has_in[j] = True
        missing_out = np.flatnonzero(out == -1)
        missing_in = np.flatnonzero(~has_in)
        out[missing_out] = missing_in[rng.permutation(len(missing_in))]
        perms[g] = out
    return FiniteQuotient(family, perms, label=f"F{family.rank} ball r={radius} seed={seed}")
