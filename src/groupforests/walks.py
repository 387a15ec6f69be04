"""Group-ring elements and random-walk analysis on the built-in families.

The central object is an integer group-ring element f.  When f is well
balanced (zero coefficient sum, non-positive off the identity, self-adjoint,
generating support) it is the Laplacian of a Cayley multigraph, and
mu = -(f - f_e)/f_e is the step distribution of a symmetric random walk
with no standing-still mass.  This module computes return-probability series
for that walk by three interchangeable engines, and builds on them: tree
entropy (log f_e minus the weighted return series), truncated Green's
functions, homoclinic points of the associated harmonic model, and a
spectral-radius probe for amenability.

Each engine walks once per call: the same pass yields the return series at
the identity and, for Green's function, the sums of mu^k over a word ball,
so the Green tail estimate reads the series of its own walk.  The engines:

- "direct": step-by-step powers of mu.  Works for every family.  On the
  Heisenberg group it runs on a dense (x, y, z) box, where each support word
  is a shift in (x, y) and a shear in z: exact int64 walk counts while
  f_e^k < 2^63 (each value then equals the exact rational's float), float64
  probabilities after.  Other families use dictionary convolution over
  normal forms: exact integer walk counts f_e^k mu^k up to a support size,
  divided as ints, and float probabilities after (for Green's sums, from the
  second step on).  Both stop at the same step with the same error once the
  support exceeds max_support.
- "grid": for free-abelian families, evaluates the Fourier multiplier of mu
  on an m^d grid (`torus_symbol`); the grid average of its k-th power
  equals (mu^k) at the origin exactly as long as k * reach < m (no
  wrap-around), and is an upper bound with exponentially small bias otherwise.
- "tree": for free groups with nearest-neighbor support, a first-passage /
  renewal recurrence in the word-length coordinate.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    FamilyMismatchError,
    NotWellBalancedError,
    ResourceLimitError,
    UnsupportedFamilyError,
    WindowError,
)
from .groups import GroupFamily, GroupWord, format_word, parse_word, word_ball
from .intmat import lattice_spans_z_d

DEFAULT_MAX_SUPPORT = 200_000
DEFAULT_MAX_EXACT_SUPPORT = 20_000
DEFAULT_MAX_GRID_CELLS = 1 << 22
DEFAULT_MAX_TREE_ORDER = 4000


class GroupRingElement:
    """Finitely supported int-valued function on a group family.

    Immutable by convention: the coefficient table is private.  Keys are
    normal forms; the public API speaks GroupWords.
    """

    __slots__ = ("family", "_coeffs")

    def __init__(self, family: GroupFamily, coeffs):
        clean = {}
        for nf, c in coeffs.items():
            if type(c) is not int:
                raise TypeError(f"coefficient {c!r} is not an int")
            if c:
                clean[tuple(nf)] = c
        self.family = family
        self._coeffs = dict(sorted(clean.items()))

    # ----- inspection ---------------------------------------------------

    def coefficient(self, w: GroupWord) -> int:
        if w.family != self.family:
            raise FamilyMismatchError("word family does not match element family")
        return self._coeffs.get(w.normal, 0)

    @property
    def identity_coefficient(self):
        return self._coeffs.get(self.family.identity_normal(), 0)

    def items(self):
        """(GroupWord, coefficient) pairs in canonical order."""
        return [
            (GroupWord.from_normal(self.family, nf), c) for nf, c in self._coeffs.items()
        ]

    def support(self):
        return [GroupWord.from_normal(self.family, nf) for nf in self._coeffs]

    def one_norm(self):
        return sum(abs(c) for c in self._coeffs.values())

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.family == other.family and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.family, tuple(self._coeffs.items())))

    def adjoint(self) -> "GroupRingElement":
        """The element with coefficient at s equal to this one's at s^{-1}."""
        fam = self.family
        return GroupRingElement(
            fam, {fam.invert_normal(nf): c for nf, c in self._coeffs.items()}
        )

    def is_self_adjoint(self) -> bool:
        return self._coeffs == self.adjoint()._coeffs


def _dict_step(fam: GroupFamily, cur: dict, step: dict) -> dict:
    """One step of the dictionary walk: convolution over normal forms."""
    nxt: dict = {}
    for nf1, c1 in cur.items():
        for nf2, c2 in step.items():
            nf = fam.multiply_normals(nf1, nf2)
            nxt[nf] = nxt.get(nf, 0) + c1 * c2
    return nxt


def _check_support(size: int, max_support: int, k: int) -> None:
    if size > max_support:
        raise ResourceLimitError(f"walk support {size} exceeds cap {max_support} at step {k}")


def parse_group_ring(family: GroupFamily, text: str) -> GroupRingElement:
    """Parse the line format `word coefficient`.

    The word is spelled in generator letters (lowercase = generator,
    uppercase = inverse, `e` = identity) and may be split across tokens;
    the final token on each line is the integer coefficient; any other
    token there raises ValueError naming the line.  Blank lines and '#'
    comments are skipped.  Repeated words accumulate.
    """
    acc: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise ValueError(f"line needs a word and a coefficient: {raw!r}")
        try:
            coeff = int(tokens[-1])
        except ValueError:
            raise ValueError(f"coefficient must be an integer: {raw!r}") from None
        word = parse_word(family, "".join(tokens[:-1]))
        acc[word.normal] = acc.get(word.normal, 0) + coeff
    return GroupRingElement(family, acc)


def format_group_ring(f: GroupRingElement) -> str:
    """Inverse of parse_group_ring; identity first, then by word length."""
    fam = f.family
    lines = []
    for nf, c in sorted(
        f._coeffs.items(), key=lambda kv: (len(fam.letters_of_normal(kv[0])), kv[0])
    ):
        word = format_word(GroupWord.from_normal(fam, nf))
        lines.append(f"{word} {c}")
    return "\n".join(lines) + ("\n" if lines else "")


def laplacian_element(family: GroupFamily) -> GroupRingElement:
    """The nearest-neighbor Laplacian 2r - sum of generators and inverses."""
    coeffs = {family.identity_normal(): 2 * family.rank}
    for l in family.letters:
        coeffs[family._letter_normal(l)] = -1
    return GroupRingElement(family, coeffs)


# ----- well-balancedness ---------------------------------------------------


def require_well_balanced(f: GroupRingElement) -> None:
    """Raise NotWellBalancedError naming every defining clause f violates.

    Clauses: coefficients summing to zero; off-identity coefficients
    non-positive; self-adjoint; support generates the family.  The generation
    clause is decided per family: for free-abelian the support exponent
    vectors must span Z^d as a lattice; for free and heisenberg families the
    support must contain each generator or its inverse outright.
    """
    fam = f.family
    violations = []
    total = sum(f._coeffs.values())
    if total != 0:
        violations.append(f"coefficient sum is {total}, expected 0")
    ident = fam.identity_normal()
    for nf, c in f._coeffs.items():
        if nf != ident and c > 0:
            w = format_word(GroupWord.from_normal(fam, nf))
            violations.append(f"positive coefficient {c} at {w} (must be <= 0 off identity)")
    if not f.is_self_adjoint():
        violations.append("not self-adjoint: coefficients at s and s^{-1} differ somewhere")
    support = [nf for nf in f._coeffs if nf != ident]
    if fam.kind == "free-abelian":
        if not support or not lattice_spans_z_d(support, fam.rank):
            violations.append(f"support does not span Z^{fam.rank} as a lattice")
    else:
        for i in range(1, fam.rank + 1):
            pos = fam._letter_normal(i)
            neg = fam._letter_normal(-i)
            if pos not in f._coeffs and neg not in f._coeffs:
                violations.append(f"support misses generator {i} and its inverse")
    if violations:
        raise NotWellBalancedError("; ".join(violations))


# ----- return-probability series engines ------------------------------------


@dataclass(frozen=True)
class ReturnSeries:
    """Float series values[k] = (mu^k) at the identity, k = 0..K.

    alias_free_through: largest k whose value carries no systematic bias
    (grid wrap-around); beyond it grid values are upper bounds with
    exponentially small excess.  Direct and tree engines have no such bias.
    """

    values: np.ndarray
    engine: str
    alias_free_through: int
    notes: tuple = ()


def _mu_float(f: GroupRingElement):
    fe = f.identity_coefficient
    ident = f.family.identity_normal()
    return {nf: -c / fe for nf, c in f._coeffs.items() if nf != ident}


def support_words(f: GroupRingElement) -> list:
    """The non-identity support words of f, in coefficient order."""
    return [w for w, _ in f.items() if not w.is_identity()]


def _auto_engine(f: GroupRingElement) -> str:
    fam = f.family
    if fam.kind == "free-abelian":
        return "grid"
    if fam.kind == "free":
        ident = fam.identity_normal()
        if all(len(nf) == 1 for nf in f._coeffs if nf != ident):
            return "tree"
    return "direct"


def _dict_powers(f, K, max_support, max_exact_support):
    """Yield (k, value_at) for mu^k, k = 1..K, by dictionary convolution.

    While the support holds at most max_exact_support words, the dictionary
    holds the exact walk counts f_e^k mu^k as ints and value_at divides them
    as Python ints, which rounds correctly: the same float an exact rational
    gives.  From the first larger support on it holds float probabilities.
    value_at(nf) is (mu^k) at nf as a float.
    """
    fam = f.family
    ident = fam.identity_normal()
    fe = f.identity_coefficient
    counts = {nf: -c for nf, c in f._coeffs.items() if nf != ident}
    mu = _mu_float(f)
    cur: dict = {ident: 1}
    scale = 1  # exact phase: (mu^k) = cur / scale with scale = f_e^k; 0 after
    for k in range(1, K + 1):
        cur = _dict_step(fam, cur, counts if scale else mu)
        _check_support(len(cur), max_support, k)
        if scale:
            scale *= fe
            if len(cur) > max_exact_support:
                cur = {nf: c / scale for nf, c in cur.items()}
                scale = 0
        yield k, lambda nf, cur=cur, scale=scale: cur.get(nf, 0) / (scale or 1)


def _box_step(cur: np.ndarray, lo: tuple, words: list):
    """cur * mu on a dense Heisenberg box whose cell [0, 0, 0] is the element lo.

    Right multiplication by (u, v, w) sends (x, y, z) to (x+u, y+v, z+w+x*v):
    a translation of the whole box when v == 0, otherwise a translation of
    each x-slice by its own z-shear.  Returns the new box and its origin.
    """
    nx, ny, nz = cur.shape
    x0, y0, z0 = lo
    x1 = x0 + nx - 1
    us = [u for (u, _, _), _ in words]
    vs = [v for (_, v, _), _ in words]
    # the z-shift w + x*v of a word is extreme at an end slice
    dz_lo = min(w + min(x0 * v, x1 * v) for (_, v, w), _ in words)
    dz_hi = max(w + max(x0 * v, x1 * v) for (_, v, w), _ in words)
    u_lo, v_lo = min(us), min(vs)
    nxt = np.zeros(
        (nx + max(us) - u_lo, ny + max(vs) - v_lo, nz + dz_hi - dz_lo), dtype=cur.dtype
    )
    for (u, v, w), c in words:
        i, j = u - u_lo, v - v_lo
        src = cur if c == 1 else c * cur
        if v == 0:
            dz = w - dz_lo
            nxt[i : i + nx, j : j + ny, dz : dz + nz] += src
            continue
        for s in range(nx):
            dz = w + (x0 + s) * v - dz_lo
            nxt[i + s, j : j + ny, dz : dz + nz] += src[s]
    return nxt, (x0 + u_lo, y0 + v_lo, z0 + dz_lo)


def _box_trim(cur: np.ndarray, lo: tuple):
    """Cut the box to the bounding box of its nonzero cells; also the cell count."""
    mask = cur != 0
    cuts = []
    for axis in range(3):
        hit = np.flatnonzero(mask.any(axis=tuple(a for a in range(3) if a != axis)))
        cuts.append((int(hit[0]), int(hit[-1]) + 1))
    box = cur[tuple(slice(a, b) for a, b in cuts)]
    return box, tuple(l + a for l, (a, _) in zip(lo, cuts)), int(np.count_nonzero(mask))


def _box_powers(f, K, max_support):
    """Yield (k, value_at) for mu^k, k = 1..K, on a dense Heisenberg (x, y, z) box.

    While f_e^k < 2^63 the box holds the exact walk counts f_e^k mu^k as
    int64 (they sum to f_e^k, so no entry overflows) and value_at divides
    them as Python ints, which rounds correctly: the same float an exact
    rational gives.  From the first k with f_e^k >= 2^63 on, the box holds
    float64 probabilities.  After every step the support size is checked
    against max_support and the box is trimmed to the support's bounding
    box, so memory follows the support.  (A float cell that underflows below
    2^-1074, possible only once f_e^k > 2^1074, leaves the support count.)
    """
    fe = f.identity_coefficient
    ident = f.family.identity_normal()
    words = [(nf, -c) for nf, c in f._coeffs.items() if nf != ident]
    cur = np.ones((1, 1, 1), dtype=np.int64)
    lo = ident
    scale = 1  # integer phase: (mu^k) = cur / scale with scale = f_e^k
    for k in range(1, K + 1):
        if scale and scale * fe >= 1 << 63:
            cur = cur / float(scale)
            words = [(nf, c / fe) for nf, c in words]
            scale = 0
        cur, lo = _box_step(cur, lo, words)
        cur, lo, size = _box_trim(cur, lo)
        _check_support(size, max_support, k)
        if scale:
            scale *= fe

        def value_at(nf, cur=cur, lo=lo, scale=scale):
            idx = tuple(a - b for a, b in zip(nf, lo))
            if not all(0 <= i < n for i, n in zip(idx, cur.shape)):
                return 0.0
            return int(cur[idx]) / scale if scale else float(cur[idx])

        yield k, value_at


def check_support_cap(f, K, engine, max_support) -> None:
    """Raise the direct walk's support-cap error before the walk, where that is exact.

    On the Heisenberg box, while f_e^k < 2^63, a well-balanced f makes every
    cell an exact positive walk count, so the support is the set of words
    reachable in k steps.  This walks that set on a boolean box (+= is OR)
    and raises the ResourceLimitError the int64 walk would raise at its
    first step past max_support.  It returns undecided at the first k with
    f_e^k >= 2^63, at K, or when the engine is not the direct box walk.
    """
    if f.family.kind != "heisenberg" or engine not in ("auto", "direct"):
        return
    fe = f.identity_coefficient
    ident = f.family.identity_normal()
    words = [(nf, True) for nf in f._coeffs if nf != ident]
    cur = np.ones((1, 1, 1), dtype=bool)
    lo = ident
    for k in range(1, K + 1):
        if fe**k >= 1 << 63:
            return
        cur, lo = _box_step(cur, lo, words)
        cur, lo, size = _box_trim(cur, lo)
        _check_support(size, max_support, k)


def _direct_powers(f, K, max_support, max_exact_support):
    """mu^1 .. mu^K for the direct engine: the box on Heisenberg, else dicts."""
    if f.family.kind == "heisenberg":
        return _box_powers(f, K, max_support)
    return _dict_powers(f, K, max_support, max_exact_support)


def _direct_pass(f, K, ball, max_support, max_exact_support):
    ident = f.family.identity_normal()
    series = np.zeros(K + 1)
    series[0] = 1.0
    sums = {nf: float(nf == ident) for nf in ball}  # mu^0 is the point mass at e
    for k, value_at in _direct_powers(f, K, max_support, max_exact_support):
        series[k] = value_at(ident)
        for nf in sums:
            v = value_at(nf)
            if v:
                sums[nf] += v
    return series, sums, None


DEFAULT_MAX_GRID_FLOPS = 1 << 30


def _pick_grid_size(target: int, d: int, max_cells: int, iterations: int = 1) -> int:
    """Grid edge length: the no-wrap target, capped by cell and work budgets.

    Below the no-wrap target the values for large k acquire a positive
    wrap-around bias of order exp(-m^2 / k), which is far below float
    precision whenever m^2 is a few dozen times the iteration count; the
    work cap keeps long series from choosing grids whose exactness would
    cost minutes while adding nothing at double precision.
    """
    cap = int(max_cells ** (1.0 / d))
    while (cap + 1) ** d <= max_cells:
        cap += 1
    if iterations > 0:
        work = int((DEFAULT_MAX_GRID_FLOPS / iterations) ** (1.0 / d))
        cap = min(cap, max(work, 64))
    return max(16, min(target, cap))


def torus_symbol(terms, shape) -> np.ndarray:
    """sum of w cos<theta, s> over the (s, w) terms at theta = 2 pi j / shape, j in the grid."""
    thetas = [2.0 * np.pi * np.arange(m) / m for m in shape]
    grids = np.meshgrid(*thetas, indexing="ij", sparse=True)
    lam = np.zeros(shape)
    for s, w in terms:
        phase = np.zeros(shape)
        for s_i, grid in zip(s, grids):
            if s_i:
                phase = phase + s_i * grid
        lam += w * np.cos(phase)
    return lam


def _grid_reach(f) -> int:
    ident = f.family.identity_normal()
    return max(
        (max(abs(x) for x in nf) for nf in f._coeffs if nf != ident), default=1
    )


def _grid_pass(f, K, ball, radius, max_cells):
    fam = f.family
    if fam.kind != "free-abelian":
        raise UnsupportedFamilyError("grid engine needs a free-abelian family")
    d = fam.rank
    m = _pick_grid_size(K * _grid_reach(f) + radius + 1, d, max_cells, iterations=K)
    if m**d > max_cells:
        raise ResourceLimitError(f"grid {m}^{d} exceeds cell cap {max_cells}")
    lam = torus_symbol(_mu_float(f).items(), (m,) * d)
    series = np.zeros(K + 1)
    series[0] = 1.0
    p = np.ones_like(lam)
    S = np.ones_like(lam) if ball else None
    for k in range(1, K + 1):
        p = p * lam
        series[k] = float(p.mean())
        if ball:
            S += p
    np.maximum(series, 0.0, out=series)  # guard float rounding of exact zeros
    sums = {}
    if ball:
        table = np.fft.ifftn(S).real
        sums = {nf: float(table[tuple(int(x) % m for x in nf)]) for nf in ball}
    return series, sums, m


def _tree_first_passage(f, K):
    """First-passage arrays F[t][m] = P(first visit of neighbor t at step m)."""
    fam = f.family
    if fam.kind != "free":
        raise UnsupportedFamilyError("tree engine needs a free family")
    mu = _mu_float(f)
    letters = list(fam.letters)
    if set(mu) - {fam._letter_normal(l) for l in letters}:
        raise UnsupportedFamilyError("tree engine needs nearest-neighbor support")
    w = {l: mu.get(fam._letter_normal(l), 0.0) for l in letters}
    F = {l: np.zeros(K + 1) for l in letters}
    for l in letters:
        if K >= 1:
            F[l][1] = w[l]
    for m in range(2, K + 1):
        for t in letters:
            s = 0.0
            for u in letters:
                if u == -t:
                    continue
                if w[u]:
                    # (F_u * F_t)[m-1], both factors vanish at index 0
                    s += w[u] * float(np.dot(F[u][1 : m - 1], F[t][m - 2 : 0 : -1]))
            F[t][m] = s
    return F, w


def _tree_returns(f, K):
    """First-passage table F and the return series up to K, by renewal."""
    if K > DEFAULT_MAX_TREE_ORDER:
        raise ResourceLimitError(f"tree engine order {K} exceeds cap {DEFAULT_MAX_TREE_ORDER}")
    F, w = _tree_first_passage(f, K)
    r = np.zeros(K + 1)
    for u in f.family.letters:
        if w[u]:
            r[1:] += w[u] * F[-u][: K]
    out = np.zeros(K + 1)
    out[0] = 1.0
    for k in range(1, K + 1):
        out[k] = float(np.dot(r[1 : k + 1], out[k - 1 :: -1]))
    return F, out


def _tree_pass(f, K, ball):
    F, series = _tree_returns(f, K)
    # first-passage distribution to each ball word, then renewal at it; the
    # ball runs in breadth-first order, so a word's parent comes first
    ident = f.family.identity_normal()
    sums = {}
    passage = {ident: None}  # None encodes the delta at step 0
    for nf in ball:
        if nf == ident:
            sums[nf] = float(np.sum(series))
            continue
        parent, last = nf[:-1], nf[-1]
        pp = passage[parent]
        fp = F[last][: K + 1] if pp is None else np.convolve(pp, F[last])[: K + 1]
        passage[nf] = fp
        sums[nf] = float(np.sum(np.convolve(fp, series)[: K + 1]))
    return series, sums, None


def _walk_pass(f, K, engine, radius, max_support, max_exact_support, max_grid_cells):
    """One walk of one engine: (engine, series, sums, grid size).

    series[k] = (mu^k)_e for k = 0..K.  With a radius, sums maps each word of
    that ball (support metric) to sum_{k=0}^{K} (mu^k) at it; with radius
    None it is empty.  The grid size is m on the grid engine, else None.
    """
    if engine == "auto":
        engine = _auto_engine(f)
    ball = ()
    if radius is not None:
        ball = [w.normal for w in word_ball(f.family, radius, generators=support_words(f))]
    if engine == "direct":
        return engine, *_direct_pass(f, K, ball, max_support, max_exact_support)
    if engine == "grid":
        return engine, *_grid_pass(f, K, ball, radius or 0, max_grid_cells)
    if engine == "tree":
        return engine, *_tree_pass(f, K, ball)
    raise ValueError(f"unknown engine {engine!r}")


def return_series(
    f: GroupRingElement,
    K: int,
    engine: str = "auto",
    max_support: int = DEFAULT_MAX_SUPPORT,
    max_grid_cells: int = DEFAULT_MAX_GRID_CELLS,
) -> ReturnSeries:
    """Float return-probability series (mu^k)_e for k = 0..K."""
    if K < 0:
        raise ValueError("K must be >= 0")
    require_well_balanced(f)
    engine, values, _, m = _walk_pass(
        f, K, engine, None, max_support, DEFAULT_MAX_EXACT_SUPPORT, max_grid_cells
    )
    alias_free, notes = K, ()
    if m is not None:
        alias_free = (m - 1) // _grid_reach(f)
        if alias_free < K:
            notes = (
                f"grid size {m} wraps for k > {alias_free}; affected values are "
                "upper bounds with exponentially small excess",
            )
    return ReturnSeries(values, engine, min(K, alias_free), notes)


# ----- tree entropy ---------------------------------------------------------


@dataclass(frozen=True)
class TreeEntropyResult:
    """Partial sum of the tree-entropy series with an advisory tail estimate.

    value = log f_e - sum_{k=1}^{K} (mu^k)_e / k.  The terms are nonnegative,
    so successive partial sums are non-increasing and bound the limit from
    above.  tail_estimate extrapolates the remaining mass (geometric fit on
    the last even terms, polynomial fallback); it is reported, never added.
    """

    value: float
    K: int
    terms: np.ndarray
    engine: str
    tail_estimate: float
    log_fe: float
    notes: tuple = ()

    @property
    def partials(self) -> np.ndarray:
        return self.log_fe - np.cumsum(self.terms)


def _last_even_terms(values: np.ndarray, K: int):
    """(k2, values[k2 - 2], values[k2]) for the largest even k2 <= K; None for K < 6.

    Both tail estimates fit a geometric ratio to these two terms.
    """
    if K < 6:
        return None
    k2 = K - (K % 2)
    return k2, values[k2 - 2], values[k2]


def _tail_estimate(values: np.ndarray, K: int) -> float:
    # geometric fit on the last two even-index terms of the return series
    terms = _last_even_terms(values, K)
    if terms is None:
        return math.inf
    k2, a, b = terms
    if a <= 0 or b <= 0:
        return 0.0
    q = b / a
    if q < 0.999:
        # sum_{j>=1} b q^j / (k2 + 2j) <= (b/k2) q/(1-q)
        return (b / k2) * q / (1.0 - q)
    # near-critical ratio: assume polynomial decay k^{-p}, so the remaining
    # sum of k^{-1-p} terms is about R_K / p
    p = -math.log(q) / (math.log(k2) - math.log(k2 - 2)) if q < 1 else 1.0
    p = max(p, 0.5)
    return b / p


def tree_entropy(f: GroupRingElement, K: int, engine: str = "auto", **caps) -> TreeEntropyResult:
    """K-th partial sum of log f_e - sum_k (mu^k)_e / k."""
    series = return_series(f, K, engine=engine, **caps)
    fe = f.identity_coefficient
    terms = np.zeros(K + 1)
    if K >= 1:
        ks = np.arange(1, K + 1, dtype=float)
        terms[1:] = series.values[1:] / ks
    log_fe = math.log(fe)
    value = log_fe - math.fsum(terms[1:])
    return TreeEntropyResult(
        value=value,
        K=K,
        terms=terms,
        engine=series.engine,
        tail_estimate=_tail_estimate(series.values, K),
        log_fe=log_fe,
        notes=series.notes,
    )


# ----- truncated Green's function -------------------------------------------


def require_transient(family: GroupFamily) -> None:
    """Raise UnsupportedFamilyError when the family's walks are recurrent."""
    if not family.is_transient():
        raise UnsupportedFamilyError(
            f"{family.kind}({family.rank}) walks are recurrent: the Green series "
            "diverges and no homoclinic point is defined there"
        )


@dataclass(frozen=True)
class GreenTruncation:
    """Window values of f_e^{-1} sum_{k=0}^{K} mu^k.

    values maps normal forms inside the requested ball (word metric of the
    support of f) to floats.  tail_estimate bounds the truncation error at
    the identity heuristically; warnings record recurrence or wrap notes.
    """

    family: GroupFamily
    source: GroupRingElement
    K: int
    radius: int
    values: dict
    engine: str
    tail_estimate: float
    warnings: tuple = ()

    @property
    def at_identity(self) -> float:
        return self.values[self.family.identity_normal()]


def green_truncation(
    f: GroupRingElement,
    K: int,
    radius: int,
    engine: str = "auto",
    max_support: int = DEFAULT_MAX_SUPPORT,
    max_grid_cells: int = DEFAULT_MAX_GRID_CELLS,
) -> GreenTruncation:
    """Truncated Green's function on the radius ball of the support metric."""
    if K < 0 or radius < 0:
        raise ValueError("K and radius must be >= 0")
    require_well_balanced(f)
    fam = f.family
    warn: list = []
    if not fam.is_transient():
        msg = (
            f"{fam.kind}({fam.rank}) walks are recurrent: the Green series "
            "diverges and partial sums grow without bound"
        )
        warn.append(msg)
        _warnings.warn(msg, stacklevel=2)
    # Green sums floats: dictionary walks leave exact counts after step 1
    engine, series, sums, m = _walk_pass(f, K, engine, radius, max_support, 0, max_grid_cells)
    if m is not None and K * _grid_reach(f) + radius >= m:
        warn.append(f"grid size {m} wraps at order {K}; values are upper bounds")
    fe = f.identity_coefficient
    # advisory tail estimate: geometric fit of the identity return terms
    tail = math.inf
    terms = _last_even_terms(series, K)
    if terms is not None:
        _, a, b = terms
        if b <= 0:
            tail = 0.0
        elif b < a:
            q = b / a
            tail = (b / fe) * q / (1.0 - q)
    return GreenTruncation(
        family=fam,
        source=f,
        K=K,
        radius=radius,
        values={nf: v / fe for nf, v in sums.items()},
        engine=engine,
        tail_estimate=tail,
        warnings=tuple(warn),
    )


def _times_f_at(values: dict, f: GroupRingElement, t):
    """(values * f) at t: sum_u values[t u^{-1}] f_u, or None if a term leaves values."""
    fam = f.family
    total = 0.0
    for nf_u, cu in f._coeffs.items():
        v = values.get(fam.multiply_normals(t, fam.invert_normal(nf_u)))
        if v is None:
            return None
        total += v * cu
    return total


def formal_inverse_residual(green: GreenTruncation, radius: int) -> float:
    """Max over the radius ball of |(omega_K * f) - delta_e|.

    Needs omega on the (radius + 1)-ball; raises WindowError otherwise.
    The value is non-increasing in K for transient walks and tends to 0.
    """
    f = green.source
    fam = green.family
    ball = word_ball(fam, radius, generators=support_words(f))
    worst = 0.0
    ident = fam.identity_normal()
    for w in ball:
        total = _times_f_at(green.values, f, w.normal)
        if total is None:
            raise WindowError(
                f"residual at radius {radius} needs the Green ball of radius {radius + 1}"
            )
        target = 1.0 if w.normal == ident else 0.0
        worst = max(worst, abs(total - target))
    return worst


# ----- homoclinic points ----------------------------------------------------


@dataclass(frozen=True)
class HomoclinicResult:
    """A candidate homoclinic point x = (h * omega) mod 1 on a window.

    values maps normal forms to floats in [0, 1).  residual_max is the
    largest distance of (x' * f) from the integers over interior window
    points, where x' is the [-1/2, 1/2) lift of x; it should shrink as the
    Green truncation order grows.
    """

    family: GroupFamily
    values: dict
    residual_max: float
    residuals: dict
    K: int
    notes: tuple = ()


def homoclinic_point(
    h: GroupRingElement, green: GreenTruncation, window_radius: int
) -> HomoclinicResult:
    """Evaluate x = (h * omega) mod 1 and report how harmonic it is.

    The window is the word ball of window_radius (support metric of the
    Green source f); every shifted lookup s^{-1} w must stay inside the
    Green ball, or WindowError is raised.  A family whose walk is recurrent
    raises UnsupportedFamilyError.
    """
    fam = green.family
    f = green.source
    if h.family != fam:
        raise FamilyMismatchError("h and the Green truncation use different families")
    require_transient(fam)
    values = {}
    for w in word_ball(fam, window_radius, generators=support_words(f)):
        total = 0.0
        for nf_s, cs in h._coeffs.items():
            v = green.values.get(fam.multiply_normals(fam.invert_normal(nf_s), w.normal))
            if v is None:
                raise WindowError(
                    f"window radius {window_radius} plus the support of h exceeds the Green ball"
                )
            total += cs * v
        values[w.normal] = total % 1.0
    lift = {nf: ((x + 0.5) % 1.0) - 0.5 for nf, x in values.items()}
    residuals = {}
    for nf_t in values:
        total = _times_f_at(lift, f, nf_t)
        if total is not None:
            residuals[nf_t] = abs(total - round(total))
    residual_max = max(residuals.values()) if residuals else math.nan
    notes = () if residuals else ("window has no interior points; residual undefined",)
    return HomoclinicResult(
        family=fam,
        values=values,
        residual_max=residual_max,
        residuals=residuals,
        K=green.K,
        notes=notes + green.warnings,
    )


# ----- spectral-radius probe ------------------------------------------------


@dataclass(frozen=True)
class SpectralRadiusProbe:
    """Estimates of the walk-operator norm from even return probabilities.

    root_estimates[j] = ((mu^{2k_j})_e)^{1/(2k_j)} for k_values[j] = k_j.
    These converge from below but slowly (polynomial prefactors enter at
    rate log k / k).  ratio_estimates are sqrt of consecutive even-return
    ratios, and extrapolated_estimates apply one Richardson step to those;
    estimate is the headline value (median of the last extrapolated values,
    clipped to 1 since the norm of a probability never exceeds 1).
    """

    k_values: tuple
    root_estimates: tuple
    ratio_estimates: tuple
    extrapolated_estimates: tuple
    estimate: float
    amenable_like: bool
    tol: float
    engine: str


def spectral_radius_probe(
    f: GroupRingElement, k_max: int, engine: str = "auto", tol: float = 0.05, **caps
) -> SpectralRadiusProbe:
    """Probe the spectral radius of mu through (mu^{2k})_e for 2k <= k_max."""
    if k_max < 2 or k_max % 2:
        raise ValueError("k_max must be an even integer >= 2")
    series = return_series(f, k_max, engine=engine, **caps)
    ks, roots, ratios = [], [], []
    prev = None
    for k in range(2, k_max + 1, 2):
        v = float(series.values[k])
        if v <= 0.0:
            prev = None
            continue
        ks.append(k)
        roots.append(v ** (1.0 / k))
        if prev is not None and prev > 0:
            ratios.append(math.sqrt(v / prev))
        else:
            ratios.append(math.nan)
        prev = v
    extrap = [math.nan] * len(ratios)
    for j in range(1, len(ratios)):
        a, b = ratios[j - 1], ratios[j]
        ma, mb = ks[j - 1] // 2, ks[j] // 2
        if not (math.isnan(a) or math.isnan(b)) and mb > ma:
            # one Richardson step for sequences r_m = rho (1 - c/m + O(1/m^2))
            extrap[j] = (mb * b - ma * a) / (mb - ma)
    finite = [x for x in extrap if not math.isnan(x)]
    if finite:
        headline = float(np.median(finite[-3:]))
    else:
        good_ratios = [x for x in ratios if not math.isnan(x)]
        headline = good_ratios[-1] if good_ratios else (roots[-1] if roots else math.nan)
    estimate = min(1.0, headline)
    return SpectralRadiusProbe(
        k_values=tuple(ks),
        root_estimates=tuple(roots),
        ratio_estimates=tuple(ratios),
        extrapolated_estimates=tuple(extrap),
        estimate=estimate,
        amenable_like=bool(estimate > 1.0 - tol),
        tol=tol,
        engine=series.engine,
    )
