"""Self-similar iterated function systems and their cylinder structure.

An IFS here is a finite family of contracting similarities

    f_i(x) = r_i * O_i x + t_i,      0 < r_i < 1,  O_i orthogonal,

together with probability weights p_i.  The attractor K and the invariant
measure mu (mu = sum_i p_i f_i(mu)) are never constructed explicitly; all
geometry is routed through a certified support ball: the closed ball
centred at the barycenter b of mu with radius

    R = max_i |f_i(b) - b| / (1 - r_i),

which is invariant under every f_i and therefore contains K.

The central combinatorial object is the stopping decomposition at scale
delta: the antichain of composition words w whose accumulated ratio first
drops to <= delta.  Its cylinders cover supp(mu), carry weights summing
to one, and have ratios in [rho_min * delta, delta].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import BadConfig, InvalidIFS, ResourceExceeded, Unsupported

ORTHOGONALITY_TOL = 1e-9     # max-entry deviation of O^T O from identity
DEDUP_TOL = 1e-8             # orientation-product dedup tolerance
WEIGHT_SUM_TOL = 1e-12
FIXED_POINT_TOL = 1e-12      # below this, fixed points count as shared
DEFAULT_LEAF_BUDGET = 10_000_000
FRONTIER_BLOCK = 4096       # rows per block of a columnar frontier expansion
PAIR_BLOCK = 2**20          # point pairs per block of a pairwise-distance scan
CHAOS_CHAINS = 1024         # parallel chains of a chaos-game sample
CHAOS_BURN_IN = 64          # steps each chain runs before its points are kept

SEPARATION_KINDS = ("SSC", "OSC", "ESC", "none")


def _as_matrix(value, k: int) -> np.ndarray:
    mat = np.asarray(value, dtype=float)
    if mat.shape == (k * k,):
        mat = mat.reshape(k, k)
    if mat.shape != (k, k):
        raise InvalidIFS(f"orientation must be {k}x{k}, got shape {mat.shape}")
    return mat


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SimilarityMap:
    """One contracting similarity x -> ratio * orientation @ x + translation."""

    ratio: float
    orientation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        translation = np.atleast_1d(np.asarray(self.translation, dtype=float))
        k = translation.shape[0]
        orientation = _as_matrix(self.orientation, k)
        if not (0.0 < self.ratio < 1.0):
            raise InvalidIFS(f"ratio must lie in (0, 1), got {self.ratio}")
        defect = np.max(np.abs(orientation.T @ orientation - np.eye(k)))
        if defect > ORTHOGONALITY_TOL:
            raise InvalidIFS(
                f"orientation is not orthogonal (defect {defect:.3e} > {ORTHOGONALITY_TOL})"
            )
        object.__setattr__(self, "ratio", float(self.ratio))
        object.__setattr__(self, "orientation", _readonly(orientation))
        object.__setattr__(self, "translation", _readonly(translation))

    @property
    def dim(self) -> int:
        return self.translation.shape[0]

    @property
    def linear_part(self) -> np.ndarray:
        return self.ratio * self.orientation

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Apply the map to one point (k,) or a batch (n, k)."""
        pts = np.asarray(points, dtype=float)
        return pts @ (self.ratio * self.orientation.T) + self.translation

    def fixed_point(self) -> np.ndarray:
        """The unique x with f(x) = x, from the linear solve (I - rO) x = t."""
        k = self.dim
        return np.linalg.solve(np.eye(k) - self.linear_part, self.translation)


def fixed_point(m: SimilarityMap) -> np.ndarray:
    """Fixed point of a contracting similarity (residual <= 1e-10)."""
    return m.fixed_point()


@dataclass(frozen=True, eq=False)
class SelfSimilarIFS:
    """A weighted self-similar IFS; immutable and safe to share across threads."""

    maps: tuple
    weights: tuple
    ambient_dim: int = 0

    def __post_init__(self):
        maps = tuple(self.maps)
        if len(maps) < 2:
            raise InvalidIFS("an IFS needs at least two maps")
        k = maps[0].dim
        if any(m.dim != k for m in maps):
            raise InvalidIFS("all maps must share one ambient dimension")
        if self.ambient_dim and self.ambient_dim != k:
            raise InvalidIFS(
                f"ambient_dim={self.ambient_dim} disagrees with maps (k={k})"
            )
        weights = tuple(float(w) for w in self.weights)
        if len(weights) != len(maps):
            raise InvalidIFS("weights and maps must have equal length")
        if any(not (0.0 < w < 1.0) for w in weights):
            raise InvalidIFS("weights must lie strictly in (0, 1)")
        if abs(sum(weights) - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidIFS(
                f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {sum(weights)!r}"
            )
        fps = np.array([m.fixed_point() for m in maps])
        spread = max(
            float(np.linalg.norm(fps[i] - fps[j]))
            for i in range(len(maps))
            for j in range(i + 1, len(maps))
        )
        if spread < FIXED_POINT_TOL:
            raise InvalidIFS(
                "maps share a common fixed point; the invariant measure would be an atom"
            )
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "ambient_dim", k)

    # -- derived geometry ---------------------------------------------------

    @property
    def n_maps(self) -> int:
        return len(self.maps)

    @cached_property
    def ratios(self) -> np.ndarray:
        return _readonly(np.array([m.ratio for m in self.maps]))

    @cached_property
    def weight_array(self) -> np.ndarray:
        return _readonly(np.array(self.weights))

    @cached_property
    def weight_defect(self) -> float:
        """|1 - sum_i p_i| for the float weights, summed exactly and rounded up; 0 when it is 0.

        The measure is that of the normalised weights p_i / sum_j p_j.  A
        word of D letters carries D weights, so a cover or product of depth
        D is off by at most D times this defect per unit weight, to first
        order (the rounding allowances absorb the second).
        """
        defect = abs(1 - sum(map(Fraction, self.weights)))
        return math.nextafter(float(defect), math.inf) if defect else 0.0

    @cached_property
    def min_ratio(self) -> float:
        return float(min(m.ratio for m in self.maps))

    @cached_property
    def barycenter(self) -> np.ndarray:
        """b = int x dmu, from the stationarity equation (I - sum p_i r_i O_i) b = sum p_i t_i."""
        k = self.ambient_dim
        lin = sum(w * m.linear_part for w, m in zip(self.weights, self.maps))
        rhs = sum(w * m.translation for w, m in zip(self.weights, self.maps))
        return _readonly(np.linalg.solve(np.eye(k) - lin, rhs))

    @cached_property
    def support_radius(self) -> float:
        """Radius of the certified support ball around the barycenter.

        The ball B(b, R) with R = max_i |f_i(b)-b|/(1-r_i) satisfies
        f_i(B) subset B for every i, hence contains the attractor.
        """
        b = self.barycenter
        return max(
            float(np.linalg.norm(m(b) - b)) / (1.0 - m.ratio) for m in self.maps
        )

    @cached_property
    def max_point_norm(self) -> float:
        """sup_{x in supp(mu)} |x| <= |b| + R; bounds derivatives of mu-hat."""
        return float(np.linalg.norm(self.barycenter)) + self.support_radius

    @cached_property
    def centred(self) -> "SelfSimilarIFS":
        """The system conjugated by x -> x - b: maps x -> r_i O_i x + (f_i(b) - b).

        Its measure is mu translated by -b, so its transform is the
        centred transform e^{2 pi i <eta, b>} mu_hat(eta), and its
        barycenter is 0 (set exactly, not solved for).  The translations
        are computed as ``support_radius`` computes f_i(b) - b, so the
        support radius is R bit for bit; their rounding is the centring
        allowance of ``fourier._centring_rounding``.  A system whose
        barycenter is exactly 0 is its own centred system.

        The maps are checked as any ``SimilarityMap`` is, but the atom
        check of ``__post_init__`` is not run again: a translation cannot
        create an atom, this system has passed it, and the rounded
        translations can move the fixed points' spread just below
        ``FIXED_POINT_TOL``.
        """
        b = self.barycenter
        if not b.any():
            return self
        maps = tuple(SimilarityMap(m.ratio, m.orientation, m(b) - b) for m in self.maps)
        centred = object.__new__(SelfSimilarIFS)
        vars(centred).update(
            maps=maps, weights=self.weights, ambient_dim=self.ambient_dim,
            barycenter=_readonly(np.zeros(self.ambient_dim)),
        )
        return centred

    @cached_property
    def centring_drift(self) -> float:
        """Delta = max_i |c_i - (f_i(b) - b)| / (1 - rho), rounded up.

        c_i are the translations of ``centred`` as computed, f_i(b) - b is
        exact for the computed barycenter b (every float input taken
        exactly, in rational arithmetic), and rho is the largest ratio.
        The two systems share their linear parts, so the points they code
        by the same letters w_1 w_2 ... lie within
        sum_l rho^(l-1) max_i |c_i - (f_i(b) - b)| = Delta of each other.
        0 when every c_i is exact.
        """
        b = [Fraction(float(x)) for x in self.barycenter]
        worst = Fraction(0)
        for m, c in zip(self.maps, self.centred.maps):
            ratio = Fraction(m.ratio)
            offsets = [
                Fraction(float(c.translation[j]))
                - ratio * sum(Fraction(float(o)) * x for o, x in zip(m.orientation[j], b))
                - Fraction(float(m.translation[j]))
                + b[j]
                for j in range(self.ambient_dim)
            ]
            worst = max(worst, sum(x * x for x in offsets))
        # float(), sqrt, 1 - rho, the division and the product round to nearest
        # once each, within 2.5 EPS relative in all: 4 EPS covers them
        eps = float(np.finfo(float).eps)
        return math.sqrt(float(worst)) / (1.0 - float(self.ratios.max())) * (1.0 + 4.0 * eps)

    @cached_property
    def second_moment(self) -> float:
        """M2 = int |x - b|^2 dmu = sum_i p_i |f_i(b) - b|^2 / (1 - sum_i p_i r_i^2), rounded up.

        M2 <= R^2.  X = f_I(Y) with I ~ p independent of Y ~ mu gives
        X - b = r_I O_I (Y - b) + (f_I(b) - b), whose cross term has mean
        0, hence the formula.  The value returned bounds int |x|^2 dnu for
        the measure nu of ``centred`` as computed, with translations c_i:

        * nu has the mean m = (I - L)^-1 sum_i p_i c_i, L = sum_i p_i r_i O_i,
          |L| <= sum_i p_i r_i, so |m| <= |sum_i p_i c_i| / (1 - sum_i p_i r_i).
        * int |x|^2 dnu = V + |m|^2 with V the formula at nu's own
          barycenter m, whose offsets c_i + (r_i O_i - I) m move by at
          most 2 |m|, so sqrt(V) <= sqrt(F) + 2 |m| / sqrt(1 - sum p r^2),
          F the formula at the c_i.  Hence the square root of the integral
          is below sqrt(F) + |m| (1 + 2 / sqrt(1 - sum p r^2)).

        F and the bound on |m|^2 are exact rationals of the float inputs.
        Each float conversion, square root and later operation rounds to
        nearest once, by at most u = EPS / 2: each square root term is
        within 1.5 u, the factor (1 + 2 / sqrt(.)) within 3.5 u, the sum
        within 7 u and its square within 15 u to first order, which the
        factor 1 + 8 EPS covers.
        """
        p = [Fraction(w) for w in self.weights]
        r = [Fraction(m.ratio) for m in self.maps]
        c = [[Fraction(float(x)) for x in m.translation] for m in self.centred.maps]
        spread = 1 - sum(pi * ri * ri for pi, ri in zip(p, r))
        moment = sum(pi * sum(x * x for x in ci) for pi, ci in zip(p, c)) / spread
        total = [sum(pi * ci[j] for pi, ci in zip(p, c)) for j in range(self.ambient_dim)]
        mean = sum(x * x for x in total) / (1 - sum(pi * ri for pi, ri in zip(p, r))) ** 2
        root = math.sqrt(float(moment)) + math.sqrt(float(mean)) * (
            1.0 + 2.0 / math.sqrt(float(spread))
        )
        return root**2 * (1.0 + 8.0 * float(np.finfo(float).eps))

    @cached_property
    def is_homogeneous(self) -> bool:
        """True iff all linear parts r_i O_i are bitwise equal.

        Exact, not within a tolerance: the product form, the table and
        ``order2`` use map 0's linear part for every map.
        """
        first = self.maps[0].linear_part
        return all(np.array_equal(m.linear_part, first) for m in self.maps[1:])

    def config_key(self) -> tuple:
        """Hashable identity used to recognise repeated factor measures."""
        return tuple(
            (m.ratio, m.orientation.tobytes(), m.translation.tobytes(), w)
            for m, w in zip(self.maps, self.weights)
        )


def is_homogeneous(ifs: SelfSimilarIFS) -> bool:
    return ifs.is_homogeneous


# -- convenience constructors -------------------------------------------------


def ifs_1d(
    ratios: Sequence[float],
    translations: Sequence[float],
    weights: Optional[Sequence[float]] = None,
    signs: Optional[Sequence[int]] = None,
) -> SelfSimilarIFS:
    """Build an IFS on the line from per-map (ratio, translation[, sign])."""
    n = len(ratios)
    if weights is None:
        weights = [1.0 / n] * n
    if signs is None:
        signs = [1] * n
    maps = tuple(
        SimilarityMap(r, np.array([[float(s)]]), np.array([t]))
        for r, t, s in zip(ratios, translations, signs)
    )
    return SelfSimilarIFS(maps, tuple(weights))


def cantor_ifs() -> SelfSimilarIFS:
    """Middle-thirds Cantor system {x/3, x/3 + 2/3} with equal weights."""
    return ifs_1d([1 / 3, 1 / 3], [0.0, 2 / 3])


def uniform_ifs(lo: float = 0.0, hi: float = 1.0) -> SelfSimilarIFS:
    """{x/2 + lo/2, x/2 + hi/2}: generates the uniform measure on [lo, hi]."""
    if not hi > lo:
        raise BadConfig("need hi > lo")
    return ifs_1d([0.5, 0.5], [lo / 2.0, hi / 2.0])


def missing_digit_ifs(base: int, digits: Sequence[int]) -> SelfSimilarIFS:
    """Base-b system keeping the digit set D: maps x -> (x + d)/b, equal weights."""
    if base < 2 or len(digits) < 2:
        raise BadConfig("need base >= 2 and at least two digits")
    return ifs_1d([1.0 / base] * len(digits), [d / base for d in digits])


# -- cylinder words and stopping decompositions -------------------------------


@dataclass(frozen=True, eq=False)
class CylinderWord:
    """A finite composition word with its accumulated similarity data.

    ``anchor`` is the image of the support barycenter under the word; it is
    the representative point used by all quadrature schemes.
    """

    letters: tuple
    ratio: float
    orientation: np.ndarray
    translation: np.ndarray
    weight: float
    anchor: np.ndarray

    @property
    def depth(self) -> int:
        return len(self.letters)


@dataclass(frozen=True, eq=False)
class StoppingDecomposition:
    """Cylinder cover of supp(mu) by first-passage words at a given scale.

    Columnar: row j is the word ``letters[j, :depths[j]]`` (``letters`` is
    zero-padded to the largest depth) with its ``ratios[j]``,
    ``orientations[j]`` (k, k), ``translations[j]`` (k,), ``weights[j]``
    and ``anchors[j]`` (k,), the image of the barycenter.  Rows are in
    lexicographic word order and every array is read-only.  ``words``
    builds the equivalent ``CylinderWord`` objects on first use.
    """

    scale: float
    ratio_floor: float
    ratios: np.ndarray
    orientations: np.ndarray
    translations: np.ndarray
    weights: np.ndarray
    anchors: np.ndarray
    letters: np.ndarray
    depths: np.ndarray

    def __post_init__(self):
        for arr in self._columns():
            arr.setflags(write=False)

    def _columns(self) -> tuple:
        return (
            self.ratios,
            self.orientations,
            self.translations,
            self.weights,
            self.anchors,
            self.letters,
            self.depths,
        )

    @property
    def nbytes(self) -> int:
        return sum(arr.nbytes for arr in self._columns())

    @cached_property
    def words(self) -> tuple:
        letters, depths = self.letters.tolist(), self.depths.tolist()
        return tuple(
            CylinderWord(
                letters=tuple(letters[j][: depths[j]]),
                ratio=float(self.ratios[j]),
                orientation=self.orientations[j],
                translation=self.translations[j],
                weight=float(self.weights[j]),
                anchor=self.anchors[j],
            )
            for j in range(len(depths))
        )

    def __len__(self) -> int:
        return len(self.depths)


def _expand_blocked(root: tuple, split):
    """Drive a columnar frontier expansion in blocks of <= FRONTIER_BLOCK rows.

    ``root`` is a tuple of column arrays sharing their first axis.
    ``split(block)`` returns (leaves, children): the leaf rows of one
    block and the children of its other rows, each a tuple of the same
    columns or None.  Yields each block's leaves.  Children are expanded
    breadth-first within a block, while blocks are popped depth-first
    from a stack, so the stack holds O(n_maps * depth) blocks and memory
    stays bounded however many leaves the expansion visits.  Small blocks
    on top of the stack are merged up to the block size.  Blocks are
    popped in the order of their rows' root ancestors, so a column that
    children copy from their parent and that is sorted at the root stays
    sorted within every block.
    """
    stack = []

    def push(columns):
        # last chunk first, so the first chunk is popped next
        for start in reversed(range(0, len(columns[0]), FRONTIER_BLOCK)):
            stack.append(tuple(c[start : start + FRONTIER_BLOCK] for c in columns))

    push(root)
    while stack:
        parts = [stack.pop()]
        size = len(parts[0][0])
        while stack and size + len(stack[-1][0]) <= FRONTIER_BLOCK:
            parts.append(stack.pop())
            size += len(parts[-1][0])
        block = parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))
        leaves, children = split(block)
        if children is not None:
            push(children)
        if leaves is not None:
            yield leaves


def _root_columns(k: int) -> tuple:
    """Columns (ratio, orientation, translation, weight) of the empty word."""
    return np.ones(1), np.eye(k)[None], np.zeros((1, k)), np.ones(1)


def _child_columns(ifs: SelfSimilarIFS, ratio, orient, trans, weight) -> tuple:
    """Columns of the children w0, w1, ... of every row w, parent-major.

    Child wi has ratio r_w r_i, orientation O_w O_i, translation
    t_w + r_w O_w t_i and weight p_w p_i.
    """
    n, k = trans.shape
    n_maps = ifs.n_maps
    map_orients = np.array([m.orientation for m in ifs.maps])       # (N, k, k)
    map_trans = np.array([m.translation for m in ifs.maps]).T       # (k, N)
    if k == 1:
        # one-term products, the floats of the matmuls below without
        # their per-matrix overhead
        child_orients = np.einsum("nij,mjl->nmil", orient, map_orients)
        rotated = np.einsum("nij,jm->nmi", orient, map_trans)
    else:
        child_orients = orient[:, None] @ map_orients
        rotated = np.swapaxes(orient @ map_trans, 1, 2)
    child_trans = trans[:, None, :] + ratio[:, None, None] * rotated
    return (
        (ratio[:, None] * ifs.ratios).ravel(),
        child_orients.reshape(n * n_maps, k, k),
        child_trans.reshape(n * n_maps, k),
        (weight[:, None] * ifs.weight_array).ravel(),
    )


def _count_stopping(ifs: SelfSimilarIFS, scale: float):
    """Exact size of the stopping cover at ``scale``, without building it.

    Returns (n_leaves, snapped_scale, depth).  The tree is expanded as a
    map from accumulated float ratio to multiplicity, multiplying
    rho * r_i as the enumerator does, so words sharing a float ratio have
    identical subtrees and merging them keeps the count exact.
    ``snapped_scale`` is the largest leaf ratio: every interior word has
    ratio > scale >= snapped_scale, so the cover at snapped_scale is the
    cover at scale.  ``depth`` is the last level that holds a leaf, the
    depth of the deepest word: rounding is monotone, so at every level
    the word that repeats the largest ratio has the largest float ratio,
    and it is the last to stop.
    """
    if not scale > 0.0:     # NaN included: no word would ever stop
        raise BadConfig(f"stopping scale must be positive, got {scale}")
    level, n_leaves, snapped, depth = {1.0: 1}, 0, 0.0, -1
    while level:
        depth += 1
        children = {}
        for rho, mult in level.items():
            if rho <= scale:
                n_leaves += mult
                snapped = max(snapped, rho)
            else:
                for r in ifs.ratios.tolist():
                    children[rho * r] = children.get(rho * r, 0) + mult
        level = children
    return n_leaves, snapped, depth


def _checked_count(ifs: SelfSimilarIFS, scale: float, budget: int):
    """``_count_stopping``, raising ResourceExceeded past ``budget`` leaves."""
    n_leaves, snapped, depth = _count_stopping(ifs, scale)
    if n_leaves > budget:
        raise ResourceExceeded(
            f"stopping cover at scale {scale:.6g} needs {n_leaves} leaves > budget {budget}",
            "leaf_budget",
        )
    return n_leaves, snapped, depth


def _cover_blocks(ifs: SelfSimilarIFS, scale: float, depth: Optional[int] = None):
    """The stopping cover at ``scale`` as leaf blocks, in expansion order.

    Yields (ratios, orientations, translations, weights, anchors) for
    blocks of at most ``FRONTIER_BLOCK`` leaves, the anchors being the
    images of the barycenter; given the cover's ``depth`` from the count
    (``_count_stopping``), every block also carries its words as letters
    zero-padded to that width, and their depths.  Children follow
    ``_child_columns``.  Only the ``_expand_blocked`` stack and one block
    are held at a time, so a quadrature can sum a cover far larger than
    it could hold.  For 1 <= scale the cover is the root.  Callers check
    the exact cover size against their budget first (``_checked_count``).
    """
    n_maps = ifs.n_maps
    root = _root_columns(ifs.ambient_dim)
    if depth is not None:
        letter_ids = np.arange(n_maps, dtype=np.min_scalar_type(n_maps))
        root += (np.zeros((1, depth), dtype=letter_ids.dtype), np.zeros(1, dtype=np.int64))

    def split(block):
        leaf = block[0] <= scale
        if leaf.all():
            return block, None
        leaves = None
        if leaf.any():
            # integer indices: a boolean mask is re-scanned for every column
            at_leaf, interior = np.flatnonzero(leaf), np.flatnonzero(~leaf)
            leaves = tuple(col[at_leaf] for col in block)
            block = tuple(col[interior] for col in block)
        ratio, orient, trans, weight, *word = block
        children = _child_columns(ifs, ratio, orient, trans, weight)
        if word:
            prefix, depths = word
            n = len(depths)
            child_letters = np.repeat(prefix, n_maps, axis=0)
            child_letters[np.arange(n * n_maps), np.repeat(depths, n_maps)] = np.tile(letter_ids, n)
            children += (child_letters, np.repeat(depths + 1, n_maps))
        return leaves, children

    b = ifs.barycenter
    for ratios, orients, trans, weights, *word in _expand_blocked(root, split):
        yield (ratios, orients, trans, weights, ratios[:, None] * (orients @ b) + trans, *word)


def stopping_decomposition(
    ifs: SelfSimilarIFS,
    scale: float,
    budget: int = DEFAULT_LEAF_BUDGET,
) -> StoppingDecomposition:
    """First-passage cylinder cover at the given scale.

    Every returned word has ratio <= scale while its parent prefix has
    ratio > scale; ratios therefore lie in [min_ratio * scale, scale] and
    weights sum to one.  Words come in lexicographic order: the lettered
    ``_cover_blocks``, concatenated and sorted.  The exact word count and
    the depth, which sizes the letters, are computed before any
    expansion: a cover of more than ``budget`` words raises
    ResourceExceeded("leaf_budget") naming it.
    """
    if not (0.0 < scale < 1.0):
        raise BadConfig(f"scale must lie in (0, 1), got {scale}")
    depth = _checked_count(ifs, scale, budget)[2]
    columns = tuple(np.concatenate(cols) for cols in zip(*_cover_blocks(ifs, scale, depth)))
    # Sorted by the letters (column 5).  Antichain words are never prefixes
    # of each other, so the zero padding past a word's depth never decides.
    order = np.lexsort(columns[5].T[::-1])
    return StoppingDecomposition(scale, ifs.min_ratio * scale, *(col[order] for col in columns))


def chaos_game(
    ifs: SelfSimilarIFS,
    n_points: int,
    seed: int = 0,
) -> np.ndarray:
    """Deterministic chaos-game sample of supp(mu), shape (n_points, k).

    Runs a fixed number of parallel chains so the output depends only on
    the seed, never on thread count or chunking.  Each step is one
    product of the chains with every map's r_i O_i^T side by side, from
    which each chain takes its drawn map's block and adds t_i: the bits
    of applying each map to its own chains.  The steps after the
    burn-in fill one array, step-major.
    """
    if n_points <= 0:
        raise BadConfig("n_points must be positive")
    rng = np.random.default_rng(seed)
    chains = min(CHAOS_CHAINS, n_points)
    steps = CHAOS_BURN_IN + -(-n_points // chains)  # ceil division
    x = np.tile(ifs.barycenter, (chains, 1))
    letters = rng.choice(ifs.n_maps, size=(steps, chains), p=ifs.weight_array)
    k, chain = ifs.ambient_dim, np.arange(chains)
    lin = np.concatenate([m.ratio * m.orientation.T for m in ifs.maps], axis=1)    # (k, N k)
    trans = np.array([m.translation for m in ifs.maps])
    pts = np.empty((steps - CHAOS_BURN_IN, chains, k))
    for s, row in enumerate(letters):
        x = (x @ lin).reshape(chains, -1, k)[chain, row] + trans[row]
        if s >= CHAOS_BURN_IN:
            pts[s - CHAOS_BURN_IN] = x
    return pts.reshape(-1, k)[:n_points]


# -- structural diagnostics ----------------------------------------------------


class GrowthVerdict(str, Enum):
    NON_EXPANDING = "NonExpanding"
    EXPANDING = "Expanding"
    INCONCLUSIVE = "Inconclusive"


def _dedup_key(m: np.ndarray) -> tuple:
    """A matrix's entries rounded to the ``DEDUP_TOL`` grid: the key under which matrices are one."""
    return tuple(np.round(m.flatten() / DEDUP_TOL).astype(np.int64).tolist())


def _dedup_count(mats: Iterable[np.ndarray]):
    """Deduplicate matrices by their ``_dedup_key``."""
    seen = {}
    for m in mats:
        key = _dedup_key(m)
        if key not in seen:
            seen[key] = m
    return seen


def non_expanding_heuristic(
    ifs: SelfSimilarIFS, depth: int = 12, cap: int = 10_000
) -> GrowthVerdict:
    """Finite-horizon growth test for the orientation semigroup.

    NonExpanding is certain for k <= 2, for commuting orientation parts and
    for semigroups that close up within the horizon.  Expanding is reported
    when the distinct-product counts keep growing geometrically up to the
    horizon (or past the ``cap`` enumeration budget).  Everything else is
    Inconclusive; this is a diagnostic, not a classification of the true
    semigroup.
    """
    if depth < 1:
        raise BadConfig("depth must be >= 1")
    if ifs.ambient_dim <= 2:
        return GrowthVerdict.NON_EXPANDING
    gens = [m.orientation for m in ifs.maps]
    commuting = all(
        np.max(np.abs(a @ b - b @ a)) <= 1e-10 for a in gens for b in gens
    )
    if commuting:
        return GrowthVerdict.NON_EXPANDING
    current = _dedup_count(gens)
    counts = [len(current)]
    total = dict(current)
    for _ in range(1, depth):
        nxt = {}
        for m in current.values():
            for g in gens:
                prod = m @ g
                key = _dedup_key(prod)
                if key not in total and key not in nxt:
                    nxt[key] = prod
        if not nxt:
            return GrowthVerdict.NON_EXPANDING  # semigroup closed up
        total.update(nxt)
        counts.append(len(nxt))
        current = nxt
        if len(total) > cap:
            break
    # Sustained geometric growth of the per-length counts signals expansion.
    tail = counts[-3:]
    geometric = len(tail) == 3 and all(
        b >= 1.5 * a for a, b in zip(tail, tail[1:])
    )
    if geometric and len(total) >= 64:
        return GrowthVerdict.EXPANDING
    return GrowthVerdict.INCONCLUSIVE


@dataclass(frozen=True)
class SeparationDiagnostic:
    """Finite-depth separation evidence; never a proof about the true IFS."""

    ssc_ok: bool
    overlaps_detected: bool
    esc_distance: float
    depth: int
    note: str = "finite-depth diagnostic only"


def _distance_blocks(points: np.ndarray):
    """Row blocks of the pairwise distance matrix of ``points`` (n, k).

    Yields (start, dist), dist[a, j] = |points[start + a] - points[j]| for
    at most max(1, PAIR_BLOCK // n) rows against all n points, with the
    distance of a point to itself set to inf: O(max(PAIR_BLOCK, n) k)
    memory instead of n^2 k.
    """
    n = len(points)
    size = max(1, PAIR_BLOCK // n)
    for start in range(0, n, size):
        block = points[start : start + size]
        dist = np.linalg.norm(block[:, None, :] - points[None, :, :], axis=-1)
        own = np.arange(len(block))
        dist[own, start + own] = np.inf
        yield start, dist


def _max_penetration(centers: np.ndarray, radii: np.ndarray) -> float:
    """max over i != j of r_i + r_j - |c_i - c_j|; -inf for fewer than two balls.

    On the line, with the centres sorted, |c_i - c_j| = c_j - c_i for
    i < j, so the maximum is max_j (max_{i<j} (c_i + r_i) - (c_j - r_j)):
    a sort and a prefix maximum.  Otherwise the distance matrix is scanned
    in row blocks (``_distance_blocks``).
    """
    if len(centers) < 2:
        return -math.inf
    if centers.shape[1] == 1:
        order = np.argsort(centers[:, 0])
        c, r = centers[order, 0], radii[order]
        reach = np.maximum.accumulate(c + r)[:-1]
        return float(np.max(reach - (c[1:] - r[1:])))
    return max(
        float(((radii[start : start + len(dist), None] + radii) - dist).max())
        for start, dist in _distance_blocks(centers)
    )


def _min_equal_ratio_gap(ratios: np.ndarray, trans: np.ndarray) -> float:
    """min |t_v - t_w| over distinct words v, w of equal ratio; inf if none.

    Ratios are grouped by their quantised log.  On the line each group is
    sorted and its neighbours compared; otherwise each group's distance
    matrix is scanned in row blocks.
    """
    keys = np.round(np.log(ratios) / 1e-9).astype(np.int64)
    order = np.lexsort((trans[:, 0], keys))
    keys, trans = keys[order], trans[order]
    same = keys[1:] == keys[:-1]
    if not same.any():
        return math.inf
    if trans.shape[1] == 1:
        return float(np.diff(trans[:, 0])[same].min())
    bounds = np.flatnonzero(np.r_[True, ~same, True])
    return min(
        float(dist.min())
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi - lo > 1
        for _, dist in _distance_blocks(trans[lo:hi])
    )


def separation_diagnostic(
    ifs: SelfSimilarIFS, depth: int = 5, budget: int = 200_000
) -> SeparationDiagnostic:
    """Probe separation at a fixed depth.

    * ``ssc_ok``: the level-1 images of the support ball are pairwise
      disjoint (sufficient for the SSC, not necessary).
    * ``esc_distance``: min over distinct equal-ratio depth-n word pairs of
      |f_i(0) - f_j(0)|; inf when no two words share a ratio.
    * ``overlaps_detected``: an equal-ratio pair essentially collides
      (distance < 1e-12) or depth-n support-ball images overlap by more
      than the tolerance.

    On the line both scans are sorts, O(n log n) for n words; in higher
    dimensions they run over row blocks of O(PAIR_BLOCK) pairs, so no
    n x n array is built.
    """
    if ifs.n_maps ** depth > budget:
        raise ResourceExceeded(
            f"{ifs.n_maps}^{depth} words exceed separation budget {budget}",
            "separation_budget",
        )
    b, radius = ifs.barycenter, ifs.support_radius
    centers = np.array([m(b) for m in ifs.maps])
    radii = np.array([m.ratio * radius for m in ifs.maps])
    ssc_ok = True
    for i in range(ifs.n_maps):
        for j in range(i + 1, ifs.n_maps):
            gap = np.linalg.norm(centers[i] - centers[j]) - (radii[i] + radii[j])
            if gap <= 0.0:
                ssc_ok = False
    columns = _root_columns(ifs.ambient_dim)
    for _ in range(depth):
        columns = _child_columns(ifs, *columns)
    ratios, orients, trans, _ = columns
    esc = _min_equal_ratio_gap(ratios, trans)
    # Hull-image overlap at depth n: cylinder support balls interpenetrating
    # by more than the tolerance is treated as an observed overlap.
    cyl_centers = trans + np.einsum("n,nij,j->ni", ratios, orients, b)
    penetration = _max_penetration(cyl_centers, ratios * radius)
    overlap = penetration > 1e-12 or esc < 1e-12
    return SeparationDiagnostic(
        ssc_ok=ssc_ok, overlaps_detected=overlap, esc_distance=esc, depth=depth
    )


def porosity_flag(
    ifs: SelfSimilarIFS, declared_separation: str, similarity_dim: float
) -> bool:
    """Porosity of the attractor on the line.

    True iff the declared separation implies the weak separation condition
    (SSC or OSC here) and the similarity dimension is strictly below 1.
    Documentation-level flag; no uncertainty exponent is computed.
    """
    if ifs.ambient_dim != 1:
        raise Unsupported("porosity flag is defined for ambient dimension 1 only")
    if declared_separation not in SEPARATION_KINDS:
        raise BadConfig(f"unknown separation kind {declared_separation!r}")
    return declared_separation in ("SSC", "OSC") and similarity_dim < 1.0


# -- JSON description files ---------------------------------------------------


@dataclass(frozen=True)
class IFSDocument:
    """Parsed IFS description file: the system plus its declarations."""

    ifs: SelfSimilarIFS
    declared_separation: str = "none"
    exponents: Mapping = field(default_factory=dict)


def _parsed(name: str, convert, value):
    """``convert(value)``, or BadConfig naming the parameter ``name``."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadConfig(f"{name}: malformed value {value!r} ({exc})") from exc


def _json_object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {type(value).__name__}")
    return value


def _fields(doc, what: str, table: dict) -> dict:
    """The fields of the JSON object ``doc``, each parsed by its entry of ``table``.

    ``table`` maps every field the input takes to (parser, required).  A
    missing required field or a field not in the table raises BadConfig,
    and so does a value its parser refuses.  An omitted optional field is
    left out of the result, so the call it feeds takes its own default.
    """
    doc = _parsed(what, _json_object, doc)
    missing = [name for name, (_, required) in table.items() if required and name not in doc]
    if missing:
        raise BadConfig(f"{what} missing fields: {sorted(missing)}")
    unknown = set(doc) - set(table)
    if unknown:
        raise BadConfig(f"{what} has unknown fields: {sorted(unknown)}")
    return {name: _parsed(name, table[name][0], value) for name, value in doc.items()}


def _int(value) -> int:
    """A JSON integer; a float is taken only if it is integral, a bool never."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    return value


def _float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    return float(value)


def _optional_float(value):
    return None if value is None else _float(value)


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {type(value).__name__}")
    return value


def _separation(value) -> str:
    if value not in SEPARATION_KINDS:
        raise ValueError(f"not one of {SEPARATION_KINDS}")
    return value


def _numbers(value):
    """A JSON number or nested list of numbers, each number read by ``_float``."""
    return [_numbers(x) for x in value] if isinstance(value, list) else _float(value)


def _float_array(value) -> np.ndarray:
    return np.asarray(_numbers(value), dtype=float)


def _exponent_table(var: str, upper: float):
    """The parser of a JSON object {x: exponent} of numbers into floats, each key x in (1, upper]."""
    def parse(value) -> dict:
        table = {float(x): _float(v) for x, v in _json_object(value).items()}
        if not all(1.0 < x <= upper for x in table):
            raise ValueError(f"every {var} must lie in (1, {upper}]")
        return table
    return parse


# An IFS file's ``exponents``: the overrides of ``dimensions.build_profile``.
_EXPONENT_FIELDS = {
    "kappa1": (_float, False),
    "kappa2": (_float, False),
    "kappa_star": (_float, False),
    "d_inf": (_float, False),
    "kappa_p": (_exponent_table("p", 2.0), False),
    "d_q": (_exponent_table("q", math.inf), False),
}
_IFS_FIELDS = {
    "ambient_dim": (_int, True),
    "maps": (list, True),
    "weights": (lambda value: tuple(_float(w) for w in value), True),
    "declared_separation": (_separation, False),
    "exponents": (lambda value: _fields(value, "exponents", _EXPONENT_FIELDS), False),
}
_MAP_FIELDS = {"ratio": (_float, True), "orientation": (_float_array, True),
               "translation": (_float_array, True)}


def ifs_from_dict(doc: Mapping) -> IFSDocument:
    fields = _fields(doc, "IFS", _IFS_FIELDS)
    k = fields.pop("ambient_dim")
    maps = []
    for entry in fields.pop("maps"):
        m = _fields(entry, "map", _MAP_FIELDS)
        orientation = _as_matrix(m["orientation"], k)
        maps.append(SimilarityMap(m["ratio"], orientation, m["translation"]))
    ifs = SelfSimilarIFS(tuple(maps), fields.pop("weights"), k)
    return IFSDocument(ifs=ifs, **fields)


def ifs_to_dict(document: IFSDocument) -> dict:
    ifs = document.ifs
    return {
        "ambient_dim": ifs.ambient_dim,
        "maps": [
            {
                "ratio": m.ratio,
                "orientation": m.orientation.flatten().tolist(),
                "translation": m.translation.tolist(),
            }
            for m in ifs.maps
        ],
        "weights": list(ifs.weights),
        "declared_separation": document.declared_separation,
        "exponents": dict(document.exponents),
    }


def read_json(path, what: str):
    """The JSON document in ``path``; BadConfig naming ``what`` if it cannot be read or parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:    # ValueError: bad JSON or UTF-8
        raise BadConfig(f"cannot read {what} {path}: {exc}") from exc


def write_json(path, payload) -> None:
    """``payload`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_ifs(path) -> IFSDocument:
    return ifs_from_dict(read_json(path, "IFS file"))
