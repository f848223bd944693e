"""Fourier transforms of self-similar measures, with certified error bounds.

Four evaluation schemes, all driven by the stopping-time cylinder
structure of the measure:

* ``exact_recursion`` (mu_hat): expand the one-step functional equation

      mu_hat(xi) = sum_i p_i e^{-2 pi i <xi, t_i>} mu_hat(r_i O_i^T xi)

  along the stopping tree until every leaf frequency eta satisfies
  2 pi |eta| R <= tol (R the support-ball radius), then close each leaf
  with e^{-2 pi i <eta, b>}.  The leaf error is at most 2 pi |eta| R per
  unit weight, so the summed bound is certified.  Homogeneous systems
  collapse the tree to a product (``_mu_hat_homog_many``), which builds
  its level phases block by block (``_row_phases``).  For any other
  system the tree's leaves are the words with
  r_w |xi| <= tol / (2 pi R), the stopping cover at that scale, and a
  leaf term p_w e^{-2 pi i <xi, f_w(b)>} is the order-0 term of the
  identity map at the cylinder's anchor: mu_hat is
  ``pushforward_hat_order0(ifs, identity_map(ifs), xi)``, evaluated by
  the same row kernel.  A batch of frequencies is one call either way
  (``_mu_hat_rows``): one product to the depth of its largest row, or
  the row kernel's octave groups.

* ``order0`` quadrature for images mu_f: the weighted exponential sum
  sum_w p_w e^{-2 pi i <xi, f(x_w)>} over cylinder anchors, with error
  2 pi |xi| L_f r_w R per cylinder (L_f a Lipschitz bound of f on the
  support ball).

* ``order1`` quadrature: each cylinder is linearised at its anchor
  x_w = f_w(b) and the linear phase integrated exactly through the
  centred transform h(eta) = e^{2 pi i <eta, b>} mu_hat(eta) (the
  transform of ``ifs.centred``) at the rotated, rescaled frequency
  r_w O_w^T (J_f(x_w)^T xi), so the outer phase is 2 pi <xi, f(x_w)>;
  the per-cylinder Taylor error is pi |xi| H_f (r_w R)^2.

* ``order2`` quadrature (homogeneous systems on the line): the quadratic
  term of each cylinder's phase is integrated too, in the manner of the
  Filon-type methods of Iserles & Norsett (Proc. R. Soc. A 461, 2005).
  Cylinder w contributes
  p_w e^{-2 pi i xi f(x_w)} [h(eta_w) - pi i xi q_w h2(eta_w)], with
  eta_w as in order 1, q_w = r_w^2 f''(x_w) and
  h2(eta) = int u^2 e^{-2 pi i eta u} dmu_c(u) = -h''(eta) / 4 pi^2 the
  second-moment transform of ``ifs.centred``.  Expanding
  e^{-pi i xi q_w u^2} to first order leaves 1/2 (pi |xi| |q_w| R^2)^2,
  and the cubic Taylor term of f adds (pi/3) |xi| H3 (r_w R)^3 with H3 a
  bound on |f'''| (``PushforwardMap.third_bound``): the per-cylinder
  remainder, the Taylor term of the bound.

Each image scheme is described once: its per-cylinder remainder
(``_remainder_terms``) gives its stopping scale, the root at its share
of tol (``_stopping_scale``), and the term its bound charges, and one
test (``_refusal``) names the systems and maps it cannot run.
A single frequency is a batch of one: ``pushforward_batch`` at [xi] is
the one front door of the row kernel, ``_image_rows``.  A batch
groups its frequencies by octave of |xi|, and each group uses the
stopping cover of its largest |xi|.  A cover's count
(``ifs._count_stopping``) gives its size, snapped scale s and depth
before it is expanded, and with a bound J on |J_f| every leaf has
|B_w| <= s J: budgets, table range and rounding terms need no expansion.
Covers are never stored: every job of the kernel streams its group's
cover once from ``ifs._cover_blocks`` in leaf blocks of at most
``FRONTIER_BLOCK``, sums each row within a block and combines
the block sums with TwoSum, so memory stays bounded however many leaves
a cover has.  The inner transform is a set of moment columns, h for
order 1 and h, h2 for order 2, whose source the system fixes: a
certified piecewise-quadratic table of the columns for homogeneous
systems on the line, whose step follows from the second moment
M2 = int |x - b|^2 dmu (|h'''| <= (2 pi)^3 R M2); otherwise mu_hat of
the centred system at tol/2, the product form for homogeneous systems
and a nested order-0 call of the kernel on its identity for the rest.
Every leaf block takes one path (``grid_rows._grid_sums``): the rows in
blocks of L, whose phases are a base block of unit phases times one
offset per block (``_row_phases``, shared with the product form and the
Fourier inversion of ``experiments``), with the inner columns read at K
nodes per block and interpolated.  Rows exactly (j0 + i) delta take L
and K from the interpolation remainder, sum each block as columns of
one matrix product (a BLAS zgemm) and add the ``row_interpolation``
term (``_image_rows``); any other rows are blocks of one row, each its
own node at weight 1, summed pairwise along the leaf axis, and add
nothing.  A unit phase is one sine of an argument reduced to
[-pi/4, pi/4] (``_unit_phases``).

Error bounds are upper bounds on |value - true transform| whenever the
supplied Lipschitz/Hessian bounds are valid on the support ball; maps
with merely estimated bounds mark their samples as uncertified.  They
include the float rounding of the phases (``_phase_rounding``,
``_recursion_rounding``), which grows like 2^-52 |xi|, the rounding
that a cover's anchors and weights carry from the levels of their words
(``_cover_rounding``), D |1 - sum p_i| at depth D for weights that do
not sum to 1 exactly, and for order 1 the rounding of the centred
translations (``_centring_rounding``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BadConfig,
    FractalFourierError,
    MissingHessianBound,
    SupportNotPositive,
    Unsupported,
)
from .ifs import (
    DEFAULT_LEAF_BUDGET,
    SelfSimilarIFS,
    _checked_count,
    _count_stopping,
    _cover_blocks,
    chaos_game,
)

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)    # 2^-52; the unit roundoff is EPS / 2
JOB_TERMS = 4_000_000   # row x leaf terms per job of the image row kernel
PHASE_BLOCK = 32_768    # terms per block of phases (row kernel's base, product form, inversion)
MAX_TABLE_CELLS = 4_000_000 // 3     # _MuHatTable cells: 3 coefficients per cell and column
CSV_BLOCK = 4_096       # rows per block of write_csv
IMAGE_SCHEMES = ("order0", "order1", "order2")    # cylinder quadratures of an image mu_f

# The reduction of ``_unit_phases``.  The parts of pi/2 sum to it within 2e-33;
# the first two have 26 and 23 significant bits, so k times either is exact for
# |k| <= 2^27, which |theta| < REDUCTION_LIMIT (below 2^26 pi) ensures.
TWO_OVER_PI = float.fromhex("0x1.45f306dc9c883p-1")
QUARTER_PI = float.fromhex("0x1.921fb54442d18p-1")     # fl(pi/4) < pi/4
HALF_PI_PARTS = tuple(
    float.fromhex(part) for part in ("0x1.921fb58p+0", "-0x1.dde974p-27", "0x1.1a62633145c07p-54")
)
REDUCTION_LIMIT = 2.0e8
# (-i)^q for q = k mod 4; 1 - 0i, not 1 + 0i, leaves every bit of a k = 0 phase as it is
QUARTER_TURNS = np.array([complex(1.0, -0.0), -1j, -1.0, 1j])
QUARTER_TURNS.flags.writeable = False


def _roundoff(n_terms, pairwise: bool = True):
    """Pessimistic summation roundoff allowance for n unit terms.

    ``n_terms`` is a count or an array of counts.  By default it covers
    numpy's pairwise sum of a complex row (``np.add.reduce`` along a
    contiguous axis), which sums both parts along one tree: blocks of up
    to 64 terms run 4 accumulators per part of at most 16 terms each, join
    them in two levels and add at most 3 trailing terms; longer rows are
    halved recursively.  A term meets at most n/4 + 4 additions (n <= 64),
    else 14 + log2 n, so each part errs by at most u times that over the
    sum of its magnitudes (Higham, Accuracy and Stability of Numerical
    Algorithms, SIAM 2002, section 4.2) and the complex sum of n unit
    terms by sqrt(2) u times it: below half this allowance for every n.

    ``pairwise=False`` is the allowance EPS (1.5 n + 1) of a complex dot
    product sum_w a_w b_w of n terms summed in any order, as a matrix
    product sums them (BLAS fixes no order, and blocks and threads may
    change it).  Each part of the sum is a real sum of 2n products, each
    rounded once or fused into an addition; in any order a term meets at
    most 2n - 1 additions, so with its product each part errs by at most
    gamma_2n = 2n u / (1 - 2n u) over the sum of its terms' magnitudes
    (Higham, section 4.2, bound (4.4) for any ordering).  Per term those
    magnitudes, (|a_r b_r| + |a_i b_i|, |a_r b_i| + |a_i b_r|), have norm
    at most sqrt(2) |a_w||b_w|, so the complex error is below
    sqrt(2) n EPS sum_w |a_w||b_w| to first order, which 1.5 n EPS covers
    with the second-order terms; the one EPS is the rounding of a
    compensated total that joins the block sums.
    """
    if not pairwise:
        return EPS * (1.5 * n_terms + 1.0)
    return 1e-15 * (1.0 + np.log2(n_terms + 1.0))


def _phase_rounding(xi_norm, a_max: float, inner: float = 0.0, dims: int = 1):
    """Rounding allowance, per unit weight, of a phase sum sum_w p_w e^{-i xi A_w} h_w.

    EPS (c1 |xi| a_max + c2 + c3 |xi| inner), with c1 = dims + 5, c2 = 16
    and c3 = dims + 1 (6, 16 and 2 on the line), plus the reduction term
    u |xi| a_max where |xi| a_max > ``REDUCTION_LIMIT``.  ``a_max`` bounds
    the computed |A_w| (the 2 pi is inside A_w), ``inner`` bounds
    2 pi |B_w| R for an inner transform h_w = h(B_w xi), else 0, and
    ``dims`` is max(k, d).  ``xi_norm`` may be an array.

    Model: every operation rounds with relative error at most u = EPS/2,
    and np.sin returns, for |r| <= pi/2, a value within two ulps of sin r,
    so within EPS (numpy's is within one ulp).  The anchors x_w, f(x_w)
    and J_f(x_w) as the cover and the map's evaluators return them are
    taken as the quadrature's nodes here; ``_cover_rounding`` covers the
    cover's own rounding.  First-order terms (products of two roundings are absorbed
    by rounding the constants up):

    * outer phase.  A_w = 2 pi f(x_w) for both orders rounds by 2u |A_w|
      (2 pi is a float, a product); xi A_w adds d u |xi||A_w|.  The grid
      path (``_row_phases``) takes e^{-i (j0 delta) A_w} e^{-i (l delta) A_w}
      for e^{-i (j delta) A_w}: the two angles take two more products (2u)
      and the split of j delta into j0 delta + l delta (2u), so at most
      (d + 6) u |xi| a_max in all, (d + 4) u |xi| a_max below
      c1 EPS |xi| a_max.
    * inner argument.  The order-1 inner transform is the centred
      transform h(eta) = e^{2 pi i <eta, b>} mu_hat(eta), the transform of
      a measure on the ball B(0, R), so h is 2 pi R-Lipschitz.  xi B_w
      rounds by d u |xi||B_w| and B_w itself by (k + 1) u |B_w|, which
      moves h by at most (k + d + 1) u |xi| inner, below c3 EPS |xi| inner.
    * unit phases.  ``_unit_phases`` writes theta = k pi/2 + r.  Below
      ``REDUCTION_LIMIT``, |k| <= 2^27, so k C1, k C2 and theta - k C1
      are exact; the two later subtractions round by u |r| each, k C3 by
      below 1e-8 u, and C1 + C2 + C3 is pi/2 within 2e-33, so r is within
      2u (pi/4 + 1e-7) < 0.79 EPS of theta - k pi/2, itself at most
      pi/4 + 1e-7 in size.  s = sin r errs by at most EPS, which moves
      sqrt(1 - s^2) by at most |e_s| tan|r| < 1.01 EPS; s^2, 1 - s^2 and
      the root round by at most 1.5u, since cos r >= 0.7.  So cos r and
      -sin r as a complex number are within sqrt(1.76^2 + 1) EPS = 2.03
      EPS of e^{-i r}, the reduction adds 0.79 EPS, and the quarter turn,
      products by 0 and +-1, is exact: below 2.9 EPS per unit phase.
      Above the limit, k C1 rounds by u |k C1|, which is u |theta| to
      first order: the reduction term (both unit phases of a grid term
      together, since their angles have one sign and sum to theta).  The
      rest grows with |theta| too: k C2 rounds by below 1e-8 u |theta|; r
      may pass pi/4 by up to 2u |theta|, so that the error of s moves the
      root by up to sqrt(3 EPS) < 3e-8; and past |theta| = 3.5e15 the
      rounded k can leave |r| > pi/2, where the root's sign is wrong by
      2 |cos r| < 4u |theta| - pi/2.  All of it lies within the
      (d + 4) u |xi| a_max left of c1, over 1e-7 above the limit.
    * values.  |e^{-i theta'} - e^{-i theta}| <= |theta' - theta|.  Every
      term is a complex product of computed factors.  One complex product
      a b errs by at most 2 sqrt(2) u |a||b| <= 1.5 EPS |a||b|, with or
      without an FMA in either part: a part ac - bd rounds by at most
      2u (|ac| + |bd|) either way, and
      (|ac| + |bd|)^2 + (|ad| + |bc|)^2 <= 2 |a|^2 |b|^2 (Brent,
      Percival & Zimmermann, Math. Comp. 76, 2007, show sqrt(5) u without
      an FMA).  A unit phase errs by 2.9 EPS, and the weight p_w + 0i
      scales each part by one rounded product, 0.5 EPS: 3.4 EPS.  On the
      grid the base phase errs by 2.9 EPS, the offset with its weight by
      3.4 EPS and their product by 1.5 EPS: 7.8 EPS.  The product with h_w
      (|h_w| <= 1) adds 1.5 EPS: at most 9.3 EPS, below c2 EPS.
    * grid rows as matrix products (``grid_rows``).  A row's base and
      offset phases, their angles and the split of j delta are those of
      the grid path above, one set shared by the K node sums of the row,
      so their errors multiply the interpolated inner value.  The two
      complex products of a term, offsets times G_k and the base times
      that, are made once per node, and the Lagrange combine weights node
      k by |l_k(l)|: their rounding counts Lambda times, and the matrix
      product's any-order summation replaces the pairwise one.
      ``grid_rows._row_interpolation`` charges both.

    Summation is ``_roundoff``'s part and is not counted here.
    """
    bound = EPS * (xi_norm * ((dims + 5.0) * a_max + (dims + 1.0) * inner) + 16.0)
    if np.max(xi_norm, initial=0.0) * a_max > REDUCTION_LIMIT:
        bound = bound + 0.5 * EPS * (xi_norm * a_max) * (xi_norm * a_max > REDUCTION_LIMIT)
    return bound


def _recursion_rounding(ifs, norms, depth):
    """Rounding allowance of the product form at |eta| = ``norms``.

    EPS (pi S |eta| (k^1.5 + k^0.5 + k + 5) / (1 - rho)^2 + (D + 1)(N + 9)),
    with S = max(max_i |t_i|, |b|), rho the largest ratio, N maps and D
    the depth (``depth``), plus the reduction term u 2 pi S |eta| / (1 - rho)
    where 2 pi S |eta| > ``REDUCTION_LIMIT``.  ``norms`` may be an array.
    It holds for both ways ``_mu_hat_homog_many`` makes a block of
    phases: direct unit phases, and angle addition on a grid.

    Model as in ``_phase_rounding`` (u = EPS/2, unit phases within
    2.9 EPS).
    Level l < D of map i has the phase <eta, c_{l,i}>, c_{l,i} =
    2 pi M^l t_i with M = r O, and the closing level D has c = 2 pi M^D b.
    * coefficients.  fl(r O) errs by u |M| per entry, and each of the l
      products by it a k-term dot product, so fl(M^l t) is within
      l (k^1.5 + k^0.5) u rho^l |t| of M^l t (|| |M| || <= k^0.5 rho); the
      float 2 pi and the product by it add 2u relative.
    * phases.  Directly <eta, c> rounds by k u |eta||c|.  On grid rows
      (k = 1, eta = fl(j delta)) the angle is fl(fl(l delta) c) +
      fl(fl(j0 delta) c) for j = j0 + l: two products (u |eta||c|) and
      the split of fl(j delta) (2u |eta|), 3u |eta||c|.  (k + 3) u covers
      both.  So level l's phases err by at most
      2 pi |eta| rho^l S u (l (k^1.5 + k^0.5) + k + 5), and
      sum_l rho^l (l a + b) <= (a + b) / (1 - rho)^2 gives the |eta| part:
      e^{-i theta} is 1-Lipschitz and every level factor is at most 1.
      The exact sum, a rho / (1 - rho)^2 + b / (1 - rho), leaves at least
      2u 2 pi S |eta| of that part unused.
    * reduction.  Level l's angles are at most 2 pi rho^l S |eta|.  Above
      ``REDUCTION_LIMIT`` a unit phase errs by u times its angle more
      (``_phase_rounding``), u 2 pi S |eta| / (1 - rho) summed over the
      levels: the reduction term.  The rest is far smaller.  The root's
      share, EPS (tan|r| - 1) with |r| <= pi/4 + 2u |theta|, is below
      1e-15 u |theta| up to |theta| = 4e14 and below 3e-8 per level
      beyond, where over 0.08 of the |eta| part is unused.  Past an angle
      of 3.5e15, where the root's sign can be wrong, the |eta| part alone
      exceeds 2, the most a product of factors of modulus 1 can err.
    * values.  A weighted term p_i e^{-i theta} is within 3.4 EPS p_i
      directly and 7.8 EPS p_i on the grid (``_phase_rounding``), the sum
      over the N maps of a level adds sqrt(2) (N - 1) u, and each of the D
      complex products of the levels 1.5 EPS: below (N + 9) EPS per level.

    Summation over the leaves is ``_roundoff``'s part and is not counted.
    """
    k = ifs.ambient_dim
    rho = float(ifs.ratios.max())
    reach = _translation_reach(ifs)
    bound = EPS * (
        math.pi * reach * norms * (k**1.5 + k**0.5 + k + 5.0) / (1.0 - rho) ** 2
        + (depth + 1.0) * (ifs.n_maps + 9.0)
    )
    if TWO_PI * reach * np.max(norms, initial=0.0) > REDUCTION_LIMIT:
        angles = TWO_PI * reach * norms
        bound = bound + 0.5 * EPS * angles / (1.0 - rho) * (angles > REDUCTION_LIMIT)
    return bound


def _translation_reach(ifs) -> float:
    """S = max(max_i |t_i|, |b|), the scale of the rounding allowances."""
    return max(max(float(np.linalg.norm(m.translation)) for m in ifs.maps),
               float(np.linalg.norm(ifs.barycenter)))


def _anchor_drift(ifs, scale: float, depth: int) -> float:
    """Bound on |x_w - f_w(b)| over the computed anchors x_w of a cover.

    EPS ((D + k + 1 + c rho / (1 - rho)) S / (1 - rho) + (c D + k + 1) r |b|
    + sup|x|), with c = 1 + k^1.5, S as in ``_recursion_rounding``, rho
    the largest ratio, and D = ``depth`` and r = ``scale`` the cover's
    depth and snapped scale from its count (``ifs._count_stopping``):
    every word has at most D letters and every leaf ratio is at most r.

    Model as in ``_phase_rounding``.  ``ifs._child_columns`` builds a
    word's columns over its D levels: the ratio r_w by D - 1 products
    (relative error below D u), the orientation O_w by D products of
    k x k matrices (D k^1.5 u in norm), and the translation by
    t_{wi} = t_w + r_w O_w t_i.  At level l the product r_w O_w t_i is
    below rho^l S and errs by (l c + k + 1) u rho^l S with the errors of
    r_w and O_w, which sums over the levels to below
    (c rho / (1 - rho) + k + 1) u S / (1 - rho); each of the D sums rounds
    by u of a partial sum below S / (1 - rho).  The anchor
    r_w O_w b + t_w errs by (c D + k + 1) u r_w |b| in its product and by
    u |x_w| <= u sup|x| in its sum.  At EPS = 2u the bound is twice that
    first-order sum, which absorbs the second-order terms.
    """
    k = ifs.ambient_dim
    rho = float(ifs.ratios.max())
    c = 1.0 + k**1.5
    levels = (depth + k + 1.0 + c * rho / (1.0 - rho)) * _translation_reach(ifs) / (1.0 - rho)
    anchor = (c * depth + k + 1.0) * scale * float(np.linalg.norm(ifs.barycenter))
    return EPS * (levels + anchor + ifs.max_point_norm)


def _centring_rounding(ifs, eta_norm, second: bool = False):
    """The centring allowance: 2 pi |eta| Delta, Delta = ``ifs.centring_drift``.

    It bounds |nu_hat(eta) - h(eta)| for the measure nu of
    ``ifs.centred`` as computed and the centred transform
    h(eta) = e^{2 pi i <eta, b>} mu_hat(eta) at the computed barycenter b,
    the one the anchors f_w(b) of every cover use.  The system with the
    exact translations f_i(b) - b has the measure mu translated by -b,
    whose transform is h; its points lie within Delta of nu's points
    coded by the same letters, and e^{-2 pi i <eta, x>} moves by at most
    2 pi |eta| |dx|.  ``eta_norm`` may be an array.

    With ``second`` it is the allowance of the second-moment transform
    h2(eta) = int u^2 e^{-2 pi i eta u}: paired points u, u' within Delta
    of each other and of the ball B(0, R) have
    |u'^2 - u^2| <= Delta (2 R + Delta), and u^2 <= (R + Delta)^2 times
    the phase's 2 pi |eta| Delta.
    """
    drift = ifs.centring_drift
    if not second:
        return TWO_PI * drift * eta_norm
    radius = ifs.support_radius
    return drift * (2.0 * radius + drift) + (radius + drift) ** 2 * (TWO_PI * drift * eta_norm)


def _cover_rounding(ifs, scale: float, depth: int, xi_norm, gain: float, inner: float = 0.0):
    """Rounding allowance, per unit weight, that a computed cover adds.

    2 pi |xi| gain delta + EPS (D (1 + k^1.5) |xi| inner + D + 1)
    + D |1 - sum p_i|, with
    D = ``depth`` the cover's depth and ``scale`` its snapped scale, both
    from its count, delta = ``_anchor_drift`` and ``inner`` bounding
    2 pi |B_w| R as in ``_phase_rounding``.  ``xi_norm`` may be an
    array.

    ``_phase_rounding`` takes a cover's anchors, ratios, orientations and
    weights as exact nodes.  Each is accumulated over the D levels of its
    word, and this term covers that (model and u as there; the map's
    bounds are taken to hold within delta of the support ball):

    * anchors.  A computed anchor x_w lies within delta of f_w(b).  Order
      0 moves its phase 2 pi <xi, f(x_w)> by at most 2 pi |xi| L_f delta:
      ``gain`` = L_f.  Order 1 linearises f at x_w, but its inner
      transform, centred at b, assumes the node f_w(b): the dropped
      constant J_f(x_w) (f_w(b) - x_w) moves the phase by at most
      2 pi |xi| |J_f(x_w)| delta, and the Taylor radius grows from
      r_w R to r_w R + delta, which adds 2 pi |xi| H r_w R delta to first
      order: ``gain`` = J + H R, with J >= |J_f| on the support ball
      (``_jacobian_bound``).
    * inner argument (order 1).  B_w = r_w O_w^T J_f(x_w)^T inherits the
      relative error D (1 + k^1.5) u of r_w and O_w, and the centred
      inner transform is 2 pi R-Lipschitz, so a term moves by at most
      D (1 + k^1.5) u |xi| inner, half the term charged.
    * weights.  p_w is a product of D weights, within D u of exact
      relative, and a term is at most p_w: D u per unit weight, below
      EPS (D + 1).  Weights that do not sum to 1 exactly add
      D |1 - sum p_i| (``ifs.weight_defect``).

    The closure or Taylor coefficient, a bound computed from the same
    ratios and weights, is not counted.
    """
    k = ifs.ambient_dim
    return TWO_PI * xi_norm * gain * _anchor_drift(ifs, scale, depth) + EPS * (
        depth * (1.0 + k**1.5) * xi_norm * inner + depth + 1.0
    ) + depth * ifs.weight_defect


@dataclass(frozen=True)
class FrequencySample:
    """One evaluated frequency: value, certified error bound, provenance."""

    xi: np.ndarray
    value: complex
    error_bound: float
    scheme: str
    leaves_used: int
    certified: bool = True


def _check_positive(name: str, value: float) -> None:
    if not value > 0.0:     # NaN included
        raise BadConfig(f"{name} must be positive, got {value}")


def _check_positive_finite(name: str, value: float) -> None:
    """Positive and finite: at tol = inf every bound certifies nothing, and a grid never reaches inf."""
    _check_positive(name, value)
    if value == math.inf:
        raise BadConfig(f"{name} must be finite, got {value}")


def _finite_array(name: str, value, shape) -> np.ndarray:
    """``value`` as a float array of ``shape`` with finite entries, else BadConfig naming ``name``."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise BadConfig(f"{name}: malformed value {value!r} ({exc})") from exc
    if array.shape != shape:
        raise BadConfig(f"{name} must have shape {shape}, got {array.shape}")
    if not np.isfinite(array).all():
        raise BadConfig(f"{name} must be finite, got {value!r}")
    return array


def _check_threads(threads: int) -> None:
    if not threads >= 1:
        raise BadConfig(f"threads must be at least 1, got {threads}")


# ---------------------------------------------------------------------------
# mu_hat: the transform of the measure itself
# ---------------------------------------------------------------------------


def mu_hat(
    ifs: SelfSimilarIFS,
    xi,
    tol: float = 1e-9,
    budget: int = DEFAULT_LEAF_BUDGET,
) -> FrequencySample:
    """Evaluate mu_hat(xi) by the self-similarity recursion, certified to ``error_bound``.

    A batch of one, like the image schemes: ``exact_recursion`` of the
    identity (``pushforward_batch``, so ``_mu_hat_rows``), the product form
    (``_mu_hat_homog_many``) for homogeneous systems and the order-0 row
    kernel at the stopping cover at scale tol / (2 pi |xi| R) for the
    rest.  A cover's exact leaf count is checked before it is expanded;
    more than ``budget`` leaves raise ResourceExceeded("leaf_budget")
    naming the count.  ``leaves_used`` is the number of leaves of the tree
    (N^depth for homogeneous systems).
    """
    return _image_sample(ifs, identity_map(ifs), xi, tol, "exact_recursion", None, budget)


def _mu_hat_rows(ifs, etas: np.ndarray, tol: float, budget: int, threads: int):
    """(values, error bounds, leaves) of mu_hat at every row of ``etas`` (n, k).

    One call for all rows, whatever the system.  Homogeneous systems take
    the product form (``_mu_hat_homog_many``), every row to the depth D
    its largest row needs, and each row's leaves are the N^D leaves of
    that tree.  Any other system
    is the order-0 image of its identity through ``_image_rows`` on
    ``threads`` threads: its rows are grouped by octave of |eta| and
    share the cover of their octave's largest |eta|, every cover counted
    against ``budget`` (the top octave first) before any is expanded.  A
    one-row call is that frequency's own tree, and so is each row of an
    octave that holds one row.

    A homogeneous row below the largest thus goes deeper than its own
    tree.  Where the closure term dominates its bound shrinks; elsewhere
    the bound grows by at most the extra levels' rounding,
    (D + 1)(N + 9) EPS plus ``_roundoff(D + 1)`` (below 1e-13 for
    D <= 40 and N <= 5), on a grid as elsewhere.  The leaf counts are
    an object array of exact Python ints: N^D can pass the int64 range.
    """
    # an empty batch has no largest row to fix a depth: the kernel returns it empty
    if not (ifs.is_homogeneous and len(etas)):
        return _image_rows(ifs, identity_map(ifs), etas, tol, "order0", None, budget, threads)
    values, errors, depth = _mu_hat_homog_many(ifs, etas, tol)
    return values, errors, np.full(len(etas), ifs.n_maps**depth, dtype=object)


def _mu_hat_homog_many(ifs, etas: np.ndarray, tol: float, second: bool = False):
    """Product-form mu_hat of a homogeneous system at every row of ``etas`` (n, k).

    All depth-m leaves share the frequency (r O^T)^m eta, so the stopping
    tree collapses to a product of independent levels; the value equals
    the full tree sum exactly.  Level l < D holds the phases
    <eta, c_{l,i}>, c_{l,i} = 2 pi M^l t_i (M = r O, so that
    <eta, M^l t_i> = <eta_l, t_i> for eta_l = (r O^T)^l eta), with weights
    p_i, and the closing level D holds <eta, 2 pi M^D b> with weight 1.
    Every row goes
    to the depth D its largest row needs: the first m at which
    2 pi |(r O^T)^m eta| R <= tol for that row, its norm recomputed from
    the iterate at every level.  A one-row call thus stops where that
    frequency's own tree does.  In a many-row call the smaller rows get
    closure terms far below tol, which keeps the interpolation table's
    slack small, and the order-1 inner bounds of homogeneous systems off
    the line, whose inner transform this is.

    Moment columns.  Each level carries weight columns p_i a_{l,i}^j of
    its phases: one (j = 0), the level factor, or with ``second`` three
    (j = 0, 1, 2) for a centred system on the line (barycenter exactly 0,
    as ``ifs.centred`` sets it), where a_{l,i} = M^l t_i is the offset of
    map i at level l; the closing level is then (1, 0, 0).  Column j is
    sum_i p_i a^j e^{-2 pi i eta a}, the level factor's j-th derivative
    up to (-2 pi i)^j.  ``_moment_product`` combines the levels: one
    column into their product, the transform; three into h and
    h2(eta) = int u^2 e^{-2 pi i eta u} dnu(u) = -h''(eta) / 4 pi^2,
    u = sum_l a_l.

    Phases.  The n = D N + 1 coefficients c, laid out maps-major (map i's
    levels are i D .. i D + D - 1, the closing level last), run along
    the first axis of every block of max(1, PHASE_BLOCK // n) rows: a
    block is the (n, rows) array ``_row_phases(c, etas)`` scaled by the
    weights along that axis.  On a uniform grid j * delta on the line
    that spans more than one block (``_grid_step``; ``_MuHatTable``
    builds its nodes that way) a block is one base block
    e^{-i (l delta) c}, l < L, computed once, times the block's column of
    weighted offsets, the phases of its first row, which are computed
    for max(1, L // 8) blocks at a time: one complex product per term,
    and n (L + rows / L) unit phases in place of n rows.  Both ways
    are within ``_recursion_rounding``.  Each block is summed over the
    maps level by level (times a and a^2 first for the h2 columns) into
    levels x columns x rows, in buffers reused block after block.  The
    bounds of all rows are one expression after the block loop, with one
    ``_recursion_rounding``; the closure term is 2 pi |eta| rho^D R.

    Second-moment bound.  The offsets are at most S = max |t_i| =
    (1 - rho) R, so the offsets of any set of levels sum to at most R,
    and every partial product of moments has |P1| <= R and |P2| <= R^2.
    * closure.  The rest of u is s^D u' with u' ~ nu independent of the
      levels and |u'| <= R.  Closing with (1, 0, 0) drops
      P2 (E e' - 1), with |E e' - 1| <= eps_D = 2 pi |eta_D| R, and
      2 P1 E[s^D u' e'] + E[(s^D u')^2 e'], at most 2 R rho^D R +
      rho^2D R^2: R^2 (eps_D + 3 rho^D) in all.  So the rows go on until
      3 rho^D R^2 <= tol as well, and the bound is that closure plus
      R^2 ``_roundoff(D + 1)``.
    * rounding (model and u as in ``_phase_rounding``).  Phase errors
      with sum Phi over the levels (the phase part of
      ``_recursion_rounding``) move P2 by at most R^2 Phi.  A level's
      column j sums its N weighted phases, each within 7.8 EPS p_i and
      scaled by a^j (one more rounding), so it is within 1.5 (N + 7) EPS
      (rho^l S)^j on both phase paths, which the rest of the product,
      bounded by (1, R, R^2), carries to at most 6 (N + 7) EPS R^2.  The
      three complex products and two sums of P2's update err by at most
      12 EPS R^2, P1's by 5 EPS R and P0's by 2 EPS, which reach P2 as
      (12 + 10 + 2) EPS R^2: (6 N + 66) EPS R^2 per level, over D + 1
      levels (a pairwise product has as many combines, each of partial
      products within those bounds).  The multipliers a^j carry a
      relative error below (2 l + 4) u from the l products of M^l t_i,
      which moves P2 by at most 4 EPS R^2 / (1 - rho)^2 over all levels.
      14 times ``_recursion_rounding`` covers Phi and (D + 1)(6 N + 66)
      EPS, so the allowance is R^2 (14 ``_recursion_rounding`` +
      4 EPS / (1 - rho)^2).

    Returns (values (n,), error bounds (n,), depth).  Each bound is the
    row's closure term plus ``_roundoff(depth + 1)`` plus the phase
    rounding ``_recursion_rounding`` at the row's |eta| and ``depth``,
    plus D |1 - sum p_i| (``ifs.weight_defect``; R^2 times it for h2),
    the distance of D levels of weights from D normalised ones.  With
    ``second``, values and bounds are (2, n): h, then h2.
    """
    radius = ifs.support_radius
    step_t = ifs.maps[0].ratio * ifs.maps[0].orientation    # M; row eta -> row eta M
    etas = np.asarray(etas, dtype=float)
    norms = np.sqrt(np.vecdot(etas, etas))      # as np.linalg.norm(eta), bit for bit
    top = etas[int(np.argmax(norms))]
    if second and (ifs.ambient_dim != 1 or ifs.barycenter.any()):
        raise FractalFourierError("second moments need a centred system on the line")
    depth = 0
    # 3 rho^D R^2, the part of the h2 closure that |eta| does not scale
    tail = 3.0 * radius**2 if second else 0.0
    while TWO_PI * float(np.linalg.norm(top)) * radius > tol or tail > tol:
        top = top @ step_t
        tail *= ifs.maps[0].ratio
        depth += 1
        if depth > 5000:
            raise FractalFourierError("homogeneous recursion failed to contract")
    # the offsets a_{l,i} = M^l t_i (rows: level, then t_1 .. t_N and b)
    n_maps, k, n_cols = ifs.n_maps, ifs.ambient_dim, 3 if second else 1
    powers = np.empty((depth + 1, n_maps + 1, k))
    powers[0] = [*(m.translation for m in ifs.maps), ifs.barycenter]
    for level in range(depth):
        powers[level + 1] = powers[level] @ step_t.T
    # maps-major: map i's levels are columns i D .. i D + D - 1, and the closing level is last
    offsets = np.concatenate([powers[:depth, :n_maps].transpose(1, 0, 2).reshape(-1, k),
                              powers[depth, n_maps:]])
    weights = np.r_[np.repeat(ifs.weight_array, depth), 1.0][:, None]
    moments = [offsets[:, :1], offsets[:, :1] ** 2] if second else []     # a, a^2 on the line
    coefs, n, m = TWO_PI * offsets, len(offsets), len(etas)
    size = max(1, PHASE_BLOCK // n)
    grid = _grid_step(etas) if m > size > 1 else None
    values = np.empty((2 if second else 1, m), dtype=complex)
    ratio = float(ifs.ratios.max())
    defect = depth * ifs.weight_defect
    work = {}
    if grid is not None:
        base = _buffer(work, "base", (n, size), complex)
        _row_phases(coefs, (np.arange(size) * grid[1])[:, None], base, work)
        window = size * max(1, size // 8)     # rows of the blocks whose offsets one call makes
    for start in range(0, m, size):
        rows = slice(start, min(start + size, m))
        count = rows.stop - start
        phases = _buffer(work, "phases", (n, count), complex)
        if grid is None:
            _row_phases(coefs, etas[rows], phases, work)
            phases *= weights
        else:
            if start % window == 0:
                starts = etas[start : start + window : size]
                block_offsets = _buffer(work, "offsets", (n, len(starts)), complex)
                _row_phases(coefs, starts, block_offsets, work)
                block_offsets *= weights
            np.multiply(base[:, :count], block_offsets[:, start % window // size, None], out=phases)
        levels = _buffer(work, "levels", (depth + 1, n_cols, count), complex)
        for j in range(n_cols):
            column = phases
            if j > 0:
                column = np.multiply(phases, moments[j - 1], out=_buffer(work, "moment", phases.shape, complex))
            np.add.reduce(column[:-1].reshape(n_maps, depth, count), axis=0, out=levels[:depth, j])
            levels[depth, j] = column[-1]
        values[:, rows] = _moment_product(levels)
    reach = TWO_PI * (norms * ratio**depth) * radius      # 2 pi |eta_D| R
    rounding = _recursion_rounding(ifs, norms, depth)
    errs = reach + _roundoff(depth + 1) + rounding + defect
    if not second:
        return values[0], errs, depth
    errs2 = radius**2 * (
        reach + 3.0 * ratio**depth + _roundoff(depth + 1)
        + 14.0 * rounding + 4.0 * EPS / (1.0 - ratio) ** 2 + defect
    )
    return values, np.stack([errs, errs2]), depth


def _moment_product(levels: np.ndarray) -> np.ndarray:
    """The transform columns of independent levels, ``levels`` (L, n_cols, n).

    One column (level factors): their product h, as (1, n).  Three
    (moments m0, m1, m2): (h, h2) = (P0, P2), as (2, n), where two sets of
    levels combine as (P0, P1, P2) (m0, m1, m2) =
    (P0 m0, P1 m0 + P0 m1, P2 m0 + 2 P1 m1 + P0 m2).  The moments are
    merged pairwise, all pairs of a round at once, in ceil(log2 L)
    rounds: L - 1 combines as in a level-by-level product, each of a set
    of levels whose offsets sum to at most R, the rounding
    ``_mu_hat_homog_many`` derives for its second moments.
    """
    if levels.shape[1] == 1:
        return np.prod(levels, axis=0)
    while len(levels) > 1:
        half = len(levels) // 2
        a, b = levels[:half], levels[half : 2 * half]
        merged = np.empty_like(a)
        np.multiply(a[:, 0], b[:, 0], out=merged[:, 0])
        merged[:, 1] = a[:, 1] * b[:, 0] + a[:, 0] * b[:, 1]
        merged[:, 2] = a[:, 2] * b[:, 0] + 2.0 * (a[:, 1] * b[:, 1]) + a[:, 0] * b[:, 2]
        levels = np.concatenate([merged, levels[2 * half :]]) if len(levels) % 2 else merged
    return levels[0, ::2]


# ---------------------------------------------------------------------------
# pushforward maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PushforwardMap:
    """A C^2 map f: R^k -> R^d with bounds valid on the support ball.

    ``evaluator`` maps an (n, k) batch to (n,) when d = 1, else (n, d).
    ``gradient`` returns (n, k) when d = 1, else the Jacobian (n, d, k).
    ``hessian`` (d = 1 only) returns (n, k, k).  ``lipschitz_bound`` and
    ``hessian_bound`` bound |f'| and the operator norm of the Hessian of
    <v, f> (unit v) on the stated ball; ``third_bound`` (H3, scalar maps
    on the line) bounds |f'''| there, and a map without it cannot take
    ``order2``.  ``bounds_certified`` records whether they are analytic or
    sampled estimates.  ``quad_hessians`` (quadratic maps) and
    ``complex_derivatives`` (holomorphic maps) feed their Hessian
    identities.
    """

    evaluator: Callable
    out_dim: int = 1
    gradient: Optional[Callable] = None
    hessian: Optional[Callable] = None
    lipschitz_bound: Optional[float] = None
    hessian_bound: Optional[float] = None
    third_bound: Optional[float] = None
    label: str = "f"
    bounds_certified: bool = True
    quad_hessians: Optional[np.ndarray] = None
    complex_derivatives: Optional[tuple] = None

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.evaluator(np.atleast_2d(np.asarray(points, dtype=float)))


def identity_map(ifs: SelfSimilarIFS) -> PushforwardMap:
    k = ifs.ambient_dim
    return PushforwardMap(
        evaluator=lambda pts: pts[:, 0] if k == 1 else pts,
        out_dim=k,
        gradient=(lambda pts: np.ones_like(pts)) if k == 1 else None,
        hessian=(lambda pts: np.zeros((len(pts), 1, 1))) if k == 1 else None,
        lipschitz_bound=1.0,
        hessian_bound=0.0,
        third_bound=0.0,
        label="identity",
    )


def constant_map(ifs: SelfSimilarIFS, value: float = 0.0) -> PushforwardMap:
    """f(x) = value: the quadratic map with no quadratic or linear part."""
    _finite_array("value", value, ())
    return replace(quadratic_map(ifs, [{}], constant=[value]), label=f"constant({value})")


def square_map(ifs: SelfSimilarIFS) -> PushforwardMap:
    """f(x) = x^2 on the line: the quadratic map of x_0 x_0."""
    if ifs.ambient_dim != 1:
        raise Unsupported("square_map is one-dimensional; see sum_of_squares_map")
    return replace(quadratic_map(ifs, [{(0, 0): 1.0}]), label="square")


def _line_map(ifs: SelfSimilarIFS, label: str, f, df, d2f, bounds) -> PushforwardMap:
    """x -> f(x_0) from elementwise f, f', f''; Unsupported naming ``label`` unless k = 1.

    Only then is ``bounds()`` called for L, H and H3 on the support ball.
    ``f`` takes the (n,) column, ``df`` the (n, 1) points, ``d2f`` their (n, 1, 1) view.
    """
    if ifs.ambient_dim != 1:
        raise Unsupported(f"{label} is a map on the line (k = 1), got k = {ifs.ambient_dim}")
    lipschitz, hessian, third = bounds()
    return PushforwardMap(
        evaluator=lambda pts: f(pts[:, 0]),
        gradient=df,
        hessian=lambda pts: d2f(pts[:, :, None]),
        lipschitz_bound=lipschitz,
        hessian_bound=hessian,
        third_bound=third,
        label=label,
    )


def cube_map(ifs: SelfSimilarIFS) -> PushforwardMap:
    """f(x) = x^3 on the line; curvature vanishes at the origin, f''' = 6."""
    return _line_map(ifs, "cube", lambda x: x**3, lambda x: 3.0 * x**2, lambda x: 6.0 * x,
                     lambda: (3.0 * ifs.max_point_norm**2, 6.0 * ifs.max_point_norm, 6.0))


def sum_of_squares_map(ifs: SelfSimilarIFS) -> PushforwardMap:
    """f(x) = x_1^2 + ... + x_k^2: the quadratic map with Hessian 2I."""
    squares = {(p, p): 1.0 for p in range(ifs.ambient_dim)}
    return replace(quadratic_map(ifs, [squares]), label="sum_of_squares")


def _log_bounds(ifs: SelfSimilarIFS, shift: float):
    """(L, H, H3) = (1/lo, 1/lo^2, 2/lo^3) of +-log(x - shift), lo the ball's left end minus ``shift``.

    |f'''| = 2/|x - shift|^3 <= 2/lo^3.  BadConfig unless ``shift`` is
    finite, SupportNotPositive unless lo > 0 (NaN included).
    """
    if not math.isfinite(shift):
        raise BadConfig(f"shift must be finite, got {shift}")
    centre, radius = float(ifs.barycenter[0]), ifs.support_radius
    lo = centre - radius - shift
    if not lo > 0.0:
        raise SupportNotPositive(
            f"support ball [{centre - radius}, {centre + radius}] is not strictly right of {shift}"
        )
    return 1.0 / lo, 1.0 / lo**2, 2.0 / lo**3


def log_map(ifs: SelfSimilarIFS, shift: float = 0.0) -> PushforwardMap:
    """f(x) = log(x - shift); requires the support ball right of the shift (``_log_bounds``)."""
    return _line_map(ifs, f"log(x-{shift})" if shift else "log", lambda x: np.log(x - shift),
                     lambda x: 1.0 / (x - shift), lambda x: -1.0 / (x - shift) ** 2,
                     lambda: _log_bounds(ifs, shift))


def neg_log_map(ifs: SelfSimilarIFS, shift: float = 0.0) -> PushforwardMap:
    """f(y) = -log(y - shift), the second factor of radial-projection form: ``log_map`` negated."""
    return _line_map(ifs, f"-log(y-{shift})" if shift else "-log", lambda y: -np.log(y - shift),
                     lambda y: -1.0 / (y - shift), lambda y: 1.0 / (y - shift) ** 2,
                     lambda: _log_bounds(ifs, shift))


def quadratic_map(ifs: SelfSimilarIFS, coefficients, linear=None, constant=None) -> PushforwardMap:
    """Quadratic map R^k -> R^d from upper-triangular coefficients.

    ``coefficients[i][(p, q)]`` (p <= q, zero-based) is the coefficient of
    x_p x_q in component i; ``linear`` is an optional (d, k) linear part
    and ``constant`` an optional (d,) constant part.  Component Hessians
    H_i are constant, so the directional Hessian sum_i v_i H_i has
    constant determinant in x.  On the support ball component i has
    |grad f_i| <= |H_i| sup|x| + |lin_i| (|H_i| the spectral norm), so
    L is the norm of those bounds over i, H the norm of the |H_i| and
    H3 = 0.  A non-finite coefficient, ``linear`` or ``constant``, an
    index outside 0..k-1, or a ``linear`` or ``constant`` of another
    shape raises BadConfig naming the parameter.
    """
    k = ifs.ambient_dim
    coefficients = [dict(c) for c in coefficients]
    d = len(coefficients)
    hessians = np.zeros((d, k, k))
    for i, comp in enumerate(coefficients):
        for (p, q), c in comp.items():
            if not (0 <= p < k and 0 <= q < k):
                raise BadConfig(f"coefficients: index ({p}, {q}) outside 0..{k - 1}")
            hessians[i, p, q] += c      # c x_p x_q: c in H_pq and H_qp, 2c on the diagonal
            hessians[i, q, p] += c
    if not np.isfinite(hessians).all():
        raise BadConfig(f"coefficients must be finite, got {coefficients}")
    lin = _finite_array("linear", np.zeros((d, k)) if linear is None else linear, (d, k))
    const = _finite_array("constant", np.zeros(d) if constant is None else constant, (d,))

    def evaluator(pts):
        vals = 0.5 * np.einsum("np,ipq,nq->ni", pts, hessians, pts)
        vals += pts @ lin.T + const
        return vals[:, 0] if d == 1 else vals

    def jacobian(pts):
        jac = np.einsum("ipq,nq->nip", hessians, pts) + lin[None, :, :]
        return jac[:, 0, :] if d == 1 else jac

    spectral = np.array([np.linalg.norm(h, 2) for h in hessians])
    sup = ifs.max_point_norm
    lipschitz = float(np.linalg.norm(spectral * sup + np.linalg.norm(lin, axis=1)))
    hessian_bound = float(np.linalg.norm(spectral))
    return PushforwardMap(
        evaluator=evaluator,
        out_dim=d,
        gradient=jacobian,
        hessian=(lambda pts: np.broadcast_to(hessians[0], (len(pts), k, k)).copy()) if d == 1 else None,
        lipschitz_bound=lipschitz,
        hessian_bound=hessian_bound,
        third_bound=0.0,
        label="quadratic",
        quad_hessians=hessians,
    )


def holomorphic_map(
    ifs: SelfSimilarIFS,
    f: Callable[[complex], complex],
    df: Callable[[complex], complex],
    d2f: Callable[[complex], complex],
    lipschitz_bound: Optional[float] = None,
    hessian_bound: Optional[float] = None,
) -> PushforwardMap:
    """A holomorphic map C -> C viewed as R^2 -> R^2.

    Derivative bounds on the support ball may be passed explicitly;
    otherwise they are estimated from chaos-game samples (x 1.5 headroom)
    and the map is marked uncertified.
    """
    if ifs.ambient_dim != 2:
        raise Unsupported("holomorphic maps live on the plane (k = 2)")

    def to_complex(pts):
        return pts[:, 0] + 1j * pts[:, 1]

    def evaluator(pts):
        w = np.array([f(z) for z in to_complex(pts)])
        return np.column_stack([w.real, w.imag])

    def jacobian(pts):
        # Cauchy-Riemann: J = [[Re f', -Im f'], [Im f', Re f']].
        fp = np.array([df(z) for z in to_complex(pts)])
        jac = np.empty((len(pts), 2, 2))
        jac[:, 0, 0] = fp.real
        jac[:, 0, 1] = -fp.imag
        jac[:, 1, 0] = fp.imag
        jac[:, 1, 1] = fp.real
        return jac

    certified = lipschitz_bound is not None and hessian_bound is not None
    if not certified:
        pts = chaos_game(ifs, 10_000, seed=7)
        z = to_complex(pts)
        d1 = np.abs(np.array([df(v) for v in z]))
        d2 = np.abs(np.array([d2f(v) for v in z]))
        lipschitz_bound = lipschitz_bound or 1.5 * float(d1.max())
        hessian_bound = hessian_bound or 1.5 * float(d2.max())
    return PushforwardMap(
        evaluator=evaluator,
        out_dim=2,
        gradient=jacobian,
        lipschitz_bound=float(lipschitz_bound),
        hessian_bound=float(hessian_bound),
        label="holomorphic",
        bounds_certified=certified,
        complex_derivatives=(f, df, d2f),
    )


def graph_lift(ifs: SelfSimilarIFS, pmap: PushforwardMap) -> PushforwardMap:
    """T(x) = (x, f(x)): the lift of f onto its graph in R^(k+d).

    Evaluating the lifted transform at (0, xi) recovers the image
    transform at xi through the same quadrature code path.
    """

    def evaluator(pts):
        f_vals = pmap.evaluator(pts)
        if f_vals.ndim == 1:
            f_vals = f_vals[:, None]
        return np.concatenate([pts, f_vals], axis=1)

    lip = None
    if pmap.lipschitz_bound is not None:
        lip = math.sqrt(1.0 + pmap.lipschitz_bound**2)
    return PushforwardMap(
        evaluator=evaluator,
        out_dim=ifs.ambient_dim + pmap.out_dim,
        lipschitz_bound=lip,
        hessian_bound=pmap.hessian_bound,
        label=f"graph_lift({pmap.label})",
        bounds_certified=pmap.bounds_certified,
    )


def estimate_bounds(
    ifs: SelfSimilarIFS, pmap: PushforwardMap, seed: int = 0, n_samples: int = 10_000
) -> PushforwardMap:
    """Fill missing Lipschitz/Hessian bounds from finite differences.

    Estimates take 1.5 x the sampled maximum and mark the map (and hence
    every sample computed with it) as uncertified.
    """
    pts = chaos_game(ifs, n_samples, seed=seed)
    h = 1e-5 * (1.0 + ifs.max_point_norm)
    lip = pmap.lipschitz_bound
    hess = pmap.hessian_bound
    if lip is None:
        grads = _fd_gradient(pmap, pts, h)
        norms = np.linalg.norm(grads, axis=-1)
        if norms.ndim > 1:
            norms = np.linalg.norm(norms, axis=-1)
        lip = 1.5 * float(norms.max())
    if hess is None:
        hmats = _fd_hessian_scalar(pmap, pts, math.sqrt(h))
        hess = 1.5 * float(np.abs(np.linalg.eigvalsh(hmats)).max())
    return replace(
        pmap, lipschitz_bound=lip, hessian_bound=hess, bounds_certified=False
    )


def _fd_gradient(pmap: PushforwardMap, pts: np.ndarray, h: float) -> np.ndarray:
    k = pts.shape[1]
    cols = []
    for axis in range(k):
        e = np.zeros(k)
        e[axis] = h
        cols.append((pmap.evaluator(pts + e) - pmap.evaluator(pts - e)) / (2 * h))
    stacked = np.stack(cols, axis=-1)
    return stacked


def _fd_hessian_scalar(pmap: PushforwardMap, pts: np.ndarray, h: float) -> np.ndarray:
    """Central-difference Hessian for scalar-valued maps, (n, k, k)."""
    if pmap.out_dim != 1:
        raise Unsupported("finite-difference Hessian implemented for scalar maps")
    k = pts.shape[1]
    n = len(pts)
    out = np.empty((n, k, k))
    f0 = pmap.evaluator(pts)
    basis = np.eye(k) * h
    for p in range(k):
        fpp = pmap.evaluator(pts + basis[p])
        fpm = pmap.evaluator(pts - basis[p])
        out[:, p, p] = (fpp - 2.0 * f0 + fpm) / h**2
        for q in range(p + 1, k):
            fa = pmap.evaluator(pts + basis[p] + basis[q])
            fb = pmap.evaluator(pts + basis[p] - basis[q])
            fc = pmap.evaluator(pts - basis[p] + basis[q])
            fd = pmap.evaluator(pts - basis[p] - basis[q])
            out[:, p, q] = out[:, q, p] = (fa - fb - fc + fd) / (4.0 * h**2)
    return out


# ---------------------------------------------------------------------------
# image transforms: one row kernel; a single frequency is a batch of one
# ---------------------------------------------------------------------------


class _MuHatTable:
    """Piecewise-quadratic table of the centred transform on the line.

    The table holds columns on one grid of cells [i h, (i + 1) h]:
    h(eta) = e^{2 pi i eta b} mu_hat(eta), the transform of ``ifs.centred``
    and the order-1 inner transform of every cylinder, and with ``second``
    the second-moment transform h2(eta) = int u^2 e^{-2 pi i eta u} dmu_c(u)
    as well (the moment columns of ``_mu_hat_homog_many``).  Column c is
    certified to ``slacks[c]`` for |eta| <= ``eta_max`` (``slack`` and
    ``slack2``); negative frequencies resolve through conjugate symmetry.

    Nodes and cells.  ``_mu_hat_homog_many`` evaluates the columns at the
    half-step nodes j h / 2, a uniform grid whose blocks of phases it
    takes by angle addition, with bounds E_j that hold on either phase
    path (``_recursion_rounding``).  Cell i keeps the
    quadratic through v_0 = v_{2i}, v_m = v_{2i+1} and v_1 = v_{2i+2} as
    three coefficient columns, c0 = v_0, c1 = 4 v_m - 3 v_0 - v_1 and
    c2 = 2 (v_0 + v_1) - 4 v_m, and a lookup evaluates
    p(t) = c0 + t (c1 + t c2) by Horner's rule at t = frac(|eta| / h);
    ``values`` is c0, the column at j h.  The nodes are dropped.  A lookup
    reads cell int(|eta| * (1/h)), monotone in |eta|, so the cells up to
    int(eta_max * (1/h)) are the reachable ones, and exactly those are
    built: every node enters the slack and every node is reachable.

    Slack of column c, derived for the measure nu of ``ifs.centred`` as
    computed (supported in B(0, R), int u^2 dnu <= M2 = ``second_moment``,
    which bounds it as computed) and u = EPS / 2:

    * nodes.  The interpolant of the computed values differs from that of
      nu_hat's by sum_j e_j L_j(t), and the Lagrange basis of the nodes 0,
      1/2, 1 has Lebesgue constant max_t sum_j |L_j(t)| = 5/4 (at t = 1/4
      and 3/4): 5/4 max_j E_j.
    * interpolation.  A column f errs by f[x_0, x_1, x_2, x] w(x) with
      |w| <= (sqrt(3) / 36) h^3 at t = (3 +- sqrt(3)) / 6, and by the
      Hermite-Genocchi formula the divided difference is an average of
      f''' / 6, complex f included: (sqrt(3) / 216) h^3 max|f'''|.
      |h'''| <= (2 pi)^3 int |u|^3 dnu <= (2 pi)^3 R M2 and
      |h2'''| <= (2 pi)^3 int |u|^5 dnu <= (2 pi)^3 R^3 M2, so h2's term is
      R^2 times h's.  The step puts h's term at 3/4 of ``table_tol``, so
      that with the 5/4 the slacks of the ``decay`` and ``convolve``
      tables stay below a linear table's at the same ``table_tol``; it
      grows as table_tol^(1/3), not table_tol^(1/2), about 30x on
      ``decay``'s table.
    * arguments.  x = fl(|eta| fl(1/h)) is within (2 u + u^2) |eta| of
      |eta| / h, and t = x - int(x) is exact, so p is evaluated at h x,
      within EPS eta_max (1 + u) of |eta|; the grid rows fl(j h / 2) lie
      within u (eta_max + h) of j h / 2, 5/4 u (eta_max + h) through the
      basis.  Both are below 2 EPS (eta_max + h), and nu_hat's column c is
      2 pi R^(2c+1)-Lipschitz (|h'| <= 2 pi R, |h2'| <= 2 pi int |u|^3
      <= 2 pi R^3): 4 pi R^(2c+1) EPS (eta_max + h).
    * coefficients and Horner (per real part, |v| <= R^2c: |h| <= 1,
      |h2| <= M2 <= R^2).  c1 = (4 v_m - 3 v_0) - v_1 rounds by at most
      (3 + 7 + 8) u R^2c and c2 = 2 (v_0 + v_1) - 4 v_m by (4 + 8) u R^2c,
      which move p by 30 u R^2c at |t| < 1.  |c1|, |c2| <= 8 R^2c, so
      Horner's four operations round by (8 + 16 + 16 + 17) u R^2c: 87 u
      per part, 61.6 EPS R^2c as a complex number, which 64 EPS R^2c
      covers with the second-order terms.
    * centring.  nu_hat against h: ``_centring_rounding`` at eta_max.

    The clamp.  A step that would need more than MAX_TABLE_CELLS - 1
    cells widens to eta_max / (MAX_TABLE_CELLS - 1) before anything is
    allocated, so the table has at most ``MAX_TABLE_CELLS`` cells and its
    three coefficient columns take no more bytes than 4,000,000 rows of a
    linear table.  The slack is computed from the widened step: it stays
    certified, only larger, and can exceed the requested ``table_tol``,
    which the table keeps with ``widened`` set.  The build costs
    nodes x levels x columns: the depth at which the largest node closes
    at ``table_tol``.
    """

    __slots__ = ("h", "cells", "slacks", "eta_max", "table_tol", "widened")

    def __init__(self, ifs, eta_max: float, table_tol: float, second: bool = False):
        radius = ifs.support_radius
        third = TWO_PI**3 * radius * ifs.second_moment      # |h'''| <= (2 pi)^3 R M2
        h = (0.75 * table_tol / (math.sqrt(3.0) / 216.0 * third)) ** (1.0 / 3.0)
        self.table_tol, self.widened = table_tol, eta_max > (MAX_TABLE_CELLS - 1) * h
        if self.widened:
            h = eta_max / (MAX_TABLE_CELLS - 1)
        n = int(eta_max * (1.0 / h)) + 1
        etas = np.zeros((2 * n + 1, ifs.ambient_dim))
        etas[:, 0] = np.arange(2 * n + 1) * (0.5 * h)
        vals, errs, _ = _mu_hat_homog_many(ifs.centred, etas, table_tol, second)
        vals, errs = vals.reshape(-1, 2 * n + 1), errs.reshape(-1, 2 * n + 1)
        self.h = h
        self.eta_max = eta_max
        self.cells = []     # (c0, c1, c2) per column, each contiguous: fast gathers
        for v in vals:
            v0, vm, v1 = v[:-1:2], v[1::2], v[2::2]
            self.cells.append((v0.copy(), 4.0 * vm - 3.0 * v0 - v1, 2.0 * (v0 + v1) - 4.0 * vm))
        interpolation = math.sqrt(3.0) / 216.0 * h**3 * third
        shift = 2.0 * TWO_PI * radius * EPS * (eta_max + h)
        self.slacks = [
            1.25 * float(col_errs.max())
            + radius ** (2 * c) * (interpolation + shift + 64.0 * EPS)
            + _centring_rounding(ifs, eta_max, second=c == 1)
            for c, col_errs in enumerate(errs)
        ]

    values = property(lambda self: self.cells[0][0])
    slack = property(lambda self: self.slacks[0])
    slack2 = property(lambda self: self.slacks[1] if len(self.slacks) > 1 else None)

    def lookup(self, eta: np.ndarray, work: Optional[dict] = None):
        """Every column at every entry of ``eta``, from one index computation: [h] or [h, h2].

        The columns are buffers of the workspace ``work`` (``_buffer``).
        """
        # In the workspace's arrays: the batch kernel calls this on its
        # largest arrays.  The index and the fraction are computed once for
        # all columns, and the fraction is cast to complex once: t + 0i
        # scales both parts by t exactly as a real product does, and numpy
        # multiplies complex by complex faster than complex by float.
        work = {} if work is None else work
        frac = np.abs(eta, out=_buffer(work, "frac", eta.shape))
        frac *= 1.0 / self.h
        idx = _buffer(work, "idx", eta.shape, np.int64)
        np.copyto(idx, frac, casting="unsafe")      # truncation, as astype
        if idx.max() >= len(self.values):
            raise IndexError(f"a lookup past the table's eta_max {self.eta_max}")
        frac -= idx
        t = _buffer(work, "t", eta.shape, complex)
        np.copyto(t, frac)
        # conjugate symmetry; at eta = 0 the imaginary part is 0 already
        sign = np.sign(eta, out=_buffer(work, "sign", eta.shape)) if eta.min() < 0.0 else None
        gather = _buffer(work, "gather", eta.shape, complex)
        outs = []
        for c, (c0, c1, c2) in enumerate(self.cells):
            # mode "clip" gathers into ``out`` unbuffered; the index is checked above
            out = np.take(c2, idx, out=_buffer(work, f"column{c}", eta.shape, complex), mode="clip")
            out *= t
            out += np.take(c1, idx, out=gather, mode="clip")
            out *= t
            out += np.take(c0, idx, out=gather, mode="clip")
            if sign is not None:
                np.multiply(out.imag, sign, out=out.imag)
            outs.append(out)
        return outs


def _remainder_terms(pmap, order: int, xi_norm: float):
    """A scheme's per-cylinder remainder at |xi| = ``xi_norm``: terms (c_j, j) of sum_j c_j x^j.

    Per unit weight at x = r_w R: 2 pi |xi| L_f x for order 0 (the
    closure), pi |xi| H x^2 for order 1 (the Taylor term), and
    1/2 (pi |xi| H x^2)^2 + (pi/3) |xi| H3 x^3 for order 2.  Its root at
    the scheme's share of tol is the stopping scale (``_stopping_scale``),
    and a cover's bound charges the last term, linear in |xi|, as
    |xi| c_j(1) R^j sum_w p_w r_w^j; order 2 charges its quartic with the
    computed q_w = r_w^2 f''(x_w) in place of H r_w^2.
    """
    if order == 0:
        return ((TWO_PI * xi_norm * pmap.lipschitz_bound, 1),)
    if order == 1:
        return ((math.pi * xi_norm * pmap.hessian_bound, 2),)
    return ((0.5 * (math.pi * xi_norm * pmap.hessian_bound) ** 2, 4),
            (math.pi / 3.0 * xi_norm * pmap.third_bound, 3))


def _stopping_scale(ifs, terms, target: float) -> float:
    """The scale r at which the remainder sum_j c_j x^j of ``terms``, x = r R, is ``target``.

    inf when the remainder at x = R is within ``target`` already: every
    scale >= 1 is the root's cover.  The remainder is convex and
    increasing in x, so Newton's method from the smallest single-term
    root (target / c_j)^(1/j), which lies above the root, decreases to it;
    one term's start is its root.  Some term exceeds target / n at R (n
    terms), so the start is below n^(1/j) R and x^j cannot overflow at a
    subnormal |xi| either.
    """
    radius = ifs.support_radius
    if sum(c * radius**p for c, p in terms) <= target:
        return math.inf
    x = min((target / c) ** (1.0 / p) for c, p in terms if c > 0.0)
    for _ in range(100):
        step = (sum(c * x**p for c, p in terms) - target) / sum(p * c * x ** (p - 1) for c, p in terms)
        if not step > 0.0:
            break
        x -= step
    return x / radius


def _refusal(ifs, pmap, scheme: str) -> Optional[FractalFourierError]:
    """The error ``scheme`` raises for this system and map, or None when it can run them.

    ``_image_rows`` raises it before any work, and ``_fixed_cover`` takes
    ``order2`` only where it is None.  Order 2 needs what order 1 needs.
    """
    k, d = ifs.ambient_dim, pmap.out_dim
    if scheme == "order2":
        if k != 1 or d != 1:
            return Unsupported(f"order2 is implemented on the line only (k = {k}, d = {d}); use order1")
        if not ifs.is_homogeneous:
            return Unsupported(
                "order2 needs a homogeneous system (one shared ratio and orientation); "
                "use order1 for non-homogeneous systems"
            )
        if pmap.third_bound is None:
            return MissingHessianBound(
                f"order2 needs third_bound, a bound on |f'''|, and map {pmap.label!r} has none"
            )
        if pmap.hessian is None:
            return BadConfig("order2 needs a hessian evaluator")
    if scheme in ("order1", "order2"):
        if pmap.hessian_bound is None:
            return MissingHessianBound(f"{scheme} needs hessian_bound (use estimate_bounds)")
        if pmap.gradient is None:
            return BadConfig(f"{scheme} needs a gradient evaluator")
    elif scheme == "order0" and pmap.lipschitz_bound is None:
        return BadConfig("order0 needs lipschitz_bound (use estimate_bounds)")
    return None


def _fixed_cover(ifs, pmap, tau: float, xi_max: float):
    """(scheme, snapped scale) of one fixed cover whose error is about ``tau`` |xi| up to ``xi_max``.

    The order-1 scale is the stopping scale (``_stopping_scale``) of its
    Taylor term (``_remainder_terms``) at tau ``xi_max``: pi |xi| H (r R)^2
    <= tau |xi| per unit weight.  Where ``order2`` can run the system and
    map (``_refusal``), it takes the stopping scale of its remainder at
    ``xi_max`` at the order-1 remainder at ``xi_max`` and s R, s the
    snapped order-1 scale: the coarsest cover whose remainder at
    ``xi_max`` is within that term.  The remainder over that term grows
    with |xi|, so it is within it at every smaller |xi| too.  Anywhere
    else it keeps ("order1", s), and a map without curvature (H None or
    0) keeps ("order1", None).  Scales are snapped (``ifs._count_stopping``),
    so equal scales name equal covers.  Order 2 also tabulates h2, on a
    longer table for its coarser cover; with the quadratic table that
    build is small beside the kernel's fewer terms, so on the README's
    uniform[1, 2] log factors order 2 is also the faster scheme, from
    ``max_frequency`` 512 up.
    """
    if not pmap.hessian_bound:
        return "order1", None
    taylor = _remainder_terms(pmap, 1, xi_max)
    scale = _count_stopping(ifs, _stopping_scale(ifs, taylor, tau * xi_max))[1]
    if _refusal(ifs, pmap, "order2") is not None:
        return "order1", scale
    target = sum(c * (scale * ifs.support_radius) ** p for c, p in taylor)
    return "order2", _count_stopping(ifs, _stopping_scale(ifs, _remainder_terms(pmap, 2, xi_max), target))[1]


def _jacobian_bound(ifs, pmap) -> float:
    """J >= |J_f| (Frobenius norm) on the support ball B(b, R), so |B_w| <= r_w J.

    J = min(|J_f(b)| + c H R, c L_f), c = sqrt(min(k, d)): H makes every
    gradient of <v, f> (unit v) H-Lipschitz on the ball, and L_f, when
    given, bounds the operator norm of J_f there.
    """
    c = math.sqrt(min(ifs.ambient_dim, pmap.out_dim))
    jac = float(np.linalg.norm(pmap.gradient(ifs.barycenter[None, :])))
    jac += c * pmap.hessian_bound * ifs.support_radius
    if pmap.lipschitz_bound is not None:
        jac = min(jac, c * pmap.lipschitz_bound)
    return jac


def _linear_forms(ifs, pmap, ratios, orients, anchors, order1: bool):
    """Per-leaf linear forms in xi of a block of cover leaves: (2 pi A (n, d), B (n, k, d)).

    Cylinder w contributes p_w e^{-2 pi i <xi, A_w>} h(B_w xi), with
    A_w = f(x_w), B_w = r_w O_w^T J_f(x_w)^T and h the centred transform
    e^{2 pi i <eta, b>} mu_hat(eta): on the cylinder x - x_w =
    r_w O_w (y - b) for y ~ mu.  Order 0 has no inner transform (B is
    None).
    """
    n, d = len(ratios), pmap.out_dim
    a_forms = TWO_PI * pmap.evaluator(anchors).reshape(n, d)
    if not order1:
        return a_forms, None
    jac = pmap.gradient(anchors).reshape(n, d, ifs.ambient_dim)
    return a_forms, ratios[:, None, None] * np.einsum("nji,nej->nie", orients, jac)


def _grid_step(freqs: np.ndarray):
    """(j0, delta) when the rows of ``freqs`` (m, 1) are exactly (j0 + i) * delta with j0 >= 0, else None.

    delta is the first two rows' difference, or the row j's quotient by j
    or a float next to it: whichever of them gives every row.
    """
    if freqs.shape[1] != 1 or len(freqs) < 2:
        return None
    f = freqs[:, 0]
    step = f[1] - f[0]
    if not 0.0 < abs(step) < math.inf or f[0] / step < -0.5:
        return None
    first = round(f[0] / step)
    top = first + len(f) - 1
    last = f[-1] / top
    for delta in (step, last, np.nextafter(last, -math.inf), np.nextafter(last, math.inf)):
        # the last row first: most sets that are not a grid fail there, before any array is made
        if f[-1] == top * delta and np.array_equal(f, (first + np.arange(len(f))) * delta):
            return first, float(delta)
    return None


def _buffer(work: dict, name: str, shape, dtype=float) -> np.ndarray:
    """An array of ``shape`` from the workspace ``work``: one flat buffer per name, reused.

    A buffer grows only when a block needs more, so the row kernel's
    blocks, whose jobs own one workspace each, allocate nothing between
    them: their speed does not hang on the allocator's heap history.
    """
    size = math.prod(shape)
    if name not in work or len(work[name]) < size:
        work[name] = np.empty(size, dtype)
    return work[name][:size].reshape(shape)


def _unit_phases(theta: np.ndarray, out: np.ndarray, work: dict) -> np.ndarray:
    """e^{-i theta} into the complex ``out``; ``theta`` is overwritten.

    One sine per argument (Cody & Waite, Software Manual for the
    Elementary Functions, 1980): theta = k pi/2 + r with
    k = rint(theta 2/pi) and r = ((theta - k C1) - k C2) - k C3, the
    parts of pi/2 in ``HALF_PI_PARTS``, so |r| <= pi/4 up to rounding;
    then s = sin r, cos r = sqrt(1 - s^2), at least 0.7 there, and the
    quarter turn (-i)^(k mod 4), an exact complex product by 0 and +-1.
    A block whose largest |theta| is at most pi/4 has k = 0 everywhere
    and skips the reduction and the turn.  ``theta`` and ``out`` are
    contiguous; the one scratch array, of about theta.size floats, is
    the workspace's (``_buffer``): k, then the turns as complex numbers,
    half of them at a time.  ``_phase_rounding`` derives the error.
    """
    angles, values = theta.reshape(-1), out.reshape(-1)
    top = max(angles.max(), -angles.min())
    reduced = top > QUARTER_PI
    if reduced:
        half = (angles.size + 1) // 2
        units = _buffer(work, "turns", (half,), complex)
        k, part = units.view(float)[: angles.size], values.view(float)[: angles.size]  # out is free until sin
        np.multiply(angles, TWO_OVER_PI, out=k)
        np.rint(k, out=k)
        for c in HALF_PI_PARTS:
            np.multiply(k, c, out=part)
            np.subtract(angles, part, out=angles)
        if top > 2.0**63:
            # |k| > 2^62 is a multiple of 4, like the clipped value: the cast below stays in range
            np.clip(k, -(2.0**62), 2.0**62, out=k)
    np.sin(angles, out=angles)
    np.negative(angles, out=values.imag)
    np.square(angles, out=angles)
    np.subtract(1.0, angles, out=angles)
    np.sqrt(angles, out=values.real)
    if reduced:
        turns = angles.view(np.int64)
        np.copyto(turns, k, casting="unsafe")
        np.bitwise_and(turns, 3, out=turns)
        for start in (0, half):
            chunk = turns[start : start + half]
            values[start : start + half] *= np.take(QUARTER_TURNS, chunk, mode="clip", out=units[: len(chunk)])
    return out


def _row_phases(freqs: np.ndarray, coefs: np.ndarray, out: np.ndarray, work: dict):
    """e^{-i <freqs[r], coefs[w]>} for ``freqs`` (r, d) and ``coefs`` (n, d), into ``out`` (r, n).

    The angles are the outer product on the line, else a matrix product.
    On a uniform grid these are the factors of the phases: row
    j = j0 + l of a block whose first row is j0 has
    e^{-i (j delta) c} = base[l] offsets[j0], with the base
    e^{-i (l delta) c} (l < L) shared by every block and an offset per
    block, which its caller scales by the weights.  The row kernel
    (``grid_rows``), the product form (``_mu_hat_homog_many``, its
    coefficients as the rows, so that its blocks are (n, rows)) and the
    Fourier inversion of ``experiments`` take their phases here.  The
    angles and the scratch of ``_unit_phases`` are buffers of ``work`` of
    ``out``'s size.
    """
    theta = _buffer(work, "theta", out.shape)
    if freqs.shape[1] == 1:
        np.multiply(freqs, coefs[:, 0], out=theta)
    else:
        np.matmul(freqs, coefs.T, out=theta)
    return _unit_phases(theta, out, work)


def _run_rows(run, jobs, m: int, threads: int):
    """(values, bounds, leaves) of m rows, scattered from ``run(job)`` per job.

    ``run`` returns (rows, values, bounds, leaves) for the rows of its job;
    rows no job covers keep (1, 0, 1), exact at xi = 0.  The jobs are
    fixed before any runs, so the output does not depend on ``threads``.
    """
    values, errors = np.ones(m, dtype=complex), np.zeros(m)
    leaves = np.ones(m, dtype=object)     # exact ints: N^depth can pass the int64 range
    if threads > 1:
        # imported here: concurrent.futures and the logging it loads cost
        # every process that runs on one thread a few ms at start
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = map(run, jobs)
    for rows, vals, errs, counts in results:
        values[rows], errors[rows], leaves[rows] = vals, errs, counts
    return values, errors, leaves


def _image_rows(ifs, pmap, xis, tol, scheme, scale, budget, threads):
    """Order-0, order-1 or order-2 image transform at every row of ``xis`` (m, d).

    ``exact_recursion`` is mu_hat itself (``_mu_hat_rows``).  A scheme
    that cannot run the system and map (``_refusal``) raises before any
    work, at xi = 0 too.  Rows with xi = 0 are exact.  The others share
    the cover at ``scale`` when it is given, else they are grouped by
    octave of |xi| and each group takes the stopping scale
    (``_stopping_scale`` of ``_remainder_terms``) of its largest |xi| at
    tol, tol/2 for orders 1 and 2.  Every group's cover is counted against
    ``budget`` (``_checked_count``, the top octave first) before any is
    expanded.  A job whose row sums are not all finite (a map that is NaN
    or infinite at an anchor it evaluates, or whose phases 2 pi <xi, f(x)>
    overflow) raises BadConfig naming the map.  A non-finite value away
    from the evaluated anchors is not seen.  Orders 1 and 2 check
    |B_w| <= 1.0001 s J at every leaf and raise BadConfig naming the map
    and its L and H where it fails; order 0 checks
    |f(x_v) - f(x_w)| <= 1.0001 L |x_v - x_w| at consecutive anchors of a
    leaf block (the max norm on the left and the 1-norm on the right, so
    a failure refutes L in any dimension), up to 4 EPS max |A_w| of
    rounding, and raises BadConfig naming the map and its L.  Anchors can
    refute a declared bound, never prove it, and H3 is not checked.

    Jobs and blocks.  Rows run in fixed jobs of at most ``JOB_TERMS`` row x
    leaf terms: a job is the unit of the thread scatter.  Covers are not
    stored: each job streams its group's cover from ``_cover_blocks``, leaf
    blocks of at most ``FRONTIER_BLOCK``, whose row sums
    ``grid_rows._grid_sums`` forms; the block sums of a row are combined
    with TwoSum (Knuth: t = s + x is rounded, and (s - (t - z)) + (x - z)
    with z = t - s is exactly what t lost), kept in a carry that joins the
    sum at the end.  Rows exactly (j0 + i) delta (``_grid_step``;
    ``multiplicative_convolution`` builds its grid that way) run in
    blocks of L rows with K nodes (``grid_rows._grid_plan``) and sum by
    matrix products; any other rows are blocks of one row (L = K = 1),
    whose terms are summed pairwise along the leaf axis (one complex
    ``np.add.reduce``).  See Blocks of rows below.  Each product or sum
    takes about ``PHASE_BLOCK`` terms, so its temporaries stay in cache,
    in buffers of the job's workspace (``_buffer``) reused by every block.

    The order-1 inner transform is the centred transform
    h(eta) = e^{2 pi i <eta, b>} mu_hat(eta), the transform of
    ``ifs.centred``, so A_w = 2 pi f(x_w) (``_linear_forms``).  It is a
    set of columns at each inner frequency, h and for order 2 also h2,
    whose source the system fixes, so one frequency and many read the
    same one.  A homogeneous system on the line (k = d = 1, every system
    ``order2`` takes) reads one ``_MuHatTable``, built before any job
    runs, whose quadratic cells a lookup evaluates by Horner's rule and
    whose slack per column (its node bounds, interpolation and lookup
    rounding, and centring) is the column's inner bound.  Any other
    system evaluates h exactly, once per leaf block at all the job's node
    x leaf frequencies: ``_mu_hat_rows`` of ``ifs.centred`` at tol/2, the
    product form for homogeneous systems, else one nested order-0 call
    of this kernel on its identity (``threads`` 1), octave-grouped like
    the outer rows, whose covers (the same words) are counted against
    ``budget``; each bound adds the centring allowance
    ``_centring_rounding``.

    Order 2 (homogeneous systems on the line, maps with ``third_bound``)
    adds the quadratic phase through the leaf column
    q_w = r_w^2 f''(x_w): a row's value is
    sum_w p_w e^{-i theta_w} h_w - i pi xi sum_w p_w q_w e^{-i theta_w} h2_w,
    the second sum over a second block, the weighted phases times q_w,
    and multiplied by -i pi xi once per row, so h2's bound counts
    pi |xi| |q_w| times.  Per unit weight a term's inner value
    h - i pi xi q_w h2 is at most 1 + kappa with
    kappa = pi |xi| max_w |q_w| R^2, and its h2 part is
    2 pi R kappa-Lipschitz (|h2'| <= 2 pi int |u|^3 <= 2 pi R^3), so the
    roundoff, phase and cover rounding terms, derived for |h| <= 1 and a
    2 pi R-Lipschitz h, scale by 1 + kappa: the second sum's terms are
    at most |q_w| R^2 per unit weight, so its phase and summation
    rounding are its share kappa / (pi |xi|) of them, and the product by
    pi |xi| makes that kappa.  The rest adds at most EPS ((D + 2) kappa
    + 1/2), below the EPS ((D + 6) kappa + 1) charged: q_w carries the
    relative rounding 2 D u of r_w^2 (D - 1 level products, the square)
    and f'', the product by q_w, pi xi and the product by -i pi xi one u
    each (the factor's real part is 0, so each part is one rounded
    product, with or without an FMA), (2 D + 3) u kappa in all, and the
    sum of the two row sums u (1 + kappa).  The cover rounding's gain
    grows by H3 R^2 / 2: an anchor moved by delta moves the cubic Taylor
    term by pi |xi| H3 (r_w R)^2 delta to first order.

    Blocks of rows.  A job's rows are in blocks of L rows: row j = j0 + l
    has the phases base[l] offsets[j0] (``_row_phases``), so for L > 1 a
    leaf block's row sums are columns of one matrix product per chunk of
    blocks.  The inner columns G move little
    over a block: on leaf w, g(l) = G((j0 + l) delta B_w) has
    |g^(K)| <= (2 pi R |delta| |B_w|)^K, since
    |h^(K)| <= (2 pi)^K int |u|^K dnu <= (2 pi R)^K and
    |h2^(K)| <= (2 pi)^K int |u|^(K+2) dnu <= (2 pi)^K R^(K+2), R^2 times
    h's.  So every inner source (the table, the exact transform, or none
    with K = 1 for order 0) is read only at K Chebyshev nodes x_k of each
    block (``grid_rows._row_nodes``), at the frequencies
    (j0 + x_k) delta B_w, and enters through the Lagrange weights
    l_k(l).  ``grid_rows._grid_plan`` fixes L and K per group before any
    job runs: K from the remainder at the spread pi R (L - 1) |delta| s J
    (within 16 EPS), L halved while no K up to 16 reaches it.  A
    block's nodes lie in [0, c - 1], the span of its own c rows, and so
    do those of the last, shorter block of a job (a block of at most K
    rows takes its rows themselves, exactly): its node frequencies lie
    between those of its rows, inside the table's range.  Node targets,
    the table's and the nested inner tol, are divided by Lambda / rho,
    Lambda the largest Lebesgue bound of the jobs and rho the smallest
    ratio: a node error is mostly a closure, a step function of its
    target within a factor rho below it, so Lambda times it stays below
    the error at the undivided target, and the inner part of no row
    bound grows.

    The ``row_interpolation`` term (``grid_rows._row_interpolation``) is
    what a grid row's bound adds to the bound below, per unit weight and
    with N the inner bound charged there:
    * nodes.  A table's node values are within its slacks N of G, so
      their interpolant is within Lambda N of the interpolant of G:
      (Lambda - 1) N beyond N.  The node errors e_{k,w} of an exact
      inner transform move a row's sum by at most
      sum_k |l_k(l)| sum_w p_w e_{k,w}, and that is its N: nothing
      beyond it.
    * remainder.  |g(l) - sum_k l_k(l) g(x_k)| <= omega / K! max|g^(K)|,
      so R_K = omega / K! (2 pi R |delta|)^K (sum_w p_w |B_w|^K +
      pi |xi| R^2 sum_w p_w |q_w| |B_w|^K), the second sum for h2.  On
      Chebyshev nodes omega <= ((L - 1) / 2)^K / 2^(K - 1): per unit
      weight (pi R Delta eta_w)^K / (2^(K - 1) K!), with
      Delta eta_w = (L - 1) |delta| |B_w|.
    * rounding, 1 + kappa times, for L > 1.  The matrix product sums a
      leaf block of at most W terms in any order,
      ``_roundoff(W, pairwise=False)`` per node sum, Lambda times
      through the combine; the per-node products count Lambda times
      (``_phase_rounding``), 3 EPS; the combine, K real-by-complex
      products and K - 1 sums, errs by K EPS Lambda, and the weights'
      own rounding (``grid_rows._row_nodes``) by 2K EPS Lambda:
      (3K + 3) EPS Lambda with the products.  A node frequency
      fl(fl(fl(j0 + x_k) delta) B_w) rounds by 3u relative, which moves
      G by 1.5 EPS |xi| 2 pi R |B_w| per node, Lambda times through the
      combine, with the job's largest |xi| and reach 2 pi R s J.
    * the rounding terms that multiply the inner value (phases,
      anchors, weights) are derived for |h| <= 1, and their margins (at
      least 1.6 times their parts that scale with |h|) cover a value
      within N <= 0.4 of h, as in the bound below; the interpolant
      passes N by at most the node and remainder parts above, which
      multiply the carried terms.
    A block of one row is its own node, at weight exactly 1 with
    Lambda = 1 and omega = 0 (``grid_rows._row_nodes``), summed pairwise
    at its own xi B_w: each part is 0, and its sums and bound are those
    below.

    Every order assembles a row's bound alike, with kappa = 0 for orders
    0 and 1: the remainder, |xi| c(1) R^j sum_w p_w r_w^j for the linear
    term of ``_remainder_terms`` (order 2 adds
    |xi|^2 pi^2 R^4 / 2 sum_w p_w q_w^2), plus the inner bound (order 2's
    adds pi |xi| sum_w p_w |q_w| slack2 for the table), plus 1 + kappa
    times roundoff, the phase rounding ``_phase_rounding`` (both phase
    paths) and ``_cover_rounding``, plus EPS ((D + 6) kappa + 1).  The
    coefficient and the largest |A_w| accumulate over
    the blocks; the rest comes from each group's count (snapped scale s,
    depth D) and J (``_jacobian_bound``), with |B_w| <= s J: the table
    range max_g |xi_g| s_g J (x 1.0001, + 1e-9), the inner reach
    2 pi R s J (h is 2 pi R-Lipschitz) and the cover rounding's D and
    gain J + H R.
    """
    refusal = _refusal(ifs, pmap, scheme)
    if refusal is not None:
        raise refusal
    if scheme == "exact_recursion":
        return _mu_hat_rows(ifs, xis, tol, budget, threads)
    m, d = xis.shape
    k = ifs.ambient_dim
    order = IMAGE_SCHEMES.index(scheme)
    order1, order2 = order >= 1, order == 2     # order 2 adds to order 1's linear forms
    # |xi| on the line: np.linalg.norm's sqrt(xi^2) is |xi| wherever xi^2
    # neither overflows nor underflows, and overflows to inf above ~1.3e154
    norms = np.abs(xis[:, 0]) if d == 1 else np.linalg.norm(xis, axis=1)
    # Not norms > 0: the norm of a row off the line below ~1e-154 underflows
    # to 0, which leaves its closure term far below the roundoff terms, not exact.
    active = np.flatnonzero(xis.any(axis=1))
    if len(active) == 0:
        return _run_rows(None, [], m, threads)
    if scale is not None:
        groups = [(active, scale)]
    else:
        octaves = np.floor(np.log2(np.maximum(norms[active], 1.0)))
        # Top octave first: it has the largest cover, so the budget check
        # below fails on it first.  A stable sort keeps each octave's rows
        # in order (np.unique would import numpy.ma, about 17 ms, on first use).
        by_octave = np.argsort(-octaves, kind="stable")
        cuts = np.flatnonzero(np.diff(octaves[by_octave])) + 1
        target = 0.5 * tol if order1 else tol      # orders 1 and 2 leave tol/2 to the inner transform
        groups = [
            (rows, _stopping_scale(ifs, _remainder_terms(pmap, order, float(norms[rows].max())), target))
            for rows in np.split(active[by_octave], cuts)
        ]
    # (rows, leaf count, scale of the largest leaf, depth) per group
    covers = [(rows, *_checked_count(ifs, grp_scale, budget)) for rows, grp_scale in groups]

    radius = ifs.support_radius
    coef, power = _remainder_terms(pmap, order, 1.0)[-1]
    unit = coef * radius**power     # the remainder's linear term per |xi| and unit r_w^power
    jac, gain = 0.0, pmap.lipschitz_bound
    if order1:
        jac = _jacobian_bound(ifs, pmap)
        gain = jac + pmap.hessian_bound * radius
        if order2:
            gain = gain + 0.5 * pmap.third_bound * radius**2
    # grid rows in blocks of L rows with K nodes; any other rows in blocks of one row, their own node
    grid = _grid_step(xis)
    jobs = []
    for rows, n_leaves, cover_scale, depth in covers:
        step = max(1, JOB_TERMS // n_leaves)
        size, nodes = (1, 1) if grid is None else grid_rows._grid_plan(
            n_leaves, grid[1], TWO_PI * radius * cover_scale * jac)
        for i in range(0, len(rows), step):
            job_rows = rows[i : i + step]
            plan = grid_rows._row_plan(len(job_rows), size, nodes)
            jobs.append((job_rows, n_leaves, cover_scale, depth, plan))
    # Interpolation multiplies node errors by up to the largest Lebesgue
    # bound Lambda of the jobs.  A node error is mostly a closure, a step
    # function of its target within a factor rho (the smallest ratio) below
    # it: a level of the product form scales it by rho, and a cover's leaves
    # lie within rho of its scale.  So node targets are divided by
    # Lambda / rho, and Lambda times a node error stays below the error at
    # the undivided target.
    lebesgue = max(job[-1].lebesgue for job in jobs)
    shrink = float(ifs.ratios.min()) / lebesgue if lebesgue > 1.0 else 1.0
    mu_table = None
    if order1 and ifs.is_homogeneous and k == d == 1:
        # every leaf of a group has |B_w| <= s J, s the group's snapped scale
        eta_max = max(float(norms[rows].max()) * (s * jac) for rows, _, s, _ in covers)
        # order 2 tabulates h2 as well
        mu_table = _MuHatTable(ifs, eta_max * 1.0001 + 1e-9, min(tol / 8.0, 1e-8) * shrink, order2)
    inner = (ifs, mu_table, 0.5 * tol * shrink, budget) if order1 else None
    delta = 0.0 if grid is None else abs(grid[1])      # one-row blocks span no frequencies

    def run(job):
        rows, n, cover_scale, depth, plan = job
        x = xis[rows]
        work = {}       # this job's block buffers
        total, carry = np.zeros((2, len(rows)), dtype=complex)
        moment, a_max, inner_err = 0.0, 0.0, 0.0
        quartic, curv_sum, curv_max = 0.0, 0.0, 0.0     # order 2: sums of p q^2, p |q|; max |q|
        spread, spread2 = 0.0, 0.0      # sums of p |B|^K and p |q| |B|^K
        first = None if grid is None else (grid[0] + rows[0], grid[1])
        curv = None
        for ratios, orients, _, weights, anchors in _cover_blocks(ifs, cover_scale):
            a_forms, b_forms = _linear_forms(ifs, pmap, ratios, orients, anchors, order1)
            moment += float(np.sum(weights * ratios**power))
            if order2:
                curv = ratios**2 * pmap.hessian(anchors)[:, 0, 0]     # q_w = r_w^2 f''(x_w)
                quartic += float(np.sum(weights * curv**2))
                curv_sum += float(np.sum(weights * np.abs(curv)))
                curv_max = max(curv_max, float(np.abs(curv).max()))
            a_max = max(a_max, float(np.linalg.norm(a_forms, axis=1).max()))
            if order1:
                b_norms = np.linalg.norm(b_forms.reshape(len(weights), -1), axis=1)     # |B_w| <= r_w |J_f|
                if b_norms.max() > 1.0001 * cover_scale * jac:
                    raise BadConfig(f"map {pmap.label!r}: an anchor refutes its declared "
                                    f"L = {pmap.lipschitz_bound} and H = {pmap.hessian_bound}, r_w |J_f| = "
                                    f"{b_norms.max():.6g} > 1.0001 s J = {1.0001 * cover_scale * jac:.6g}")
                powers = b_norms**plan.order
                spread += float(np.sum(weights * powers))
                if order2:
                    spread2 += float(np.sum(weights * np.abs(curv) * powers))
            else:   # order 0: |A_v - A_w| <= 2 pi L |x_v - x_w|, up to the rounding of A
                rise = np.abs(a_forms[1:] - a_forms[:-1]).max(axis=1)     # at most the 2-norm
                gap = np.abs(anchors[1:] - anchors[:-1]).sum(axis=1)       # at least the 2-norm
                excess = rise - (1.0001 * TWO_PI * pmap.lipschitz_bound) * gap
                if excess.max(initial=-math.inf) > 4.0 * EPS * a_max:
                    w = int(np.argmax(excess))
                    raise BadConfig(f"map {pmap.label!r}: two anchors refute its declared L = "
                                    f"{pmap.lipschitz_bound}, |f(x_v) - f(x_w)| = {rise[w] / TWO_PI:.6g} > "
                                    f"1.0001 L |x_v - x_w| = {1.0001 * pmap.lipschitz_bound * gap[w]:.6g}")
            sums, node_err = grid_rows._grid_sums(x, first, a_forms, b_forms, weights, curv, inner, plan,
                                                  work)
            part = sums[0]
            if order2:
                part += (-1j * np.pi * x[:, 0]) * sums[1]
            if node_err is not None:
                inner_err = inner_err + node_err
            # TwoSum of the running sum and this block's sums
            t = total + part
            z = t - total
            carry += (total - (t - z)) + (part - z)
            total = t
        values = total + carry
        if not np.isfinite(values).all():     # NaN would pass max() and the probability check
            raise BadConfig(f"map {pmap.label!r} gives a non-finite row sum: f or xi f is not finite")
        xi_norms = norms[rows]
        if mu_table is not None:
            inner_err = mu_table.slack
            if order2:
                inner_err = inner_err + np.pi * xi_norms * curv_sum * mu_table.slack2
        inner_reach = TWO_PI * radius * cover_scale * jac
        remainder = xi_norms * (unit * moment)
        if quartic:     # order 2's 1/2 (pi |xi| |q_w| R^2)^2 term
            remainder = xi_norms**2 * (0.5 * (np.pi * radius**2) ** 2 * quartic) + remainder
        kappa = np.pi * xi_norms * curv_max * radius**2     # 0 for orders 0 and 1
        carried = _roundoff(n) + _phase_rounding(xi_norms, a_max, inner_reach, max(k, d))
        carried = carried + _cover_rounding(ifs, cover_scale, depth, xi_norms, gain, inner_reach)
        bounds = remainder + inner_err + (1.0 + kappa) * carried
        bounds = bounds + EPS * ((depth + 6.0) * kappa + 1.0)
        # the interpolation remainder R_K: omega / K! (2 pi R |delta| |B_w|)^K
        # per unit weight of h, R^2 times that of h2
        scale_k = plan.omega / math.factorial(plan.order) * (TWO_PI * radius * delta) ** plan.order
        interpolation = scale_k * (spread + np.pi * xi_norms * radius**2 * spread2)
        node_gain = plan.lebesgue if mu_table is not None else 1.0
        bounds = bounds + grid_rows._row_interpolation(plan, inner_err, node_gain, interpolation, kappa,
                                                       carried, n, float(xi_norms.max()), inner_reach)
        return rows, values, bounds, n

    return _run_rows(run, jobs, m, threads)


def _image_sample(ifs, pmap, xi, tol, scheme, scale, budget) -> FrequencySample:
    """``pushforward_batch`` at [xi]: one frequency is a batch of one."""
    xis = np.asarray([xi], dtype=float)
    values, errors, leaves = pushforward_batch(ifs, pmap, xis, tol, scheme, 1, budget, scale)
    return FrequencySample(
        xi=xis.reshape(-1),
        value=complex(values[0]),
        error_bound=float(errors[0]),
        scheme=scheme,
        leaves_used=leaves[0],
        certified=pmap.bounds_certified or not xis.any(),
    )


def pushforward_hat_order0(
    ifs: SelfSimilarIFS,
    pmap: PushforwardMap,
    xi,
    tol: float = 1e-4,
    scale: Optional[float] = None,
    budget: int = DEFAULT_LEAF_BUDGET,
) -> FrequencySample:
    """Order-0 cylinder quadrature of the image transform mu_f-hat(xi)."""
    return _image_sample(ifs, pmap, xi, tol, "order0", scale, budget)


def pushforward_hat_order1(
    ifs: SelfSimilarIFS,
    pmap: PushforwardMap,
    xi,
    tol: float = 1e-4,
    scale: Optional[float] = None,
    budget: int = DEFAULT_LEAF_BUDGET,
) -> FrequencySample:
    """Order-1 (linearised) cylinder quadrature of the image transform.

    Each cylinder integrates its tangent approximation exactly through
    the centred transform e^{2 pi i <eta, b>} mu_hat(eta): read from the
    certified table for homogeneous systems on the line, else mu_hat of
    ``ifs.centred`` at tol/2; stopping scale
    ~ sqrt(tol / (pi |xi| H)) / R, so far fewer leaves are needed than
    order-0 at the same tolerance.  The call is a batch of one:
    ``pushforward_batch`` at [xi] gives the same value, bound and leaves.
    """
    return _image_sample(ifs, pmap, xi, tol, "order1", scale, budget)


def pushforward_hat_order2(
    ifs: SelfSimilarIFS,
    pmap: PushforwardMap,
    xi,
    tol: float = 1e-4,
    scale: Optional[float] = None,
    budget: int = DEFAULT_LEAF_BUDGET,
) -> FrequencySample:
    """Order-2 cylinder quadrature of the image transform (homogeneous systems on the line).

    Each cylinder integrates its quadratic phase: the linear part through
    the centred transform h and the quadratic part through the
    second-moment transform h2, both read from one certified table of
    ``ifs.centred`` (that of ``pushforward_batch`` of this frequency); the
    remainder
    1/2 (pi |xi| |q_w| R^2)^2 + (pi/3) |xi| H3 (r_w R)^3 per unit weight
    gives the stopping scale, about (tol / |xi|^2)^(1/4) for the square
    map and (tol / |xi|)^(1/3) when H3 > 0.  Raises Unsupported for
    k >= 2 and non-homogeneous systems, and MissingHessianBound for a map
    without ``third_bound``.
    """
    return _image_sample(ifs, pmap, xi, tol, "order2", scale, budget)


def pushforward_batch(
    ifs: SelfSimilarIFS,
    pmap: PushforwardMap,
    xis,
    tol: float = 1e-4,
    scheme: str = "order1",
    threads: int = 1,
    budget: int = DEFAULT_LEAF_BUDGET,
    scale: Optional[float] = None,
):
    """Evaluate the image transform on an array of frequencies.

    ``xis`` is (m,) for a scalar image (d = 1) or (m, d) for any image
    dimension d, d = k for ``exact_recursion``; any other shape raises
    BadConfig.  Returns (values, error_bounds, leaves_used) aligned with
    its rows, and every row has |value| <= 1 + error_bound + 1e-12, else
    FractalFourierError.
    Every scheme runs ``_image_rows``, and the single calls
    (``pushforward_hat_order0/1/2``, ``mu_hat``) are its batches of one.
    For ``order0``/``order1``/``order2`` the frequencies of one octave of
    |xi| share the stopping cover of their largest |xi| (a refinement of
    each one's own cover), and a fixed ``scale`` pins one cover for all,
    which is how uniform inversion grids are evaluated cheaply.  Every
    cover is counted against ``budget`` before any is expanded, and each
    job of the kernel streams its cover in leaf blocks of at most
    ``FRONTIER_BLOCK`` (no cover is stored or cached), so memory does not
    grow with the cover.  Frequencies that are exactly (j0 + i) delta, in
    that order, sum as matrix products of one base block of unit phases
    and each block's weighted offsets times the inner columns, which are
    read at a few Chebyshev nodes per block and interpolated
    (``grid_rows``); their bounds add the ``row_interpolation`` term.
    Any other set is blocks of one row, summed pairwise.  The inner transforms, h and for ``order2`` h2 of
    ``ifs.centred``, come from a certified table (``_MuHatTable``) for
    homogeneous systems on the line and are evaluated exactly for the
    rest.  ``exact_recursion`` is mu_hat itself (``pmap`` unused),
    one ``_mu_hat_rows`` call for all the rows: a homogeneous system takes
    every row to the depth of the largest (on one thread), and any other
    system is grouped by octave and runs on the row kernel's jobs like the
    image schemes.  The leaf counts are an object array of exact Python
    ints (a homogeneous tree's N^depth can pass the int64 range).  Results
    are independent of ``threads`` (fixed jobs, fixed reduction order)
    and of the threads BLAS runs a matrix product on
    (``OPENBLAS_NUM_THREADS``), which split its output, not its sums.
    """
    if scheme not in (*IMAGE_SCHEMES, "exact_recursion"):
        raise BadConfig(f"unknown scheme {scheme!r}")
    _check_positive_finite("tol", tol)
    _check_threads(threads)
    d = ifs.ambient_dim if scheme == "exact_recursion" else pmap.out_dim
    xis = np.asarray(xis, dtype=float)
    if xis.ndim == 1 and d == 1:
        xis = xis.reshape(-1, 1)
    if xis.ndim != 2 or xis.shape[1] != d:
        raise BadConfig(f"frequency must have {d} components, got shape {xis.shape}")
    if not np.isfinite(xis).all():
        raise BadConfig("frequencies must be finite")
    values, errors, leaves = _image_rows(ifs, pmap, xis, tol, scheme, scale, budget, threads)
    over = np.flatnonzero(np.abs(values) > 1.0 + errors + 1e-12)
    if len(over):
        raise FractalFourierError(f"probability bound violated: |value|={abs(values[over[0]])} "
                                  f"exceeds 1 + error_bound={errors[over[0]]}")
    return values, errors, leaves


# ---------------------------------------------------------------------------
# curvature and Hessian diagnostics
# ---------------------------------------------------------------------------


def curvature_diagnostic(
    ifs: SelfSimilarIFS,
    pmap: PushforwardMap,
    n_samples: int = 4096,
    seed: int = 0,
) -> Tuple[float, bool]:
    """(min |det Hess f| over support samples, vanishing flag).

    The Gaussian curvature of the graph of a scalar f is a nowhere-zero
    multiple of det Hess f, so a vanishing determinant on the support
    voids the curvature hypothesis.  The sample set is the chaos game
    plus every map's fixed point (exact attractor members, so isolated
    zeros sitting at fixed points are not missed).
    """
    if pmap.out_dim != 1:
        raise Unsupported("curvature diagnostic expects a scalar map")
    pts = np.concatenate(
        [np.array([m.fixed_point() for m in ifs.maps]), chaos_game(ifs, n_samples, seed=seed)]
    )
    if pmap.hessian is not None:
        hmats = pmap.hessian(pts)
    else:
        hmats = _fd_hessian_scalar(pmap, pts, 1e-4 * (1.0 + ifs.max_point_norm))
    dets = np.linalg.det(hmats)
    min_abs = float(np.abs(dets).min())
    return min_abs, bool(min_abs < 1e-8)


def quadratic_directional_hessian(
    pmap: PushforwardMap, v: Sequence[float]
) -> Tuple[np.ndarray, float]:
    """Directional Hessian sum_i v_i Hess f_i of a quadratic map and its det.

    Constant in x by construction; |v| must be 1 within 1e-12.
    """
    if pmap.quad_hessians is None:
        raise Unsupported("directional Hessians are defined for quadratic maps")
    vec = np.asarray(v, dtype=float)
    if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
        raise BadConfig("direction v must be a unit vector (within 1e-12)")
    if vec.shape != (pmap.out_dim,):
        raise BadConfig(f"v must have {pmap.out_dim} components")
    h = np.einsum("i,ipq->pq", vec, pmap.quad_hessians)
    return h, float(np.linalg.det(h))


def holomorphic_hessian_identity(
    pmap: PushforwardMap, z: complex, v: Sequence[float] = (1.0, 0.0)
) -> Tuple[float, Tuple[float, float]]:
    """det and eigenvalue magnitudes of the directional Hessian of v1 U + v2 V.

    For holomorphic f = U + iV the directional Hessian has eigenvalues
    +/- |f''(z)| with orthogonal eigenspaces, so det = -|f''(z)|^2
    independently of the unit direction v.
    """
    if pmap.complex_derivatives is None:
        raise Unsupported("identity available for holomorphic maps only")
    vec = np.asarray(v, dtype=float)
    if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
        raise BadConfig("direction v must be a unit vector (within 1e-12)")
    _, _, d2f = pmap.complex_derivatives
    mag = abs(d2f(complex(z)))
    return -(mag**2), (mag, mag)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def write_csv(path, header, columns) -> None:
    """A CSV file by columns, one per ``header`` name, converted ``CSV_BLOCK`` rows at a time.

    A column is a str, repeated on every row, or an array.  A float
    array's cells are ``repr`` of their Python floats, as a row loop of
    ``repr(float(x))`` writes them; any other array holds integers (or
    bools, written 0 and 1) in decimal, exact for the object arrays of
    Python ints that leaf counts past the int64 range use.  The file's
    text is never held whole.
    """
    columns = [c if isinstance(c, str) else np.asarray(c) for c in columns]
    n = max((len(c) for c in columns if not isinstance(c, str)), default=0)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, CSV_BLOCK):
            rows = slice(start, start + CSV_BLOCK)
            cells = [
                itertools.repeat(c) if isinstance(c, str)
                else map(repr if c.dtype.kind == "f" else "{:d}".format, c[rows].tolist())
                for c in columns
            ]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_samples_csv(path, xis, values, errors, scheme, leaves) -> None:
    """Batch output: one row per frequency with certified error bounds.

    |value| comes from np.hypot, the libm hypot of the scalar ``abs``
    (np.abs of a complex array can differ from it in the last bit).
    """
    xis = np.asarray(xis, dtype=float)
    if xis.ndim == 1:
        xis = xis[:, None]
    values = np.asarray(values, dtype=complex)
    header = [f"xi{i}" for i in range(xis.shape[1])] if xis.shape[1] > 1 else ["xi"]
    header += ["re", "im", "abs", "error_bound", "scheme", "leaves_used"]
    re, im = values.real, values.imag
    floats = [*xis.T, re, im, np.hypot(re, im), np.asarray(errors, dtype=float)]
    write_csv(path, header, [*floats, scheme, leaves])


# last: the row kernel's block sums import the helpers above
from . import grid_rows  # noqa: E402
