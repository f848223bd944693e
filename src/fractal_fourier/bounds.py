"""Closed-form decay exponents and arithmetic condition checkers.

The central quantity is, for p in [1, 2] with q = p/(p-1),

    sigma_p = (d_q + kappa_p - k) / (2p - k + 2 kappa_star + kappa_p - d_q),

the exponent of polynomial Fourier decay available for nonlinear scalar
images of a non-expanding self-similar measure whose graph has
non-vanishing Gaussian curvature.  At p = 2 both exponents collapse to the
correlation dimension; at p = 1 they are the Frostman exponent and the
Fourier l^1 dimension.  The internal dyadic-balance parameter

    gamma = 2 - (d_q + kappa_p - k) / (p + kappa_star + kappa_p - k)

is the value equating the oscillatory and Taylor error exponents; it
satisfies the exact identity (2 - gamma) / gamma = sigma_p and lies in
(1, 2) whenever d_q + kappa_p > k.

All strict inequalities from the underlying theory are evaluated
strictly; boundary hits return False and are annotated by the CLI layer.
Negative exponents are clamped to zero (no decay claimed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from .dimensions import DimensionProfile, _bisect_then_newton
from .errors import BadConfig, MissingExponent, NotApplicable, Unsupported

CANTOR_DIM = math.log(2.0) / math.log(3.0)

#: Literature bound for square-map images of the middle-thirds
#: Cantor-Lebesgue measure; reported for comparison in bound reports.
CANTOR_BASELINE = 0.016

TWO_MEASURE_NOTE = (
    "linear-combination bullet uses threshold 7: forced by consistency with "
    "the 7/9 bullet (published variants print 5 and 1, both inconsistent)"
)


def _exponents_for_p(profile: DimensionProfile, p: float) -> Tuple[float, float]:
    """(d_q, kappa_p) for this p, with q = p/(p-1) (inf at p = 1); raises MissingExponent."""
    if not 1.0 <= p <= 2.0:
        raise BadConfig(f"p must lie in [1, 2], got {p}")
    q = p / (p - 1.0) if p > 1.0 else math.inf
    d_q, kappa_p = profile.d_q(q), profile.kappa_lp(p)
    if p == 1.0 and kappa_p is None:
        raise MissingExponent("sigma_1 needs the Fourier l^1 dimension kappa1 (user-supplied)")
    if d_q is None or kappa_p is None:
        raise MissingExponent(f"no tabulated (d_q, kappa_p) for p={p} (q={q})")
    return d_q, kappa_p


def sigma_p_raw(profile: DimensionProfile, p: float) -> float:
    """sigma_p without the clamp at zero (sign carries the deficit)."""
    d_q, kappa_p = _exponents_for_p(profile, p)
    k = float(profile.k)
    num = d_q + kappa_p - k
    den = 2.0 * p - k + 2.0 * profile.kappa_star + kappa_p - d_q
    return num / den


def sigma_p(profile: DimensionProfile, p: float) -> float:
    """Decay exponent for exponent pair (d_q, kappa_p); clamped at zero.

    Zero whenever d_q + kappa_p <= k (the bound is vacuous there; note the
    raw quotient can turn positive again once the denominator also flips
    sign, so the clamp keys on the numerator).
    """
    d_q, kappa_p = _exponents_for_p(profile, p)
    if d_q + kappa_p - float(profile.k) <= 0.0:
        return 0.0
    return sigma_p_raw(profile, p)


def compute_gamma(profile: DimensionProfile, p: float) -> float:
    """The dyadic-balance parameter; requires d_q + kappa_p > k.

    Satisfies (2 - gamma) / gamma == sigma_p exactly and 1 < gamma < 2.
    """
    d_q, kappa_p = _exponents_for_p(profile, p)
    k = float(profile.k)
    num = d_q + kappa_p - k
    if num <= 0.0:
        raise NotApplicable(
            f"gamma undefined: d_q + kappa_p = {d_q + kappa_p!r} <= k = {k}"
        )
    return 2.0 - num / (p + profile.kappa_star + kappa_p - k)


@dataclass(frozen=True)
class DecayBound:
    """Result of the decay-exponent calculator."""

    sigma_p_table: Mapping[float, float]
    sigma: float
    best_p: Optional[float]
    gamma: Optional[float]
    applicable: bool
    notes: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "sigma_p_table": {str(p): v for p, v in sorted(self.sigma_p_table.items())},
            "sigma": self.sigma,
            "best_p": self.best_p,
            "gamma": self.gamma,
            "applicable": self.applicable,
            "notes": list(self.notes),
            "formula": "sigma_p = (d_q + kappa_p - k) / (2p - k + 2*kappa_star + kappa_p - d_q), q = p/(p-1)",
        }


def decay_bound(
    profile: DimensionProfile,
    curvature_ok: Optional[bool] = None,
    non_expanding: Optional[bool] = None,
) -> DecayBound:
    """Best available decay exponent max_p sigma_p with applicability audit.

    Always evaluates p = 2; includes p = 1 when kappa1 is supplied, and
    every p of the profile's ``kappa_p_table`` that has its d_q.  The bound is
    vacuous (applicable=False) when kappa2 <= k/2, or when the curvature /
    orientation-growth hypotheses are not verified.
    """
    table: dict = {}
    notes: list = []
    for p in sorted({2.0, 1.0, *profile.kappa_p_table}):
        try:
            table[p] = sigma_p(profile, p)
        except MissingExponent:
            if p == 1.0:
                notes.append("kappa1 not supplied: l^1 branch skipped")
            else:
                notes.append(f"p={p}: no tabulated exponents, skipped")
    best_p = max(table, key=lambda p: (table[p], p))
    sigma = table[best_p]
    gamma = None
    if sigma > 0.0:
        gamma = compute_gamma(profile, best_p)
    k = float(profile.k)
    obstructed = profile.kappa2 <= k / 2.0
    if obstructed:
        notes.append(
            "kappa2 <= k/2: measures this small can sit inside affine subspaces "
            "where the image is a linear copy; no decay is claimed"
        )
    if curvature_ok is None:
        notes.append("curvature hypothesis not verified (run curvature_diagnostic)")
    elif not curvature_ok:
        notes.append("curvature vanishes somewhere on the support: bound not applicable")
    if non_expanding is None:
        notes.append("orientation growth not verified (run non_expanding_heuristic)")
    elif not non_expanding:
        notes.append("orientation semigroup not verified non-expanding: bound not applicable")
    applicable = (
        not obstructed and curvature_ok is True and non_expanding is True and sigma > 0.0
    )
    notes.append(f"conjectural ceiling kappa2/2 = {profile.kappa2 / 2.0!r}")
    if (
        profile.k == 1
        and profile.ad_regular
        and abs(profile.kappa2 - CANTOR_DIM) < 1e-6
    ):
        notes.append(
            f"comparison baseline for the middle-thirds Cantor-Lebesgue measure: {CANTOR_BASELINE}"
        )
    return DecayBound(
        sigma_p_table=table,
        sigma=sigma,
        best_p=best_p,
        gamma=gamma,
        applicable=applicable,
        notes=tuple(notes),
    )


def vdc_exponent(profile: DimensionProfile, l: int, refined: bool = False) -> float:
    """Decay exponent for holomorphic images on the plane.

    ``l`` is the order of the first non-vanishing derivative hypothesis
    (l >= 2).  The basic form is d_inf (kappa2 - 1) / (kappa_star l); the
    refined form is (kappa2 - 1) / (1 + kappa_star + eta kappa_star /
    d_inf) with eta = l - 2, which at eta = 0 coincides with sigma_2 for
    AD-regular measures on the plane.
    """
    if profile.k != 2:
        raise Unsupported("holomorphic exponents are defined on the plane (k = 2)")
    if not isinstance(l, int) or l < 2:
        raise BadConfig("l must be an integer >= 2")
    if profile.kappa2 <= 1.0:
        raise NotApplicable("requires kappa2 > 1")
    if refined:
        eta = float(l - 2)
        return (profile.kappa2 - 1.0) / (
            1.0 + profile.kappa_star + eta * profile.kappa_star / profile.d_inf
        )
    return profile.d_inf * (profile.kappa2 - 1.0) / (profile.kappa_star * l)


# -- arithmetic condition checkers ------------------------------------------------


def _check_unit(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise BadConfig(f"{name} must lie in [0, 1], got {value}")
    return float(value)


def log_pushforward_sigma(kappa2: float) -> float:
    """Decay exponent for the logarithmic image of an AD-regular measure.

    sigma = (kappa2 - 1/2) / (kappa2 + 3/2); requires kappa2 in (1/2, 1]
    (BadConfig outside [0, 1], NotApplicable at or below 1/2).
    """
    kappa2 = _check_unit("kappa2", kappa2)
    if kappa2 <= 0.5:
        raise NotApplicable("requires kappa2 > 1/2")
    return (kappa2 - 0.5) / (kappa2 + 1.5)


def two_set_margin(dim_e: float, dim_f: float) -> float:
    """a b + max(1.5 a + b, 1.5 b + a) - 5/2, positive exactly when ``two_set_condition`` holds."""
    a = _check_unit("dim_e", dim_e)
    b = _check_unit("dim_f", dim_f)
    return a * b + max(1.5 * a + b, 1.5 * b + a) - 2.5


def two_set_condition(dim_e: float, dim_f: float) -> bool:
    """Product-set condition: true when E.F must have positive measure.

    That is x > 5/2 for x = a b + max(1.5 a + b, 1.5 b + a); the margin
    x - 2.5 is exact for x in [1.25, 5] (Sterbenz) and has the sign of
    x - 2.5 elsewhere, so the test is ``two_set_margin`` > 0.
    """
    return two_set_margin(dim_e, dim_f) > 0.0


def three_set_condition(dim_e: float, dim_f: float, dim_g: float) -> bool:
    """Triple-product condition: true when E.F.G must have interior.

    Symmetric: each of the three sets is tried in the decay slot, which
    requires its dimension to exceed 1/2.
    """
    dims = [
        _check_unit(n, v) for n, v in (("dim_e", dim_e), ("dim_f", dim_f), ("dim_g", dim_g))
    ]
    for g_index in range(3):
        g = dims[g_index]
        if g <= 0.5:
            continue
        others = [dims[i] for i in range(3) if i != g_index]
        if 0.5 * others[0] + 0.5 * others[1] + (g - 0.5) / (g + 1.5) > 1.0:
            return True
    return False


def symmetric_thresholds() -> Tuple[float, float]:
    """Critical common dimensions (t2, t3) for two- and three-fold products.

    t2 solves 2 sigma(t) + t = 1 with sigma(t) = (t - 1/2)/(t + 3/2), i.e.
    t^2 + 2.5 t - 2.5 = 0, closed form (sqrt(65) - 5)/4.  t3 solves
    t + (t - 1/2)/(t + 3/2) = 1, closed form (sqrt(41) - 3)/4.  Both are
    located by bracketed root-finding; tests pin them to the closed forms.
    """
    t2 = _bisect_then_newton(
        lambda t: 2.0 * (t - 0.5) / (t + 1.5) + t - 1.0,
        lambda t: 4.0 / (t + 1.5) ** 2 + 1.0,
        0.51,
        1.0,
    )
    t3 = _bisect_then_newton(
        lambda t: t + (t - 0.5) / (t + 1.5) - 1.0,
        lambda t: 1.0 + 2.0 / (t + 1.5) ** 2,
        0.51,
        1.0,
    )
    return t2, t3


def two_measure_density_conditions(
    kappa2_mu: float, kappa2_nu: float, nu_ad_regular: bool = False
) -> Tuple[bool, Tuple[int, ...]]:
    """Two-factor L^2-density conditions without AD-regularity of both sides.

    Returns (verdict, satisfied_bullets) with bullets numbered:
      1: min(a, b) > 7/9,
      2: max(4a + 5b, 5a + 4b) > 7,
      3: nu AD-regular and 2ab + 3a + 2b > 5.
    All bullets are evaluated; any hit makes the verdict true.
    """
    a = _check_unit("kappa2_mu", kappa2_mu)
    b = _check_unit("kappa2_nu", kappa2_nu)
    satisfied = []
    if min(a, b) > 7.0 / 9.0:
        satisfied.append(1)
    if max(4.0 * a + 5.0 * b, 5.0 * a + 4.0 * b) > 7.0:
        satisfied.append(2)
    if nu_ad_regular and 2.0 * a * b + 3.0 * a + 2.0 * b > 5.0:
        satisfied.append(3)
    return bool(satisfied), tuple(satisfied)


def high_dim_condition(k: int, kappa2: float) -> bool:
    """L^2-density condition for sum-of-squares images in dimension k >= 5, kappa2 in [0, k]."""
    if k < 5:
        raise BadConfig("defined for ambient dimension k >= 5")
    if not 0.0 <= kappa2 <= k:
        raise BadConfig(f"kappa2 must lie in [0, {k}], got {kappa2}")
    return kappa2 > 2.0 + k / 2.0
