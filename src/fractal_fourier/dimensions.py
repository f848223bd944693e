"""Dimension exponents of self-similar sets and measures.

Computes every exponent consumed by the decay-bound formulas:

* similarity dimension of the set (root of sum_i r_i^s = 1) and of the
  measure (kappa_sim = sum p log p / sum p log r),
* the Moran-type L^q spectrum T(q) with d_q = min(T/(q-1), k),
* a Monte Carlo pair-correlation estimate of the correlation dimension,
* the Assouad dimension under declared separation,

and assembles them into a validated :class:`DimensionProfile` whose fields
carry provenance tags.  The exponent chain

    0 <= kappa1 <= d_inf <= kappa2 <= kappa_star <= k

is enforced at construction; violations raise
:class:`~fractal_fourier.errors.InconsistentProfile` naming the broken
inequality.  The Fourier l^1 dimension kappa1 is never computed here; it
must be user-supplied (there is no algorithm for it in scope).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import BadConfig, InconsistentProfile
from .ifs import (_EXPONENT_FIELDS, SEPARATION_KINDS, SelfSimilarIFS, _bool, _fields, _float, _int,
                  _json_object, _optional_float, _parsed, chaos_game, read_json, write_json)

EXACT = "exact_under_separation"
ESTIMATED = "estimated"
USER = "user_supplied"
# the fields ``build_profile`` tags with one of the three provenances above
TAGGED_FIELDS = ("kappa2", "kappa_star", "d_inf", "kappa1", "kappa_p_table", "d_q_table")

_CHAIN_SLACK = 1e-12
_AD_REGULAR_TOL = 1e-9
_CONJUGATE_TOL = 1e-9    # relative; p/(p-1) is 6.000000000000001 at p = 1.2


# -- root finding ---------------------------------------------------------------


def _bisect_then_newton(
    fn: Callable[[float], float],
    dfn: Callable[[float], float],
    lo: float,
    hi: float,
    width: float = 1e-13,
    polish: int = 2,
) -> float:
    """Deterministic bracketed bisection to the given width, then Newton polish.

    Assumes fn(lo) and fn(hi) have opposite signs.
    """
    flo = fn(lo)
    if flo == 0.0:
        return lo
    for _ in range(200):
        if hi - lo <= width:
            break
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0:
            lo = hi = mid
            break
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(polish):
        d = dfn(x)
        if d == 0.0:
            break
        x -= fn(x) / d
    return x


def similarity_dimension_set(ratios: Sequence[float]) -> float:
    """The unique s >= 0 with sum_i r_i^s = 1."""
    r = np.asarray(ratios, dtype=float)
    if r.size < 2 or np.any(r <= 0.0) or np.any(r >= 1.0):
        raise BadConfig("need at least two ratios, all strictly inside (0, 1)")
    logr = np.log(r)

    def f(s):
        return float(np.sum(np.exp(s * logr))) - 1.0

    def df(s):
        return float(np.sum(logr * np.exp(s * logr)))

    hi = 1.0
    while f(hi) > 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise BadConfig("similarity dimension bracket expansion failed")
    return _bisect_then_newton(f, df, 0.0, hi)


def similarity_dimension_measure(
    weights: Sequence[float], ratios: Sequence[float]
) -> float:
    """kappa_sim = (sum p_i log p_i) / (sum p_i log r_i)."""
    p = np.asarray(weights, dtype=float)
    r = np.asarray(ratios, dtype=float)
    if p.shape != r.shape:
        raise BadConfig("weights and ratios must have equal length")
    return float(np.sum(p * np.log(p)) / np.sum(p * np.log(r)))


def lq_spectrum(
    weights: Sequence[float],
    ratios: Sequence[float],
    q: float,
    ambient_dim: int = 1,
) -> Tuple[float, float]:
    """Solve sum_i p_i^q r_i^(-T) = 1 and return (T, d_q).

    d_q = min(T / (q - 1), k).  The d_q identity is exact for systems on
    the line under exponential separation; callers tag provenance
    accordingly.
    """
    if q <= 1.0:
        raise BadConfig("lq_spectrum requires q > 1")
    p = np.asarray(weights, dtype=float)
    r = np.asarray(ratios, dtype=float)
    logr = np.log(r)
    pq = p**q

    def g(t):
        return float(np.sum(pq * np.exp(-t * logr))) - 1.0

    def dg(t):
        return float(np.sum(-logr * pq * np.exp(-t * logr)))

    hi = 1.0
    while g(hi) < 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise BadConfig("lq spectrum bracket expansion failed")
    t = _bisect_then_newton(g, dg, 0.0, hi, width=1e-13)
    return t, min(t / (q - 1.0), float(ambient_dim))


def frostman_exponent_under_separation(
    weights: Sequence[float], ratios: Sequence[float], ambient_dim: int = 1
) -> float:
    """d_inf = min(min_i log p_i / log r_i, k), valid under SSC/OSC.

    Cylinder masses p_w against diameters ~ r_w force the exponent
    min_i log p_i / log r_i; ball masses cap it at the ambient dimension.
    """
    p = np.asarray(weights, dtype=float)
    r = np.asarray(ratios, dtype=float)
    return float(min(np.min(np.log(p) / np.log(r)), float(ambient_dim)))


def correlation_dimension_estimate(
    ifs: SelfSimilarIFS,
    n_pairs: int = 1_000_000,
    octaves: Tuple[int, int] = (4, 12),
    seed: int = 0,
) -> Tuple[float, float]:
    """Pair-correlation slope estimate of the correlation dimension.

    C(r) is the fraction of chaos-game sample pairs within distance r,
    measured at dyadic scales 2^-a .. 2^-b and fitted by least squares in
    log-log coordinates with equal octave weighting.  Returns (slope,
    standard error).  Deterministic for a fixed seed.
    """
    if n_pairs < 10_000:
        raise BadConfig("need n_pairs >= 10^4 for a stable estimate")
    a, b = octaves
    ms = np.arange(min(a, b), max(a, b) + 1)
    if ms.size < 3:
        raise BadConfig("need at least 3 dyadic scales for the fit")
    n_points = max(2048, int(2.0 * math.sqrt(n_pairs)))
    pts = chaos_game(ifs, n_points, seed=seed)
    rng = np.random.default_rng(seed + 1)
    i = rng.integers(0, n_points, size=n_pairs)
    j = rng.integers(0, n_points, size=n_pairs)
    clash = i == j
    j[clash] = (j[clash] + 1) % n_points
    d = np.linalg.norm(pts[i] - pts[j], axis=-1)
    scales = 2.0 ** (-ms.astype(float))
    counts = np.array([np.count_nonzero(d < r) for r in scales], dtype=float)
    frac = counts / n_pairs
    keep = frac > 0.0
    if np.count_nonzero(keep) < 3:
        raise BadConfig("fewer than 3 scales with nonzero pair counts")
    x = np.log2(scales[keep])
    y = np.log2(frac[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(x.size - 2, 1)
    stderr = math.sqrt(float(np.sum(resid**2)) / dof / float(np.sum((x - x.mean()) ** 2)))
    return float(slope), float(stderr)


def assouad_dimension(
    ifs: SelfSimilarIFS,
    declared_separation: str = "none",
    user_value: Optional[float] = None,
) -> Tuple[float, str, Tuple[str, ...]]:
    """Assouad dimension of the support with provenance.

    Under declared SSC/OSC this equals the similarity dimension of the
    set.  Without separation no finite procedure here is valid, so the
    conservative value k is returned (tagged estimated) unless the caller
    supplies kappa_star explicitly.
    """
    if user_value is not None:
        return float(user_value), USER, ()
    s_set = similarity_dimension_set(ifs.ratios)
    if declared_separation in ("SSC", "OSC"):
        return min(s_set, float(ifs.ambient_dim)), EXACT, ()
    warning = (
        "no SSC/OSC declared: Assouad dimension set to the ambient dimension "
        "(conservative); supply kappa_star to tighten bounds",
    )
    return float(ifs.ambient_dim), ESTIMATED, warning


# -- the profile ------------------------------------------------------------------


@dataclass(frozen=True)
class DimensionProfile:
    """Validated exponent tuple with per-field provenance.

    ``kappa_p_table`` maps p -> kappa_p and ``d_q_table`` maps q -> d_q
    for any tabulated values beyond the built-in entries: d_2 = kappa_2 =
    kappa2, d_inf, and kappa_1 = kappa1 when it is supplied.
    """

    k: int
    kappa2: float
    kappa_star: float
    d_inf: float
    s_sim_set: float
    s_sim_meas: float
    ad_regular: bool = False
    kappa1: Optional[float] = None
    kappa_p_table: Mapping[float, float] = field(default_factory=dict)
    d_q_table: Mapping[float, float] = field(default_factory=dict)
    provenance: Mapping[str, str] = field(default_factory=dict)
    warnings: Tuple[str, ...] = ()

    def __post_init__(self):
        # Parsed as the profile file's are: a table key out of its range or an unknown tag raises BadConfig.
        for name in ("kappa_p_table", "d_q_table", "provenance"):
            object.__setattr__(self, name, _parsed(name, _PROFILE_FIELDS[name][0], dict(getattr(self, name))))
        # Each exponent family's one table: the tabulated values, then the built-in entries.
        object.__setattr__(self, "_d_q", {**self.d_q_table, 2.0: self.kappa2, math.inf: self.d_inf})
        kappa1 = {} if self.kappa1 is None else {1.0: self.kappa1}
        object.__setattr__(self, "_kappa_p", {**self.kappa_p_table, 2.0: self.kappa2, **kappa1})
        self.validate()

    def validate(self):
        k = float(self.k)
        if self.k < 1:
            raise InconsistentProfile("k >= 1", f"k={self.k}")
        checks = []
        if self.kappa1 is not None:
            checks.append(("0 <= kappa1", 0.0, self.kappa1))
            checks.append(("kappa1 <= d_inf", self.kappa1, self.d_inf))
        checks.extend(
            [
                ("0 <= d_inf", 0.0, self.d_inf),
                ("d_inf <= kappa2", self.d_inf, self.kappa2),
                ("kappa2 <= kappa_star", self.kappa2, self.kappa_star),
                ("kappa_star <= k", self.kappa_star, k),
            ]
        )
        for name, lo, hi in checks:
            if lo > hi + _CHAIN_SLACK:
                raise InconsistentProfile(name, f"{lo!r} > {hi!r}")
        if self.ad_regular:
            for name, value in (
                ("kappa2", self.kappa2),
                ("kappa_star", self.kappa_star),
                ("d_inf", self.d_inf),
            ):
                if abs(value - self.s_sim_set) > _AD_REGULAR_TOL:
                    raise InconsistentProfile(
                        f"ad_regular requires {name} == s_sim_set",
                        f"{value!r} vs {self.s_sim_set!r}",
                    )
        # A tabulated value must match the built-in entry its table holds at its key.
        for name, var, tabulated, table in (("d_q", "q", self.d_q_table, self._d_q),
                                            ("kappa_p", "p", self.kappa_p_table, self._kappa_p)):
            for x, value in tabulated.items():
                if abs(value - table[x]) > _AD_REGULAR_TOL:
                    raise InconsistentProfile(f"tabulated {name} must match built-in entry", f"{var}={x}")
        qs = sorted(self._d_q)
        for qa, qb in zip(qs, qs[1:]):
            if self._d_q[qb] > self._d_q[qa] + _CHAIN_SLACK:
                raise InconsistentProfile(
                    "d_q non-increasing in q",
                    f"d_{qa}={self._d_q[qa]!r} < d_{qb}={self._d_q[qb]!r}",
                )
        # kappa1 is governed by the chain alone (user-supplied values are
        # often conservative understatements, which only weaken bounds);
        # the two-sided l^p comparison applies to the rest of the table.
        ps = sorted(p for p in self._kappa_p if p != 1.0)
        for pa, pb in itertools.combinations(ps, 2):
            kpa, kpb = self._kappa_p[pa], self._kappa_p[pb]
            if kpa > kpb + _CHAIN_SLACK:
                raise InconsistentProfile("kappa_p <= kappa_q for p <= q", f"p={pa}, q={pb}")
            if kpa < (pa / pb) * kpb - _CHAIN_SLACK:
                raise InconsistentProfile("(p/q) kappa_q <= kappa_p", f"p={pa}, q={pb}")

    def d_q(self, q: float) -> Optional[float]:
        """d_q at ``q``, else at a tabulated q within a relative ``_CONJUGATE_TOL`` of it."""
        if q in self._d_q:
            return self._d_q[q]
        return next((d for x, d in self._d_q.items() if math.isclose(x, q, rel_tol=_CONJUGATE_TOL)), None)

    def kappa_lp(self, p: float) -> Optional[float]:
        return self._kappa_p.get(p)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "kappa2": self.kappa2,
            "kappa_star": self.kappa_star,
            "d_inf": self.d_inf,
            "kappa1": self.kappa1,
            "s_sim_set": self.s_sim_set,
            "s_sim_meas": self.s_sim_meas,
            "ad_regular": self.ad_regular,
            "kappa_p_table": {str(p): v for p, v in sorted(self.kappa_p_table.items())},
            "d_q_table": {str(q): v for q, v in sorted(self.d_q_table.items())},
            "provenance": dict(self.provenance),
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "DimensionProfile":
        return cls(**_fields(doc, "profile file", _PROFILE_FIELDS))


def _provenance(value) -> dict:
    tags = _json_object(value)
    if not all(name in TAGGED_FIELDS and tag in (EXACT, ESTIMATED, USER) for name, tag in tags.items()):
        raise ValueError(f"keys must be among {TAGGED_FIELDS} and tags among {(EXACT, ESTIMATED, USER)}")
    return tags


def _strings(value) -> tuple:
    if not (isinstance(value, list) and all(isinstance(text, str) for text in value)):
        raise TypeError("expected a JSON list of strings")
    return tuple(value)


# The profile file, as ``to_dict`` writes it: the fields of ``DimensionProfile``.
_PROFILE_FIELDS = {
    "k": (_int, True),
    "kappa2": (_float, True),
    "kappa_star": (_float, True),
    "d_inf": (_float, True),
    "s_sim_set": (_float, True),
    "s_sim_meas": (_float, True),
    "ad_regular": (_bool, False),
    "kappa1": (_optional_float, False),
    "kappa_p_table": _EXPONENT_FIELDS["kappa_p"],
    "d_q_table": _EXPONENT_FIELDS["d_q"],
    "provenance": (_provenance, False),
    "warnings": (_strings, False),
}


def build_profile(
    ifs: SelfSimilarIFS,
    declared_separation: str = "none",
    overrides: Optional[Mapping] = None,
) -> DimensionProfile:
    """Assemble a DimensionProfile from an IFS plus declarations.

    Exact formulas are used where the declared separation permits, safe
    estimates otherwise; user overrides (the fields of an IFS file's
    ``exponents``) are applied last and re-validated.  A separation
    outside ``SEPARATION_KINDS`` or a malformed override raises BadConfig.
    """
    if declared_separation not in SEPARATION_KINDS:
        raise BadConfig(f"unknown separation kind {declared_separation!r}")
    overrides = _fields(overrides or {}, "exponents", _EXPONENT_FIELDS)
    k = ifs.ambient_dim
    ratios = ifs.ratios
    weights = ifs.weight_array
    warnings: list = []
    provenance: dict = {}

    s_set = similarity_dimension_set(ratios)
    s_meas = similarity_dimension_measure(weights, ratios)

    separated = declared_separation in ("SSC", "OSC")
    natural_weights = bool(np.max(np.abs(weights - ratios**s_set)) <= 1e-12)
    ad_regular = (
        ifs.is_homogeneous
        and separated
        and natural_weights
        and s_set <= k + _CHAIN_SLACK
    )

    kappa_star, star_prov, star_warn = assouad_dimension(
        ifs, declared_separation, overrides.get("kappa_star")
    )
    warnings.extend(star_warn)
    provenance["kappa_star"] = star_prov

    if ad_regular:
        kappa2 = d_inf = min(s_set, float(k))
        provenance["kappa2"] = EXACT
        provenance["d_inf"] = EXACT
    else:
        d_inf = frostman_exponent_under_separation(weights, ratios, k)
        _, kappa2 = lq_spectrum(weights, ratios, 2.0, k)
        lq_exact = k == 1 and declared_separation in ("SSC", "OSC", "ESC")
        provenance["kappa2"] = EXACT if lq_exact else ESTIMATED
        provenance["d_inf"] = EXACT if separated else ESTIMATED
        if not lq_exact:
            warnings.append(
                "kappa2 from the Moran L^q equation is exact only on the line "
                "under exponential separation; value tagged estimated"
            )
        if not separated:
            warnings.append(
                "d_inf uses the cylinder-mass formula without declared SSC/OSC; "
                "value tagged estimated"
            )

    tables = {"kappa_p_table": overrides.pop("kappa_p", {}), "d_q_table": overrides.pop("d_q", {})}
    provenance.update(dict.fromkeys(overrides, USER))
    provenance.update(dict.fromkeys([name for name, table in tables.items() if table], USER))
    values = {"kappa2": kappa2, "kappa_star": kappa_star, "d_inf": d_inf, **overrides}
    return DimensionProfile(
        k=k,
        s_sim_set=s_set,
        s_sim_meas=s_meas,
        ad_regular=ad_regular,
        provenance=provenance,
        warnings=tuple(warnings),
        **values,
        **tables,
    )


def save_profile(profile: DimensionProfile, path) -> None:
    write_json(path, profile.to_dict())


def load_profile(path) -> DimensionProfile:
    """Read a profile written by ``save_profile``; a bad file or field raises BadConfig."""
    return DimensionProfile.from_dict(read_json(path, "profile file"))
