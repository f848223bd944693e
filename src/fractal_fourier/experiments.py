"""Desk-scale experiments: decay-slope measurement and convolution recovery.

Decay experiments sample the image transform at log-uniform random
frequencies per octave and fit the per-octave maximum in log2-log2
coordinates; the per-octave max (not the mean) approximates the sup in
the decay-exponent definition, and the 0.95-quantile is reported to
expose sparse spikes (self-similar transforms need not decay pointwise).

Convolution experiments work in logarithmic coordinates: the transform
of each log-image factor is evaluated on a uniform frequency grid, the
pointwise product is the transform of the additive convolution, and a
truncated Fourier inversion recovers the density; back in multiplicative
coordinates this is the density of the arithmetic product.  Truncated
L^1/L^2 sums of the product transform and their octave growth slopes are
reported as absolute-continuity indicators, never as conclusions; the
theorems' verdicts come from the bound calculator.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import BadConfig, CenterInsideSupport, ResourceExceeded, SupportNotPositive
from .fourier import (
    EPS,
    IMAGE_SCHEMES,
    PHASE_BLOCK,
    TWO_PI,
    PushforwardMap,
    _check_positive,
    _check_positive_finite,
    _check_threads,
    _fixed_cover,
    _grid_step,
    _phase_rounding,
    _row_phases,
    curvature_diagnostic,
    log_map,
    neg_log_map,
    pushforward_batch,
    write_csv,
)
from .ifs import DEFAULT_LEAF_BUDGET, SelfSimilarIFS

DEFAULT_DENSITY_BUDGET = 0.02   # certified density error allowed by the inversion


@dataclass(frozen=True)
class OctaveStat:
    octave: int
    n_samples: int
    max_abs: float
    q95_abs: float
    max_error: float
    reliable: bool


@dataclass(frozen=True)
class DecayExperiment:
    """Filled decay experiment: per-octave envelope plus the fitted slope.

    ``fitted_slope`` is the least-squares slope of log2(max |transform|)
    against the octave index; the empirical decay exponent is its
    negative.  An octave is unreliable when some sample's error bound
    exceeds 10% of the octave max.
    """

    octaves: Tuple[int, int]
    samples_per_octave: int
    seed: int
    tol: float
    scheme: str
    stats: Tuple[OctaveStat, ...]
    fitted_slope: float
    slope_residual: float
    theoretical_sigma: Optional[float] = None
    warnings: Tuple[str, ...] = ()
    frequencies: np.ndarray = field(default=None, repr=False)
    values: np.ndarray = field(default=None, repr=False)
    error_bounds: np.ndarray = field(default=None, repr=False)
    leaves: np.ndarray = field(default=None, repr=False)

    @property
    def empirical_exponent(self) -> float:
        return -self.fitted_slope

    def to_summary(self) -> dict:
        return {
            "octaves": list(self.octaves),
            "samples_per_octave": self.samples_per_octave,
            "seed": self.seed,
            "tol": self.tol,
            "scheme": self.scheme,
            "fitted_slope": self.fitted_slope,
            "empirical_exponent": self.empirical_exponent,
            "slope_residual": self.slope_residual,
            "theoretical_sigma": self.theoretical_sigma,
            "per_octave": [
                {
                    "octave": s.octave,
                    "n": s.n_samples,
                    "max_abs": s.max_abs,
                    "q95_abs": s.q95_abs,
                    "max_error_bound": s.max_error,
                    "reliable": s.reliable,
                }
                for s in self.stats
            ],
            "warnings": list(self.warnings),
        }


def octave_frequencies(
    octaves: Tuple[int, int], samples_per_octave: int, seed: int
) -> np.ndarray:
    """Log-uniform random frequencies, ``samples_per_octave`` in each [2^o, 2^(o+1)), first <= o <= last.

    A slope needs two octaves: last <= first raises BadConfig.
    """
    if len(octaves) != 2:
        raise BadConfig("octaves must be [first, last]")
    a, b = octaves
    if b <= a:
        raise BadConfig(f"octaves must be [first, last] with last > first (a slope needs two octaves), "
                        f"got {[a, b]}")
    if samples_per_octave < 1:
        raise BadConfig("samples_per_octave must be >= 1")
    rng = np.random.default_rng(seed)
    out = []
    for octave in range(a, b + 1):
        u = rng.random(samples_per_octave)
        out.append(2.0 ** (octave + u))
    return np.concatenate(out)


def _quantile95(values: np.ndarray) -> float:
    """np.quantile(values, 0.95) of a finite 1-d array, bit for bit, by a sort.

    numpy's linear rule: the virtual index i = (n - 1) 0.95 between the
    sorted values a = v[floor(i)] and b = v[floor(i) + 1] (the last value
    when i reaches it), weight t = i - floor(i), and numpy's ``_lerp``
    form, a + (b - a) t below t = 1/2 and b - (b - a)(1 - t) from it.
    np.quantile is not used because its first call imports numpy.ma
    (through np.unique), a start-up cost every ``decay`` process would pay.
    """
    ordered = np.sort(values)
    index = (len(ordered) - 1) * 0.95
    low = math.floor(index)
    a, b = ordered[low], ordered[min(low + 1, len(ordered) - 1)]
    t = index - low
    return float(b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t)


def measure_decay_slope(
    ifs: SelfSimilarIFS,
    pmap: PushforwardMap,
    octaves: Tuple[int, int] = (8, 18),
    samples_per_octave: int = 64,
    seed: int = 0,
    tol: float = 1e-3,
    scheme: str = "order1",
    theoretical_sigma: Optional[float] = None,
    threads: int = 1,
    budget: int = DEFAULT_LEAF_BUDGET,
) -> DecayExperiment:
    """Measure the empirical decay envelope of the image transform.

    ``scheme`` is one of ``IMAGE_SCHEMES``, else BadConfig: the recursion
    measures mu itself and would ignore ``pmap``.  Every cover is counted
    against ``budget`` (ResourceExceeded "leaf_budget").
    """
    if scheme not in IMAGE_SCHEMES:
        raise BadConfig(f"scheme must be one of {IMAGE_SCHEMES}, got {scheme!r}")
    _check_threads(threads)
    xis = octave_frequencies(octaves, samples_per_octave, seed)
    warnings = []
    if pmap.out_dim == 1:
        try:
            min_det, vanishing = curvature_diagnostic(ifs, pmap, seed=seed)
            if vanishing:
                warnings.append(
                    f"curvature diagnostic failed (min |det Hess| = {min_det:.3e}); "
                    "theoretical bounds do not apply"
                )
        except Exception as exc:  # diagnostics must not block measurement
            warnings.append(f"curvature diagnostic skipped: {exc}")
    if not pmap.bounds_certified:
        warnings.append("derivative bounds are sampled estimates; error bounds heuristic")
    values, errors, leaves = pushforward_batch(
        ifs, pmap, xis, tol=tol, scheme=scheme, threads=threads, budget=budget
    )
    a, b = octaves
    stats = []
    for i, octave in enumerate(range(a, b + 1)):
        sl = slice(i * samples_per_octave, (i + 1) * samples_per_octave)
        mags = np.abs(values[sl])
        max_abs = float(mags.max())
        max_err = float(errors[sl].max())
        stats.append(
            OctaveStat(
                octave=octave,
                n_samples=samples_per_octave,
                max_abs=max_abs,
                q95_abs=_quantile95(mags),
                max_error=max_err,
                reliable=bool(max_err <= 0.1 * max_abs),
            )
        )
    if any(not s.reliable for s in stats):
        warnings.append(
            "some octaves have error bounds above 10% of the octave max; "
            "tighten tol before trusting the slope"
        )
    x = np.array([s.octave for s in stats], dtype=float)
    y = np.log2([s.max_abs for s in stats])
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return DecayExperiment(
        octaves=octaves,
        samples_per_octave=samples_per_octave,
        seed=seed,
        tol=tol,
        scheme=scheme,
        stats=tuple(stats),
        fitted_slope=float(slope),
        slope_residual=residual,
        theoretical_sigma=theoretical_sigma,
        warnings=tuple(warnings),
        frequencies=xis,
        values=values,
        error_bounds=errors,
        leaves=leaves,
    )


# ---------------------------------------------------------------------------
# multiplicative convolutions in log space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvolutionFactor:
    """One factor measure together with its logarithmic coordinate map."""

    ifs: SelfSimilarIFS
    pmap: PushforwardMap
    log_support: Tuple[float, float]

    def key(self) -> tuple:
        return (self.ifs.config_key(), self.pmap.label)


def log_factor(ifs: SelfSimilarIFS, shift: float = 0.0) -> ConvolutionFactor:
    """Factor given by x -> log(x - shift).

    SupportNotPositive (from ``log_map``) unless the support sits right of
    the shift.
    """
    pmap = log_map(ifs, shift)
    centre, radius = float(ifs.barycenter[0]), ifs.support_radius
    return ConvolutionFactor(
        ifs=ifs,
        pmap=pmap,
        log_support=(math.log(centre - radius - shift), math.log(centre + radius - shift)),
    )


def neg_log_factor(ifs: SelfSimilarIFS, shift: float = 0.0) -> ConvolutionFactor:
    """Factor given by y -> -log(y - shift) (for ratio-type projections).

    CenterInsideSupport (for the SupportNotPositive of ``neg_log_map``)
    unless the support sits right of the shift.
    """
    try:
        pmap = neg_log_map(ifs, shift)
    except SupportNotPositive as exc:
        raise CenterInsideSupport(str(exc)) from exc
    centre, radius = float(ifs.barycenter[0]), ifs.support_radius
    return ConvolutionFactor(
        ifs=ifs,
        pmap=pmap,
        log_support=(-math.log(centre + radius - shift), -math.log(centre - radius - shift)),
    )


@dataclass(frozen=True)
class ConvolutionExperiment:
    """Product transform on a uniform grid plus the recovered density."""

    delta: float
    n_freq: int
    frequencies: np.ndarray = field(repr=False)
    product: np.ndarray = field(repr=False)
    product_error: np.ndarray = field(repr=False)
    log_support: Tuple[float, float]
    density_x: np.ndarray = field(repr=False)
    density: np.ndarray = field(repr=False)
    density_error_certified: float
    tail_estimate: float
    imag_residue: float
    mass: float
    l1_octave_slope: float
    l2_octave_slope: float
    octave_table: Tuple[dict, ...]
    warnings: Tuple[str, ...] = ()
    schemes: Tuple[str, ...] = ()

    def to_summary(self) -> dict:
        return {
            "delta": self.delta,
            "schemes": list(self.schemes),
            "n_freq": self.n_freq,
            "max_frequency": self.delta * self.n_freq,
            "log_support": list(self.log_support),
            "density_error_certified": self.density_error_certified,
            "tail_estimate": self.tail_estimate,
            "imag_residue": self.imag_residue,
            "mass": self.mass,
            "l1_octave_slope": self.l1_octave_slope,
            "l2_octave_slope": self.l2_octave_slope,
            "octave_table": list(self.octave_table),
            "warnings": list(self.warnings),
        }


def _invert_on_points(t: np.ndarray, xis: np.ndarray, phi: np.ndarray, delta: float):
    """rho(t) = delta (phi_0 + 2 Re sum_j phi_j e^{2 pi i xi_j t}) on the grid xi_j = j delta.

    The frequencies j >= 1 run in blocks of L = ``PHASE_BLOCK`` // len(t)
    rows, at most all of them.  Row j = j0 + l of the block that starts at
    j0 has e^{-2 pi i xi_j t} = base[l] offsets[j0], the factors of
    ``fourier._row_phases`` with coefficients 2 pi t and unit weights,
    so a chunk of L blocks sums by one matrix product: Phi @ base, with
    Phi[b, l] = conj(phi_{j0_b + l}) (0 past the last frequency), times
    each block's offsets, whose real parts Re(conj(phi_j) e^{-i theta_j})
    = Re(phi_j e^{i theta_j}) are summed over the blocks.
    ``_inversion_rounding`` bounds the rounding.  Returns
    (rho, |Im phi_0|).  ``xis`` must be that grid, else BadConfig.
    """
    grid = _grid_step(xis[:, None])
    if grid is None or grid[0] != 0:
        raise BadConfig("the inversion needs the uniform frequency grid j * delta from j = 0")
    coefs = (TWO_PI * np.asarray(t, dtype=float))[:, None]
    n = len(xis) - 1
    size = min(max(1, PHASE_BLOCK // len(t)), n)
    blocks = -(-n // size)
    conj = np.zeros(blocks * size, dtype=complex)
    conj[:n] = np.conj(phi[1:])
    conj = conj.reshape(blocks, size)
    work = {}
    base = _row_phases(xis[:size, None], coefs, np.empty((size, len(t)), dtype=complex), work)
    acc = np.zeros(len(t))
    for b0 in range(0, blocks, size):
        firsts = 1 + size * np.arange(b0, min(b0 + size, blocks))
        offsets = _row_phases(xis[firsts, None], coefs, np.empty((len(firsts), len(t)), dtype=complex), work)
        sums = conj[b0 : b0 + size] @ base
        sums *= offsets
        acc += np.add.reduce(sums.real, axis=0)
    rho = np.full(len(t), float(phi[0].real))
    rho += 2.0 * acc
    return delta * rho, abs(float(phi[0].imag))


def _inversion_rounding(t: np.ndarray, xis: np.ndarray, phi: np.ndarray, delta: float):
    """Bound on the float rounding of ``_invert_on_points`` at the points ``t``.

    Each term Re(conj(phi_j) e^{-i theta_j}) is within
    |phi_j| ``_phase_rounding``(|xi_j|, 2 pi max|t|) of its exact value
    for its phases: base and offset unit phases at unit weight (a product
    by 1 is exact), the angles and the split of j delta as on the row
    kernel's grid, and 2 pi t rounds by 2u, less than A_w does.  The sums
    are any-order sums (Higham, Accuracy and Stability of Numerical
    Algorithms, SIAM 2002, section 4.2, bound (4.4)), counted in
    u = EPS / 2 per term: the matrix product Phi @ base sums each part of
    L terms' complex products, 2L real products, so with its product a
    term meets at most 2L roundings; the real part of the product with a
    block's offsets rounds twice more, relative to
    |offset| sum_l |phi_l| over its block; the sum over the B = ceil(n / L)
    blocks adds at most B, and 2 acc + phi_0 and the factor delta two
    more.  With L <= n, L + B <= n + 1, so 2L + B + 4 <= 2n + 6 = 2 (N + 2)
    for N = len(xis) = n + 1: (N + 2) EPS times |phi_0| + 2 sum |phi_j|
    covers every sum.
    """
    mags = np.abs(phi)
    coef = TWO_PI * float(np.max(np.abs(t)))
    terms = 2.0 * float(np.sum(mags[1:] * _phase_rounding(np.abs(xis[1:]), coef)))
    total = float(mags[0] + 2.0 * np.sum(mags[1:]))
    return delta * (terms + (len(xis) + 2.0) * EPS * total)


def _octave_diagnostics(xis: np.ndarray, phi: np.ndarray, delta: float):
    """Per-octave increments of the truncated L^1/L^2 transform sums."""
    mags = np.abs(phi)
    top = int(math.floor(math.log2(xis[-1]))) if xis[-1] >= 2.0 else 1
    rows = []
    for octave in range(0, top + 1):
        lo, hi = 2.0**octave, 2.0 ** (octave + 1)
        mask = (xis >= lo) & (xis < hi)
        if not np.any(mask):
            continue
        l1 = 2.0 * float(np.sum(mags[mask])) * delta
        l2 = 2.0 * float(np.sum(mags[mask] ** 2)) * delta
        rows.append({"octave": octave, "l1_increment": l1, "l2_increment": l2})
    def slope(key):
        ys = np.array([r[key] for r in rows])
        keep = ys > 0
        if keep.sum() < 3:
            return math.nan
        x = np.array([r["octave"] for r in rows], dtype=float)[keep]
        return float(np.polyfit(x, np.log2(ys[keep]), 1)[0])
    return rows, slope("l1_increment"), slope("l2_increment")


def multiplicative_convolution(
    factors: Sequence[ConvolutionFactor],
    max_frequency: float = 2.0**14,
    density_points: int = 512,
    density_budget: float = DEFAULT_DENSITY_BUDGET,
    tol: float = 1e-4,
    threads: int = 1,
    budget: int = DEFAULT_LEAF_BUDGET,
) -> ConvolutionExperiment:
    """Recover the density of the product (or ratio) of factor measures.

    The frequency grid is xi_j = j delta, with delta = 1/(4 * total
    log-support length), and reaches max_frequency.  Each factor's
    transform is evaluated at one fixed stopping scale, chosen so that the
    quadratic cross terms of the transform errors take half of
    ``density_budget``: that is the order-1 scale, and a homogeneous
    factor on the line whose map has a third-derivative bound is
    evaluated by ``order2`` instead, at the coarsest cover that is as
    tight at every grid frequency (``fourier._fixed_cover``).  The schemes the
    factors used are recorded in ``schemes``.  The certified density error
    ``density_error_certified`` is delta times the summed product errors
    plus the float rounding of the inversion (``_inversion_rounding``).
    While it is above ``density_budget``, which happens when the linear
    term |phi| e dominates (slowly decaying transforms), every factor's
    scale is halved and the transforms are evaluated again; a cover past
    the leaf budget raises ResourceExceeded("leaf_budget") before it is
    built, so an unreachable budget ends there.  The truncation tail beyond
    the grid is estimated from the fitted envelope slope and reported
    separately (never folded into the certified part).
    """
    if len(factors) < 2:
        raise BadConfig("need at least two factor measures")
    _check_positive_finite("max_frequency", max_frequency)
    _check_positive_finite("tol", tol)
    _check_positive("density_budget", density_budget)
    _check_threads(threads)
    if density_points < 2:
        raise BadConfig("density_points must be at least 2")
    lengths = [hi - lo for lo, hi in (f.log_support for f in factors)]
    support_lo = sum(lo for lo, _ in (f.log_support for f in factors))
    support_hi = sum(hi for _, hi in (f.log_support for f in factors))
    total_len = sum(lengths)
    delta = 1.0 / (4.0 * total_len)
    n_freq = int(math.ceil(max_frequency / delta))
    xis = np.arange(n_freq + 1) * delta
    pad = 0.02 * total_len
    t_grid = np.linspace(support_lo - pad, support_hi + pad, density_points)

    # Fixed cover per factor (``_fixed_cover``).  Per-point transform errors
    # grow as e(xi) = tau xi (tau = pi H R^2 scale^2); their quadratic cross
    # terms dominate the certified inversion error with total
    # n(n-1) tau^2 Xi^3/3, which is held to half the density budget.
    n_fac = len(factors)
    tau = math.sqrt(
        3.0 * (density_budget / 2.0) / (n_fac * (n_fac - 1) * max_frequency**3)
    )
    distinct = {}
    for factor in factors:
        distinct.setdefault(factor.key(), factor)
    evaluated = None
    while True:
        covers = {key: _fixed_cover(f.ifs, f.pmap, tau, max_frequency) for key, f in distinct.items()}
        # Equal snapped scales are equal covers: a retry that moves no
        # factor's cover would evaluate the same transforms again, so it is skipped.
        if covers == evaluated:
            tau *= 0.25
            continue
        evaluated = covers
        transforms = {}
        for key, (scheme, scale) in covers.items():
            f = distinct[key]
            transforms[key] = pushforward_batch(f.ifs, f.pmap, xis, tol=tol, scheme=scheme,
                                                threads=threads, budget=budget, scale=scale)[:2]

        # Multiply in canonical key order: numpy complex products are not
        # bitwise commutative, and the product must be identical for any
        # factor ordering.
        product = np.ones(n_freq + 1, dtype=complex)
        product_err = np.zeros(n_freq + 1)
        for vals, errs in (transforms[key] for key in sorted(f.key() for f in factors)):
            mag_prev = np.abs(product)
            mag_new = np.abs(vals)
            product_err = mag_prev * errs + mag_new * product_err + product_err * errs
            product = product * vals
        cert = float(delta * (product_err[0] + 2.0 * np.sum(product_err[1:])))
        cert += _inversion_rounding(t_grid, xis, product, delta)
        if cert <= density_budget:
            break
        if not any(f.pmap.hessian_bound for f in factors):
            raise ResourceExceeded(
                f"certified density error {cert:.3e} exceeds density_budget "
                f"{density_budget:.3e}, and no factor has a scale to refine",
                "density_budget",
            )
        tau *= 0.25     # half the scale

    warnings = []
    rows, l1_slope, l2_slope = _octave_diagnostics(xis, product, delta)
    # Tail: extrapolate the last octave's L^1 increment with its fitted slope.
    if rows and not math.isnan(l1_slope) and l1_slope < -0.1:
        last = rows[-1]["l1_increment"]
        ratio = 2.0**l1_slope
        tail = last * ratio / (1.0 - ratio)
    else:
        tail = math.inf
        warnings.append(
            "product transform shows no decaying L^1 octave trend; "
            "truncation tail unbounded, density unreliable"
        )

    rho, imag_residue = _invert_on_points(t_grid, xis, product, delta)
    # t is the log coordinate; the product (or ratio) variable is z = e^t.
    z = np.exp(t_grid)
    density = rho / z
    mass = float(np.trapezoid(rho, t_grid))
    undershoot = float(density.min())
    if undershoot < -1e-3:
        warnings.append(f"density undershoot {undershoot:.2e} below the Gibbs tolerance")
    return ConvolutionExperiment(
        delta=delta,
        n_freq=n_freq,
        frequencies=xis,
        product=product,
        product_error=product_err,
        log_support=(support_lo, support_hi),
        density_x=z,
        density=density,
        density_error_certified=cert,
        tail_estimate=tail,
        imag_residue=imag_residue,
        mass=mass,
        l1_octave_slope=l1_slope,
        l2_octave_slope=l2_slope,
        octave_table=tuple(rows),
        warnings=tuple(warnings),
        schemes=tuple(covers[f.key()][0] for f in factors),
    )


def density_at(experiment: ConvolutionExperiment, z: np.ndarray) -> np.ndarray:
    """Evaluate the recovered product density at arbitrary points z > 0."""
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise BadConfig("product density lives on z > 0")
    rho, _ = _invert_on_points(
        np.log(z), experiment.frequencies, experiment.product, experiment.delta
    )
    return rho / z


def radial_projection_experiment(
    ifs_e: SelfSimilarIFS,
    ifs_f: SelfSimilarIFS,
    a: float,
    b: float,
    **kwargs,
) -> ConvolutionExperiment:
    """Ratio-coordinate experiment for the radial projection centred at (a, b).

    Convolves the image of the first measure under log(x - a) with the
    image of the second under -log(y - b); the recovered variable is
    (x - a)/(y - b), a smooth reparametrisation of the projection
    direction.  The centre must lie strictly left/below both supports.
    """
    try:
        fac_e = log_factor(ifs_e, a)
    except SupportNotPositive as exc:
        raise CenterInsideSupport(str(exc)) from exc
    fac_f = neg_log_factor(ifs_f, b)
    return multiplicative_convolution([fac_e, fac_f], **kwargs)


def write_density_csv(path, experiment: ConvolutionExperiment) -> None:
    bound = repr(float(experiment.density_error_certified + experiment.tail_estimate))
    write_csv(path, ["x", "density", "error_estimate"],
              [experiment.density_x, experiment.density, bound])


def write_octave_csv(path, experiment: DecayExperiment) -> None:
    header = ["octave", "n_samples", "max_abs", "q95_abs", "max_error_bound", "reliable"]
    write_csv(path, header, list(zip(*map(astuple, experiment.stats))))   # OctaveStat's fields
