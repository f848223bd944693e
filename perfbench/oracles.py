"""Reference values and gates for the benchmark's outputs.

Written with numpy alone and sharing no code with the library, so a
defect in the library cannot hide in its own oracle.  Transform sign
convention: hat(xi) = integral of exp(-2 pi i xi x).

A gate passes a row when |value - reference| <= allowance, where the
allowance is the row's certified error bound plus the oracle's own
error plus a roundoff slack.  Gates return the indices of failing rows
and the bound tightness max |value - reference| / bound.
"""

import math
import re

import numpy as np

TWO_PI = 2.0 * math.pi
ROUNDOFF_SLACK = 1e-12
_EPS = float(np.finfo(float).eps)

# Largest change the dropped tail of prod cos(2 pi eta / 3^k) may make.
_PRODUCT_TAIL = 1e-15


def cantor_hat(xi):
    """Cantor measure on [0, 1], closed form exp(-pi i xi) prod_k cos(2 pi xi / 3^k).

    Its error is within ``phase_roundoff(xi)`` (truncation stays below 1e-15).
    """
    xi = np.asarray(xi, dtype=float)
    return np.exp(-1j * math.pi * xi) * centred_cantor_hat(xi)


def phase_roundoff(xi):
    """Allowance for rounding in phases 2 pi xi x with |x| <= 1: 16 eps 2 pi |xi|."""
    return 16.0 * _EPS * TWO_PI * np.abs(np.asarray(xi, dtype=float))


def centred_cantor_hat(eta):
    """Transform of the Cantor measure centred at 0: prod_k cos(2 pi eta / 3^k).

    The product stops at the first K with (2 pi |eta|)^2 9^-K / 16 <= 1e-15,
    which bounds sum_{k > K} (1 - cos(2 pi eta / 3^k)), the most the dropped
    factors can move the value.
    """
    eta = np.asarray(eta, dtype=float)
    top = TWO_PI * float(np.max(np.abs(eta), initial=0.0))
    factors = max(1, math.ceil(math.log(max(top * top / (16.0 * _PRODUCT_TAIL), 1.0), 9.0)))
    out = np.ones_like(eta)
    for k in range(1, factors + 1):
        out *= np.cos(TWO_PI * eta / 3.0**k)
    return out


def _cantor_square_depth(xi, target):
    """Least depth d with closure error (pi/4) |xi| 9^-d <= target."""
    need = math.pi / 4.0 * abs(xi) / target
    return max(1, math.ceil(math.log(max(need, 1.0), 9.0)))


def _cantor_midpoints(depth):
    mids = np.array([0.5])
    for _ in range(depth):
        mids = np.concatenate([mids / 3.0, mids / 3.0 + 2.0 / 3.0])
    return mids


def cantor_square_hat(xis, target=1e-5, chunk_terms=1 << 21):
    """Transform of the Cantor measure under x -> x^2, with its error bound.

    Splits the measure into the 2^d depth-d cylinders, midpoint m and
    ratio r = 3^-d, and writes x = m + r z with z centred-Cantor
    distributed.  Then x^2 = m^2 + 2 m r z + r^2 z^2; the first two terms
    integrate exactly through the closed form of the centred Cantor
    transform, and dropping the last costs at most
    2 pi |xi| r^2 E[z^2] = (pi/4) |xi| 9^-d, since E[z^2] = 1/8.  The depth
    is chosen per frequency to hold that below ``target``.

    Returns (values, errors) aligned with ``xis``.
    """
    xis = np.asarray(xis, dtype=float)
    values = np.empty(len(xis), dtype=complex)
    errors = np.empty(len(xis))
    depths = np.array([_cantor_square_depth(x, target) for x in xis], dtype=int)
    for depth in np.unique(depths):
        idx = np.flatnonzero(depths == depth)
        mids = _cantor_midpoints(int(depth))
        ratio = 3.0**-depth
        rows = max(1, chunk_terms // len(mids))
        for start in range(0, len(idx), rows):
            sel = idx[start : start + rows]
            xi = xis[sel][:, None]
            outer = np.exp(-1j * TWO_PI * (xi * mids**2))
            inner = centred_cantor_hat(2.0 * ratio * xi * mids)
            values[sel] = (outer * inner).mean(axis=1)
            errors[sel] = math.pi / 4.0 * np.abs(xis[sel]) * ratio**2
    return values, errors + phase_roundoff(xis)


def uniform12_log_hat(xi):
    """Transform of uniform[1, 2] under x -> log x: (2 e^{-2 pi i xi log 2} - 1) / (1 - 2 pi i xi)."""
    xi = np.asarray(xi, dtype=float)
    return (2.0 * np.exp(-1j * TWO_PI * xi * math.log(2.0)) - 1.0) / (1.0 - 1j * TWO_PI * xi)


def log_product_density(z):
    """Density of X Y for X, Y independent uniform on [1, 2]."""
    z = np.asarray(z, dtype=float)
    inside = (z >= 1.0) & (z <= 4.0)
    return np.where(inside, np.where(z <= 2.0, np.log(z), np.log(4.0 / z)), 0.0)


def gate_rows(values, bounds, reference, oracle_error):
    """Rows outside |value - reference| <= bound + oracle_error + slack.

    Returns (failing row indices, tightness = max observed error / bound).
    """
    values = np.asarray(values)
    bounds = np.asarray(bounds, dtype=float)
    observed = np.abs(values - reference)
    allowance = bounds + oracle_error + ROUNDOFF_SLACK
    failing = np.flatnonzero(~(observed <= allowance))
    positive = bounds > 0.0
    tightness = float(np.max(observed[positive] / bounds[positive], initial=0.0))
    return failing, tightness


DENSITY_WINDOW = (1.05, 3.95)
DENSITY_SUP_ERROR = 0.02
MASS_TOLERANCE = 0.02


def gate_density(z, density):
    """Criterion-10 thresholds: sup error on the window and total mass.

    Returns (list of violations, sup error on the window, mass).
    """
    z = np.asarray(z, dtype=float)
    density = np.asarray(density, dtype=float)
    lo, hi = DENSITY_WINDOW
    window = (z >= lo) & (z <= hi)
    sup_error = float(np.max(np.abs(density[window] - log_product_density(z[window]))))
    mass = float(np.sum(0.5 * (density[1:] + density[:-1]) * np.diff(z)))
    violations = []
    if not sup_error <= DENSITY_SUP_ERROR:
        violations.append(f"density sup error {sup_error:.3e} > {DENSITY_SUP_ERROR}")
    if not abs(mass - 1.0) <= MASS_TOLERANCE:
        violations.append(f"density mass {mass:.6f} not within {MASS_TOLERANCE} of 1")
    return violations, sup_error, mass


_NP_SCALAR = re.compile(r"np\.float64\(([^)]*)\)")


def read_csv(path):
    """Header and float columns of a CSV written by the library.

    Non-numeric columns (the scheme name) are kept as strings.  Cells
    written as ``np.float64(x)`` read as x.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [_NP_SCALAR.sub(r"\1", line).split(",") for line in lines[1:]]
    columns = {}
    for j, name in enumerate(header):
        cells = [r[j] for r in rows]
        try:
            columns[name] = np.array([float(c) for c in cells])
        except ValueError:
            columns[name] = cells
    return columns
