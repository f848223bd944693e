"""Property tests of the certificates against independent high-precision oracles."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")

from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import numpy as np

from fractal_fourier import fourier as fourier_module
from fractal_fourier import grid_rows
from fractal_fourier.errors import InvalidIFS
from fractal_fourier.experiments import _inversion_rounding, _invert_on_points
from fractal_fourier.fourier import (
    EPS,
    PushforwardMap,
    _MuHatTable,
    _centring_rounding,
    _grid_step,
    _jacobian_bound,
    _linear_forms,
    _mu_hat_homog_many,
    _phase_rounding,
    _roundoff,
    cube_map,
    identity_map,
    log_map,
    mu_hat,
    pushforward_batch,
    pushforward_hat_order0,
    pushforward_hat_order1,
    pushforward_hat_order2,
    quadratic_map,
    square_map,
)
from fractal_fourier.ifs import _count_stopping, _cover_blocks, ifs_1d

# Two reversing maps whose ratios differ in the last bit: not homogeneous.
LAST_BIT_RATIOS = ifs_1d([0.1, 0.10000000000000002], [0.0, 1.0], [1 / 64, 63 / 64], [-1, -1])
# Fixed points 1e-12 apart, whose centred translations round to a spread
# just below ifs.FIXED_POINT_TOL.
CLOSE_FIXED_POINTS = ifs_1d([0.25, 0.359375], [1.25e-12, 0.0], [1 / 32, 31 / 32], [-1, 1])

ORACLE_SHARE = 1e-3     # the oracle's own error, as a share of the tolerance


def mu_hat_mpmath(ifs, xi, tau, digits=30):
    """mu_hat(xi) of a system on the line, and a bound on its error.

    A depth-first recursion mu_hat(eta) = sum_i p_i e^{-2 pi i eta t_i}
    mu_hat(r_i s_i eta) in ``digits``-digit arithmetic, every float input
    taken exactly.  The barycenter b, the variance V = E (x - b)^2 and the
    radius R = max_i |f_i(b) - b| / (1 - r_i) of a ball around b that every
    map sends into itself follow exactly from the maps.  A node with
    2 pi |eta| R <= ``tau`` is closed by the second-order expansion
    mu_hat(eta) = e^{-2 pi i eta b} (1 - 2 pi^2 eta^2 V + rem): E (x - b) = 0
    and |x - b| <= R on the support, so |rem| <= (2 pi |eta| R)^3 / 6.
    Returns (value, bound on |value - mu_hat(xi)|).
    """
    mp = mpmath.mp
    mp.dps = digits
    p = [mpmath.mpf(w) for w in ifs.weights]
    a = [mpmath.mpf(m.ratio) * int(m.orientation[0, 0]) for m in ifs.maps]
    t = [mpmath.mpf(float(m.translation[0])) for m in ifs.maps]
    b = mpmath.fsum(pi * ti for pi, ti in zip(p, t)) / (1 - mpmath.fsum(pi * ai for pi, ai in zip(p, a)))
    offsets = [ai * b + ti - b for ai, ti in zip(a, t)]
    variance = mpmath.fsum(pi * d**2 for pi, d in zip(p, offsets)) / (
        1 - mpmath.fsum(pi * ai**2 for pi, ai in zip(p, a))
    )
    radius = max(abs(d) / (1 - abs(ai)) for d, ai in zip(offsets, a))
    two_pi = 2 * mpmath.pi
    total, remainder = mpmath.mpc(0), mpmath.mpf(0)
    stack = [(mpmath.mpf(xi), mpmath.mpf(0), mpmath.mpf(1))]
    while stack:
        eta, phase, weight = stack.pop()
        reach = two_pi * abs(eta) * radius
        if reach <= tau:
            closure = 1 - 2 * mpmath.pi**2 * eta**2 * variance
            total += weight * mpmath.expj(-two_pi * (phase + eta * b)) * closure
            remainder += weight * reach**3 / 6
            continue
        for pi, ai, ti in zip(p, a, t):
            stack.append((ai * eta, phase + eta * ti, weight * pi))
    return complex(total), float(remainder)


@st.composite
def reversing_systems(draw):
    """A non-homogeneous system on the line whose first map reverses orientation.

    Weights are multiples of 1/64, so they sum to one exactly.
    """
    n = draw(st.integers(2, 3))
    ratios = draw(st.lists(st.floats(0.1, 0.35), min_size=n, max_size=n))
    shifts = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    signs = [-1] + draw(st.lists(st.sampled_from([-1, 1]), min_size=n - 1, max_size=n - 1))
    cuts = sorted(draw(st.lists(st.integers(1, 63), min_size=n - 1, max_size=n - 1, unique=True)))
    weights = [(hi - lo) / 64 for lo, hi in zip([0] + cuts, cuts + [64])]
    assume(len({r * s for r, s in zip(ratios, signs)}) > 1)
    try:
        return ifs_1d(ratios, shifts, weights, signs)
    except InvalidIFS:      # maps sharing a fixed point
        assume(False)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    system=reversing_systems(),
    xi=st.floats(-12.0, 12.0),
    tol=st.sampled_from([1e-2, 1e-3]),
)
@example(system=LAST_BIT_RATIOS, xi=7.3, tol=1e-2)
def test_mu_hat_within_its_bound_of_the_mpmath_oracle(system, xi, tol):
    assert not system.is_homogeneous
    s = mu_hat(system, xi, tol=tol)
    tau = (6.0 * ORACLE_SHARE * tol) ** (1.0 / 3.0)
    exact, oracle_error = mu_hat_mpmath(system, xi, tau)
    assert oracle_error <= ORACLE_SHARE * tol
    assert abs(s.value - exact) <= s.error_bound + oracle_error


def product_form_mpmath(ifs, eta, digits=50):
    """mu_hat(eta) of a homogeneous system on the line, in ``digits`` digits.

    The product over levels l of sum_i p_i e^{-2 pi i eta s^l t_i},
    s = r O the shared linear part, every float input taken exactly.  It
    stops at the first level L with 2 pi |eta s^L| R < 10^-(digits - 10)
    and closes with e^{-2 pi i eta s^L b}, whose error is below that.
    """
    mp = mpmath.mp
    mp.dps = digits
    p = [mpmath.mpf(w) for w in ifs.weights]
    t = [mpmath.mpf(float(m.translation[0])) for m in ifs.maps]
    s = mpmath.mpf(ifs.maps[0].ratio) * int(ifs.maps[0].orientation[0, 0])
    b = mpmath.fsum(pi * ti for pi, ti in zip(p, t)) / (1 - s)
    radius = max(abs(s * b + ti - b) for ti in t) / (1 - abs(s))
    two_pi = 2 * mpmath.pi
    value, eta = mpmath.mpc(1), mpmath.mpf(eta)
    while two_pi * abs(eta) * radius >= mpmath.mpf(10) ** (10 - digits):
        value *= mpmath.fsum(pi * mpmath.expj(-two_pi * eta * ti) for pi, ti in zip(p, t))
        eta *= s
    return value * mpmath.expj(-two_pi * eta * b)


@st.composite
def homogeneous_systems(draw):
    """A homogeneous system on the line: 2-4 maps sharing one ratio and one orientation.

    Weights are multiples of 1/64, so they sum to one exactly.
    """
    n = draw(st.integers(2, 4))
    ratio = draw(st.floats(0.1, 0.6))
    sign = draw(st.sampled_from([-1, 1]))
    shifts = draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n))
    cuts = sorted(draw(st.lists(st.integers(1, 63), min_size=n - 1, max_size=n - 1, unique=True)))
    weights = [(hi - lo) / 64 for lo, hi in zip([0] + cuts, cuts + [64])]
    try:
        return ifs_1d([ratio] * n, shifts, weights, [sign] * n)
    except InvalidIFS:      # maps sharing a fixed point
        assume(False)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    system=homogeneous_systems(),
    slope=st.floats(-2.0, 2.0),
    offset=st.floats(-2.0, 2.0),
    xis=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6),
    tol=st.sampled_from([1e-3, 1e-5]),
)
def test_order1_table_batch_within_its_bound_of_the_mpmath_oracle(system, slope, offset, xis, tol):
    # f(x) = slope x + offset has no Taylor term: one cylinder, and the
    # whole value comes from the interpolation table at slope xi
    assert system.is_homogeneous
    affine = PushforwardMap(
        evaluator=lambda pts: slope * pts[:, 0] + offset,
        gradient=lambda pts: np.full_like(pts, slope),
        lipschitz_bound=abs(slope),
        hessian_bound=0.0,
        label="affine",
    )
    values, bounds, _ = pushforward_batch(system, affine, xis, tol=tol, scheme="order1")
    for xi, value, bound in zip(xis, values, bounds):
        phase = mpmath.expj(-2 * mpmath.pi * mpmath.mpf(xi) * mpmath.mpf(offset))
        exact = complex(phase * product_form_mpmath(system, mpmath.mpf(xi) * mpmath.mpf(slope)))
        assert abs(value - exact) <= bound


def second_moments_exact(ifs):
    """(M2, S) of a system on the line in exact rational arithmetic, every float input exact.

    M2 = sum_i p_i (f_i(b) - b)^2 / (1 - sum_i p_i r_i^2) at the exact
    barycenter b; S = int x^2 dnu for the measure nu of ``ifs.centred``
    as computed, whose own mean m is not exactly 0:
    S = sum_i p_i (c_i^2 + 2 s_i c_i m) / (1 - sum_i p_i s_i^2).
    """
    p = [Fraction(w) for w in ifs.weights]
    s = [Fraction(m.ratio) * int(m.orientation[0, 0]) for m in ifs.maps]
    t = [Fraction(float(m.translation[0])) for m in ifs.maps]
    spread = 1 - sum(pi * si**2 for pi, si in zip(p, s))
    b = sum(pi * ti for pi, ti in zip(p, t)) / (1 - sum(pi * si for pi, si in zip(p, s)))
    m2 = sum(pi * (si * b + ti - b) ** 2 for pi, si, ti in zip(p, s, t)) / spread
    c = [Fraction(float(m.translation[0])) for m in ifs.centred.maps]
    mean = sum(pi * ci for pi, ci in zip(p, c)) / (1 - sum(pi * si for pi, si in zip(p, s)))
    moment = sum(pi * (ci**2 + 2 * si * ci * mean) for pi, si, ci in zip(p, s, c)) / spread
    return m2, moment


def interpolation_peaks(table, cells, eta_max):
    """+-(j + t) h at t = (3 +- sqrt(3)) / 6 in each cell j, within eta_max.

    There |t (t - 1/2) (t - 1)| takes its largest value, sqrt(3) / 36, so the
    quadratic's interpolation error can reach its bound.
    """
    peaks = [(j + t) * table.h for j in cells for t in ((3.0 - 3.0**0.5) / 6.0, (3.0 + 3.0**0.5) / 6.0)]
    peaks = [eta for eta in peaks if eta <= eta_max]
    return peaks + [-eta for eta in peaks]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    system=homogeneous_systems(),
    eta_max=st.floats(1.0, 100.0),
    table_tol=st.sampled_from([1e-5, 1e-6, 1e-7]),
    data=st.data(),
)
def test_centred_table_within_its_slack_of_the_mpmath_product_form(
    system, eta_max, table_tol, data
):
    # the table holds h(eta) = e^{2 pi i eta b} mu_hat(eta), b the computed barycenter
    table = _MuHatTable(system, eta_max, table_tol)
    cells = data.draw(st.lists(st.integers(0, len(table.values) - 1), min_size=3, max_size=6))
    randoms = data.draw(st.lists(st.floats(-eta_max, eta_max), min_size=3, max_size=6))
    # +-eta_max, the first cell's middle node, cell ends and where the quadratic errs most
    etas = [eta_max, -eta_max, table.eta_max, -table.eta_max, 0.5 * table.h, -0.5 * table.h]
    etas += [j * table.h for j in cells] + [-j * table.h for j in cells] + randoms
    etas += interpolation_peaks(table, cells, eta_max)
    (looked_up,) = table.lookup(np.array(etas))
    b = mpmath.mpf(float(system.barycenter[0]))
    for eta, value in zip(etas, looked_up):
        centring = mpmath.expj(-2 * mpmath.pi * mpmath.mpf(eta) * b)
        error = abs(centring * mpmath.mpc(value) - product_form_mpmath(system, mpmath.mpf(eta)))
        assert error <= table.slack, eta

    m2, moment = second_moments_exact(system)
    radius = system.support_radius
    assert system.second_moment == pytest.approx(float(m2), rel=1e-12, abs=0.0)
    assert Fraction(system.second_moment) >= moment
    assert system.second_moment <= radius**2


def second_moment_form_mpmath(ifs, eta, digits=30):
    """h2(eta) = int u^2 e^{-2 pi i eta u} dmu_c(u) of a homogeneous system on the line.

    mu_c is mu moved by its exact barycenter b, so u = sum_l s^l d_{I_l}
    with d_i = f_i(b) - b, and the levels are independent: their moments
    (m0, m1, m2)_l = sum_i p_i (s^l d_i)^j e^{-2 pi i eta s^l d_i} combine
    as (P0, P1, P2)(m0, m1, m2) = (P0 m0, P1 m0 + P0 m1,
    P2 m0 + 2 P1 m1 + P0 m2).  It stops at the first level L with
    |s|^L R < 10^-(digits - 10); the rest of u, at most |s|^L R, moves
    the value by less than 3 R |s|^L R (1 + 2 pi |eta| R).
    """
    mp = mpmath.mp
    mp.dps = digits
    p = [mpmath.mpf(w) for w in ifs.weights]
    t = [mpmath.mpf(float(m.translation[0])) for m in ifs.maps]
    s = mpmath.mpf(ifs.maps[0].ratio) * int(ifs.maps[0].orientation[0, 0])
    b = mpmath.fsum(pi * ti for pi, ti in zip(p, t)) / (1 - s)
    offsets = [s * b + ti - b for ti in t]
    radius = max(abs(d) for d in offsets) / (1 - abs(s))
    two_pi, lever = 2 * mpmath.pi, mpmath.mpf(1)
    moments = (mpmath.mpc(1), mpmath.mpc(0), mpmath.mpc(0))
    while abs(lever) * radius >= mpmath.mpf(10) ** (10 - digits):
        level = [
            mpmath.fsum(pi * (lever * d) ** j * mpmath.expj(-two_pi * eta * lever * d)
                        for pi, d in zip(p, offsets))
            for j in range(3)
        ]
        p0, p1, p2 = moments
        moments = (
            p0 * level[0],
            p1 * level[0] + p0 * level[1],
            p2 * level[0] + 2 * p1 * level[1] + p0 * level[2],
        )
        lever *= s
    return moments[2]


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    system=homogeneous_systems(),
    eta_max=st.floats(1.0, 40.0),
    table_tol=st.sampled_from([1e-5, 1e-6, 1e-7]),
    data=st.data(),
)
def test_second_moment_table_within_its_slack2_of_the_mpmath_form(system, eta_max, table_tol, data):
    table = _MuHatTable(system, eta_max, table_tol, True)
    cells = data.draw(st.lists(st.integers(0, len(table.values) - 1), min_size=2, max_size=4))
    randoms = data.draw(st.lists(st.floats(-eta_max, eta_max), min_size=3, max_size=6))
    etas = [eta_max, -eta_max, 0.0, 0.5 * table.h, -0.5 * table.h] + randoms
    etas += interpolation_peaks(table, cells, eta_max)
    values, seconds = table.lookup(np.array(etas))
    b = mpmath.mpf(float(system.barycenter[0]))
    for eta, value, second in zip(etas, values, seconds):
        centring = mpmath.expj(-2 * mpmath.pi * mpmath.mpf(eta) * b)
        error = abs(centring * mpmath.mpc(value) - product_form_mpmath(system, mpmath.mpf(eta)))
        assert error <= table.slack, eta
        exact = second_moment_form_mpmath(system, mpmath.mpf(eta))
        assert abs(mpmath.mpc(second) - exact) <= table.slack2, eta


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    system=homogeneous_systems(),
    eta=st.floats(1e-9, 1e-6),
    share=st.sampled_from([0.3, 0.05, 0.01]),
)
def test_second_moment_closure_within_its_bound_of_the_mpmath_form(system, eta, share):
    # At tol = share 3 R^2 and |eta| this small the depth comes from the
    # closure's 3 rho^D R^2 alone, and at eta = 0 the truncated tail
    # rho^2D M2 is the whole error of h2(0) = M2.
    radius = system.support_radius
    tol = share * 3.0 * radius**2
    etas = [0.0, eta]
    values, bounds, depth = _mu_hat_homog_many(system.centred, np.array([etas]).T, tol, True)
    assert depth >= 1
    for row, x in enumerate(etas):
        exact = second_moment_form_mpmath(system, mpmath.mpf(x))
        allowance = _centring_rounding(system, x, second=True)
        assert abs(mpmath.mpc(values[1, row]) - exact) <= bounds[1, row] + allowance, x
    # the depth rule holds the closure at eta = 0 within tol
    assert bounds[1, 0] <= tol * (1.0 + 1e-9)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    system=homogeneous_systems(),
    etas=st.lists(st.floats(-200.0, 200.0).filter(bool), min_size=1, max_size=6),
    tol=st.sampled_from([1e-4, 1e-7, 1e-10]),
)
def test_scattered_moment_rows_within_their_bounds_of_the_mpmath_forms(system, etas, tol):
    # rows that are not a grid j * delta take their unit phases directly,
    # level by level, with the barycenter as the closing level
    rows = np.array([etas]).T
    assert _grid_step(rows) is None
    values, bounds, _ = _mu_hat_homog_many(system.centred, rows, tol, True)
    b = mpmath.mpf(float(system.barycenter[0]))
    for row, eta in enumerate(etas):
        x = mpmath.mpf(eta)
        centring = mpmath.expj(-2 * mpmath.pi * x * b)
        error = abs(centring * mpmath.mpc(values[0, row]) - product_form_mpmath(system, x))
        assert error <= bounds[0, row] + _centring_rounding(system, abs(eta)), eta
        error2 = abs(mpmath.mpc(values[1, row]) - second_moment_form_mpmath(system, x))
        assert error2 <= bounds[1, row] + _centring_rounding(system, abs(eta), second=True), eta


# Weights within WEIGHT_SUM_TOL of summing to 1, not exactly: the measure
# is that of the normalised weights.
SHORT_WEIGHTS = ifs_1d([1 / 3, 1 / 3], [0.0, 2 / 3], [0.5, 0.5 - 9e-13])


@pytest.mark.parametrize("xi", [1.0, 10.0])
def test_mu_hat_of_weights_off_one_within_its_bound_of_the_normalised_product(xi):
    # the product over levels of sum_i (p_i / sum p) e^{-2 pi i xi 3^-l t_i},
    # every float input exact, to a level where 2 pi |xi| 3^-l < 1e-35:
    # the rest of the product is within that of 1
    mp = mpmath.mp
    mp.dps = 40
    total = mpmath.fsum(mpmath.mpf(w) for w in SHORT_WEIGHTS.weights)
    p = [mpmath.mpf(w) / total for w in SHORT_WEIGHTS.weights]
    t = [mpmath.mpf(float(m.translation[0])) for m in SHORT_WEIGHTS.maps]
    two_pi, eta, exact = 2 * mpmath.pi, mpmath.mpf(xi), mpmath.mpc(1)
    while two_pi * abs(eta) >= mpmath.mpf(10) ** -35:
        exact *= mpmath.fsum(pi * mpmath.expj(-two_pi * eta * ti) for pi, ti in zip(p, t))
        eta *= mpmath.mpf(SHORT_WEIGHTS.maps[0].ratio)
    s = mu_hat(SHORT_WEIGHTS, xi, tol=1e-13)
    assert abs(s.value - exact) <= s.error_bound


def cantor_product_mpmath(xi, digits=40):
    """The middle-thirds transform e^{-pi i xi} prod_n cos(2 pi xi / 3^n) to ``digits`` digits."""
    mpmath.mp.dps = digits
    x = mpmath.mpf(xi)
    value, n = mpmath.expj(-mpmath.pi * x), 1
    while 2 * mpmath.pi * abs(x) / mpmath.mpf(3) ** n > mpmath.mpf(10) ** (5 - digits):
        value *= mpmath.cos(2 * mpmath.pi * x / mpmath.mpf(3) ** n)
        n += 1
    return value


@pytest.mark.parametrize("v", [(0.6, 0.8), (-0.28, 0.96), (1.0, 0.0), (0.3, -2.0)])
def test_order1_in_the_plane_matches_the_product_of_cantor_transforms(square_2d, v):
    # f(x) = <v, x> has no quadratic part, so H = 0 and one cylinder: the
    # whole value is the centred product form of the four-corner system at
    # xi v, turned back by the outer phase at the root's anchor b
    linear = quadratic_map(square_2d, [{}], linear=[list(v)])
    assert linear.hessian_bound == 0.0
    xis = [0.37, 5.1, -23.0, 311.7, 4096.5]
    tol = 1e-7
    values, bounds, leaves = pushforward_batch(square_2d, linear, xis, tol=tol, scheme="order1")
    assert np.all(leaves == 1)
    for xi, value, bound in zip(xis, values, bounds):
        exact = complex(cantor_product_mpmath(xi * v[0]) * cantor_product_mpmath(xi * v[1]))
        single = pushforward_hat_order1(square_2d, linear, xi, tol=tol)
        assert single.leaves_used == 1
        assert abs(single.value - exact) <= single.error_bound
        assert abs(value - exact) <= bound
        assert 0.0 < bound <= tol


# Image transforms: f, f', f'' in mpmath, and (L, H, H3) bounding |f'|,
# |f''|, |f'''| on the ball [lo, hi].
MAP_DERIVATIVES = {
    "square": (
        lambda x: x**2,
        lambda x: 2 * x,
        lambda x: mpmath.mpf(2),
        lambda lo, hi: (2 * max(abs(lo), abs(hi)), mpmath.mpf(2), mpmath.mpf(0)),
    ),
    "cube": (
        lambda x: x**3,
        lambda x: 3 * x**2,
        lambda x: 6 * x,
        lambda lo, hi: (3 * max(abs(lo), abs(hi)) ** 2, 6 * max(abs(lo), abs(hi)), mpmath.mpf(6)),
    ),
    "identity": (
        lambda x: x,
        lambda x: mpmath.mpf(1),
        lambda x: mpmath.mpf(0),
        lambda lo, hi: (mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)),
    ),
    "log": (
        lambda x: mpmath.log(x),
        lambda x: 1 / x,
        lambda x: -1 / x**2,
        lambda lo, hi: (1 / lo, 1 / lo**2, 2 / lo**3),
    ),
}
MAP_BUILDERS = {"square": square_map, "cube": cube_map, "log": log_map, "identity": identity_map}


def image_hat_mpmath(ifs, kind, xi, tau, digits=25):
    """The transform of mu under the map ``kind`` at xi, and a bound on its error.

    A depth-first recursion over the cylinders x = A y + T of mu (y ~ mu)
    in ``digits``-digit arithmetic, every float input taken exactly, with
    b, V = E (y - b)^2 and R as in ``mu_hat_mpmath``.  On a cylinder,
    u = y - b has mean 0, E u^2 = V and |u| <= R, and the phase is
    theta(u) = 2 pi xi (f(x_w + A u) - f(x_w)) at the anchor x_w = A b + T.
    The node is closed by e^{-i theta} = 1 - i theta - theta^2 / 2 + E_c,
    |E_c| <= |theta|^3 / 6, with
    E theta = 2 pi xi (f''(x_w) A^2 V / 2 + E rho3) and
    E theta^2 = (2 pi xi)^2 (f'(x_w)^2 A^2 V + 2 f'(x_w) A E[u rho2] + E rho2^2),
    where |rho3| <= H3 |A u|^3 / 6, |rho2| <= H (A u)^2 / 2 and
    E |u|^3 <= R V, E u^4 <= R^2 V.  That leaves
    V A^2 ((pi/3) |xi| H3 |A| R + 2 pi^2 xi^2 (|f'(x_w) A| H R + H^2 (A R)^2 / 4)
    + (2 pi |xi| L)^3 |A| R / 6) per unit weight, and a node closes when
    that is at most ``tau``.  Returns (value, bound, leaves).
    """
    mp = mpmath.mp
    mp.dps = digits
    p = [mpmath.mpf(w) for w in ifs.weights]
    a = [mpmath.mpf(m.ratio) * int(m.orientation[0, 0]) for m in ifs.maps]
    t = [mpmath.mpf(float(m.translation[0])) for m in ifs.maps]
    b = mpmath.fsum(pi * ti for pi, ti in zip(p, t)) / (1 - mpmath.fsum(pi * ai for pi, ai in zip(p, a)))
    offsets = [ai * b + ti - b for ai, ti in zip(a, t)]
    variance = mpmath.fsum(pi * d**2 for pi, d in zip(p, offsets)) / (
        1 - mpmath.fsum(pi * ai**2 for pi, ai in zip(p, a))
    )
    radius = max(abs(d) / (1 - abs(ai)) for d, ai in zip(offsets, a))
    f, f1, f2, derivative_bounds = MAP_DERIVATIVES[kind]
    lip, hess, third = derivative_bounds(b - radius, b + radius)
    xi = mpmath.mpf(xi)
    two_pi = 2 * mpmath.pi
    total, remainder, leaves = mpmath.mpc(0), mpmath.mpf(0), 0
    stack = [(mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(1))]
    while stack:
        scale, shift, weight = stack.pop()
        x, size = scale * b + shift, abs(scale) * radius
        slope = f1(x) * scale
        error = variance * scale**2 * (
            mpmath.pi / 3 * abs(xi) * third * size
            + 2 * mpmath.pi**2 * xi**2 * (abs(slope) * hess * radius + hess**2 * size**2 / 4)
            + (two_pi * abs(xi) * lip) ** 3 * size / 6
        )
        if error <= tau:
            closure = (
                1
                - 1j * mpmath.pi * xi * f2(x) * scale**2 * variance
                - 2 * mpmath.pi**2 * xi**2 * slope**2 * variance
            )
            total += weight * mpmath.expj(-two_pi * xi * f(x)) * closure
            remainder += weight * error
            leaves += 1
            continue
        for pi, ai, ti in zip(p, a, t):
            stack.append((scale * ai, scale * ti + shift, weight * pi))
    return complex(total), float(remainder), leaves


@st.composite
def placed_systems(draw, homogeneous, lo, hi):
    """A system on the line of 2-3 maps with their fixed points in [lo, hi].

    Homogeneous systems share one ratio and one orientation; the others
    get a ratio each, and their first map reverses orientation.  Weights
    are multiples of 1/64, so they sum to one exactly.
    """
    n = draw(st.integers(2, 3))
    top = 0.45 if n == 2 else 0.3
    if homogeneous:
        ratios = [draw(st.floats(0.15, top))] * n
        signs = [draw(st.sampled_from([-1, 1]))] * n
    else:
        ratios = draw(st.lists(st.floats(0.15, top), min_size=n, max_size=n))
        signs = [-1] + draw(st.lists(st.sampled_from([-1, 1]), min_size=n - 1, max_size=n - 1))
        assume(len({r * s for r, s in zip(ratios, signs)}) > 1)
    fixed = draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))
    cuts = sorted(draw(st.lists(st.integers(1, 63), min_size=n - 1, max_size=n - 1, unique=True)))
    weights = [(hi - lo) / 64 for lo, hi in zip([0] + cuts, cuts + [64])]
    shifts = [q * (1 - s * r) for q, r, s in zip(fixed, ratios, signs)]
    try:
        return ifs_1d(ratios, shifts, weights, signs)
    except InvalidIFS:      # maps sharing a fixed point
        assume(False)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    system=st.one_of(
        placed_systems(True, -0.6, 0.6), placed_systems(False, -0.6, 0.6), reversing_systems()
    ),
    xi=st.floats(-6.0, 6.0),
    tol=st.sampled_from([1e-2, 1e-3]),
)
def test_order0_within_its_bound_of_the_mpmath_oracle(system, xi, tol):
    sample = pushforward_hat_order0(system, square_map(system), xi, tol=tol)
    exact, oracle_error, _ = image_hat_mpmath(system, "square", xi, ORACLE_SHARE * tol)
    assert oracle_error <= ORACLE_SHARE * tol
    assert abs(sample.value - exact) <= sample.error_bound + oracle_error


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    system=st.one_of(placed_systems(False, -0.6, 0.6), reversing_systems()),
    kind=st.sampled_from(["square", "cube"]),
    xis=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=3),
    tol=st.sampled_from([1e-2, 1e-3]),
)
@example(system=LAST_BIT_RATIOS, kind="square", xis=[0.0], tol=1e-2)
@example(system=CLOSE_FIXED_POINTS, kind="square", xis=[1.0], tol=1e-2)
def test_non_homogeneous_order1_within_its_bound_of_the_mpmath_oracle(system, kind, xis, tol):
    assert not system.is_homogeneous
    pmap = MAP_BUILDERS[kind](system)
    values, bounds, _ = pushforward_batch(system, pmap, xis, tol=tol, scheme="order1")
    for xi, value, bound in zip(xis, values, bounds):
        exact, oracle_error, _ = image_hat_mpmath(system, kind, xi, ORACLE_SHARE * tol)
        assert abs(value - exact) <= bound + oracle_error


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    system=st.one_of(placed_systems(False, -0.6, 0.6), reversing_systems()),
    xi=st.floats(-6.0, 6.0),
    tol=st.sampled_from([0.1, 0.03]),
)
def test_non_homogeneous_order1_inner_bound_against_the_mpmath_oracle(system, xi, tol):
    # the identity has no Taylor term: one cylinder, and the whole bound is
    # the nested order-0 inner transform's at tol/2, whose closure errs at
    # second order, so the oracle is run far below tol
    sample = pushforward_hat_order1(system, identity_map(system), xi, tol=tol)
    assert sample.leaves_used == 1
    exact, oracle_error, _ = image_hat_mpmath(system, "identity", xi, 1e-7)
    assert abs(sample.value - exact) <= sample.error_bound + oracle_error


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    system=placed_systems(True, 2.0, 2.5),
    kind=st.sampled_from(["square", "log", "cube"]),
    xis=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=3),
    tol=st.sampled_from([1e-2, 1e-3, 1e-4]),
)
def test_order2_within_its_bound_of_the_mpmath_oracle(system, kind, xis, tol):
    # the fixed points in [2, 2.5] keep the support ball right of 0 (log)
    assert system.is_homogeneous
    pmap = MAP_BUILDERS[kind](system)
    values, bounds, _ = pushforward_batch(system, pmap, xis, tol=tol, scheme="order2")
    for xi, value, bound in zip(xis, values, bounds):
        exact, oracle_error, _ = image_hat_mpmath(system, kind, xi, ORACLE_SHARE * tol)
        single = pushforward_hat_order2(system, pmap, xi, tol=tol)
        assert abs(value - exact) <= bound + oracle_error
        assert abs(single.value - exact) <= single.error_bound + oracle_error


def kernel_leaves(ifs, pmap, scale, order1):
    """The float leaf columns the row kernel sums at a fixed ``scale``: p_w, A_w, B_w, q_w."""
    ratios, orients, _, weights, anchors = (
        np.concatenate(cols) for cols in zip(*_cover_blocks(ifs, scale))
    )
    a_forms, b_forms = _linear_forms(ifs, pmap, ratios, orients, anchors, order1)
    curv = ratios**2 * pmap.hessian(anchors)[:, 0, 0] if order1 else None
    return weights, a_forms[:, 0], None if b_forms is None else b_forms[:, 0, 0], curv


# Grid rows j * 0.1 up to j = 160,000 (xi = 1.6e4) on the convolve workload's
# log factor take the angle-addition path, with block offsets j0 >= 1e5 at the
# top; scattered rows up to 8e6 on the decay workload's Cantor square take
# their unit phases directly.
KERNEL_CASES = {
    "grid": ("uniform12", "log", np.arange(160_001) * 0.1, 2.0**-5,
             [1, 1023, 1024, 100_000, 123_457, 159_999, 160_000]),
    "scattered": ("cantor", "square",
                  np.random.default_rng(32).uniform(4e6, 8e6, size=6), 3.0**-9, range(6)),
}


def grid_inner(xis, row, n, b_forms, reach, order1):
    """The kernel's own inner terms of grid row ``row``: Lagrange weights (K,), node frequencies (K, n), plan.

    The row's job, block and plan as ``_image_rows`` fixes them
    (``grid_rows._grid_plan``, ``grid_rows._row_plan``), and the node
    frequencies as ``grid_rows._grid_sums`` computes them.
    """
    step = float(xis[1])
    per_job = fourier_module.JOB_TERMS // n
    first = 1 + (row - 1) // per_job * per_job
    count = min(per_job, len(xis) - first)
    size, order = grid_rows._grid_plan(n, step, reach if order1 else 0.0)
    plan = grid_rows._row_plan(count, size, order)
    start = first + (row - first) // size * size
    nodes, lagrange = plan.nodes[min(size, count - (start - first))][:2]
    freqs = (start + nodes) * step
    return lagrange[row - start], (freqs[:, None] * b_forms if order1 else None), plan


@pytest.mark.parametrize("scheme", ["order0", "order1", "order2"])
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_rounding_within_its_terms_of_a_50_digit_sum(request, monkeypatch, scheme, case):
    # the 50-digit sum of the kernel's own float terms (leaf columns and
    # table lookups at the computed inner frequencies; on grid rows the
    # lookups at each block's nodes and the Lagrange weights) leaves only
    # the kernel's rounding: the phase and summation terms, scaled by
    # 1 + kappa, plus the order-2 forming term, and on grid rows the
    # rounding part of the row_interpolation term
    name, kind, xis, scale, sample = KERNEL_CASES[case]
    ifs = request.getfixturevalue(name)
    pmap = MAP_BUILDERS[kind](ifs)
    tables, build = [], fourier_module._MuHatTable
    monkeypatch.setattr(fourier_module, "_MuHatTable",
                        lambda *args: tables.append(build(*args)) or tables[-1])
    values, _, leaves = pushforward_batch(ifs, pmap, xis, tol=1e-4, scheme=scheme, scale=scale)
    grid = case == "grid"
    assert (_grid_step(xis[:, None]) is not None) == grid
    order1 = scheme != "order0"
    weights, a_forms, b_forms, curv = kernel_leaves(ifs, pmap, scale, order1)
    n, snapped, depth = _count_stopping(ifs, scale)
    assert np.all(leaves[xis != 0] == n) and len(tables) == order1
    radius = ifs.support_radius
    reach = 2.0 * np.pi * radius * snapped * _jacobian_bound(ifs, pmap) if order1 else 0.0
    a_max = float(np.abs(a_forms).max())
    mpmath.mp.dps = 50
    for row in sample:
        xi = float(xis[row])
        x = mpmath.mpf(xi)
        phases = [mpmath.mpf(p) * mpmath.expj(-x * mpmath.mpf(a)) for p, a in zip(weights, a_forms)]
        # (weight, inner frequencies) per node: the row itself off the grid
        nodes = [(1.0, xi * b_forms if order1 else None)]
        if grid:
            lagrange, freqs, plan = grid_inner(xis, row, n, b_forms, reach, order1)
            nodes = list(zip(lagrange, freqs if order1 else [None] * len(lagrange)))
        exact, second = mpmath.mpc(0), mpmath.mpc(0)
        for weight, eta in nodes:
            if order1:
                columns = tables[0].lookup(eta)
                inner = mpmath.fsum(e * mpmath.mpc(h) for e, h in zip(phases, columns[0]))
                exact += mpmath.mpf(weight) * inner
            else:
                exact += mpmath.mpf(weight) * mpmath.fsum(phases)
            if scheme == "order2":
                second += mpmath.mpf(weight) * mpmath.fsum(
                    e * mpmath.mpf(q) * mpmath.mpc(h2) for e, q, h2 in zip(phases, curv, columns[1])
                )
        kappa, forming = 0.0, 0.0
        if scheme == "order2":
            exact += mpmath.mpc(0, -1) * mpmath.pi * x * second
            kappa = np.pi * abs(xi) * float(np.abs(curv).max()) * radius**2
            forming = EPS * ((depth + 6.0) * kappa + 1.0)
        rounding = (_phase_rounding(abs(xi), a_max, reach) + _roundoff(n)) * (1.0 + kappa) + forming
        if grid:
            xi_top = float(xis[min(len(xis) - 1, row + plan.size)])
            rounding += grid_rows._row_interpolation(plan, 0.0, 1.0, 0.0, kappa, 0.0, n, xi_top, reach)
        assert abs(mpmath.mpc(values[row]) - exact) <= rounding, (row, xi)


def test_inversion_within_its_rounding_of_a_50_digit_inversion():
    # 4,096 grid frequencies up to 1.6e4 in blocks of 64 rows (512 points):
    # angle-addition offsets up to j0 = 4,033
    delta = 4.0
    xis = np.arange(4097) * delta
    rng = np.random.default_rng(33)
    phi = rng.standard_normal(4097) + 1j * rng.standard_normal(4097)
    phi /= (1.0 + np.arange(4097)) ** 0.7
    t = np.linspace(-1.0, 2.0, 512)
    rho, imag_residue = _invert_on_points(t, xis, phi, delta)
    assert imag_residue == abs(phi[0].imag)
    rounding = _inversion_rounding(t, xis, phi, delta)
    mpmath.mp.dps = 50
    two_pi = 2 * mpmath.pi
    for point in (0, 200, 511):
        s = mpmath.mpf(float(t[point]))
        terms = (
            mpmath.re(mpmath.mpc(v) * mpmath.expj(two_pi * mpmath.mpf(xi) * s))
            for xi, v in zip(xis[1:], phi[1:])
        )
        exact = mpmath.mpf(delta) * (mpmath.mpf(phi[0].real) + 2 * mpmath.fsum(terms))
        assert abs(mpmath.mpf(rho[point]) - exact) <= rounding, point
