"""Property tests of the certificates against independent high-precision oracles."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")

from hypothesis import HealthCheck, assume, given, settings, strategies as st

import numpy as np

from fractal_fourier.errors import InvalidIFS
from fractal_fourier.fourier import (
    PushforwardMap,
    _MuHatTable,
    mu_hat,
    pushforward_batch,
    pushforward_hat_order1,
    quadratic_map,
)
from fractal_fourier.ifs import ifs_1d

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
    cells = data.draw(st.lists(st.integers(0, len(table.values) - 2), min_size=3, max_size=6))
    randoms = data.draw(st.lists(st.floats(-eta_max, eta_max), min_size=3, max_size=6))
    # the middle of the first cell, where |h''| is near its bound 4 pi^2 M2
    etas = [eta_max, -eta_max, table.eta_max, -table.eta_max, 0.5 * table.h, -0.5 * table.h]
    etas += [j * table.h for j in cells] + [-j * table.h for j in cells] + randoms
    looked_up = table.lookup(np.array(etas))
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
