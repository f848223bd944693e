import cmath
import inspect
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import _homogeneous_leaf_arrays, _random_reversing_system, random_similarity
from fractal_fourier import fourier as fourier_module
from fractal_fourier import grid_rows
from fractal_fourier import ifs as ifs_module
from fractal_fourier.errors import (
    BadConfig,
    FractalFourierError,
    MissingHessianBound,
    ResourceExceeded,
    Unsupported,
)
from fractal_fourier.experiments import _invert_on_points
from fractal_fourier.fourier import (
    PushforwardMap,
    _MuHatTable,
    _anchor_drift,
    _centring_rounding,
    _cover_rounding,
    _grid_step,
    _linear_forms,
    _mu_hat_homog_many,
    _phase_rounding,
    _recursion_rounding,
    _remainder_terms,
    _roundoff,
    _stopping_scale,
    _unit_phases,
    constant_map,
    cube_map,
    curvature_diagnostic,
    estimate_bounds,
    graph_lift,
    holomorphic_hessian_identity,
    holomorphic_map,
    identity_map,
    log_map,
    mu_hat,
    neg_log_map,
    pushforward_batch,
    pushforward_hat,
    quadratic_directional_hessian,
    square_map,
    sum_of_squares_map,
    write_samples_csv,
)
from fractal_fourier.ifs import (
    FRONTIER_BLOCK,
    SelfSimilarIFS,
    SimilarityMap,
    _count_stopping,
    cantor_ifs,
    chaos_game,
    ifs_1d,
    stopping_decomposition,
    uniform_ifs,
)


def scheme_scale(ifs, pmap, order, tol, xi_norm):
    """The stopping scale of ``order`` at ``tol`` and |xi|, as the row kernel takes it."""
    target = tol if order == 0 else 0.5 * tol
    return _stopping_scale(ifs, _remainder_terms(pmap, order, xi_norm), target)


def order0_scale_closed_form(ifs, lip, tol, xi_norm):
    """tol / (2 pi |xi| L R), inf where that term is 0: the order-0 scale in closed form."""
    reach = 2.0 * math.pi * xi_norm * lip * ifs.support_radius
    return tol / reach if reach > 0.0 else math.inf


def order1_scale_closed_form(ifs, hess, tol, xi_norm):
    """sqrt(tol / (2 pi |xi| H)) / R, inf where pi |xi| H is 0: the order-1 scale in closed form."""
    curvature = math.pi * xi_norm * hess
    return math.sqrt(0.5 * tol / curvature) / ifs.support_radius if curvature > 0.0 else math.inf


def cantor_closed_form(xi):
    """Hand-derived product form for the middle-thirds system.

    Iterating the one-step relation gives
    mu_hat(xi) = e^{-pi i xi} prod_{n>=1} cos(2 pi xi / 3^n); factors are
    truncated once their arguments drop below 1e-12.
    """
    value = complex(math.cos(math.pi * xi), -math.sin(math.pi * xi))
    n = 1
    while 2.0 * math.pi * abs(xi) / 3.0**n >= 1e-12:
        value *= math.cos(2.0 * math.pi * xi / 3.0**n)
        n += 1
    return value


def cantor_centred_form(eta):
    """The centred transform e^{2 pi i eta b} mu_hat(eta) of the middle-thirds system.

    With b = 1/2 it is prod_{n>=1} cos(2 pi eta / 3^n); the computed
    barycenter b is 1/2 - 2^-54, and its phase e^{2 pi i eta (b - 1/2)}
    is kept, so this is the transform the centred table holds.
    """
    offset = float(cantor_ifs().barycenter[0]) - 0.5     # exact (Sterbenz)
    value = cmath.exp(2j * math.pi * eta * offset)
    n = 1
    while 2.0 * math.pi * abs(eta) / 3.0**n >= 1e-12:
        value *= math.cos(2.0 * math.pi * eta / 3.0**n)
        n += 1
    return value


def brute_force_pushforward(ifs, f, depth):
    """Depth-`depth` full cylinder quadrature used as an oracle."""
    _, _, weights, _, anchors = _homogeneous_leaf_arrays(ifs, depth, 10**8)
    fw = f(anchors[:, 0])

    def at(xi):
        ph = 2.0 * np.pi * xi * fw
        return complex(np.sum(weights * np.cos(ph)), -np.sum(weights * np.sin(ph)))

    return at


class TestMuHat:
    def test_zero_frequency(self, cantor):
        s = mu_hat(cantor, 0.0)
        assert s.value == 1.0
        assert s.error_bound <= 1e-12

    def test_cantor_closed_form(self, cantor):
        rng = np.random.default_rng(2)
        for xi in rng.uniform(-1e4, 1e4, size=100):
            s = mu_hat(cantor, xi, tol=1e-7)
            diff = abs(s.value - cantor_closed_form(xi))
            assert diff <= s.error_bound
            assert diff <= 1e-6

    def test_uniform_kills_integer_frequencies(self, uniform01):
        for m in range(1, 17):
            s = mu_hat(uniform01, float(m), tol=1e-9)
            assert abs(s.value) <= s.error_bound

    def test_conjugate_symmetry_exact(self, cantor, mixed_ratios):
        rng = np.random.default_rng(3)
        for xi in rng.uniform(0.1, 500.0, size=20):
            pos = mu_hat(cantor, xi, tol=1e-6)
            assert mu_hat(cantor, -xi, tol=1e-6).value == pos.value.conjugate()
        for xi in rng.uniform(0.1, 50.0, size=5):
            pos = mu_hat(mixed_ratios, xi, tol=1e-4)
            assert mu_hat(mixed_ratios, -xi, tol=1e-4).value == pos.value.conjugate()

    def test_one_step_refinement_identity(self, cantor):
        rng = np.random.default_rng(4)
        for xi in rng.uniform(1.0, 2000.0, size=100):
            lhs = mu_hat(cantor, 3.0 * xi, tol=1e-9)
            rhs = mu_hat(cantor, xi, tol=1e-9)
            factor = complex(
                math.cos(2 * math.pi * xi), -math.sin(2 * math.pi * xi)
            ) * math.cos(2 * math.pi * xi)
            diff = abs(lhs.value - factor * rhs.value)
            assert diff <= lhs.error_bound + rhs.error_bound

    def test_non_homogeneous_against_deep_quadrature(self, mixed_ratios):
        idm = identity_map(mixed_ratios)
        rng = np.random.default_rng(5)
        for xi in rng.uniform(1.0, 16.0, size=5):
            s = mu_hat(mixed_ratios, xi, tol=2e-4)
            deep = pushforward_hat(mixed_ratios, idm, xi, tol=2e-5, scheme="order0")
            assert abs(s.value - deep.value) <= s.error_bound + deep.error_bound

    def test_budget_enforced(self, mixed_ratios):
        with pytest.raises(ResourceExceeded):
            mu_hat(mixed_ratios, 1e5, tol=1e-8, budget=100)

    @pytest.mark.parametrize("xi", [1e8, 1e10])
    def test_near_homogeneous_system_is_certified(self, xi):
        # Ratios 9e-13 apart: the product form, which uses map 0's ratio for
        # both maps, would certify 3.2e-5 at 1e8 and err by 1.43e-4.
        system = ifs_1d([0.1, 0.1 + 9e-13], [0.0, 0.9])
        assert not system.is_homogeneous
        s = mu_hat(system, xi, tol=1e-4)
        # the reference: every leaf of the depth-17 tree, 2^17 float64 terms
        anchors, weights = system.barycenter.copy(), np.ones(1)
        for _ in range(17):
            anchors = np.concatenate([m.ratio * anchors + m.translation[0] for m in system.maps])
            weights = np.concatenate([w * weights for w in system.weights])
        phase = 2.0 * math.pi * xi * anchors
        reference = complex(np.sum(weights * np.cos(phase)), -np.sum(weights * np.sin(phase)))
        # each anchor (|x| <= 1) carries at most 17 roundings; with the
        # phase's own they move a term's phase by at most 2 pi |xi| 17 EPS.
        # The depth-17 closure is 2 pi |xi| rho^17 R.
        rho, radius = float(system.ratios.max()), system.support_radius
        allowance = 2.0 * math.pi * xi * (17.0 * fourier_module.EPS + rho**17 * radius)
        assert abs(s.value - reference) <= s.error_bound + allowance

    @pytest.mark.parametrize(
        "system, xi_max, tol",
        [("cantor", 60.0, 1e-5), ("square_2d", 4.0, 5e-3)],
    )
    def test_general_path_agrees_with_product_path(self, system, xi_max, tol, request):
        # Force the general tree expansion on a homogeneous system by
        # clearing the cached homogeneity flag: both code paths evaluate
        # the same measure and must agree within their summed bounds.
        fast = request.getfixturevalue(system)
        slow = SelfSimilarIFS(fast.maps, fast.weights)
        slow.__dict__["is_homogeneous"] = False
        rng = np.random.default_rng(14)
        for xi in rng.uniform(-xi_max, xi_max, size=(6, fast.ambient_dim)):
            a = mu_hat(fast, xi, tol=tol)
            b = mu_hat(slow, xi, tol=tol)
            assert b.scheme == "exact_recursion"
            assert abs(a.value - b.value) <= a.error_bound + b.error_bound
            # identical leaf accounting: N^depth of the collapsed tree
            assert a.leaves_used == b.leaves_used
            assert a.leaves_used <= 10**5

    def test_probability_bound(self, cantor):
        s = mu_hat(cantor, 12.3, tol=1e-6)
        assert abs(s.value) <= 1.0 + s.error_bound

    @pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan])
    def test_tol_validation(self, cantor, tol):
        with pytest.raises(BadConfig):
            mu_hat(cantor, 1.0, tol=tol)
        sq = square_map(cantor)
        calls = [
            lambda: pushforward_hat(cantor, sq, 3.0, tol=tol, scheme="order0"),
            lambda: pushforward_hat(cantor, sq, 3.0, tol=tol, scheme="order1"),
        ]
        calls += [
            lambda scheme=scheme: pushforward_batch(cantor, sq, [3.0], tol=tol, scheme=scheme)
            for scheme in ("order0", "order1", "exact_recursion")
        ]
        for call in calls:
            with pytest.raises(BadConfig, match=f"tol must be positive, got {tol}"):
                call()

    def test_infinite_tol_is_refused(self, cantor):
        # at tol = inf every sample would pass with a bound that certifies nothing
        sq = square_map(cantor)
        calls = [
            lambda: mu_hat(cantor, 1.0, tol=math.inf),
            lambda: pushforward_hat(cantor, sq, 3.0, tol=math.inf, scheme="order0"),
            lambda: pushforward_hat(cantor, sq, 3.0, tol=math.inf, scheme="order1"),
        ]
        calls += [
            lambda scheme=scheme: pushforward_batch(cantor, sq, [1.0], tol=math.inf, scheme=scheme)
            for scheme in ("order0", "order1", "order2", "exact_recursion")
        ]
        for call in calls:
            with pytest.raises(BadConfig, match="tol must be finite, got inf"):
                call()


class TestProductForm:
    """``_mu_hat_homog_many``: one depth per call, rows in FRONTIER_BLOCK chunks."""

    def test_rows_share_the_largest_rows_depth(self, cantor):
        tol = 1e-6
        rng = np.random.default_rng(21)
        etas = rng.uniform(-50.0, 50.0, size=(3 * FRONTIER_BLOCK + 100, 1))
        etas[-1] = 2000.0       # the largest row, in the last chunk
        values, bounds, depth = _mu_hat_homog_many(cantor, etas, tol)
        top = mu_hat(cantor, 2000.0, tol=tol)
        assert top.leaves_used == 2**depth
        # every row is taken to that depth: its closure term is |eta| 3^-depth
        radius = cantor.support_radius
        closure = 2.0 * math.pi * np.abs(etas[:, 0]) * 3.0**-depth * radius
        rounding = _recursion_rounding(cantor, np.abs(etas[:, 0]), depth)
        assert bounds == pytest.approx(
            closure + _roundoff(depth + 1) + rounding, rel=1e-12, abs=0.0
        )
        for j in list(range(0, len(etas), 97)) + [len(etas) - 1]:
            assert abs(values[j] - cantor_closed_form(etas[j, 0])) <= bounds[j]

    def test_one_row_call_is_mu_hat(self, cantor, square_2d):
        rng = np.random.default_rng(22)
        for system, xi in [(cantor, x) for x in rng.uniform(-1e4, 1e4, size=3)] + [
            (square_2d, x) for x in rng.uniform(-1e3, 1e3, size=(3, 2))
        ]:
            vec = np.atleast_1d(xi)
            value, bound, depth = _mu_hat_homog_many(system, vec[None, :], 1e-7)
            s = mu_hat(system, xi, tol=1e-7)
            assert s.leaves_used == system.n_maps**depth
            assert s.error_bound == bound[0]
            assert s.value == value[0]

    def test_one_row_depth_is_the_trees_depth(self, cantor):
        # the depth-first reference stops every leaf by the same rule
        for xi in (0.3, -17.0, 250.0):
            depth = _mu_hat_homog_many(cantor, np.array([[xi]]), 1e-4)[2]
            _, _, ref_leaves = _mu_hat_dfs_reference(cantor, xi, 1e-4)
            assert ref_leaves == 2**depth


class TestMuHatTable:
    def test_slack_certifies_lookup(self, cantor):
        table = _MuHatTable(cantor, 50.0, 1e-6)
        rng = np.random.default_rng(24)
        ends = [0.0, table.eta_max, -table.eta_max, table.h, -table.h]
        etas = np.concatenate([ends, rng.uniform(-table.eta_max, table.eta_max, size=2000)])
        (looked_up,) = table.lookup(etas)
        for eta, got in zip(etas, looked_up):
            assert abs(got - cantor_centred_form(eta)) <= table.slack

    def test_slack_reads_only_reachable_rows(self, cantor):
        # a lookup at |eta| <= eta_max reads cell int(|eta| * (1/h)) and its
        # three nodes; the table builds the cells up to the one eta_max reads
        # and no more, so every node entering the slack is reachable
        eta_max, table_tol = 50.0, 1e-8
        table = _MuHatTable(cantor, eta_max, table_tol)
        cells = int(eta_max * (1.0 / table.h)) + 1
        assert len(table.values) == cells
        frac = np.abs(np.array([eta_max, -eta_max])) * (1.0 / table.h)
        assert np.all(frac.astype(np.int64) == cells - 1)
        etas = (np.arange(2 * cells + 1) * (0.5 * table.h))[:, None]
        values, errs, _ = _mu_hat_homog_many(cantor.centred, etas, table_tol)
        assert np.array_equal(values[:-1:2], table.values)
        # the node bounds grow with |eta|: one more cell would raise the slack
        assert errs[-1] == errs.max() > errs[-3]
        radius = cantor.support_radius
        third = (2.0 * math.pi) ** 3 * radius * cantor.second_moment
        interpolation = math.sqrt(3.0) / 216.0 * table.h**3 * third
        shift = 2.0 * (2.0 * math.pi) * radius * fourier_module.EPS * (eta_max + table.h)
        expected = (1.25 * float(errs.max()) + (interpolation + shift + 64.0 * fourier_module.EPS)
                    + _centring_rounding(cantor, eta_max))
        assert table.slack == expected
        assert table.eta_max == eta_max


class TestRoundingCertificates:
    """Bounds that include the float rounding of the phases, checked term by term."""

    def test_mu_hat_against_mpmath_at_large_frequencies(self, cantor):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50

        def exact(xi):
            # e^{-pi i xi} prod_k cos(2 pi xi / 3^k), to 50 digits
            x = mpmath.mpf(xi)
            value = mpmath.expj(-mpmath.pi * x)
            k = 1
            while 2 * mpmath.pi * abs(x) / mpmath.mpf(3) ** k > mpmath.mpf(10) ** -30:
                value *= mpmath.cos(2 * mpmath.pi * x / mpmath.mpf(3) ** k)
                k += 1
            return complex(value)

        xis = list(np.random.default_rng(1).uniform(1e6, 1e8, size=40))
        xis += [12345678.9, 98765432.1, 41510714.50054697]
        for xi in xis:
            reference = exact(xi)
            for tol in (1e-9, 1e-11):
                s = mu_hat(cantor, xi, tol=tol)
                assert abs(s.value - reference) <= s.error_bound, (xi, tol)

    def test_image_phase_rounding_is_certified(self, cantor):
        # A constant map has no quadrature error: one leaf, value
        # e^{-2 pi i 0.7 xi}.  At |xi| ~ 1e7 the float phase alone is off by
        # ~1e-9, which only the phase rounding term of the bound covers.
        # The grid rows go through angle addition: with one leaf a block is
        # PHASE_BLOCK rows, and the grid, one group at the fixed root scale,
        # spans more than one block.  The others go directly.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        cm = constant_map(cantor, 0.7)
        grid = np.arange(2 * fourier_module.PHASE_BLOCK + 300) * 305.3
        checked = np.r_[np.arange(len(grid) - 300, len(grid)),
                        np.random.default_rng(3).integers(1, len(grid), size=100)]
        values, bounds, leaves = pushforward_batch(cantor, cm, grid, scheme="order0", scale=1.0)
        assert np.all(leaves == 1)
        direct = pushforward_batch(cantor, cm, grid[::-1], scheme="order0", scale=1.0)[0][::-1]
        assert not np.array_equal(values[checked], direct[checked])
        scattered = np.random.default_rng(2).uniform(1e6, 2e7, size=40)
        sv, sb, _ = pushforward_batch(cantor, cm, scattered, scheme="order0")
        for xis, values, bounds in ((grid[checked], values[checked], bounds[checked]),
                                    (scattered, sv, sb)):
            for xi, value, bound in zip(xis, values, bounds):
                exact = complex(mpmath.expj(-2 * mpmath.pi * mpmath.mpf(0.7) * mpmath.mpf(xi)))
                assert abs(value - exact) <= bound, xi

    def test_clamped_table_slack_needs_its_interpolation_term(self, cantor):
        # At the clamp of MAX_TABLE_CELLS cells the step grows from 0.018 to
        # 0.075, and the interpolation term (5.2e-5) dominates the rest of
        # the slack (4.6e-7, mostly 5/4 of the closure term).
        table = _MuHatTable(cantor, 1e5, 1e-6)
        assert len(table.values) == fourier_module.MAX_TABLE_CELLS
        # the clamp is recorded: the widened step's slack passes table_tol
        assert table.widened and table.table_tol == 1e-6
        assert table.slack > table.table_tol
        third = (2.0 * math.pi) ** 3 * cantor.support_radius * cantor.second_moment
        interpolation = math.sqrt(3.0) / 216.0 * table.h**3 * third
        assert interpolation > 10.0 * (table.slack - interpolation)
        etas = np.random.default_rng(25).uniform(-table.eta_max, table.eta_max, size=4000)
        errors = np.abs(table.lookup(etas)[0] - np.array([cantor_centred_form(x) for x in etas]))
        assert errors.max() <= table.slack
        assert errors.max() > table.slack - interpolation

    @pytest.mark.parametrize("levels", [0, 1])
    def test_recursion_bound_is_its_named_terms(self, mixed_ratios, levels):
        # The root alone (levels 0) or its two children (levels 1) are the
        # leaves, so every term of the order-0 bound of the identity is known.
        tol = 1e-3
        radius = mixed_ratios.support_radius
        xi = (0.5 if levels == 0 else 1.5) * tol / (2.0 * math.pi * radius)
        norm = np.linalg.norm(np.array([[xi]]), axis=1)
        if levels == 0:
            moment = 1.0
            anchors = mixed_ratios.barycenter[None, :]
        else:
            moment = float(np.sum(mixed_ratios.weight_array * mixed_ratios.ratios))
            anchors = np.array([m(mixed_ratios.barycenter) for m in mixed_ratios.maps])
        a_max = float(np.linalg.norm(2.0 * math.pi * anchors, axis=1).max())
        carried = _roundoff(2**levels) + _phase_rounding(norm, a_max, 0.0, 1)
        # the cover's scale is its largest leaf ratio
        carried = carried + _cover_rounding(mixed_ratios, 0.5**levels, levels, norm, 1.0, 0.0)
        # the one assembly of every order, with kappa = 0: remainder + inner + carried + EPS
        expected = norm * (2.0 * math.pi * 1.0 * radius * moment) + 0.0 + carried
        expected = expected + fourier_module.EPS
        single = mu_hat(mixed_ratios, xi, tol=tol)
        assert single.leaves_used == 2**levels
        assert single.error_bound == expected[0]
        _, bounds, leaves = pushforward_batch(
            mixed_ratios, identity_map(mixed_ratios), [xi], tol=tol, scheme="exact_recursion"
        )
        assert leaves[0] == 2**levels
        assert bounds[0] == expected[0]


def _direct_product_form(ifs, etas, tol):
    """The product form with direct cos and sin, level by level: values, bounds, depth.

    The formula every row took before the product form made its phases in
    blocks from its coefficients (iterate eta_l = eta (r O)^l, phases
    2 pi <eta_l, t_i>), kept as an independent reference within its own
    rounding allowance.
    """
    radius = ifs.support_radius
    step_t = ifs.maps[0].ratio * ifs.maps[0].orientation
    trans = np.array([m.translation for m in ifs.maps]).T
    top = etas[int(np.argmax(np.linalg.norm(etas, axis=1)))]
    depth = 0
    while 2.0 * math.pi * float(np.linalg.norm(top)) * radius > tol:
        top = top @ step_t
        depth += 1
    cur = etas
    value = np.ones(len(cur), dtype=complex)
    for _ in range(depth):
        phases = 2.0 * math.pi * (cur @ trans)
        value *= np.cos(phases) @ ifs.weight_array - 1j * (np.sin(phases) @ ifs.weight_array)
        cur = cur @ step_t
    value *= np.cos(2.0 * math.pi * (cur @ ifs.barycenter)) - 1j * np.sin(
        2.0 * math.pi * (cur @ ifs.barycenter)
    )
    norms = np.sqrt(np.vecdot(etas, etas))
    closure = 2.0 * math.pi * np.sqrt(np.vecdot(cur, cur)) * radius + _roundoff(depth + 1)
    # weights that do not sum to 1 exactly: D |1 - sum p_i|
    return value, closure + _recursion_rounding(ifs, norms, depth) + depth * ifs.weight_defect, depth


def _truncated_product_mpmath(ifs, etas, depth, digits=40):
    """prod_{l<D} sum_i p_i e^{-2 pi i <eta, M^l t_i>} e^{-2 pi i <eta, M^D b>} at each row of ``etas``.

    The product form of a homogeneous system to ``depth`` D, M = r O, from
    the float inputs evaluated exactly to ``digits`` digits: what the
    product form computes before rounding.
    """
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = digits

    def vector(v):
        return mpmath.matrix([mpmath.mpf(float(x)) for x in v])

    step = mpmath.mpf(float(ifs.maps[0].ratio)) * mpmath.matrix(ifs.maps[0].orientation.tolist())
    shifts = [vector(m.translation) for m in ifs.maps]
    weights = [mpmath.mpf(float(w)) for w in ifs.weights]
    b = vector(ifs.barycenter)
    out = []
    for eta in np.asarray(etas, dtype=float).reshape(len(etas), -1):
        row = vector(eta).T
        value = mpmath.mpc(1)
        for _ in range(depth):
            value *= mpmath.fsum(
                w * mpmath.expj(-2 * mpmath.pi * (row * t)[0]) for w, t in zip(weights, shifts)
            )
            row = row * step
        out.append(complex(value * mpmath.expj(-2 * mpmath.pi * (row * b)[0])))
    return np.array(out)


def _count_sines(monkeypatch):
    """The argument sizes of every np.sin call in ``fourier`` from now on.

    ``_unit_phases`` takes one sine per unit phase and no cosine: a call
    of np.cos fails the test.
    """
    sizes = []

    class Counting:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def cos(x, *args, **kwargs):
            raise AssertionError("fourier called np.cos")

        @staticmethod
        def sin(x, *args, **kwargs):
            sizes.append(np.size(x))
            return np.sin(x, *args, **kwargs)

    monkeypatch.setattr(fourier_module, "np", Counting())
    return sizes


def _rotated_homogeneous_system():
    """Three maps sharing the linear part 0.4 O, O a rotation by 0.7: a k = 2 product form."""
    c, s = math.cos(0.7), math.sin(0.7)
    rot = np.array([[c, -s], [s, c]])
    shifts = ([0.0, 0.0], [1.0, 0.3], [0.2, 1.0])
    maps = tuple(SimilarityMap(0.4, rot, np.array(t)) for t in shifts)
    return SelfSimilarIFS(maps, (0.3, 0.3, 0.4))


class TestProductFormPhases:
    """``_mu_hat_homog_many`` makes its level phases in blocks of (n, rows) (``_row_phases``).

    Grid rows j * delta past one block take angle addition from one base
    block and any other rows direct unit phases; both are within
    ``_roundoff(D + 1) + _recursion_rounding`` of the unrounded product at
    the same depth.
    """

    @staticmethod
    def systems():
        return {
            "cantor": (cantor_ifs(), 120.0, 1e-8),
            "uniform12": (uniform_ifs(1.0, 2.0), 64.0, 1e-7),
            # s = -r: every map reverses orientation
            "reversing": (ifs_1d([0.4, 0.4], [0.4, 1.0], [0.3, 0.7], [-1, -1]), 80.0, 1e-8),
            "three_maps": (
                ifs_1d([0.25] * 3, [0.2, -0.7, 1.3], [0.2, 0.3, 0.5]), 150.0, 1e-8
            ),
        }

    @staticmethod
    def grid_and_shuffled(ifs, etas, tol):
        # a first row other than eta = 0, so that even two rows are no grid
        perm = np.random.default_rng(31).permutation(len(etas))
        perm = perm if perm[0] != 0 else perm[::-1]
        grid = _mu_hat_homog_many(ifs, etas, tol)
        values, bounds, depth = _mu_hat_homog_many(ifs, etas[perm], tol)
        inverse = np.argsort(perm)
        return grid, (values[inverse], bounds[inverse], depth)

    @staticmethod
    def assert_rounding_within_allowance(ifs, etas, values, depth):
        """Against the unrounded product at the same depth the error is all rounding."""
        norms = np.sqrt(np.vecdot(etas, etas))
        allowance = _roundoff(depth + 1) + _recursion_rounding(ifs, norms, depth)
        rounding = np.abs(values - _truncated_product_mpmath(ifs, etas, depth))
        assert np.all(rounding <= allowance)
        return allowance

    @pytest.mark.parametrize("name", ["cantor", "uniform12", "reversing", "three_maps"])
    def test_grid_and_shuffled_rows_against_mpmath(self, name):
        ifs, eta_max, tol = self.systems()[name]
        etas = (np.arange(20_001) * (eta_max / 20_000))[:, None]
        (gv, gb, gd), (sv, sb, sd) = self.grid_and_shuffled(ifs, etas, tol)
        assert gd == sd
        if name == "uniform12":
            assert 28 <= gd <= 32
        # one rounding term for both paths, so one bound
        assert np.array_equal(gb, sb)
        assert not np.array_equal(gv, sv)
        rows = np.r_[np.arange(len(etas) - 100, len(etas)),
                     np.random.default_rng(34).integers(0, len(etas), size=100)]
        for values in (gv, sv):
            allowance = self.assert_rounding_within_allowance(ifs, etas[rows], values[rows], gd)
        # the level-by-level formula, within both allowances
        ref_values, ref_bounds, ref_depth = _direct_product_form(ifs, etas[rows], tol)
        assert ref_depth == gd
        assert np.all(np.abs(gv[rows] - ref_values) <= 2.0 * allowance)
        assert ref_bounds == pytest.approx(gb[rows], rel=1e-12, abs=0.0)

    @staticmethod
    def assert_rounding_certified(etas, values, bounds, depth, rows):
        # Rows of the centred Cantor system.  Against the unrounded product
        # at the same depth the error is all rounding, within _roundoff +
        # _recursion_rounding; against the centred transform itself it is
        # within the whole bound and the centring allowance.
        centred = cantor_ifs().centred
        TestProductFormPhases.assert_rounding_within_allowance(centred, etas[rows], values[rows], depth)
        exact = np.array([cantor_centred_form(x) for x in etas[rows, 0]])
        centring = _centring_rounding(cantor_ifs(), np.abs(etas[rows, 0]))
        assert np.all(np.abs(values[rows] - exact) <= bounds[rows] + centring + 1e-15)

    def test_top_of_the_decay_table_against_mpmath(self, cantor):
        # the centred table of the decay benchmark: eta up to ~94, table_tol
        # 1e-8; its nodes are the grid rows j h / 2, and c0 is every other one
        table = _MuHatTable(cantor, 94.4, 1e-8)
        etas = (np.arange(2 * len(table.values) + 1) * (0.5 * table.h))[:, None]
        values, bounds, depth = _mu_hat_homog_many(cantor.centred, etas, 1e-8)
        assert np.array_equal(values[:-1:2], table.values)
        assert etas[-1, 0] > 94.0
        rows = np.arange(len(etas) - 300, len(etas))
        self.assert_rounding_certified(etas, values, bounds, depth, rows)

    def test_clamped_grid_against_mpmath(self, cantor):
        table = _MuHatTable(cantor, 1e5, 1e-6)
        assert len(table.values) == fourier_module.MAX_TABLE_CELLS
        n = 2 * len(table.values) + 1
        etas = (np.arange(n) * (0.5 * table.h))[:, None]
        values, bounds, depth = _mu_hat_homog_many(cantor.centred, etas, 1e-6)
        assert np.array_equal(values[:-1:2], table.values)
        rows = np.r_[np.arange(n - 200, n), np.random.default_rng(32).integers(0, n, size=100)]
        self.assert_rounding_certified(etas, values, bounds, depth, rows)

    @pytest.mark.parametrize("second", [False, True])
    def test_one_rounding_term_per_call(self, cantor, monkeypatch, second):
        # The bounds of all rows are one expression after the block loop:
        # one _recursion_rounding over every row, not one per block of rows
        # (1,681 on a 1,000,001-row grid), and a row's bound does not
        # depend on the rows beside it.
        ifs, tol = cantor.centred, 1e-9
        etas = (np.arange(50_001) * 2e-3)[:, None]
        calls, original = [], fourier_module._recursion_rounding

        def record(ifs, norms, depth):
            calls.append(len(norms))
            return original(ifs, norms, depth)

        monkeypatch.setattr(fourier_module, "_recursion_rounding", record)
        values, bounds, depth = _mu_hat_homog_many(ifs, etas, tol, second)
        assert calls == [len(etas)]
        assert len(etas) > 20 * (fourier_module.PHASE_BLOCK // (depth * ifs.n_maps + 1))
        rows = [0, 1, 777, 31_000, len(etas) - 1]
        _, sub_bounds, sub_depth = _mu_hat_homog_many(ifs, etas[rows], tol, second)
        assert sub_depth == depth and bounds.shape == values.shape
        assert np.array_equal(sub_bounds, bounds[..., rows])

    def test_block_edges(self, cantor):
        # eta_max 50 at tol 1e-6 needs depth 18, so 37 columns (18 levels
        # of 2 maps and the closing level) and blocks of 885 rows
        tol = 1e-6
        depth = _mu_hat_homog_many(cantor, np.array([[50.0]]), tol)[2]
        size = fourier_module.PHASE_BLOCK // (depth * cantor.n_maps + 1)
        for n in (2, 3, size, size + 1, 3 * size + 5):
            etas = (np.arange(n) * (50.0 / (n - 1)))[:, None]
            (gv, gb, gd), (sv, sb, sd) = self.grid_and_shuffled(cantor, etas, tol)
            assert gd == sd == depth
            assert np.array_equal(gb, sb)
            assert gv[0] == 1.0
            edges = np.unique(np.clip(np.r_[0, 1, size - 1, size, size + 1, n - 1], 0, n - 1))
            for values in (gv, sv):
                self.assert_rounding_within_allowance(cantor, etas[edges], values[edges], depth)

    @pytest.mark.parametrize("n", [1, 2, 40_000])
    def test_depth_zero(self, cantor, n):
        # every row closes at once (2 pi |eta| R <= tol): one column, the
        # closing level e^{-2 pi i eta b} with weight 1; 40,000 grid rows
        # span two blocks of PHASE_BLOCK rows, so they take angle addition
        etas = (np.arange(n) * 1e-12)[:, None] if n > 1 else np.array([[3e-9]])
        values, bounds, depth = _mu_hat_homog_many(cantor, etas, 1e-6)
        assert depth == 0
        self.assert_rounding_within_allowance(cantor, etas[-3:], values[-3:], depth)
        closure = 2.0 * math.pi * np.abs(etas[:, 0]) * cantor.support_radius
        exact = np.array([cantor_closed_form(x) for x in etas[::97, 0]])
        assert np.all(np.abs(values[::97] - exact) <= bounds[::97])
        assert np.all(bounds >= closure)
        assert mu_hat(cantor, 0.0).value == 1.0

    @pytest.mark.parametrize("system", ["cantor", "square_2d", "reversing", "rotated"])
    def test_one_row_calls_against_mpmath(self, system, request):
        if system == "reversing":
            ifs = self.systems()["reversing"][0]
        elif system == "rotated":
            ifs = _rotated_homogeneous_system()
        else:
            ifs = request.getfixturevalue(system)
        assert ifs.is_homogeneous
        rng = np.random.default_rng(33)
        for xi in rng.uniform(-1e4, 1e4, size=(5, ifs.ambient_dim)):
            value, bound, depth = _mu_hat_homog_many(ifs, xi[None, :], 1e-9)
            allowance = self.assert_rounding_within_allowance(ifs, xi[None, :], value, depth)
            ref_value, ref_bound, ref_depth = _direct_product_form(ifs, xi[None, :], 1e-9)
            assert depth == ref_depth
            assert abs(value[0] - ref_value[0]) <= 2.0 * allowance[0]
            assert bound[0] == pytest.approx(ref_bound[0], rel=1e-12, abs=0.0)
            s = mu_hat(ifs, xi, tol=1e-9)
            assert s.value == value[0] and s.error_bound == bound[0]

    def test_grid_takes_sines_of_few_arguments(self, cantor, monkeypatch):
        sizes = _count_sines(monkeypatch)
        m = 200_000
        etas = (np.arange(m) * 1e-3)[:, None]
        depth = _mu_hat_homog_many(cantor, etas, 1e-8)[2]
        grid_args = sum(sizes)
        columns = depth * cantor.n_maps + 1
        size = fourier_module.PHASE_BLOCK // columns
        # one base block, and one row of offsets per block
        assert grid_args == columns * (size + math.ceil(m / size))
        sizes.clear()
        _mu_hat_homog_many(cantor, etas[::-1], 1e-8)
        assert sum(sizes) == m * columns
        assert grid_args < sum(sizes) / 50


def _mu_hat_dfs_reference(ifs, xi, tol, budget=10**7):
    """Per-leaf depth-first evaluation of the self-similarity recursion.

    Carries (eta, phase, weight) down the stopping tree with
    eta_{wi} = r_i O_i^T eta_w and phase_{wi} = phase_w + <eta_w, t_i>,
    visiting letters in ascending order; a leaf (2 pi |eta| R <= tol)
    contributes weight e^{-2 pi i (phase + <eta, b>)} and closure bound
    weight 2 pi |eta| R.  Leaf terms are summed exactly with math.fsum.
    The bound adds ``_roundoff`` and the rounding terms of the row
    kernel's model: the phase rounding at the largest leaf phase
    2 pi |f_w(b)| (each leaf's map f_w is carried down too) and the cover
    rounding at the cover's scale, its largest leaf ratio, and depth,
    after checking that no leaf is deeper than the count's depth.
    Returns (value, error_bound, leaves).
    """
    vec = np.atleast_1d(np.asarray(xi, dtype=float))
    k = len(vec)
    radius = ifs.support_radius
    b = ifs.barycenter
    trans = [m.translation for m in ifs.maps]
    mats = [m.ratio * m.orientation.T for m in ifs.maps]
    linear = [m.ratio * m.orientation for m in ifs.maps]
    re, im = [], []
    err_acc = 0.0
    leaves = 0
    deepest = 0
    a_max = 0.0
    stack = [(vec, 0.0, 1.0, 0, np.eye(k), np.zeros(k))]
    while stack:
        eta, phase, weight, depth, lin, shift = stack.pop()
        scale = 2.0 * math.pi * float(np.linalg.norm(eta)) * radius
        if scale <= tol:
            leaves += 1
            deepest = max(deepest, depth)
            a_max = max(a_max, 2.0 * math.pi * float(np.linalg.norm(lin @ b + shift)))
            if leaves > budget:
                raise ResourceExceeded("reference budget", "leaf_budget")
            theta = 2.0 * math.pi * (phase + float(eta @ b))
            re.append(weight * math.cos(theta))
            im.append(-weight * math.sin(theta))
            err_acc += weight * scale
            continue
        for i in range(ifs.n_maps - 1, -1, -1):
            stack.append((
                mats[i] @ eta, phase + float(eta @ trans[i]), weight * ifs.weights[i],
                depth + 1, lin @ linear[i], lin @ trans[i] + shift,
            ))
    value = complex(math.fsum(re), math.fsum(im))
    norm = np.linalg.norm(vec)
    _, scale, depth = _count_stopping(ifs, scheme_scale(ifs, identity_map(ifs), 0, tol, norm), math.inf)
    assert deepest <= depth
    rounding = _phase_rounding(norm, a_max, 0.0, k) + _cover_rounding(ifs, scale, depth, norm, 1.0)
    return value, err_acc + _roundoff(leaves) + rounding, leaves


def _rotated_planar_system():
    def rot(angle):
        c, s = math.cos(angle), math.sin(angle)
        return np.array([[c, -s], [s, c]])

    flip = np.diag([1.0, -1.0])
    maps = (
        SimilarityMap(0.4, rot(0.3), np.array([0.0, 0.0])),
        SimilarityMap(0.3, rot(2.1) @ flip, np.array([1.0, 0.2])),
        SimilarityMap(0.25, rot(-1.2), np.array([0.3, 0.9])),
    )
    return SelfSimilarIFS(maps, (0.4, 0.35, 0.25))


def _assert_matches(value, bound, leaves, ref_value, ref_bound, ref_leaves):
    assert leaves == ref_leaves
    assert abs(value - ref_value) <= 1e-14
    assert abs(bound - ref_bound) <= 1e-12 * ref_bound


class TestBatchedRecursion:
    """The blocked frontier evaluator against the per-leaf DFS."""

    CASES = [(_random_reversing_system(seed), xi) for seed in range(6) for xi in (2.5, -17.0)]

    @pytest.mark.parametrize("system, xi", CASES)
    def test_matches_dfs_reversing_line(self, system, xi):
        assert not system.is_homogeneous
        s = mu_hat(system, xi, tol=1e-3)
        _assert_matches(
            s.value, s.error_bound, s.leaves_used, *_mu_hat_dfs_reference(system, xi, 1e-3)
        )

    def test_matches_dfs_rotated_plane(self):
        system = _rotated_planar_system()
        assert not system.is_homogeneous
        for xi in (np.array([2.0, -1.0]), np.array([-0.5, 3.5])):
            s = mu_hat(system, xi, tol=1e-3)
            _assert_matches(
                s.value, s.error_bound, s.leaves_used,
                *_mu_hat_dfs_reference(system, xi, 1e-3),
            )

    @staticmethod
    def batch(system, etas, tol, threads=1):
        """The recursion batch: ``pushforward_batch`` on the line, ``_mu_hat_rows`` off it."""
        if system.ambient_dim == 1:
            return pushforward_batch(
                system, identity_map(system), etas[:, 0], tol=tol, scheme="exact_recursion",
                threads=threads,
            )
        return fourier_module._mu_hat_rows(system, etas, tol, 10**7, threads)

    @pytest.mark.parametrize("planar", [False, True])
    def test_one_row_per_octave_matches_single_calls(self, planar):
        # an octave of one row takes that row's own cover: bit for bit
        system = _rotated_planar_system() if planar else _random_reversing_system(3)
        norms = np.array([0.0, 0.7, 2.5, -5.2, 9.1, -20.5])     # octaves 0 to 4
        direction = np.ones(system.ambient_dim) / math.sqrt(system.ambient_dim)
        etas = norms[:, None] * direction
        values, bounds, leaves = self.batch(system, etas, 1e-3)
        assert leaves.dtype == object
        # the covers span many leaf blocks
        assert leaves.sum() > 4 * FRONTIER_BLOCK
        for j, eta in enumerate(etas):
            s = mu_hat(system, eta, tol=1e-3)
            assert (values[j], bounds[j], leaves[j]) == (s.value, s.error_bound, s.leaves_used)

    @pytest.mark.parametrize("planar", [False, True])
    def test_many_rows_within_their_bounds_of_single_calls(self, planar):
        # rows of one octave share the cover of its largest |eta|, a
        # refinement of each row's own cover
        system = _rotated_planar_system() if planar else _random_reversing_system(3)
        rng = np.random.default_rng(15)
        etas = rng.uniform(-8.0, 8.0, size=(40, system.ambient_dim))
        etas[5] = 0.0
        etas[6] = -etas[7]
        values, bounds, leaves = self.batch(system, etas, 1e-3)
        assert leaves.sum() > 4 * FRONTIER_BLOCK
        assert (values[5], bounds[5], leaves[5]) == (1.0, 0.0, 1)
        assert values[6] == values[7].conjugate() and bounds[6] == bounds[7]
        singles = [mu_hat(system, eta, tol=1e-3) for eta in etas]
        for value, bound, n, s in zip(values, bounds, leaves, singles):
            assert abs(value - s.value) <= bound + s.error_bound
            assert n >= s.leaves_used
        assert any(n > s.leaves_used for n, s in zip(leaves, singles))

    @staticmethod
    def extra_levels(ifs, depth):
        """How far a row's bound may grow at ``depth`` over its own tree's: the extra levels' rounding.

        The part of ``_recursion_rounding`` that |eta| does not scale, and
        the summation's ``_roundoff``.
        """
        return _recursion_rounding(ifs, 0.0, depth) + _roundoff(depth + 1)

    @pytest.mark.parametrize("grid", [False, True])
    def test_homogeneous_rows_share_one_depth(self, cantor, grid):
        tol = 1e-6
        xis = np.linspace(0.0, 100.0, 101)
        if not grid:
            xis = np.random.default_rng(16).permutation(xis)
        values, bounds, leaves = self.batch(cantor, xis[:, None], tol)
        top = mu_hat(cantor, 100.0, tol=tol)
        assert list(leaves) == [top.leaves_used] * len(xis)
        depth = int(top.leaves_used).bit_length() - 1
        # grid rows take the single calls' rounding term too
        allowance = self.extra_levels(cantor, depth)
        for xi, value, bound in zip(xis, values, bounds):
            s = mu_hat(cantor, xi, tol=tol)
            assert abs(value - s.value) <= bound + s.error_bound
            assert abs(value - cantor_closed_form(xi)) <= bound
            assert bound <= s.error_bound + allowance
        # where the closure term dominates, a row's bound shrinks: at |xi| = 1
        # the top's depth leaves 1/81 of the single call's closure term
        assert bounds[np.abs(xis) == 1.0][0] < mu_hat(cantor, 1.0, tol=tol).error_bound / 50.0

    def test_budget_is_per_octave(self, mixed_ratios):
        xis = [1.0, 40.0, 2.0]
        idm = identity_map(mixed_ratios)

        def batch(budget):
            return pushforward_batch(
                mixed_ratios, idm, xis, tol=1e-4, scheme="exact_recursion", budget=budget
            )

        _, _, leaves = batch(10**7)
        batch(int(leaves.max()))
        with pytest.raises(ResourceExceeded) as info:
            batch(int(leaves.max()) - 1)
        assert info.value.budget_name == "leaf_budget"

    @pytest.mark.parametrize("system", ["cantor", "mixed_ratios"])
    def test_one_mu_hat_rows_call_per_batch(self, system, request, monkeypatch):
        ifs = request.getfixturevalue(system)
        calls = []
        original = fourier_module._mu_hat_rows

        def record(target, etas, *args):
            calls.append(len(etas))
            return original(target, etas, *args)

        monkeypatch.setattr(fourier_module, "_mu_hat_rows", record)
        xis = np.r_[np.linspace(0.0, 50.0, 26), -np.geomspace(3.0, 60.0, 5)]
        self.batch(ifs, xis[:, None], 1e-3, threads=2)
        assert calls == [len(xis)]

    @pytest.mark.parametrize("system", ["cantor", "mixed_ratios"])
    def test_empty_batch(self, system, request):
        ifs = request.getfixturevalue(system)
        values, bounds, leaves = self.batch(ifs, np.zeros((0, 1)), 1e-3)
        assert (values.shape, bounds.shape, leaves.shape) == ((0,), (0,), (0,))
        assert (values.dtype, bounds.dtype, leaves.dtype) == (complex, float, object)

    @pytest.mark.parametrize("system", ["cantor", "mixed_ratios"])
    def test_threads_give_identical_sweeps(self, system, request):
        # a uniform grid: the product form's angle-addition path for Cantor,
        # octave groups on several jobs for the non-homogeneous system
        ifs = request.getfixturevalue(system)
        xis = np.linspace(0.0, 60.0, 121)[:, None]
        one = self.batch(ifs, xis, 1e-4, threads=1)
        four = self.batch(ifs, xis, 1e-4, threads=4)
        for a, b in zip(one, four):
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestCoverBudget:
    """A stopping cover over budget raises before anything is expanded."""

    @pytest.fixture
    def no_expansion(self, monkeypatch):
        def fail(*args):
            raise AssertionError("expansion started")

        monkeypatch.setattr(ifs_module, "_expand_blocked", fail)

    @pytest.mark.parametrize("system", ["cantor", "mixed_ratios"])
    def test_raises_before_expansion(self, system, request, no_expansion):
        ifs = request.getfixturevalue(system)
        sq = square_map(ifs)
        scale = 1e-3
        needed = _count_stopping(ifs, scale, math.inf)[0]
        calls = [
            (needed, lambda b: stopping_decomposition(ifs, scale, budget=b)),
            (needed, lambda b: pushforward_hat(ifs, sq, 500.0, scale=scale, budget=b, scheme="order0")),
            (needed, lambda b: pushforward_hat(ifs, sq, 500.0, scale=scale, budget=b, scheme="order1")),
            (needed, lambda b: pushforward_batch(ifs, sq, [500.0, -700.0], scale=scale, budget=b)),
        ]
        if not ifs.is_homogeneous:
            # mu_hat's own cover, at scale tol / (2 pi |xi| R); the batch's
            # smaller frequency fits the budget, so it must not run first
            xi, tol = 500.0, 1e-3
            identity = identity_map(ifs)
            top = _count_stopping(ifs, scheme_scale(ifs, identity, 0, tol, xi), math.inf)[0]
            assert _count_stopping(ifs, scheme_scale(ifs, identity, 0, tol, 0.5 * xi), math.inf)[0] < top - 1
            calls += [
                (top, lambda b: mu_hat(ifs, xi, tol=tol, budget=b)),
                (top, lambda b: pushforward_batch(
                    ifs, sq, [0.5 * xi, -xi], tol=tol, scheme="exact_recursion", budget=b
                )),
            ]
        for count, call in calls:
            with pytest.raises(ResourceExceeded) as info:
                call(count - 1)
            assert info.value.budget_name == "leaf_budget"
            assert f"needs {count} leaves" in str(info.value)

    @pytest.mark.parametrize("system", ["cantor", "mixed_ratios"])
    def test_batch_checks_the_top_octave_first(self, system, request, no_expansion):
        ifs = request.getfixturevalue(system)
        sq = square_map(ifs)
        low_octave_scale = scheme_scale(ifs, sq, 1, 1e-3, 300.0)
        fits = _count_stopping(ifs, low_octave_scale, math.inf)[0]
        with pytest.raises(ResourceExceeded):
            pushforward_batch(ifs, sq, [300.0, 30000.0], tol=1e-3, budget=fits)


class TestStreamedCovers:
    """The row kernel streams every cover in leaf blocks; it never stores one."""

    def test_kernel_holds_one_block_of_leaves(self, monkeypatch):
        # the baseline non-homogeneous system: 121,393 leaves at xi = 3.7
        system = ifs_1d([0.5, 0.25], [0.0, 0.75], [0.6, 0.4], [1, -1])
        sizes = []
        original = fourier_module._linear_forms

        def record(ifs, pmap, ratios, *rest):
            sizes.append(len(ratios))
            return original(ifs, pmap, ratios, *rest)

        monkeypatch.setattr(fourier_module, "_linear_forms", record)
        s = mu_hat(system, 3.7, tol=1e-6)
        assert s.leaves_used >= 100_000
        assert sum(sizes) == s.leaves_used
        assert max(sizes) <= FRONTIER_BLOCK
        assert len(sizes) > s.leaves_used // FRONTIER_BLOCK

    def test_anchor_drift_within_its_bound(self):
        # ratios 0.9 and 0.05, the first map reversing: words of depth up to
        # 110, whose anchors are accumulated over every level
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        system = ifs_1d([0.9, 0.05], [1.0, 0.3], signs=[-1, 1])
        dec = stopping_decomposition(system, 1e-5)
        assert len(dec) == 47_217
        _, snapped, depth = _count_stopping(system, 1e-5, math.inf)
        assert dec.depths.max() == depth == 110
        maps = [(mpmath.mpf(m.ratio) * mpmath.mpf(float(m.orientation[0, 0])),
                 mpmath.mpf(float(m.translation[0]))) for m in system.maps]
        b = mpmath.mpf(float(system.barycenter[0]))
        deepest = np.flatnonzero(dec.depths >= 100)
        rows = np.r_[deepest[:200], np.random.default_rng(40).integers(0, len(dec), size=200)]
        drift = 0.0
        for j in rows:
            x = b
            for letter in reversed(dec.letters[j, : dec.depths[j]].tolist()):
                scale, shift = maps[letter]
                x = scale * x + shift
            drift = max(drift, float(abs(mpmath.mpf(float(dec.anchors[j, 0])) - x)))
        assert 0.0 < drift <= _anchor_drift(system, snapped, depth)


class TestCoverFactsFromTheCount:
    """Depth, table range and inner reach come from the count and J, not the covers."""

    def test_table_batch_streams_each_cover_once_per_job(self, cantor, monkeypatch):
        events = []
        blocks, table, run_rows = (
            fourier_module._cover_blocks, fourier_module._MuHatTable, fourier_module._run_rows
        )

        def record_blocks(*args):
            events.append("cover")
            return blocks(*args)

        def record_table(*args):
            events.append("table")
            return table(*args)

        def record_jobs(run, jobs, m, threads):
            events.append(len(jobs))
            return run_rows(run, jobs, m, threads)

        monkeypatch.setattr(fourier_module, "_cover_blocks", record_blocks)
        monkeypatch.setattr(fourier_module, "_MuHatTable", record_table)
        monkeypatch.setattr(fourier_module, "_run_rows", record_jobs)
        xis = np.r_[np.geomspace(300.0, 30000.0, 24), -np.geomspace(500.0, 5000.0, 4)]
        pushforward_batch(cantor, square_map(cantor), xis, tol=1e-3)
        n_jobs = events[1]
        assert n_jobs >= 7     # one job per octave of 2^8 .. 2^14, at least
        assert events == ["table", n_jobs] + ["cover"] * n_jobs

    @pytest.mark.parametrize(
        "system, make_map",
        [
            (cantor_ifs(), square_map),
            (uniform_ifs(1.0, 2.0), log_map),
            # both maps reverse orientation; the attractor is [0, 1]
            (ifs_1d([0.4, 0.4], [0.4, 1.0], signs=[-1, -1]), cube_map),
        ],
    )
    def test_a_priori_range_covers_every_inner_frequency(self, system, make_map, monkeypatch):
        requested, looked_up = [], []
        table, lookup = _MuHatTable, _MuHatTable.lookup

        def record_table(ifs, eta_max, table_tol, second):
            requested.append(eta_max)
            return table(ifs, eta_max, table_tol, second)

        def record_lookup(self, eta, work=None):
            looked_up.append(float(np.abs(eta).max()))
            return lookup(self, eta, work)

        monkeypatch.setattr(fourier_module, "_MuHatTable", record_table)
        monkeypatch.setattr(_MuHatTable, "lookup", record_lookup)
        xis = np.r_[np.geomspace(5.0, 5000.0, 30), -np.geomspace(7.0, 700.0, 5)]
        pushforward_batch(system, make_map(system), xis, tol=1e-3)
        assert len(requested) == 1
        # every computed |xi| |B_w| is in range; the Lipschitz bounds of
        # these maps are attained on the support, so the range is tight
        assert max(looked_up) <= requested[0] <= 1.001 * max(looked_up)

    def test_order1_bound_terms_from_the_count(self, cantor):
        # one group, so its bound is the named terms with J = L_f = 2 sup|x|
        sq = square_map(cantor)
        xi, tol = 700.0, 1e-3
        n, scale, depth = _count_stopping(cantor, scheme_scale(cantor, sq, 1, tol, xi), math.inf)
        jac = fourier_module._jacobian_bound(cantor, sq)
        assert jac == sq.lipschitz_bound
        radius = cantor.support_radius
        reach = 2.0 * math.pi * radius * scale * jac
        dec = stopping_decomposition(cantor, scale)
        a_forms, b_forms = _linear_forms(cantor, sq, dec.ratios, dec.orientations, dec.anchors, True)
        assert np.abs(b_forms).max() <= scale * jac
        moment = float(np.sum(dec.weights * dec.ratios**2))
        norm = np.array([xi])
        table = _MuHatTable(cantor, xi * (scale * jac) * 1.0001 + 1e-9, min(tol / 8.0, 1e-8))
        expected = norm * (math.pi * 2.0 * radius**2 * moment) + table.slack + _roundoff(n)
        expected = expected + _phase_rounding(norm, float(np.abs(a_forms).max()), reach, 1)
        expected = expected + _cover_rounding(cantor, scale, depth, norm, jac + 2.0 * radius, reach)
        _, bounds, leaves = pushforward_batch(cantor, sq, [xi], tol=tol)
        assert leaves[0] == n == len(dec)
        assert bounds[0] == pytest.approx(expected[0], rel=1e-12, abs=0.0)


class TestStoppingScale:
    """One root for every scheme's remainder, against the closed forms it replaced."""

    XIS = np.r_[2.225073858507e-311, np.geomspace(1e-300, 1e12, 157)].tolist()

    @pytest.mark.parametrize("system", ["cantor", "mixed_ratios", "uniform12"])
    def test_orders_0_and_1_keep_their_covers(self, system, request):
        ifs = request.getfixturevalue(system)
        identity, sq, tol = identity_map(ifs), square_map(ifs), 1e-3
        for xi in self.XIS:
            for scale, closed_form in [
                (scheme_scale(ifs, identity, 0, tol, xi), order0_scale_closed_form(ifs, 1.0, tol, xi)),
                (scheme_scale(ifs, sq, 0, tol, xi), order0_scale_closed_form(ifs, sq.lipschitz_bound, tol, xi)),
                (scheme_scale(ifs, sq, 1, tol, xi), order1_scale_closed_form(ifs, sq.hessian_bound, tol, xi)),
            ]:
                assert _count_stopping(ifs, scale, math.inf) == _count_stopping(ifs, closed_form, math.inf), xi

    @pytest.mark.parametrize("system", ["cantor", "mixed_ratios", "uniform12"])
    def test_order2_scale_is_the_root_of_its_remainder(self, system, request):
        ifs = request.getfixturevalue(system)
        radius, tol = ifs.support_radius, 1e-3
        for pmap in (square_map(ifs), cube_map(ifs)):
            for xi in self.XIS:
                terms = _remainder_terms(pmap, 2, xi)
                scale = scheme_scale(ifs, pmap, 2, tol, xi)
                x = radius if scale == math.inf else scale * radius
                remainder = sum(c * x**p for c, p in terms)
                if scale == math.inf:
                    assert remainder <= 0.5 * tol, xi
                else:
                    assert remainder == pytest.approx(0.5 * tol, rel=1e-12, abs=0.0), xi


class TestOrder0:
    def test_identity_matches_mu_hat(self, cantor):
        idm = identity_map(cantor)
        for xi in (3.7, 100.1, -55.0):
            quad = pushforward_hat(cantor, idm, xi, tol=1e-6, scheme="order0")
            exact = mu_hat(cantor, xi, tol=1e-6)
            assert abs(quad.value - exact.value) <= quad.error_bound + exact.error_bound

    def test_constant_map_exact(self, cantor):
        cm = constant_map(cantor, 0.7)
        s = pushforward_hat(cantor, cm, 5.0, tol=1e-9, scheme="order0")
        expected = complex(math.cos(7 * math.pi), -math.sin(7 * math.pi))
        assert s.value == pytest.approx(expected, abs=1e-12)
        assert s.error_bound <= 1e-12

    def test_square_against_depth20(self, cantor):
        oracle = brute_force_pushforward(cantor, lambda x: x**2, 20)
        tol = 1e-4
        s = pushforward_hat(cantor, square_map(cantor), 256.0, tol=tol, scheme="order0")
        assert abs(s.value - oracle(256.0)) <= 2.0 * tol

    def test_zero_frequency(self, cantor):
        s = pushforward_hat(cantor, square_map(cantor), 0.0, scheme="order0")
        assert s.value == 1.0 and s.error_bound == 0.0

    def test_underflowing_norm_is_not_zero(self, cantor, mixed_ratios):
        # |xi|^2 underflows to 0, but the transform is e^{-2 pi i 0.7 xi}, not 1
        xi = 1e-200
        exact = complex(1.0, -2.0 * math.pi * 0.7 * xi)
        s = pushforward_hat(cantor, constant_map(cantor, 0.7), xi, scheme="order0")
        assert s.value == exact
        assert 0.0 < s.error_bound
        for system in (cantor, mixed_ratios):
            s = pushforward_hat(system, square_map(system), xi, scheme="order1")
            assert s.value.imag < 0.0 < s.error_bound
            s = mu_hat(system, xi)
            assert s.value.imag < 0.0 < s.error_bound

    def test_requires_lipschitz(self, cantor):
        raw = PushforwardMap(evaluator=lambda p: p[:, 0] ** 2)
        with pytest.raises(BadConfig):
            pushforward_hat(cantor, raw, 4.0, scheme="order0")

    def test_false_lipschitz_bound_refuted(self, uniform12):
        # the remainder 2 pi |xi| L r_w R trusts L: with L = 0.001 the 16-leaf
        # cover would certify 5.89e-4 at xi = 3, 1.97e-3 from the exact transform
        pmap = replace(log_map(uniform12), lipschitz_bound=0.001)
        with pytest.raises(BadConfig, match=r"map 'log': two anchors refute its declared L = 0\.001, "):
            pushforward_hat(uniform12, pmap, 3.0, tol=1e-3, scheme="order0")

    @pytest.mark.parametrize("rows", ["grid", "scattered"])
    def test_false_lipschitz_bound_refuted_in_batches(self, uniform12, mixed_ratios, rows):
        xis = np.arange(50) * 0.9 if rows == "grid" else np.array([3.0, 40.0])
        pmap = replace(square_map(mixed_ratios), lipschitz_bound=0.5)
        with pytest.raises(BadConfig, match=r"map 'square': two anchors refute its declared L = 0\.5, "):
            pushforward_batch(mixed_ratios, pmap, xis, tol=1e-3, scheme="order0")
        # a vector image: x -> (x, log x) moves at least as far as x
        lifted = replace(graph_lift(uniform12, log_map(uniform12)), lipschitz_bound=0.5)
        with pytest.raises(BadConfig, match=r"map 'graph_lift\(log\)': two anchors refute its declared L = 0\.5, "):
            pushforward_batch(uniform12, lifted, np.c_[xis, xis], tol=1e-3, scheme="order0")


class TestOrder1:
    @pytest.mark.parametrize(
        "system, tol, ref_tol", [("cantor", 1e-9, 1e-12), ("mixed_ratios", 1e-4, 1e-7)]
    )
    def test_affine_exact_linearisation(self, system, tol, ref_tol, request):
        # no Taylor term and one cylinder: the bound is the inner transform's
        # at 2 xi, plus rounding
        ifs = request.getfixturevalue(system)
        aff = PushforwardMap(
            evaluator=lambda p: 2.0 * p[:, 0] + 1.0,
            gradient=lambda p: np.full_like(p, 2.0),
            lipschitz_bound=2.0,
            hessian_bound=0.0,
            label="affine",
        )
        xi = 7.3
        s = pushforward_hat(ifs, aff, xi, tol=tol, scheme="order1")
        inner = mu_hat(ifs, 2.0 * xi, tol=ref_tol)
        expected = complex(
            math.cos(2 * math.pi * xi), -math.sin(2 * math.pi * xi)
        ) * inner.value
        assert abs(s.value - expected) <= s.error_bound + inner.error_bound
        assert s.leaves_used == 1
        if ifs.is_homogeneous:
            # the table it reads, over |xi| s J with s = 1, the one cylinder's scale
            jac = fourier_module._jacobian_bound(ifs, aff)
            inner_bound = _MuHatTable(ifs, xi * jac * 1.0001 + 1e-9, min(tol / 8.0, 1e-8)).slack
        else:
            inner_bound = mu_hat(ifs.centred, 2.0 * xi, tol=0.5 * tol).error_bound
        assert s.error_bound > inner_bound

    def test_fewer_leaves_than_order0(self, cantor):
        sq = square_map(cantor)
        xi = 2.0**14
        s0 = pushforward_hat(cantor, sq, xi, tol=1e-3, scheme="order0")
        s1 = pushforward_hat(cantor, sq, xi, tol=1e-3, scheme="order1")
        assert s0.leaves_used >= 10 * s1.leaves_used
        assert abs(s0.value - s1.value) <= s0.error_bound + s1.error_bound

    def test_scheme_agreement_random_frequencies(self, cantor):
        sq = square_map(cantor)
        rng = np.random.default_rng(6)
        for xi in np.exp(rng.uniform(np.log(2.0**8), np.log(2.0**16), size=100)):
            s0 = pushforward_hat(cantor, sq, xi, tol=2e-3, scheme="order0")
            s1 = pushforward_hat(cantor, sq, xi, tol=2e-3, scheme="order1")
            assert abs(s0.value - s1.value) <= s0.error_bound + s1.error_bound

    def test_non_homogeneous_system(self, mixed_ratios):
        sq = square_map(mixed_ratios)
        oracle_ifs = mixed_ratios
        s1 = pushforward_hat(oracle_ifs, sq, 300.0, tol=1e-4, scheme="order1")
        s0 = pushforward_hat(oracle_ifs, sq, 300.0, tol=1e-4, scheme="order0")
        assert abs(s0.value - s1.value) <= s0.error_bound + s1.error_bound

    def test_inner_budget_enforced(self, mixed_ratios):
        # 233 outer leaves fit the budget; the top octave of the inner
        # frequencies needs a cover of 377 leaves, so the nested inner
        # order-0 call is what raises, its count stopped at 319.
        sq = square_map(mixed_ratios)
        scale = math.sqrt(0.5e-3 / (math.pi * 300.0 * sq.hessian_bound))
        assert len(stopping_decomposition(mixed_ratios, scale / mixed_ratios.support_radius)) <= 300
        with pytest.raises(ResourceExceeded) as info:
            pushforward_hat(mixed_ratios, sq, 300.0, tol=1e-3, budget=300, scheme="order1")
        assert info.value.budget_name == "leaf_budget"
        assert "needs 319 leaves or more > budget 300" in str(info.value)
        pushforward_hat(mixed_ratios, sq, 300.0, tol=1e-3, budget=377, scheme="order1")

    def test_missing_hessian(self, cantor):
        raw = PushforwardMap(
            evaluator=lambda p: p[:, 0] ** 2,
            gradient=lambda p: 2.0 * p,
            lipschitz_bound=2.0,
        )
        with pytest.raises(MissingHessianBound):
            pushforward_hat(cantor, raw, 4.0, scheme="order1")


def log_uniform12_closed_form(xi):
    """Transform of uniform[1, 2] under log: (2 e^{-2 pi i xi log 2} - 1) / (1 - 2 pi i xi)."""
    return (2.0 * np.exp(-2j * np.pi * xi * math.log(2.0)) - 1.0) / (1.0 - 2j * np.pi * xi)


class TestOrder2:
    @pytest.mark.parametrize("leaves", [512, 1024, 4096])
    def test_log_uniform_closed_form(self, uniform12, leaves):
        # the convolve grid j delta up to 16,384, every 23rd row
        delta = 1.0 / (8.0 * math.log(2.0))
        xis = np.arange(0, int(16384.0 / delta) + 1, 23) * delta
        lm = log_map(uniform12)
        values, bounds, used = pushforward_batch(
            uniform12, lm, xis, tol=1e-4, scheme="order2", scale=1.0 / leaves
        )
        assert np.all(used[1:] == leaves)
        errors = np.abs(values - log_uniform12_closed_form(xis))
        assert np.all(errors <= bounds)
        _, bounds1, _ = pushforward_batch(
            uniform12, lm, xis, tol=1e-4, scheme="order1", scale=1.0 / leaves
        )
        # at 512 leaves the order-1 Taylor term is 0.049 at the top row
        assert bounds.max() <= 0.01 * bounds1.max()

    def test_single_calls_match_the_batch(self, cantor):
        sq = square_map(cantor)
        xis = [3.0, -37.5, 300.0, 1234.5]
        values, bounds, leaves = pushforward_batch(cantor, sq, xis, tol=1e-4, scheme="order2")
        for xi, value, bound, used in zip(xis, values, bounds, leaves):
            single = pushforward_hat(cantor, sq, xi, tol=1e-4, scheme="order2")
            assert single.scheme == "order2"
            assert single.leaves_used == used
            assert abs(single.value - value) <= single.error_bound + bound
            assert single.error_bound <= 1e-4 and bound <= 1e-4

    def test_fewer_leaves_than_order1(self, cantor):
        sq = square_map(cantor)
        for xi in (2.0**10, 2.0**14):
            s1 = pushforward_hat(cantor, sq, xi, tol=1e-3, scheme="order1")
            s2 = pushforward_hat(cantor, sq, xi, tol=1e-3, scheme="order2")
            # H3 = 0 for the square map: the scale grows like (tol / xi^2)^(1/4)
            assert s2.leaves_used * 4 <= s1.leaves_used
            assert abs(s1.value - s2.value) <= s1.error_bound + s2.error_bound

    @pytest.mark.parametrize("scheme", ["order0", "order1", "order2"])
    def test_subnormal_frequency_takes_the_root(self, uniform12, scheme):
        # |xi| on the line is abs(xi), exact down to the subnormals, where the
        # single-term roots of the order-2 remainder pass 1e100
        xi = 2.225073858507e-311
        # log on [1, 2]: H = 1 and H3 = 2
        assert scheme_scale(uniform12, log_map(uniform12), 2, 1e-4, xi) == math.inf
        values, bounds, leaves = pushforward_batch(
            uniform12, log_map(uniform12), [xi], tol=1e-4, scheme=scheme
        )
        assert leaves[0] == 1
        assert abs(values[0] - 1.0) <= bounds[0] < 1e-7

    def test_remainder_is_the_named_taylor_term(self, cantor):
        # one group: the bound is the remainder plus the named inner and
        # rounding terms, the rounding scaled by 1 + kappa
        sq = square_map(cantor)
        xi, tol = 700.0, 1e-4
        radius = cantor.support_radius
        scale = scheme_scale(cantor, sq, 2, tol, xi)
        n, snapped, depth = _count_stopping(cantor, scale, math.inf)
        dec = stopping_decomposition(cantor, snapped)
        curv = 2.0 * dec.ratios**2
        remainder = xi**2 * (0.5 * (math.pi * radius**2) ** 2 * float(np.sum(dec.weights * curv**2)))
        assert 0.01 * tol < remainder <= 0.5 * tol
        jac = fourier_module._jacobian_bound(cantor, sq)
        table = _MuHatTable(cantor, xi * (snapped * jac) * 1.0001 + 1e-9, min(tol / 8.0, 1e-8), True)
        inner = table.slack + math.pi * xi * float(np.sum(dec.weights * curv)) * table.slack2
        a_forms, _ = _linear_forms(cantor, sq, dec.ratios, dec.orientations, dec.anchors, True)
        reach = 2.0 * math.pi * radius * snapped * jac
        norm = np.array([xi])
        carried = _roundoff(n) + _phase_rounding(norm, float(np.abs(a_forms).max()), reach)
        carried = carried + _cover_rounding(cantor, snapped, depth, norm, jac + 2.0 * radius, reach)
        kappa = math.pi * xi * float(curv.max()) * radius**2
        expected = remainder + inner + (1.0 + kappa) * carried
        expected = expected + fourier_module.EPS * ((depth + 6.0) * kappa + 1.0)
        _, bounds, leaves = pushforward_batch(cantor, sq, [xi], tol=tol, scheme="order2")
        assert leaves[0] == n
        assert bounds[0] == pytest.approx(expected[0], rel=1e-12, abs=0.0)
        assert remainder > 0.5 * bounds[0]

    def test_second_moment_table_column(self, cantor):
        # h2 = -h'' / 4 pi^2 of the centred Cantor measure, by central differences of h
        table = _MuHatTable(cantor, 60.0, 1e-8, True)
        assert table.slack2 < 1e-8
        step = 1e-3
        for eta in (0.0, 0.37, 5.2, -17.9, 59.0):
            second = -(
                cantor_centred_form(eta + step)
                - 2.0 * cantor_centred_form(eta)
                + cantor_centred_form(eta - step)
            ) / step**2 / (2.0 * math.pi) ** 2
            h, h2 = table.lookup(np.array([eta]))
            assert abs(h[0] - cantor_centred_form(eta)) <= table.slack
            assert abs(h2[0] - second) <= table.slack2 + 1e-5
        # h2(0) = int u^2 dmu_c = 1/8 for the middle-thirds measure
        assert table.lookup(np.array([0.0]))[1][0] == pytest.approx(0.125, rel=1e-6)

    def test_supported_systems_and_maps(self, cantor, mixed_ratios, square_2d):
        xi = [10.0]
        with pytest.raises(Unsupported, match="on the line"):
            pushforward_batch(square_2d, sum_of_squares_map(square_2d), xi, scheme="order2")
        with pytest.raises(Unsupported, match="homogeneous"):
            pushforward_hat(mixed_ratios, square_map(mixed_ratios), 10.0, scheme="order2")
        raw = PushforwardMap(
            evaluator=lambda p: p[:, 0] ** 2,
            gradient=lambda p: 2.0 * p,
            hessian=lambda p: np.full((len(p), 1, 1), 2.0),
            lipschitz_bound=2.0,
            hessian_bound=2.0,
            label="raw",
        )
        with pytest.raises(MissingHessianBound, match="third_bound"):
            pushforward_batch(cantor, raw, xi, scheme="order2")

    @pytest.mark.parametrize("xi", [0.0, 1.0])
    def test_refused_at_zero_frequency_as_elsewhere(self, cantor, square_2d, xi):
        # the refusal comes before the shortcut that returns 1 when every xi is 0
        flat = replace(square_map(cantor), hessian_bound=None)
        unbounded = replace(square_map(cantor), lipschitz_bound=None)
        planar = sum_of_squares_map(square_2d)
        calls = [
            (BadConfig, lambda: pushforward_hat(cantor, unbounded, xi, scheme="order0")),
            (BadConfig, lambda: pushforward_batch(cantor, unbounded, [xi], scheme="order0")),
            (MissingHessianBound, lambda: pushforward_hat(cantor, flat, xi, scheme="order1")),
            (MissingHessianBound, lambda: pushforward_batch(cantor, flat, [xi], scheme="order1")),
            (Unsupported, lambda: pushforward_hat(square_2d, planar, xi, scheme="order2")),
            (Unsupported, lambda: pushforward_batch(square_2d, planar, [xi], scheme="order2")),
        ]
        for error, call in calls:
            with pytest.raises(error):
                call()

    def test_third_derivative_bounds(self, cantor, uniform12):
        from fractal_fourier.fourier import neg_log_map, quadratic_map

        assert square_map(cantor).third_bound == 0.0
        assert identity_map(cantor).third_bound == 0.0
        assert quadratic_map(cantor, [{(0, 0): 1.0}]).third_bound == 0.0
        assert cube_map(cantor).third_bound == 6.0
        # the support ball of uniform[1, 2] is [1, 2], where 2 / x^3 <= 2
        assert log_map(uniform12).third_bound == 2.0
        assert neg_log_map(uniform12).third_bound == 2.0
        assert log_map(uniform12, 0.5).third_bound == 16.0


@pytest.fixture(scope="module")
def dust_2d():
    # Two-map Cantor dust on the diagonal of the unit square.
    from fractal_fourier.ifs import SelfSimilarIFS, SimilarityMap

    maps = (
        SimilarityMap(1 / 3, np.eye(2), np.zeros(2)),
        SimilarityMap(1 / 3, np.eye(2), np.array([2 / 3, 2 / 3])),
    )
    return SelfSimilarIFS(maps, (0.5, 0.5))


class TestPlanarSystems:
    def test_vector_frequency_symmetry(self, dust_2d):
        xi = np.array([3.1, -7.4])
        pos = mu_hat(dust_2d, xi, tol=1e-8)
        neg = mu_hat(dust_2d, -xi, tol=1e-8)
        assert neg.value == pos.value.conjugate()
        zero = mu_hat(dust_2d, np.zeros(2), tol=1e-8)
        assert zero.value == 1.0 and zero.error_bound <= 1e-12

    def test_scalar_image_schemes_agree(self, dust_2d):
        ssq = sum_of_squares_map(dust_2d)
        for xi in (10.0, 50.0):
            s0 = pushforward_hat(dust_2d, ssq, xi, tol=1e-3, scheme="order0")
            s1 = pushforward_hat(dust_2d, ssq, xi, tol=1e-3, scheme="order1")
            assert abs(s0.value - s1.value) <= s0.error_bound + s1.error_bound
            assert s1.leaves_used < s0.leaves_used

    def test_zero_frequency_normalisation(self, dust_2d):
        ssq = sum_of_squares_map(dust_2d)
        s1 = pushforward_hat(dust_2d, ssq, 0.0, scheme="order1")
        assert s1.value == 1.0 and s1.error_bound == 0.0


class TestGraphLift:
    def test_lift_recovers_image_transform(self, cantor):
        sq = square_map(cantor)
        lifted = graph_lift(cantor, sq)
        xi = 97.0
        scale = 1e-4
        direct = pushforward_hat(cantor, sq, xi, scale=scale, scheme="order0")
        via_lift = pushforward_hat(
            cantor, lifted, np.array([0.0, xi]), scale=scale, scheme="order0"
        )
        assert via_lift.value == direct.value


_BATCH_OF_ONE_SYSTEMS = {
    "cantor": cantor_ifs(),
    "uniform12": uniform_ifs(1.0, 2.0),
    # both maps reverse orientation at one ratio: homogeneous, attractor [0, 1]
    "reversing": ifs_1d([0.4, 0.4], [0.4, 1.0], signs=[-1, -1]),
    "mixed_reversing": ifs_1d([0.5, 0.25], [0.0, 0.75], signs=[1, -1]),
}
_BATCH_OF_ONE_MAPS = {"square": square_map, "cube": cube_map, "log": log_map}


def _outcome(call):
    """(value, bound, leaves) of a one-frequency call, or the repr of what it raised."""
    try:
        return call()
    except FractalFourierError as exc:
        return repr(exc)


class TestBatch:
    @pytest.mark.parametrize("scheme", ["exact_recursion", "order0", "order1", "order2"])
    @pytest.mark.parametrize(
        "system, map_name",
        [(s, m) for s in _BATCH_OF_ONE_SYSTEMS for m in _BATCH_OF_ONE_MAPS
         if m != "log" or s == "uniform12"],     # log needs the support right of 0
    )
    def test_single_call_is_a_batch_of_one(self, system, map_name, scheme):
        ifs = _BATCH_OF_ONE_SYSTEMS[system]
        pmap = _BATCH_OF_ONE_MAPS[map_name](ifs)
        for xi in (3.0, -37.5, 1234.5, 16384.0):
            def single():
                s = pushforward_hat(ifs, pmap, xi, tol=1e-3, scheme=scheme)
                return s.value, s.error_bound, s.leaves_used

            def batch():
                values, bounds, leaves = pushforward_batch(ifs, pmap, [xi], tol=1e-3, scheme=scheme)
                return values[0], bounds[0], leaves[0]

            # bit for bit, or the same error (order 0 past the leaf budget,
            # order 2 on the non-homogeneous system)
            assert _outcome(single) == _outcome(batch), xi

    def test_recursion_takes_no_map(self, cantor, mixed_ratios, monkeypatch):
        # pushforward_batch alone sends exact_recursion to _mu_hat_rows; the
        # row kernel sees only image schemes (a non-homogeneous recursion is
        # the order-0 image of the identity)
        schemes, image_rows = [], fourier_module._image_rows

        def recorded(ifs, pmap, xis, tol, scheme, *args):
            schemes.append(scheme)
            return image_rows(ifs, pmap, xis, tol, scheme, *args)

        monkeypatch.setattr(fourier_module, "_image_rows", recorded)
        for system in (cantor, mixed_ratios):
            for xis in ([0.0, 10.0, -250.5], [10.0]):
                without = pushforward_batch(system, None, xis, tol=1e-6, scheme="exact_recursion")
                identity = pushforward_batch(system, identity_map(system), xis, tol=1e-6, scheme="exact_recursion")
                for a, b in zip(without, identity):
                    assert np.array_equal(a, b)
            for sample in (pushforward_hat(system, None, 10.0, tol=1e-6, scheme="exact_recursion"),
                           mu_hat(system, 10.0, tol=1e-6)):
                assert (sample.value, sample.error_bound, sample.leaves_used, sample.certified) == (
                    without[0][0], without[1][0], without[2][0], True)
        assert set(schemes) == {"order0"}
        for scheme in fourier_module.IMAGE_SCHEMES:
            with pytest.raises(BadConfig, match=f"the {scheme} scheme needs a map"):
                pushforward_hat(cantor, None, 10.0, scheme=scheme)

    def test_one_single_frequency_call(self):
        import fractal_fourier

        scheme = inspect.signature(pushforward_hat).parameters["scheme"]
        assert scheme.kind is inspect.Parameter.KEYWORD_ONLY and scheme.default is inspect.Parameter.empty
        assert fractal_fourier.pushforward_hat is pushforward_hat
        for old in ("pushforward_hat_order0", "pushforward_hat_order1", "pushforward_hat_order2", "_image_sample"):
            assert not hasattr(fractal_fourier, old) and not hasattr(fourier_module, old)

    def test_matches_single_calls(self, cantor):
        sq = square_map(cantor)
        rng = np.random.default_rng(8)
        xis = np.concatenate(
            [np.exp(rng.uniform(np.log(256.0), np.log(65536.0), size=32)), [0.0, -512.25]]
        )
        vals, errs, leaves = pushforward_batch(cantor, sq, xis, tol=1e-3)
        for i, xi in enumerate(xis):
            single = pushforward_hat(cantor, sq, float(xi), tol=1e-3, scheme="order1")
            assert abs(vals[i] - single.value) <= errs[i] + single.error_bound

    def test_conjugate_symmetry(self, cantor):
        sq = square_map(cantor)
        xis = np.array([100.0, -100.0, 3333.5, -3333.5])
        vals, _, _ = pushforward_batch(cantor, sq, xis, tol=1e-3)
        assert vals[1] == vals[0].conjugate()
        assert vals[3] == vals[2].conjugate()

    def test_thread_count_invariance(self, cantor):
        sq = square_map(cantor)
        xis = np.linspace(10.0, 5000.0, 200)
        a = pushforward_batch(cantor, sq, xis, tol=1e-3, threads=1)
        b = pushforward_batch(cantor, sq, xis, tol=1e-3, threads=4)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_fixed_scale_override(self, uniform12):
        lg = log_map(uniform12)
        xis = np.linspace(0.0, 600.0, 64)
        vals, errs, leaves = pushforward_batch(
            uniform12, lg, xis, tol=1e-4, scale=2.0**-9
        )
        assert np.all(leaves[1:] == leaves[1])
        single = pushforward_hat(uniform12, lg, 600.0, tol=1e-4, scale=2.0**-9, scheme="order1")
        assert abs(vals[-1] - single.value) <= errs[-1] + single.error_bound

    def test_vector_images_equal_single_calls(self, square_2d):
        # (m, d) rows, one per octave of |xi|: each batch group is the single call's cover
        lifted = graph_lift(square_2d, sum_of_squares_map(square_2d))     # d = 3
        holomorphic = _cube_holomorphic(square_2d)      # d = 2
        for pmap, scheme, xis in (
            (lifted, "order0", [[0, 0, 0], [1, -2, 2], [-4, 5, 9], [20, -3, 30]]),
            (holomorphic, "order1", [[0, 0], [3, -1], [-11, 4], [37.5, 20]]),
        ):
            vals, errs, leaves = pushforward_batch(square_2d, pmap, xis, tol=0.1, scheme=scheme)
            assert len(vals) == len(xis) and len(set(leaves[1:])) > 1
            for i, xi in enumerate(xis):
                s = pushforward_hat(square_2d, pmap, xi, tol=0.1, scheme=scheme)
                assert (vals[i], errs[i], leaves[i]) == (s.value, s.error_bound, s.leaves_used)
        # an (m,) list is m scalar frequencies, which a vector image refuses
        with pytest.raises(BadConfig, match="frequency must have 3 components, got shape \\(3,\\)"):
            pushforward_batch(square_2d, lifted, [1.0, 2.0, 3.0], scheme="order0")

    @pytest.mark.parametrize("shape", [(2, 2), (3, 1, 2)])
    def test_malformed_frequency_array_rejected(self, cantor, shape):
        # not flattened into more rows than were asked for
        xis = np.arange(1.0, 1.0 + math.prod(shape)).reshape(shape)
        with pytest.raises(BadConfig, match="frequency must have 1 components"):
            pushforward_batch(cantor, square_map(cantor), xis)

    def test_planar_recursion_batch(self, dust_2d):
        identity = identity_map(dust_2d)
        xis = np.array([[3.1, -7.4], [40.0, 25.0]])
        one = pushforward_batch(dust_2d, identity, xis[:1], tol=1e-8, scheme="exact_recursion")
        single = mu_hat(dust_2d, xis[0], tol=1e-8)
        assert tuple(column[0] for column in one) == (single.value, single.error_bound, single.leaves_used)
        # a homogeneous batch takes every row to the depth of its largest
        vals, errs, leaves = pushforward_batch(dust_2d, identity, xis, tol=1e-8, scheme="exact_recursion")
        top = mu_hat(dust_2d, xis[1], tol=1e-8)
        assert list(leaves) == [top.leaves_used] * 2 and top.leaves_used > single.leaves_used
        for value, bound, sample in zip(vals, errs, (single, top)):
            assert abs(value - sample.value) <= bound + sample.error_bound

    def test_rows_over_the_probability_bound_raise(self, cantor, monkeypatch):
        def too_large(ifs, pmap, xis, *args):
            return np.full(len(xis), 1.5 + 0j), np.zeros(len(xis)), np.ones(len(xis), dtype=object)

        monkeypatch.setattr(fourier_module, "_image_rows", too_large)
        sq = square_map(cantor)
        with pytest.raises(FractalFourierError, match="probability bound violated: \\|value\\|=1.5"):
            pushforward_batch(cantor, sq, [1.0, 2.0])
        with pytest.raises(FractalFourierError, match="probability bound violated"):
            pushforward_hat(cantor, sq, 1.0, scheme="order1")

    def test_order0_and_recursion_schemes(self, cantor):
        # Generic chunked path: order0 over a map, recursion over none.
        sq = square_map(cantor)
        xis = np.array([0.0, 64.0, -64.0, 300.5])
        v0, e0, l0 = pushforward_batch(cantor, sq, xis, tol=1e-3, scheme="order0")
        for i, xi in enumerate(xis):
            single = pushforward_hat(cantor, sq, float(xi), tol=1e-3, scheme="order0")
            assert v0[i] == single.value
        vr, er, lr = pushforward_batch(
            cantor, identity_map(cantor), xis, tol=1e-6, scheme="exact_recursion",
            threads=2,
        )
        # one product form, every row to the depth of the largest
        top = mu_hat(cantor, 300.5, tol=1e-6)
        assert list(lr) == [top.leaves_used] * len(xis)
        depth = int(top.leaves_used).bit_length() - 1
        extra_levels = TestBatchedRecursion.extra_levels(cantor, depth)
        for i, xi in enumerate(xis):
            single = mu_hat(cantor, float(xi), tol=1e-6)
            assert abs(vr[i] - single.value) <= er[i] + single.error_bound
            assert abs(vr[i] - cantor_closed_form(xi)) <= er[i]
            assert er[i] <= single.error_bound + extra_levels

    @pytest.mark.parametrize("planar", [False, True])
    @pytest.mark.parametrize("scheme", ["order0", "order1"])
    def test_one_per_octave_equals_single_calls(self, planar, scheme):
        # One frequency per octave: each batch group is the single call's
        # cover, chunk and inner evaluation, so the results are identical.
        system = _rotated_planar_system() if planar else _random_reversing_system(4)
        pmap = sum_of_squares_map(system) if planar else square_map(system)
        xis = np.array([0.0, 3.0, -11.0, 37.5, -150.0])
        vals, errs, leaves = pushforward_batch(system, pmap, xis, tol=1e-2, scheme=scheme)
        for i, xi in enumerate(xis):
            s = pushforward_hat(system, pmap, float(xi), tol=1e-2, scheme=scheme)
            assert (vals[i], errs[i], leaves[i]) == (s.value, s.error_bound, s.leaves_used)
        assert len(set(leaves[1:])) > 1

    def test_non_homogeneous_thread_invariance(self, mixed_ratios):
        sq = square_map(mixed_ratios)
        xis = np.linspace(-100.0, 300.0, 81)
        for scheme, tol in (("order0", 1e-1), ("order1", 1e-2), ("exact_recursion", 1e-3)):
            a = pushforward_batch(mixed_ratios, sq, xis, tol=tol, scheme=scheme, threads=1)
            b = pushforward_batch(mixed_ratios, sq, xis, tol=tol, scheme=scheme, threads=4)
            for x, y in zip(a, b):
                assert np.array_equal(x, y)

    def test_no_per_frequency_calls(self, mixed_ratios, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("per-frequency call")

        for name in ("pushforward_hat", "mu_hat"):
            monkeypatch.setattr(fourier_module, name, fail)
        planar = _rotated_planar_system()
        xis = np.array([0.0, 5.0, -40.0, 41.0])
        for system, pmap, schemes in (
            (mixed_ratios, square_map(mixed_ratios), ("order0", "order1", "exact_recursion")),
            (planar, sum_of_squares_map(planar), ("order0", "order1")),
        ):
            for scheme in schemes:
                vals, errs, _ = pushforward_batch(system, pmap, xis, tol=1e-2, scheme=scheme)
                assert np.all(np.isfinite(vals)) and np.all(errs < 0.1)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_frequencies_rejected(self, cantor, mixed_ratios, bad):
        for system in (cantor, mixed_ratios):
            sq = square_map(system)
            with pytest.raises(BadConfig):
                mu_hat(system, bad)
            with pytest.raises(BadConfig):
                pushforward_hat(system, sq, bad, scheme="order0")
            with pytest.raises(BadConfig):
                pushforward_hat(system, sq, bad, scheme="order1")
            for scheme in ("order0", "order1", "exact_recursion"):
                with pytest.raises(BadConfig):
                    pushforward_batch(system, sq, [1.0, bad], scheme=scheme)

    @pytest.mark.parametrize("threads", [0, -4])
    def test_threads_below_one_rejected(self, cantor, threads):
        for scheme in ("order0", "order1", "order2", "exact_recursion"):
            with pytest.raises(BadConfig, match=f"threads must be at least 1, got {threads}"):
                pushforward_batch(
                    cantor, square_map(cantor), [1.0, 2.0], scheme=scheme, threads=threads
                )

    def test_quadratic_kind_matches_square(self, cantor):
        from fractal_fourier.fourier import quadratic_map

        quad = quadratic_map(cantor, [{(0, 0): 1.0}])
        sq = square_map(cantor)
        for xi in (200.0, 1500.0):
            a = pushforward_hat(cantor, quad, xi, tol=1e-4, scheme="order1")
            b = pushforward_hat(cantor, sq, xi, tol=1e-4, scheme="order1")
            assert abs(a.value - b.value) <= a.error_bound + b.error_bound
        # identical anchors and gradients make order0 values coincide exactly
        s0a = pushforward_hat(cantor, quad, 97.0, scale=1e-3, scheme="order0")
        s0b = pushforward_hat(cantor, sq, 97.0, scale=1e-3, scheme="order0")
        assert s0a.value == s0b.value


def _unit_phases_of(theta):
    """``_unit_phases`` of a copy of ``theta``, in a fresh workspace."""
    theta = np.array(theta, dtype=float)
    return _unit_phases(theta.copy(), np.empty(theta.shape, dtype=complex), {})


@pytest.mark.filterwarnings("error")
class TestUnitPhases:
    """e^{-i theta} from one reduced sine, against mpmath.

    The allowance is ``_phase_rounding``'s per unit phase: 2.9 EPS, and
    above ``REDUCTION_LIMIT`` the reduction term u |theta| plus the
    (d + 4) u |theta| = 2.5 EPS |theta| of the outer phase's slack that
    its derivation draws on.  Warnings are errors, so a cast of a huge k
    would fail.
    """

    @staticmethod
    def allowance(theta):
        theta = np.abs(theta)
        beyond = theta > fourier_module.REDUCTION_LIMIT
        return fourier_module.EPS * 2.9 + (3.0 * fourier_module.EPS) * theta * beyond

    @staticmethod
    def errors(theta):
        mpmath = pytest.importorskip("mpmath")
        theta = np.asarray(theta, dtype=float)
        out = _unit_phases_of(theta)
        with mpmath.workdps(40):
            return np.array([
                float(abs(mpmath.mpc(o.real, o.imag) - mpmath.expj(-mpmath.mpf(float(t)))))
                for t, o in zip(theta, out)
            ])

    def assert_within(self, theta):
        theta = np.asarray(theta, dtype=float)
        errors = self.errors(theta)
        assert np.all(errors <= self.allowance(theta)), float(np.max(errors / self.allowance(theta)))

    def test_zero_subnormal_and_tiny(self):
        theta = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-300, -1e-200, 1e-20, 3e-9, -1e-4])
        self.assert_within(theta)
        # the same values in a block that takes the reduction
        self.assert_within(np.r_[theta, 1e6])
        out = _unit_phases_of([0.0, 5e-324, -5e-324])
        assert np.all(out.real == 1.0) and np.array_equal(out.imag, [-0.0, -5e-324, 5e-324])

    @pytest.mark.parametrize("quarter", [1, 2])
    def test_multiples_of_pi_quarter_and_half_give_or_take_ulps(self, quarter):
        # j pi/4 and j pi/2 are where the rounded k changes, for j up to 2^27
        rng = np.random.default_rng(19 + quarter)
        j = np.r_[1, 2, 3, 4, 5, 7, 2**10 + 1, rng.integers(1, 2**27, 40), 2**27 - 1, 2**27]
        theta = j * (quarter * math.pi / 4.0)
        nudged = [theta]
        for ulps in (1, 2, 3):
            nudged += [theta + ulps * np.spacing(theta), theta - ulps * np.spacing(theta)]
        theta = np.concatenate(nudged)
        self.assert_within(np.r_[theta, -theta])

    def test_random_up_to_the_reduction_limit(self):
        rng = np.random.default_rng(190)
        theta = np.r_[rng.uniform(-2.1e8, 2.1e8, 1500), rng.uniform(-100.0, 100.0, 300),
                      np.exp(rng.uniform(-5.0, math.log(2.1e8), 300))]
        errors = self.errors(theta)
        assert np.all(errors <= self.allowance(theta))
        below = np.abs(theta) < fourier_module.REDUCTION_LIMIT
        assert float(errors[below].max()) <= 2.9 * fourier_module.EPS

    def test_beyond_the_limit(self):
        theta = np.array([1e10, -1e10, 3.3e12, 1e15, -1e15, 1e300, -1e300, 1.7e308])
        self.assert_within(theta)
        # the quarter turn of a huge k is exact: |phase| = 1 to rounding
        assert np.all(np.abs(np.abs(_unit_phases_of(theta)) - 1.0) <= 4 * fourier_module.EPS)

    def test_shortcut_is_the_k_zero_path(self):
        # a block whose |theta| are all at most pi/4 skips the reduction and
        # the turn; the same values in a block that reduces have k = 0 and
        # the same bits (a zero imaginary part keeps its sign at theta = +0)
        rng = np.random.default_rng(191)
        theta = np.r_[0.0, 5e-324, -5e-324, 1e-300, rng.uniform(-0.78, 0.78, 500),
                      fourier_module.QUARTER_PI * 0.999999, -fourier_module.QUARTER_PI * 0.999999]
        assert not np.rint(theta * fourier_module.TWO_OVER_PI).any()
        short = _unit_phases_of(theta)
        for big in (2.0, -1e7, 1e300):
            reduced = _unit_phases_of(np.r_[theta, big])[:-1]
            assert np.array_equal(short.view(np.uint64), reduced.view(np.uint64))

    def test_reduction_term_is_charged_beyond_the_limit(self, cantor):
        # u |theta| more where the largest angle passes REDUCTION_LIMIT, and
        # nothing below it: there the allowances keep their values
        eps, limit = fourier_module.EPS, fourier_module.REDUCTION_LIMIT
        a_max, inner = 6.0, 0.5
        xis = np.array([0.0, 1.0, 0.9 * limit / a_max, 1.1 * limit / a_max, 1e12])
        above = np.array([False, False, False, True, True])
        core = eps * (xis * (6.0 * a_max + 2.0 * inner) + 16.0)
        assert np.array_equal(_phase_rounding(xis, a_max, inner), core + 0.5 * eps * xis * a_max * above)
        assert _phase_rounding(xis[2], a_max, inner) == core[2]
        # the product form: u 2 pi S |eta| / (1 - rho), its angles summed over the levels
        reach = 2.0 * math.pi * fourier_module._translation_reach(cantor)
        rho = float(cantor.ratios.max())
        norms = xis * a_max / reach
        core = eps * (0.5 * reach * norms * 8.0 / (1.0 - rho) ** 2 + 13.0 * (cantor.n_maps + 9.0))
        expected = core + 0.5 * eps * reach * norms / (1.0 - rho) * above
        assert np.allclose(_recursion_rounding(cantor, norms, 12), expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 5), (64, 513)])
    def test_any_block_shape(self, shape):
        # the turns are taken in halves of the scratch: odd sizes included
        rng = np.random.default_rng(192)
        theta = rng.uniform(-1e7, 1e7, shape)
        out = _unit_phases_of(theta)
        flat = _unit_phases_of(theta.reshape(-1))
        assert np.array_equal(out.reshape(-1), flat)
        assert np.all(np.abs(out - np.exp(-1j * theta)) <= 6 * fourier_module.EPS)

    def test_scratch_in_the_workspace(self):
        # the caller's theta and workspace carry the scratch: no array of
        # the block's size is allocated
        theta = np.random.default_rng(193).uniform(-1e7, 1e7, (64, 512))
        work, out = {}, np.empty(theta.shape, dtype=complex)
        _unit_phases(theta.copy(), out, work)
        again = theta.copy()
        tracemalloc.start()
        try:
            _unit_phases(again, out, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < theta.nbytes / 16


def log_uniform12_hat(xis):
    """The transform of uniform[1, 2] under x -> log x: (2 e^{-2 pi i xi log 2} - 1) / (1 - 2 pi i xi)."""
    return (2.0 * np.exp(-2j * np.pi * xis * math.log(2.0)) - 1.0) / (1.0 - 2j * np.pi * xis)


class TestGridPhases:
    """Uniform grids sum by matrix products of factorised phases; other frequency sets are one-row blocks."""

    @pytest.fixture
    def terms(self, monkeypatch):
        """The ``row_interpolation`` terms, in job order, concatenated: terms() of the grid jobs.

        terms(scattered=True) are those of the jobs in blocks of one row.
        """
        seen = []
        original = grid_rows._row_interpolation

        def record(plan, *args):
            seen.append((plan.size == 1, np.atleast_1d(original(plan, *args))))
            return seen[-1][1]

        monkeypatch.setattr(grid_rows, "_row_interpolation", record)
        return lambda scattered=False: np.concatenate([t for one, t in seen if one == scattered] or [[]])

    @pytest.fixture
    def table_tols(self, monkeypatch):
        """The target of every ``_MuHatTable`` built, in order."""
        tols, build = [], fourier_module._MuHatTable

        def record(ifs, eta_max, table_tol, second=False):
            tols.append(table_tol)
            return build(ifs, eta_max, table_tol, second)

        monkeypatch.setattr(fourier_module, "_MuHatTable", record)
        return tols

    @staticmethod
    def grid_and_shuffled(ifs, pmap, xis, scheme, scale, threads=1, tol=1e-4):
        perm = np.random.default_rng(30).permutation(len(xis))
        grid = pushforward_batch(ifs, pmap, xis, tol=tol, scheme=scheme, scale=scale,
                                 threads=threads)
        shuffled = pushforward_batch(ifs, pmap, xis[perm], tol=tol, scheme=scheme,
                                     scale=scale, threads=threads)
        inverse = np.argsort(perm)
        return grid, tuple(a[inverse] for a in shuffled)

    @staticmethod
    def allowance(ifs, pmap, xis, scheme, scale):
        dec = stopping_decomposition(ifs, scale)
        a_forms, b_forms = _linear_forms(
            ifs, pmap, dec.ratios, dec.orientations, dec.anchors, scheme == "order1"
        )
        inner = 0.0
        if b_forms is not None:
            inner = 2.0 * math.pi * ifs.support_radius * float(np.abs(b_forms).max())
        return _phase_rounding(np.abs(xis), float(np.abs(a_forms).max()), inner)

    @pytest.mark.parametrize("scheme", ["order0", "order1"])
    def test_grid_matches_direct_path(self, uniform12, terms, table_tols, scheme):
        # 1000 rows in blocks of 64: the last block is partial.  The
        # shuffled rows read the grid's table: its target is below 1e-8, so
        # tol 8 x target gives it, and for a table system at a fixed scale
        # tol sets nothing else.  The grid's bound is the shuffled rows'
        # bound plus its row_interpolation term, bit for bit.
        pmap = log_map(uniform12)
        xis = np.arange(1000) * 0.18
        scale = 2.0**-9
        gv, ge, gl = pushforward_batch(uniform12, pmap, xis, tol=1e-4, scheme=scheme, scale=scale)
        tol = 8.0 * table_tols[0] if table_tols else 1e-4
        perm = np.random.default_rng(30).permutation(len(xis))
        shuffled = pushforward_batch(uniform12, pmap, xis[perm], tol=tol, scheme=scheme, scale=scale)
        sv, se, sl = (a[np.argsort(perm)] for a in shuffled)
        assert table_tols == ([table_tols[0]] * 2 if scheme == "order1" else [])
        # the shuffled rows are one-row blocks, adding 0
        assert np.array_equal(gl, sl) and np.all(gl[1:] == 512)
        term = terms()
        assert len(term) == len(xis) - 1 and np.all(term > 0.0)
        assert np.array_equal(terms(scattered=True), np.zeros(len(xis) - 1))
        assert ge[0] == se[0] == 0.0 and np.array_equal(ge[1:], se[1:] + term)
        assert np.all(np.abs(gv - sv) <= ge + se)
        if scheme == "order0":
            # no interpolation: phases and sums alone part the two paths
            assert np.all(np.abs(gv - sv) <= self.allowance(uniform12, pmap, xis, scheme, scale)
                          + np.r_[0.0, term] + _roundoff(512))
        assert not np.array_equal(gv, sv)

    def test_job_boundary_inside_a_block(self, uniform12, terms):
        # 2,048 leaves: jobs of 1,953 rows in blocks of 16, so a job ends
        # one row into a block and the next job starts a new base block
        pmap = log_map(uniform12)
        xis = np.arange(2500) * 0.25
        (gv, ge, gl), (sv, se, sl) = self.grid_and_shuffled(
            uniform12, pmap, xis, "order0", 2.0**-11
        )
        assert np.all(gl[1:] == 2048)
        assert np.array_equal(ge[1:], se[1:] + terms())
        assert np.all(np.abs(gv - sv) <= self.allowance(uniform12, pmap, xis, "order0", 2.0**-11)
                      + ge - se + _roundoff(2048))

    def test_covers_past_one_block_match_shuffled_rows(self, cantor, terms):
        # 65,536 leaves stream in 16 blocks of 4,096: on the grid each block
        # sums by matrix products, and the block sums combine by TwoSum in
        # the same order for both row orders
        pmap = square_map(cantor)
        xis = np.arange(6) * 0.7
        (gv, ge, gl), (sv, se, sl) = self.grid_and_shuffled(cantor, pmap, xis, "order0", 3.0**-16)
        assert gl[1] == 2**16
        assert np.array_equal(ge[1:], se[1:] + terms())
        assert np.all(np.abs(gv - sv) <= self.allowance(cantor, pmap, xis, "order0", 3.0**-16)
                      + ge - se + _roundoff(2**16))

    @pytest.mark.parametrize("scheme", ["order0", "order1", "order2"])
    def test_grid_and_shuffled_rows_within_their_bounds(self, uniform12, scheme):
        # the factorised grid rows and the elementwise shuffled rows: both
        # certified, so they differ by at most the sum of their bounds, and
        # both are within their bounds of the exact transform
        pmap = log_map(uniform12)
        xis = np.arange(3000) * 0.37
        (gv, ge, _), (sv, se, _) = self.grid_and_shuffled(uniform12, pmap, xis, scheme, 2.0**-9)
        assert np.all(np.abs(gv - sv) <= ge + se)
        exact = log_uniform12_hat(xis)
        assert np.all(np.abs(gv - exact) <= ge) and np.all(np.abs(sv - exact) <= se)

    def test_non_homogeneous_grid_within_the_shuffled_bounds(self, mixed_ratios):
        # exact inner columns (a nested order-0 call) read at the nodes of
        # each block, with the nested tol divided by the Lebesgue bound
        pmap = square_map(mixed_ratios)
        xis = np.arange(400) * 0.9
        (gv, ge, gl), (sv, se, sl) = self.grid_and_shuffled(mixed_ratios, pmap, xis, "order1", 2.0**-6,
                                                            tol=1e-3)
        assert np.array_equal(gl, sl)
        assert np.all(np.abs(gv - sv) <= ge + se)
        assert not np.array_equal(gv, sv)

    @pytest.mark.parametrize("scheme", ["order1", "order2"])
    def test_two_nodes_within_the_bound_and_not_without_the_term(self, uniform12, monkeypatch, scheme):
        # Two nodes per block of 64 rows interpolate the inner columns
        # linearly: the error is then far above every other term, and the
        # row_interpolation term still covers it.  Without the term, some
        # row exceeds its bound.
        pmap = log_map(uniform12)
        xis = np.arange(2000) * 0.5
        exact = log_uniform12_hat(xis)
        monkeypatch.setattr(grid_rows, "_interpolation_order", lambda spread: 2)
        values, bounds, _ = pushforward_batch(uniform12, pmap, xis, tol=1e-4, scheme=scheme,
                                              scale=2.0**-9)
        assert np.all(np.abs(values - exact) <= bounds)
        monkeypatch.setattr(grid_rows, "_row_interpolation", lambda *args: 0.0)
        values, bounds, _ = pushforward_batch(uniform12, pmap, xis, tol=1e-4, scheme=scheme,
                                              scale=2.0**-9)
        assert np.any(np.abs(values - exact) > bounds)

    @pytest.mark.parametrize("blocks", [1, 10])
    def test_grid_path_only_past_one_block(self, cantor, monkeypatch, blocks):
        # Cantor to |eta| = 50 at tol 1e-6: depth 18, so n = 37 coefficients
        # and blocks of 885 rows.  One block of grid rows takes its unit
        # phases directly (a base block would cost as much), with the bits
        # of shuffled rows; ten take the base block once and one column of
        # offsets per block.
        tol = 1e-6
        depth = _mu_hat_homog_many(cantor, np.array([[50.0]]), tol)[2]
        n = depth * cantor.n_maps + 1
        size = fourier_module.PHASE_BLOCK // n
        m = blocks * size
        etas = (np.arange(m) * (50.0 / (m - 1)))[:, None]
        sizes = _count_sines(monkeypatch)
        assert _mu_hat_homog_many(cantor, etas, tol)[2] == depth
        monkeypatch.undo()
        (gv, gb, _), (sv, sb, _) = TestProductFormPhases.grid_and_shuffled(cantor, etas, tol)
        assert np.array_equal(gb, sb)
        # against the direct path: the same bits, or both within their rounding
        if blocks == 1:
            assert sum(sizes) == m * n
            assert np.array_equal(gv, sv)
        else:
            assert sum(sizes) == n * (size + blocks)
            rows = np.unique(np.r_[np.arange(size - 2, m, size), np.arange(m - 20, m)])
            for v in (gv, sv):
                TestProductFormPhases.assert_rounding_within_allowance(cantor, etas[rows], v[rows], depth)
            assert not np.array_equal(gv, sv)

    def test_base_block_in_pieces_of_phase_block_terms(self, cantor, monkeypatch):
        # An order-1 sweep under x^2 has few leaves and long blocks.  Each
        # base block is built in pieces of PHASE_BLOCK // n rows (n leaves),
        # not of as many rows as a chunk of blocks, which paid one
        # _row_phases call per handful of rows.
        pieces, original = [], grid_rows._row_phases

        def record(freqs, coefs, out, work):
            if "base" in work and np.shares_memory(out, work["base"]):
                pieces.append((float(freqs[0, 0]), len(freqs), len(coefs)))
            return original(freqs, coefs, out, work)

        monkeypatch.setattr(grid_rows, "_row_phases", record)
        xis = np.linspace(0.0, 100.0, 100_001)
        pushforward_batch(cantor, square_map(cantor), xis, tol=1e-3, scheme="order1")
        # a base block starts at row 0; every piece but its last has PHASE_BLOCK // n rows
        starts = [i for i, (first, _, _) in enumerate(pieces) if first == 0.0] + [len(pieces)]
        assert len(starts) > 1
        for a, b in zip(starts, starts[1:]):
            full = max(1, fourier_module.PHASE_BLOCK // pieces[a][2])
            assert [rows for _, rows, _ in pieces[a : b - 1]] == [full] * (b - 1 - a)
            assert 1 <= pieces[b - 1][1] <= full
        assert len(pieces) < 60

    def test_order1_batch_touches_few_new_pages(self):
        # Each job of the row kernel allocates its block arrays once (phases,
        # inner frequencies, the table lookup's index, fraction, gathers and
        # columns) and reuses them for every block.  With fresh arrays per
        # block, how many pages a block touches anew hangs on glibc's heap
        # history: once a freed block-sized array has moved its dynamic mmap
        # and trim thresholds, every block's temporaries come from fresh
        # pages.  This call then took about 66,000 minor faults, and 0.30 s
        # against 0.19 s with the buffers.  A fresh process, so that no
        # other test's allocations count.
        pytest.importorskip("resource")
        code = """
import resource
import numpy as np
from fractal_fourier.fourier import log_map, pushforward_batch
from fractal_fourier.ifs import uniform_ifs
system = uniform_ifs(1.0, 2.0)
pmap = log_map(system)
pushforward_batch(system, pmap, np.arange(100) * 0.1, scheme="order1", scale=1 / 512)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
pushforward_batch(system, pmap, np.arange(20001) * 0.1, scheme="order1", scale=1 / 512)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 8_000

    @pytest.mark.parametrize("scheme", ["order0", "order1", "order2"])
    def test_grid_away_from_zero_takes_matrix_products(self, uniform12, terms, scheme):
        # rows (500 + i) 0.18 are a grid from j0 = 500: they sum by matrix
        # products, so every row carries a row_interpolation term, and they
        # agree with the same rows of the grid from 0 and with the exact
        # transform within their bounds
        pmap = log_map(uniform12)
        xis = np.arange(500, 1500) * 0.18
        assert _grid_step(xis[:, None])[0] == 500
        values, bounds, _ = pushforward_batch(uniform12, pmap, xis, tol=1e-4, scheme=scheme, scale=2.0**-9)
        term = terms()
        assert len(term) == len(xis) and np.all(term > 0.0) and len(terms(scattered=True)) == 0
        whole = pushforward_batch(uniform12, pmap, np.arange(1500) * 0.18, tol=1e-4, scheme=scheme,
                                  scale=2.0**-9)
        assert np.all(np.abs(values - whole[0][500:]) <= bounds + whole[1][500:])
        assert np.all(np.abs(values - log_uniform12_hat(xis)) <= bounds)

    def test_inversion_refuses_a_grid_away_from_zero(self):
        # the inversion's formula takes phi_0 as the zero frequency
        xis = np.arange(500, 1500) * 0.18
        with pytest.raises(BadConfig, match="from j = 0"):
            _invert_on_points(np.linspace(0.0, 1.0, 8), xis, np.ones(len(xis), dtype=complex), 0.18)

    SCATTERED = {
        "cantor-order0": ("cantor", square_map, "order0", 300.0, 1e-3),
        "cantor-order1": ("cantor", square_map, "order1", 300.0, 1e-3),
        "cantor-order2": ("cantor", square_map, "order2", 300.0, 1e-3),
        "mixed_ratios-order1": ("mixed_ratios", square_map, "order1", 300.0, 1e-3),
        "mixed_ratios-recursion": ("mixed_ratios", identity_map, "exact_recursion", 300.0, 1e-3),
        "square_2d-order1": ("square_2d", sum_of_squares_map, "order1", 15.0, 1e-2),
        "square_2d-holomorphic": ("square_2d", lambda ifs: _cube_holomorphic(ifs), "order1", 2.0, 1e-2),
    }

    @pytest.mark.parametrize("case", sorted(SCATTERED))
    def test_scattered_rows_are_one_row_blocks_adding_nothing(self, request, terms, case):
        # a row set that is not a grid runs in blocks of one row (L = K = 1):
        # every such job's row_interpolation term is exactly 0 (Lambda = 1
        # and omega = 0 at weight exactly 1).  Nested inner calls may hold
        # grids of their own, such as two rows a and 2a.
        name, build, scheme, top, tol = self.SCATTERED[case]
        ifs = request.getfixturevalue(name)
        pmap = build(ifs)
        d = ifs.ambient_dim if scheme == "exact_recursion" else pmap.out_dim
        xis = np.random.default_rng(34).uniform(-top, top, size=(40, d))
        assert _grid_step(xis) is None
        pushforward_batch(ifs, pmap, xis, tol=tol, scheme=scheme)
        term = terms(scattered=True)
        assert len(term) >= len(xis) and np.all(term == 0.0)

    @pytest.mark.parametrize("scheme", ["order1", "order2"])
    @pytest.mark.parametrize("rows", ["grid", "scattered"])
    def test_false_hessian_bound_refuted(self, uniform12, scheme, rows):
        # log on [1, 2] has sup |f''| = 1.  Declared as 0.5, its
        # J = 1/1.5 + 0.5 R = 0.917 is below |f'(1)| = 1, and the leaves near
        # x = 1 have |B_w| > s J.  The anchors can refute a declared bound
        # but never prove it.  Unrefuted, the rows read the table past its
        # range.
        pmap = replace(log_map(uniform12), hessian_bound=0.5)
        xis = np.arange(2000) * 0.37 if rows == "grid" else np.array([3.0, 40.0, 700.0])
        with pytest.raises(BadConfig, match=r"map 'log': an anchor refutes its declared L = 1.0 and H = 0.5"):
            pushforward_batch(uniform12, pmap, xis, tol=1e-4, scheme=scheme, scale=2.0**-8)

    @pytest.mark.parametrize("rows", ["grid", "scattered"])
    def test_false_hessian_bound_refuted_without_a_table(self, mixed_ratios, rows):
        # exact inner columns read no table: unrefuted, the false J would
        # under-charge the inner reach 2 pi R s J without any error
        pmap = replace(square_map(mixed_ratios), hessian_bound=0.5)
        xis = np.arange(50) * 0.9 if rows == "grid" else np.array([3.0, 40.0])
        with pytest.raises(BadConfig, match=r"map 'square': an anchor refutes its declared L = .+ and H = 0.5"):
            pushforward_batch(mixed_ratios, pmap, xis, tol=1e-3, scheme="order1", scale=2.0**-6)

    def test_threads_do_not_change_grid_results(self, uniform12):
        pmap = log_map(uniform12)
        xis = np.arange(3000) * 0.2
        for scheme in ("order0", "order1", "order2"):
            one = pushforward_batch(uniform12, pmap, xis, tol=1e-4, scheme=scheme,
                                    scale=2.0**-11, threads=1)
            four = pushforward_batch(uniform12, pmap, xis, tol=1e-4, scheme=scheme,
                                     scale=2.0**-11, threads=4)
            for a, b in zip(one, four):
                assert np.array_equal(a, b)


class TestCurvature:
    def test_square_constant_hessian(self, cantor):
        min_det, vanishing = curvature_diagnostic(cantor, square_map(cantor))
        assert min_det == pytest.approx(2.0, abs=1e-12)
        assert not vanishing

    def test_saddle_in_plane(self, square_2d):
        saddle = PushforwardMap(
            evaluator=lambda p: p[:, 0] ** 2 - p[:, 1] ** 2,
            out_dim=1,
            gradient=lambda p: np.column_stack([2 * p[:, 0], -2 * p[:, 1]]),
            hessian=lambda p: np.broadcast_to(
                np.diag([2.0, -2.0]), (len(p), 2, 2)
            ).copy(),
            lipschitz_bound=4.0,
            hessian_bound=2.0,
        )
        min_det, vanishing = curvature_diagnostic(square_2d, saddle)
        assert min_det == pytest.approx(4.0, abs=1e-12)
        assert not vanishing

    def test_cube_vanishes_at_origin(self):
        # Support contains 0 (left fixed point), where f'' = 6x vanishes.
        ifs = ifs_1d([1 / 3, 1 / 3], [0.0, 2 / 3])
        min_det, vanishing = curvature_diagnostic(ifs, cube_map(ifs), n_samples=20000)
        assert vanishing

    def test_finite_difference_fallback(self, cantor):
        raw = PushforwardMap(
            evaluator=lambda p: p[:, 0] ** 2,
            lipschitz_bound=2.0,
            hessian_bound=2.0,
        )
        min_det, vanishing = curvature_diagnostic(cantor, raw, n_samples=512)
        assert min_det == pytest.approx(2.0, rel=1e-5)
        assert not vanishing


class TestQuadraticHessians:
    def test_plane_rotation_example(self, square_2d):
        # f(x, y) = (y^2 - x^2, 2xy): directional Hessian determinant -4.
        qm = _complex_square_quadratic(square_2d)
        rng = np.random.default_rng(9)
        for _ in range(50):
            v = rng.normal(size=2)
            v /= np.linalg.norm(v)
            _, det = quadratic_directional_hessian(qm, v)
            assert det == pytest.approx(-4.0, abs=1e-12)

    def test_componentwise_squares(self, square_2d):
        qm = _componentwise_squares(square_2d, 2)
        v = np.array([0.6, 0.8])
        _, det = quadratic_directional_hessian(qm, v)
        assert det == pytest.approx(4.0 * 0.6 * 0.8, abs=1e-12)

    def test_degenerate_direction(self, square_2d):
        qm = _componentwise_squares(square_2d, 2)
        _, det = quadratic_directional_hessian(qm, np.array([1.0, 0.0]))
        assert det == 0.0

    def test_unit_vector_required(self, square_2d):
        qm = _componentwise_squares(square_2d, 2)
        with pytest.raises(BadConfig):
            quadratic_directional_hessian(qm, np.array([1.0, 1.0]))


def _complex_square_quadratic(ifs):
    from fractal_fourier.fourier import quadratic_map

    # components: f1 = y^2 - x^2, f2 = 2xy
    return quadratic_map(ifs, [{(0, 0): -1.0, (1, 1): 1.0}, {(0, 1): 2.0}])


def _componentwise_squares(ifs, k):
    from fractal_fourier.fourier import quadratic_map

    return quadratic_map(ifs, [{(i, i): 1.0} for i in range(k)])


# Closed-form references: the derivations the quadratic builders and the
# maps on the line had of their own before they became quadratic_map and
# _line_map calls.  Each builder must reproduce its reference bit for bit.


def square_map_reference(ifs):
    """f(x) = x^2 on the line; |f'| <= 2 sup|x|, f'' = 2, f''' = 0."""
    sup = ifs.max_point_norm
    return PushforwardMap(
        evaluator=lambda pts: pts[:, 0] ** 2,
        gradient=lambda pts: 2.0 * pts,
        hessian=lambda pts: np.full((len(pts), 1, 1), 2.0),
        lipschitz_bound=2.0 * sup,
        hessian_bound=2.0,
        third_bound=0.0,
        label="square",
    )


def sum_of_squares_map_reference(ifs):
    """f(x) = x_1^2 + ... + x_k^2; Hessian 2I everywhere."""
    k = ifs.ambient_dim
    sup = ifs.max_point_norm
    return PushforwardMap(
        evaluator=lambda pts: np.sum(pts**2, axis=1),
        gradient=lambda pts: 2.0 * pts,
        hessian=lambda pts: np.broadcast_to(2.0 * np.eye(k), (len(pts), k, k)).copy(),
        lipschitz_bound=2.0 * sup,
        hessian_bound=2.0,
        third_bound=0.0,
        label="sum_of_squares",
    )


def constant_map_reference(ifs, c):
    """f(x) = c; every derivative and bound 0."""
    return PushforwardMap(
        evaluator=lambda pts: np.full(len(pts), float(c)),
        gradient=lambda pts: np.zeros_like(pts),
        hessian=lambda pts: np.zeros((len(pts),) + (ifs.ambient_dim,) * 2),
        lipschitz_bound=0.0,
        hessian_bound=0.0,
        third_bound=0.0,
        label=f"constant({c})",
    )


def cube_map_reference(ifs):
    """f(x) = x^3 on the line; |f'| <= 3 sup|x|^2, |f''| <= 6 sup|x|, f''' = 6."""
    sup = ifs.max_point_norm
    return PushforwardMap(
        evaluator=lambda pts: pts[:, 0] ** 3,
        gradient=lambda pts: 3.0 * pts**2,
        hessian=lambda pts: 6.0 * pts[:, :, None],
        lipschitz_bound=3.0 * sup**2,
        hessian_bound=6.0 * sup,
        third_bound=6.0,
        label="cube",
    )


def log_map_reference(ifs, shift=0.0):
    """f(x) = log(x - shift), lo the ball's left end minus the shift: L, H, H3 = 1/lo, 1/lo^2, 2/lo^3."""
    lo = float(ifs.barycenter[0]) - ifs.support_radius - shift
    return PushforwardMap(
        evaluator=lambda pts: np.log(pts[:, 0] - shift),
        gradient=lambda pts: 1.0 / (pts - shift),
        hessian=lambda pts: (-1.0 / (pts[:, :, None] - shift) ** 2),
        lipschitz_bound=1.0 / lo,
        hessian_bound=1.0 / lo**2,
        third_bound=2.0 / lo**3,
        label=f"log(x+{-shift})" if shift < 0 else f"log(x-{shift})" if shift else "log",
    )


def neg_log_map_reference(ifs, shift=0.0):
    """f(y) = -log(y - shift), with the bounds 1/lo, 1/lo^2 and 2/lo^3 of log."""
    lo = float(ifs.barycenter[0]) - ifs.support_radius - shift
    return PushforwardMap(
        evaluator=lambda pts: -np.log(pts[:, 0] - shift),
        gradient=lambda pts: -1.0 / (pts - shift),
        hessian=lambda pts: (1.0 / (pts[:, :, None] - shift) ** 2),
        lipschitz_bound=1.0 / lo,
        hessian_bound=1.0 / lo**2,
        third_bound=2.0 / lo**3,
        label=f"-log(y+{-shift})" if shift < 0 else f"-log(y-{shift})" if shift else "-log",
    )


def _system_in(k, seed):
    """Three random similarities of R^k (orientation-reversing ones included)."""
    rng = np.random.default_rng(seed)
    return SelfSimilarIFS(tuple(random_similarity(rng, k) for _ in range(3)), (0.5, 0.3, 0.2))


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestMapBuildersMatchTheirReferences:
    """Evaluator, gradient, Hessian, L, H and H3 equal the closed forms bit for bit."""

    @staticmethod
    def assert_same_map(built, reference, ifs):
        pts = np.concatenate([np.array([m.fixed_point() for m in ifs.maps]),
                              chaos_game(ifs, 2000, seed=5)])
        for part in ("evaluator", "gradient", "hessian"):
            assert _same_bits(getattr(built, part)(pts), getattr(reference, part)(pts)), part
        for bound in ("lipschitz_bound", "hessian_bound", "third_bound"):
            assert _same_bits(float(getattr(built, bound)), float(getattr(reference, bound))), bound
        assert (built.label, built.out_dim) == (reference.label, reference.out_dim)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_square(self, seed):
        ifs = _system_in(1, seed)
        self.assert_same_map(square_map(ifs), square_map_reference(ifs), ifs)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_sum_of_squares(self, k):
        ifs = _system_in(k, 10 + k)
        self.assert_same_map(sum_of_squares_map(ifs), sum_of_squares_map_reference(ifs), ifs)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("c", [0.0, 2.5, -1e-300, 7])
    def test_constant(self, k, c):
        ifs = _system_in(k, 20 + k)
        self.assert_same_map(constant_map(ifs, c), constant_map_reference(ifs, c), ifs)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cube(self, seed):
        ifs = _system_in(1, seed)
        self.assert_same_map(cube_map(ifs), cube_map_reference(ifs), ifs)

    @pytest.mark.parametrize("shift", [0.0, 0.5, -3.25])
    def test_log(self, uniform12, shift):
        self.assert_same_map(log_map(uniform12, shift), log_map_reference(uniform12, shift), uniform12)

    @pytest.mark.parametrize("shift", [0.0, 0.5, -3.25])
    def test_neg_log(self, uniform12, shift):
        self.assert_same_map(neg_log_map(uniform12, shift), neg_log_map_reference(uniform12, shift),
                             uniform12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_logs_left_of_random_systems(self, seed):
        # reversing maps, and a shift 0.25 left of the support ball
        ifs = _system_in(1, seed)
        shift = float(ifs.barycenter[0]) - ifs.support_radius - 0.25
        self.assert_same_map(log_map(ifs, shift), log_map_reference(ifs, shift), ifs)
        self.assert_same_map(neg_log_map(ifs, shift), neg_log_map_reference(ifs, shift), ifs)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("build", [cube_map, log_map, neg_log_map, lambda ifs: log_map(ifs, math.nan)],
                             ids=["cube", "log", "neg_log", "log_nan_shift"])
    def test_maps_on_the_line_refuse_k_other_than_1(self, k, build):
        # They read x_0, but their derivatives once acted on every
        # coordinate.  The dimension is checked before the shift and the
        # support.
        with pytest.raises(Unsupported, match=rf"is a map on the line \(k = 1\), got k = {k}$"):
            build(_system_in(k, 30 + k))

    def test_quadratics_keep_their_hessians(self, square_2d):
        # the quadratic builders carry quad_hessians, so the directional identity applies
        _, det = quadratic_directional_hessian(sum_of_squares_map(square_2d), [1.0])
        assert det == 4.0


class TestNonFiniteMaps:
    """A map that is NaN somewhere on the support raises BadConfig, never a certified NaN.

    The map is the identity on uniform[1, 2] except NaN above 1.9.  H = 1
    (a true, loose bound) gives orders 1 and 2 covers of many leaves, some
    anchored above 1.9; with H = 0 their one leaf sits at 1.5.
    """

    @staticmethod
    def nan_above(threshold, hessian_bound):
        return PushforwardMap(
            evaluator=lambda p: np.where(p[:, 0] > threshold, np.nan, p[:, 0]),
            gradient=lambda p: np.ones_like(p),
            hessian=lambda p: np.zeros((len(p), 1, 1)),
            lipschitz_bound=1.0,
            hessian_bound=hessian_bound,
            third_bound=0.0,
            label="nan_above",
        )

    def test_order0_with_flat_bounds(self, uniform12):
        with pytest.raises(BadConfig, match="'nan_above' gives a non-finite row sum"):
            pushforward_hat(uniform12, self.nan_above(1.9, 0.0), 10.0, tol=1e-3, scheme="order0")

    @pytest.mark.parametrize("scheme", ["order0", "order1", "order2"])
    def test_single_calls(self, uniform12, scheme):
        with pytest.raises(BadConfig, match="'nan_above' gives a non-finite row sum"):
            pushforward_hat(uniform12, self.nan_above(1.9, 1.0), 10.0, tol=1e-3, scheme=scheme)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("scheme", ["order0", "order1", "order2"])
    def test_batches(self, uniform12, scheme, threads):
        with pytest.raises(BadConfig, match="'nan_above' gives a non-finite row sum"):
            pushforward_batch(uniform12, self.nan_above(1.9, 1.0), [0.0, 10.0, 100.0], tol=1e-3,
                              scheme=scheme, threads=threads)

    def test_finite_map_is_unchanged(self, uniform12):
        # the same map without its NaN region gives finite, certified rows
        values, errors, _ = pushforward_batch(uniform12, self.nan_above(3.0, 1.0), [0.0, 10.0, 100.0],
                                              tol=1e-3, scheme="order1")
        assert np.isfinite(values).all() and (errors <= 1e-3).all()


class TestHolomorphic:
    def test_square(self, square_2d):
        hm = holomorphic_map(
            square_2d,
            f=lambda z: z * z,
            df=lambda z: 2 * z,
            d2f=lambda z: 2.0 + 0j,
            lipschitz_bound=4.0,
            hessian_bound=2.0,
        )
        det, mags = holomorphic_hessian_identity(hm, 0.3 + 0.4j, (1.0, 0.0))
        assert det == pytest.approx(-4.0, abs=1e-12)
        assert mags == pytest.approx((2.0, 2.0), abs=1e-12)

    def test_cube_at_origin_and_one(self, square_2d):
        hm = _cube_holomorphic(square_2d)
        det0, _ = holomorphic_hessian_identity(hm, 0.0 + 0.0j)
        assert det0 == 0.0
        det1, mags1 = holomorphic_hessian_identity(hm, 1.0 + 0.0j)
        assert det1 == pytest.approx(-36.0, abs=1e-10)
        assert mags1[0] == pytest.approx(6.0, abs=1e-12)

    def test_direction_independent(self, square_2d):
        hm = _cube_holomorphic(square_2d)
        rng = np.random.default_rng(10)
        z = 0.7 - 0.2j
        base, _ = holomorphic_hessian_identity(hm, z)
        for _ in range(10):
            v = rng.normal(size=2)
            v /= np.linalg.norm(v)
            det, _ = holomorphic_hessian_identity(hm, z, v)
            assert det == pytest.approx(base, abs=1e-10)

    def test_matches_finite_difference_hessian(self, square_2d):
        hm = _cube_holomorphic(square_2d)
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = complex(rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0))
            v = rng.normal(size=2)
            v /= np.linalg.norm(v)
            det, _ = holomorphic_hessian_identity(hm, z, v)
            fd = _fd_directional_hessian_det(hm, z, v)
            assert fd == pytest.approx(det, rel=1e-6)


def _cube_holomorphic(ifs):
    return holomorphic_map(
        ifs,
        f=lambda z: z**3,
        df=lambda z: 3 * z * z,
        d2f=lambda z: 6 * z,
        lipschitz_bound=12.0,
        hessian_bound=12.0,
    )


def _fd_directional_hessian_det(hm, z, v, h=1e-5):
    """Finite-difference Hessian of v1 U + v2 V at z, then its determinant."""

    def fv(x, y):
        vals = hm.evaluator(np.array([[x, y]]))[0]
        return v[0] * vals[0] + v[1] * vals[1]

    x, y = z.real, z.imag
    hxx = (fv(x + h, y) - 2 * fv(x, y) + fv(x - h, y)) / h**2
    hyy = (fv(x, y + h) - 2 * fv(x, y) + fv(x, y - h)) / h**2
    hxy = (
        fv(x + h, y + h) - fv(x + h, y - h) - fv(x - h, y + h) + fv(x - h, y - h)
    ) / (4 * h**2)
    return hxx * hyy - hxy**2


class TestBoundEstimation:
    def test_estimate_marks_uncertified(self, cantor):
        raw = PushforwardMap(evaluator=lambda p: p[:, 0] ** 2)
        filled = estimate_bounds(cantor, raw, seed=1)
        assert not filled.bounds_certified
        # true sup|f'| = 2 on [0,1]; the estimate takes 1.5x headroom
        assert 2.0 <= filled.lipschitz_bound <= 3.5
        assert 2.0 * 0.9 <= filled.hessian_bound <= 4.0

    def test_builders_match_finite_differences(self, uniform12):
        rng = np.random.default_rng(12)
        from fractal_fourier.ifs import chaos_game

        pts = chaos_game(uniform12, 100, seed=3)
        for pmap in (square_map(uniform12), log_map(uniform12)):
            g = pmap.gradient(pts)[:, 0]
            h = 1e-6
            fd = (pmap.evaluator(pts + h) - pmap.evaluator(pts - h)) / (2 * h)
            assert np.max(np.abs(fd - g) / np.maximum(np.abs(g), 1e-9)) <= 1e-5
            hess = pmap.hessian(pts)[:, 0, 0]
            h2 = 1e-4  # second differences need a larger step (cancellation)
            fd2 = (
                pmap.evaluator(pts + h2) - 2 * pmap.evaluator(pts) + pmap.evaluator(pts - h2)
            ) / h2**2
            assert np.max(np.abs(fd2 - hess) / np.maximum(np.abs(hess), 1e-9)) <= 1e-5


class TestNumerics:
    def test_row_sums(self):
        # the kernel's leaf sum: np.add.reduce of a complex block along its rows
        values = np.full(10**6, 1e-8, dtype=complex)
        values[0] = 1.0
        total = np.add.reduce(values[None, :], axis=1)[0]
        assert total.real == pytest.approx(1.0 + (10**6 - 1) * 1e-8, rel=1e-14)
        # Pairwise along each row: on 2048 positive terms a sequential sum
        # errs by ~1e-15 relative, pairwise by ~2e-16.
        terms = np.random.default_rng(16).uniform(0.0, 1.0, size=(64, 2048))
        sums = np.add.reduce(terms.astype(complex), axis=1).real
        exact = np.array([math.fsum(row) for row in terms])
        assert np.max(np.abs(sums - exact) / exact) <= 4e-16
        # the imaginary parts are summed the same way
        sums = np.add.reduce(1j * terms, axis=1).imag
        assert np.max(np.abs(sums - exact) / exact) <= 4e-16

    def test_csv_output(self, tmp_path, cantor):
        xis = np.array([0.0, 1.5])
        vals = np.array([1.0 + 0j, 0.25 - 0.125j])
        errs = np.array([0.0, 1e-7])
        path = tmp_path / "out.csv"
        write_samples_csv(path, xis, vals, errs, "order0", np.array([1, 4]))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "xi,re,im,abs,error_bound,scheme,leaves_used"
        assert len(lines) == 3
        assert "order0" in lines[1]

    @staticmethod
    def row_loop_csv(xis, values, errors, scheme, leaves):
        """The text of the row-by-row writer that the block writer replaced: the reference."""
        xis = np.asarray(xis)
        if xis.ndim == 1:
            xis = xis[:, None]
        d = xis.shape[1]
        header = [f"xi{i}" for i in range(d)] if d > 1 else ["xi"]
        header += ["re", "im", "abs", "error_bound", "scheme", "leaves_used"]
        lines = [",".join(header)]
        for row in range(len(values)):
            cells = [repr(float(x)) for x in xis[row]]
            v = values[row]
            cells += [
                repr(float(v.real)),
                repr(float(v.imag)),
                repr(float(abs(v))),
                repr(float(errors[row])),
                scheme,
                str(int(leaves[row])),
            ]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("d", [1, 2])
    def test_csv_blocks_match_the_row_loop(self, tmp_path, d):
        # more than two blocks, magnitudes from subnormal to 1e300, signed zeros
        rng = np.random.default_rng(41)
        n = 2 * fourier_module.CSV_BLOCK + 3
        xis = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-320, 300, (n, d))
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
        values = values + 1j * rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
        errors = rng.uniform(0.0, 1e-3, n) * 10.0 ** rng.integers(-320, 0, n)
        leaves = rng.integers(1, 2**40, n)
        specials = [-0.0, 0.0, 5e-324, -2.5e-310]
        xis[:4, 0], errors[:4] = specials, np.abs(specials)
        values[:4] = [complex(-0.0, 5e-324), complex(1e-310, -0.0), complex(-0.0, -0.0), 3 - 4j]
        if d == 1:
            xis = xis[:, 0]
        path = tmp_path / "out.csv"
        write_samples_csv(path, xis, values, errors, "order2", leaves)
        assert path.read_bytes() == self.row_loop_csv(xis, values, errors, "order2", leaves).encode()
        assert path.read_text().count("\n") == n + 1
