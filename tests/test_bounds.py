import math

import numpy as np
import pytest

from fractal_fourier.bounds import (
    CANTOR_BASELINE,
    compute_gamma,
    decay_bound,
    high_dim_condition,
    log_pushforward_sigma,
    two_measure_density_conditions,
    sigma_p,
    sigma_p_raw,
    symmetric_thresholds,
    three_set_condition,
    two_set_condition,
    two_set_margin,
    vdc_exponent,
)
from fractal_fourier.dimensions import DimensionProfile
from fractal_fourier.errors import (
    BadConfig,
    MissingExponent,
    NotApplicable,
    Unsupported,
)

LOG23 = math.log(2.0) / math.log(3.0)


def profile(k=1, kappa2=LOG23, kappa_star=LOG23, d_inf=LOG23, kappa1=None, **kw):
    return DimensionProfile(
        k=k,
        kappa2=kappa2,
        kappa_star=kappa_star,
        d_inf=d_inf,
        kappa1=kappa1,
        s_sim_set=kw.pop("s_sim_set", kappa_star),
        s_sim_meas=kw.pop("s_sim_meas", kappa2),
        ad_regular=kw.pop("ad_regular", False),
        **kw,
    )


CANTOR_SIGMA2 = (2 * LOG23 - 1) / (3 + 2 * LOG23)


class TestSigmaP:
    def test_cantor_l2(self):
        p = profile(ad_regular=True)
        value = sigma_p(p, 2.0)
        assert value == pytest.approx(CANTOR_SIGMA2, abs=1e-12)
        assert value == pytest.approx(0.061442, abs=1e-5)

    def test_zero_at_half_dimension(self):
        p = profile(kappa2=0.5, kappa_star=0.5, d_inf=0.5)
        assert sigma_p(p, 2.0) == 0.0

    def test_zero_when_denominator_also_flips(self):
        # Deep-subcritical high-dimension profile: numerator and denominator
        # of the l^1 branch are both negative; the clamp must still give 0.
        p = profile(
            k=3, kappa2=0.2, kappa_star=0.25, d_inf=0.15, kappa1=0.1
        )
        assert sigma_p(p, 1.0) == 0.0
        assert sigma_p(p, 2.0) == 0.0

    def test_l1_branch_full_dimension(self):
        p = profile(kappa2=1.0, kappa_star=1.0, d_inf=1.0, kappa1=1.0)
        assert sigma_p(p, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_missing_kappa1(self):
        with pytest.raises(MissingExponent):
            sigma_p(profile(), 1.0)

    def test_out_of_range_p(self):
        with pytest.raises(BadConfig):
            sigma_p(profile(), 2.5)

    def test_tabulated_intermediate_p(self):
        p = profile(
            kappa2=0.8,
            kappa_star=0.9,
            d_inf=0.7,
            kappa_p_table={1.5: 0.7},
            d_q_table={3.0: 0.75},
        )
        # q = 1.5/(0.5) = 3: uses tabulated d_3 and kappa_{1.5}.
        expected = (0.75 + 0.7 - 1) / (2 * 1.5 - 1 + 2 * 0.9 + 0.7 - 0.75)
        assert sigma_p(p, 1.5) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("p_value, q", [(1.2, 6.0), (4 / 3, 4.0), (1.25, 5.0)])
    def test_conjugate_found_despite_rounding(self, p_value, q):
        # p/(p-1) is 6.000000000000001 at p = 1.2 and 4.000000000000001 at
        # p = 4/3; the exact lookup missed the tabulated q and skipped the pair
        p = profile(kappa2=0.8, kappa_star=0.9, d_inf=0.7,
                    kappa_p_table={p_value: 0.7}, d_q_table={q: 0.75})
        expected = (0.75 + 0.7 - 1) / (2 * p_value - 1 + 2 * 0.9 + 0.7 - 0.75)
        assert sigma_p(p, p_value) == pytest.approx(expected, abs=1e-14)
        assert decay_bound(p).sigma_p_table[p_value] == sigma_p(p, p_value)

    def test_conjugate_tolerance_is_relative_1e_9(self):
        near = profile(kappa2=0.8, kappa_star=0.9, d_inf=0.7,
                       kappa_p_table={1.2: 0.7}, d_q_table={6.0 * (1 + 2e-9): 0.75})
        with pytest.raises(MissingExponent):
            sigma_p(near, 1.2)

    def test_monotone_in_kappa2(self):
        values = [
            sigma_p(profile(kappa2=k2, kappa_star=0.95, d_inf=0.5), 2.0)
            for k2 in np.linspace(0.55, 0.95, 30)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_branch_formulas_on_random_profiles(self):
        # p=2 must reproduce (2 kappa2 - k)/(4 + 2 kappa_star - k) exactly;
        # p=1 must reproduce (d_inf + kappa1 - k)/(2 - k + 2 kappa_star + kappa1 - d_inf).
        rng = np.random.default_rng(321)
        for _ in range(300):
            k = int(rng.integers(1, 4))
            vals = np.sort(rng.uniform(0.0, float(k), size=4))
            kappa1, d_inf, kappa2, kappa_star = (float(v) for v in vals)
            p = profile(
                k=k, kappa2=kappa2, kappa_star=kappa_star, d_inf=d_inf, kappa1=kappa1
            )
            branch2 = (2 * kappa2 - k) / (4 + 2 * kappa_star - k)
            assert sigma_p_raw(p, 2.0) == pytest.approx(branch2, abs=1e-15)
            branch1 = (d_inf + kappa1 - k) / (2 - k + 2 * kappa_star + kappa1 - d_inf)
            assert sigma_p_raw(p, 1.0) == pytest.approx(branch1, abs=1e-15)

    def test_antitone_in_kappa_star(self):
        values = [
            sigma_p(profile(kappa2=0.8, kappa_star=ks, d_inf=0.5), 2.0)
            for ks in np.linspace(0.8, 1.0, 30)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestGamma:
    def test_cantor_value(self):
        p = profile(ad_regular=True)
        gamma = compute_gamma(p, 2.0)
        assert gamma == pytest.approx(2.0 - 0.2618595071 / 2.2618595071, abs=1e-9)
        assert (2.0 - gamma) / gamma == pytest.approx(CANTOR_SIGMA2, abs=1e-12)

    def test_boundary_not_applicable(self):
        p = profile(kappa2=0.5, kappa_star=0.5, d_inf=0.5)
        with pytest.raises(NotApplicable):
            compute_gamma(p, 2.0)

    def test_full_dimension(self):
        p = profile(kappa2=1.0, kappa_star=1.0, d_inf=1.0)
        gamma = compute_gamma(p, 2.0)
        assert gamma == pytest.approx(5.0 / 3.0, abs=1e-14)
        assert sigma_p(p, 2.0) == pytest.approx(0.2, abs=1e-14)

    def test_identity_on_random_profiles(self):
        rng = np.random.default_rng(123)
        checked = 0
        while checked < 1000:
            k = int(rng.integers(1, 4))
            lo = k / 2.0 + 0.01
            if lo >= k:
                continue
            vals = np.sort(rng.uniform(lo, k, size=2))
            kappa2, kappa_star = float(vals[0]), float(vals[1])
            d_inf = float(rng.uniform(0.3 * kappa2, kappa2))
            p = profile(k=k, kappa2=kappa2, kappa_star=kappa_star, d_inf=d_inf)
            gamma = compute_gamma(p, 2.0)
            assert 1.0 < gamma < 2.0
            assert abs((2.0 - gamma) / gamma - sigma_p_raw(p, 2.0)) <= 1e-12
            checked += 1


class TestDecayBound:
    def test_cantor_report(self):
        p = profile(ad_regular=True)
        bound = decay_bound(p, curvature_ok=True, non_expanding=True)
        assert bound.sigma == pytest.approx(CANTOR_SIGMA2, abs=1e-12)
        assert bound.best_p == 2.0
        assert bound.applicable
        assert any(str(CANTOR_BASELINE) in note for note in bound.notes)

    def test_missing_digit_b5(self):
        s = math.log(4.0) / math.log(5.0)
        p = profile(kappa2=s, kappa_star=s, d_inf=s, ad_regular=True, s_sim_set=s)
        bound = decay_bound(p)
        expected = (2 * math.log(4) - math.log(5)) / (2 * math.log(4) + 3 * math.log(5))
        assert bound.sigma == pytest.approx(expected, abs=1e-12)
        assert bound.sigma == pytest.approx(0.153028, abs=1e-6)

    def test_small_measure_not_applicable(self):
        p = profile(kappa2=0.4, kappa_star=0.9, d_inf=0.3)
        bound = decay_bound(p, curvature_ok=True, non_expanding=True)
        assert bound.sigma == 0.0
        assert not bound.applicable
        assert any("kappa2 <= k/2" in n for n in bound.notes)

    def test_l1_branch_inferior_for_small_kappa1(self):
        p = profile(ad_regular=False, kappa1=0.45)
        bound = decay_bound(p)
        assert bound.best_p == 2.0
        assert bound.sigma_p_table[1.0] < bound.sigma_p_table[2.0]

    def test_every_tabulated_p_evaluated(self):
        # once evaluated only through a p_grid argument that no caller passed
        p = profile(ad_regular=True, kappa_p_table={1.5: 0.6, 1.8: 0.62}, d_q_table={3.0: LOG23})
        bound = decay_bound(p, curvature_ok=True, non_expanding=True)
        assert sorted(bound.sigma_p_table) == [1.5, 2.0]
        assert bound.best_p == 1.5
        assert bound.sigma == sigma_p(p, 1.5) == pytest.approx(0.0714747, abs=1e-7)
        assert bound.gamma == compute_gamma(p, 1.5)
        assert "p=1.8: no tabulated exponents, skipped" in bound.notes

    def test_unverified_hypotheses_warned(self):
        bound = decay_bound(profile(ad_regular=True))
        assert not bound.applicable
        assert any("curvature" in n for n in bound.notes)
        assert any("orientation growth" in n for n in bound.notes)

    def test_conjectural_ceiling_note(self):
        bound = decay_bound(profile(ad_regular=True))
        assert any("ceiling" in n for n in bound.notes)


class TestVdcExponent:
    def test_basic_form(self):
        p = profile(k=2, kappa2=1.2, kappa_star=1.2, d_inf=1.2)
        assert vdc_exponent(p, 2) == pytest.approx(0.1, abs=1e-14)

    def test_refined_matches_sigma2(self):
        s = 1.2
        p = profile(k=2, kappa2=s, kappa_star=s, d_inf=s)
        refined = vdc_exponent(p, 2, refined=True)
        assert refined == pytest.approx(0.2 / 2.2, abs=1e-14)
        assert refined == pytest.approx(sigma_p(p, 2.0), abs=1e-12)

    def test_higher_order_derivative(self):
        s = 1.5
        p = profile(k=2, kappa2=s, kappa_star=s, d_inf=s)
        # eta = l - 2 lengthens the denominator
        assert vdc_exponent(p, 4, refined=True) == pytest.approx(
            (s - 1) / (1 + s + 2.0), abs=1e-14
        )

    def test_not_applicable_at_kappa2_one(self):
        p = profile(k=2, kappa2=1.0, kappa_star=1.5, d_inf=0.9)
        with pytest.raises(NotApplicable):
            vdc_exponent(p, 2)

    def test_requires_plane(self):
        with pytest.raises(Unsupported):
            vdc_exponent(profile(), 2)

    def test_l_validation(self):
        p = profile(k=2, kappa2=1.2, kappa_star=1.2, d_inf=1.2)
        with pytest.raises(BadConfig):
            vdc_exponent(p, 1)


class TestArithmeticConditions:
    def test_two_set_examples(self):
        assert two_set_condition(0.8, 0.8)
        assert not two_set_condition(0.5, 0.5)

    def test_two_set_threshold_flip(self):
        t2, _ = symmetric_thresholds()
        assert not two_set_condition(t2 - 1e-6, t2 - 1e-6)
        assert two_set_condition(t2 + 1e-6, t2 + 1e-6)

    def test_two_set_symmetric(self):
        assert two_set_condition(0.9, 0.7) == two_set_condition(0.7, 0.9)

    def test_two_set_margin_gives_the_verdict(self):
        # margin = x - 5/2 with x = a b + max(1.5 a + b, 1.5 b + a), the verdict x > 5/2
        t2, _ = symmetric_thresholds()
        rng = np.random.default_rng(3)
        pairs = [(t2, t2), (0.0, 1.0), (1.0, 1.0), (0.5, 0.5), *rng.uniform(0.0, 1.0, (500, 2))]
        pairs += [(t, t) for t in t2 + np.arange(-5, 6) * 2.0**-53]
        for a, b in pairs:
            x = a * b + max(1.5 * a + b, 1.5 * b + a)
            margin = two_set_margin(a, b)
            assert margin == x - 2.5
            assert two_set_condition(a, b) == (x > 2.5) == (margin > 0.0)

    def test_thresholds_match_closed_forms(self):
        t2, t3 = symmetric_thresholds()
        assert abs(t2 - (math.sqrt(65.0) - 5.0) / 4.0) <= 1e-9
        assert abs(t3 - (math.sqrt(41.0) - 3.0) / 4.0) <= 1e-9
        # solver residuals
        assert abs(2 * (t2 - 0.5) / (t2 + 1.5) + t2 - 1.0) < 1e-12
        assert abs(t3 + (t3 - 0.5) / (t3 + 1.5) - 1.0) < 1e-12

    def test_three_set_examples(self):
        assert three_set_condition(0.851, 0.851, 0.851)
        assert three_set_condition(1.0, 1.0, 0.51)
        assert not three_set_condition(0.6, 0.6, 0.6)

    def test_three_set_rotation_symmetry(self):
        for dims in [(0.9, 0.6, 0.8), (0.52, 1.0, 1.0)]:
            base = three_set_condition(*dims)
            assert three_set_condition(dims[1], dims[2], dims[0]) == base
            assert three_set_condition(dims[2], dims[0], dims[1]) == base

    def test_two_measure_min_bullet(self):
        verdict, bullets = two_measure_density_conditions(0.78, 0.78)
        assert verdict and 1 in bullets

    def test_two_measure_ad_regular_bullet(self):
        verdict, bullets = two_measure_density_conditions(0.9, 0.7, nu_ad_regular=True)
        assert verdict
        assert 3 in bullets
        assert 2.0 * 0.9 * 0.7 + 3 * 0.9 + 2 * 0.7 == pytest.approx(5.36)

    def test_two_measure_boundary_strict(self):
        verdict, bullets = two_measure_density_conditions(7 / 9, 7 / 9)
        assert not verdict
        assert bullets == ()

    def test_log_sigma_values(self):
        assert log_pushforward_sigma(LOG23) == pytest.approx(CANTOR_SIGMA2, abs=1e-14)
        assert log_pushforward_sigma(1.0) == pytest.approx(0.2, abs=1e-14)
        sigma = log_pushforward_sigma(0.765564)
        assert sigma == pytest.approx(0.117218, abs=1e-6)
        assert 2 * sigma + 0.765564 == pytest.approx(1.0, abs=1e-5)

    def test_log_sigma_not_applicable(self):
        with pytest.raises(NotApplicable):
            log_pushforward_sigma(0.5)

    def test_high_dim(self):
        assert high_dim_condition(5, 4.6)
        assert not high_dim_condition(5, 4.5)
        assert high_dim_condition(6, 5.2)
        with pytest.raises(BadConfig):
            high_dim_condition(4, 4.0)

    @pytest.mark.parametrize("kappa2", [math.nan, 1.5, -0.1, math.inf])
    def test_log_sigma_refuses_kappa2_off_the_unit_interval(self, kappa2):
        # kappa2 of a measure on the line is at most 1; a NaN would reach the JSON report
        with pytest.raises(BadConfig, match="kappa2 must lie in"):
            log_pushforward_sigma(kappa2)

    @pytest.mark.parametrize("k, kappa2", [(5, math.nan), (6, math.inf), (5, 5.5), (5, -1e-300)])
    def test_high_dim_refuses_kappa2_outside_0_k(self, k, kappa2):
        with pytest.raises(BadConfig, match=rf"kappa2 must lie in \[0, {k}\]"):
            high_dim_condition(k, kappa2)

    def test_high_dim_takes_the_ends_of_0_k(self):
        assert high_dim_condition(5, 5.0) and not high_dim_condition(5, 0.0)
