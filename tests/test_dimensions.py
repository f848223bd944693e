import math

import numpy as np
import pytest

from fractal_fourier.dimensions import (
    DimensionProfile,
    assouad_dimension,
    build_profile,
    correlation_dimension_estimate,
    frostman_exponent_under_separation,
    load_profile,
    lq_spectrum,
    save_profile,
    similarity_dimension_measure,
    similarity_dimension_set,
)
from fractal_fourier.errors import BadConfig, InconsistentProfile
from fractal_fourier.ifs import ifs_1d, missing_digit_ifs

LOG23 = math.log(2.0) / math.log(3.0)


class TestSimilarityDimension:
    def test_cantor(self):
        s = similarity_dimension_set([1 / 3, 1 / 3])
        assert abs(s - LOG23) <= 1e-12
        assert abs(2.0 * (1 / 3) ** s - 1.0) <= 1e-13

    def test_half_half(self):
        assert similarity_dimension_set([0.5, 0.5]) == pytest.approx(1.0, abs=1e-13)

    def test_quarter_pair(self):
        assert similarity_dimension_set([0.25, 0.25]) == pytest.approx(0.5, abs=1e-13)

    def test_root_above_bracket_start(self):
        # Overlapping systems can have similarity dimension far above k.
        s = similarity_dimension_set([0.9, 0.9])
        assert s == pytest.approx(math.log(2) / math.log(1 / 0.9), rel=1e-12)

    def test_residual_on_random_lists(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            ratios = rng.uniform(0.05, 0.9, size=n)
            s = similarity_dimension_set(ratios)
            assert abs(np.sum(ratios**s) - 1.0) <= 1e-13

    def test_input_validation(self):
        with pytest.raises(BadConfig):
            similarity_dimension_set([0.5])
        with pytest.raises(BadConfig):
            similarity_dimension_set([0.5, 1.0])


class TestMeasureDimension:
    def test_uniform_weights_match_set_dimension(self):
        assert similarity_dimension_measure([0.5, 0.5], [1 / 3, 1 / 3]) == pytest.approx(
            LOG23, abs=1e-14
        )

    def test_skewed_weights(self):
        value = similarity_dimension_measure([0.25, 0.75], [1 / 3, 1 / 3])
        entropy = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        assert value == pytest.approx(entropy / math.log(3.0), abs=1e-14)

    def test_mixed_ratios(self):
        value = similarity_dimension_measure([0.5, 0.5], [0.5, 0.25])
        assert value == pytest.approx(2.0 / 3.0, abs=1e-14)


class TestLqSpectrum:
    def test_cantor_q2(self):
        t, d2 = lq_spectrum([0.5, 0.5], [1 / 3, 1 / 3], 2.0)
        assert t == pytest.approx(LOG23, abs=1e-12)
        assert d2 == pytest.approx(LOG23, abs=1e-12)

    def test_lebesgue_like(self):
        t, d2 = lq_spectrum([0.5, 0.5], [0.5, 0.5], 2.0)
        assert t == pytest.approx(1.0, abs=1e-12)
        assert d2 == pytest.approx(1.0, abs=1e-12)

    def test_skewed(self):
        t, _ = lq_spectrum([0.25, 0.75], [1 / 3, 1 / 3], 2.0)
        assert t == pytest.approx(math.log(1.6) / math.log(3.0), abs=1e-12)

    def test_requires_q_above_one(self):
        with pytest.raises(BadConfig):
            lq_spectrum([0.5, 0.5], [1 / 3, 1 / 3], 1.0)

    def test_dq_capped_at_ambient_dimension(self):
        # Slowly contracting overlapping system: T(2) far above 1.
        t, d2 = lq_spectrum([0.5, 0.5], [0.9, 0.9], 2.0)
        assert t == pytest.approx(math.log(2.0) / math.log(1 / 0.9), rel=1e-10)
        assert d2 == 1.0

    def test_continuity_toward_q_one(self):
        # d_q should approach the similarity dimension of the measure as
        # q -> 1+ without jumps on a fine grid.
        weights, ratios = [0.3, 0.7], [0.25, 0.4]
        qs = np.arange(1.001, 1.5, 1e-3)
        values = np.array([lq_spectrum(weights, ratios, q)[1] for q in qs])
        assert np.max(np.abs(np.diff(values))) <= 1e-3
        target = similarity_dimension_measure(weights, ratios)
        assert values[0] == pytest.approx(target, abs=5e-3)

    def test_dq_non_increasing(self):
        weights, ratios = [0.2, 0.8], [0.3, 0.35]
        qs = np.linspace(1.1, 8.0, 40)
        values = [lq_spectrum(weights, ratios, q)[1] for q in qs]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestCorrelationEstimate:
    def test_cantor(self, cantor):
        est, err = correlation_dimension_estimate(cantor, n_pairs=200_000, seed=0)
        assert abs(est - LOG23) <= 0.05

    def test_uniform(self, uniform01):
        est, err = correlation_dimension_estimate(uniform01, n_pairs=200_000, seed=0)
        assert abs(est - 1.0) <= 0.05

    def test_deterministic(self, cantor):
        a = correlation_dimension_estimate(cantor, n_pairs=50_000, seed=9)
        b = correlation_dimension_estimate(cantor, n_pairs=50_000, seed=9)
        assert a == b

    def test_config_validation(self, cantor):
        with pytest.raises(BadConfig):
            correlation_dimension_estimate(cantor, n_pairs=100)
        with pytest.raises(BadConfig):
            correlation_dimension_estimate(cantor, n_pairs=50_000, octaves=(4, 5))


class TestAssouad:
    def test_cantor_under_ssc(self, cantor):
        value, prov, warn = assouad_dimension(cantor, "SSC")
        assert value == pytest.approx(LOG23, abs=1e-12)
        assert prov == "exact_under_separation"
        assert warn == ()

    def test_conservative_without_separation(self):
        ifs = ifs_1d([2 / 3, 2 / 3], [0.0, 1 / 3])
        value, prov, warn = assouad_dimension(ifs, "none")
        assert value == 1.0
        assert prov == "estimated"
        assert warn

    def test_user_override(self, cantor):
        value, prov, _ = assouad_dimension(cantor, "none", user_value=0.9)
        assert value == 0.9
        assert prov == "user_supplied"


class TestBuildProfile:
    def test_cantor_profile(self, cantor):
        p = build_profile(cantor, "SSC")
        assert p.ad_regular
        for value in (p.kappa2, p.kappa_star, p.d_inf):
            assert value == pytest.approx(LOG23, abs=1e-9)
        assert p.kappa1 is None
        assert p.provenance["kappa2"] == "exact_under_separation"

    def test_missing_digit_b5(self):
        ifs = missing_digit_ifs(5, [0, 1, 2, 3])
        p = build_profile(ifs, "OSC")
        target = math.log(4.0) / math.log(5.0)
        assert target == pytest.approx(0.8613531161, abs=1e-9)
        assert p.ad_regular
        assert p.kappa2 == pytest.approx(target, abs=1e-12)

    def test_inconsistent_override_rejected(self, cantor):
        with pytest.raises(InconsistentProfile) as err:
            build_profile(cantor, "SSC", {"kappa1": 0.7, "d_inf": 0.6, "kappa2": 0.62})
        assert "kappa1 <= d_inf" in str(err.value)

    def test_estimated_without_separation(self):
        ifs = ifs_1d([2 / 3, 2 / 3], [0.0, 1 / 3])
        p = build_profile(ifs, "none")
        assert p.kappa_star == 1.0
        assert p.provenance["kappa_star"] == "estimated"
        assert not p.ad_regular
        assert p.warnings

    def test_user_kappa1_tagged(self, cantor):
        p = build_profile(cantor, "SSC", {"kappa1": 0.3})
        assert p.kappa1 == 0.3
        assert p.provenance["kappa1"] == "user_supplied"

    def test_frostman_formula(self):
        d = frostman_exponent_under_separation([0.25, 0.75], [1 / 3, 1 / 3])
        assert d == pytest.approx(math.log(0.75) / math.log(1 / 3), abs=1e-14)

    def test_unknown_override_rejected(self, cantor):
        with pytest.raises(BadConfig):
            build_profile(cantor, "SSC", {"fourier_dim": 1.0})

    @pytest.mark.parametrize("overrides", [{"kappa1": "0.3"}, {"kappa2": None},
                                           {"d_q": {"3": "x"}}, {"kappa_p": {"2.5": 0.6}}])
    def test_malformed_override_rejected(self, cantor, overrides):
        with pytest.raises(BadConfig, match=f"{next(iter(overrides))}: malformed value"):
            build_profile(cantor, "SSC", overrides)

    def test_tabulated_overrides_tagged(self, cantor):
        p = build_profile(cantor, "SSC", {"kappa_p": {"1.5": 0.6}, "d_q": {"3": LOG23}})
        assert p.kappa_p_table == {1.5: 0.6} and p.d_q_table == {3.0: LOG23}
        assert p.provenance["kappa_p_table"] == p.provenance["d_q_table"] == "user_supplied"
        assert "kappa1" not in p.provenance

    @pytest.mark.parametrize("separation", ["bogus", "ssc", None])
    def test_unknown_separation_rejected(self, cantor, separation):
        # once read as "none", which lowers sigma for the Cantor measure
        with pytest.raises(BadConfig, match="unknown separation kind"):
            build_profile(cantor, separation)


class TestProfileValidation:
    def base(self, **kw):
        args = dict(
            k=1,
            kappa2=0.6,
            kappa_star=0.7,
            d_inf=0.5,
            kappa1=0.4,
            s_sim_set=0.7,
            s_sim_meas=0.6,
            ad_regular=False,
        )
        args.update(kw)
        return DimensionProfile(**args)

    def test_valid(self):
        assert self.base().kappa2 == 0.6

    @pytest.mark.parametrize(
        "kw,name",
        [
            (dict(kappa1=0.55), "kappa1 <= d_inf"),
            (dict(d_inf=0.65), "d_inf <= kappa2"),
            (dict(kappa2=0.75), "kappa2 <= kappa_star"),
            (dict(kappa_star=1.1), "kappa_star <= k"),
            (dict(kappa1=-0.1), "0 <= kappa1"),
        ],
    )
    def test_violations_named(self, kw, name):
        with pytest.raises(InconsistentProfile) as err:
            self.base(**kw)
        assert err.value.violated == name

    def test_dq_table_monotonicity(self):
        with pytest.raises(InconsistentProfile, match="non-increasing"):
            self.base(d_q_table={3.0: 0.65})

    def test_kappa_p_interpolation_bounds(self):
        # kappa_p for p in (1,2) must lie in [(p/2) kappa2, kappa2].
        with pytest.raises(InconsistentProfile):
            self.base(kappa_p_table={1.5: 0.7})
        ok = self.base(kappa_p_table={1.5: 0.5})
        assert ok.kappa_lp(1.5) == 0.5

    def test_tables_hold_the_built_in_entries(self):
        p = self.base(kappa_p_table={1.5: 0.5}, d_q_table={3.0: 0.55, 4.0: 0.52})
        assert (p.kappa_lp(1.0), p.kappa_lp(1.5), p.kappa_lp(2.0), p.kappa_lp(1.2)) == (0.4, 0.5, 0.6, None)
        assert (p.d_q(2.0), p.d_q(3.0), p.d_q(4.0), p.d_q(math.inf), p.d_q(5.0)) == (0.6, 0.55, 0.52, 0.5, None)
        assert self.base(kappa1=None).kappa_lp(1.0) is None

    def test_kappa1_outside_the_two_sided_check(self):
        # kappa1 = 0.1 < (1/2) kappa2 would fail (p/q) kappa_q <= kappa_p
        assert self.base(kappa1=0.1).kappa_lp(1.0) == 0.1

    @pytest.mark.parametrize("kw, name", [
        (dict(d_q_table={2.0: 0.59}), "tabulated d_q must match built-in entry"),
        (dict(d_q_table={math.inf: 0.4}), "tabulated d_q must match built-in entry"),
        (dict(kappa_p_table={2.0: 0.61}), "tabulated kappa_p must match built-in entry"),
        (dict(kappa_p_table={1.5: 0.5, 1.8: 0.45}), "kappa_p <= kappa_q for p <= q"),
    ])
    def test_table_violations_named(self, kw, name):
        with pytest.raises(InconsistentProfile) as err:
            self.base(**kw)
        assert err.value.violated == name

    @pytest.mark.parametrize("table, key, message", [
        # p = 1 is kappa1's entry, not a tabulated one
        ("kappa_p_table", 1.0, "every p must lie in (1, 2.0]"),
        ("kappa_p_table", 3.0, "every p must lie in (1, 2.0]"),
        ("d_q_table", 0.5, "every q must lie in (1, inf]"),
        ("d_q_table", 1.0, "every q must lie in (1, inf]"),
    ])
    def test_table_key_out_of_range_refused(self, table, key, message):
        # once accepted here and refused only by bounds.decay_bound
        with pytest.raises(BadConfig) as err:
            self.base(**{table: {key: 0.55}})
        assert str(err.value).startswith(f"{table}: malformed value") and message in str(err.value)

    def test_ad_regular_coherence(self):
        with pytest.raises(InconsistentProfile, match="ad_regular"):
            self.base(ad_regular=True)

    def test_round_trip(self, tmp_path):
        p = self.base(kappa_p_table={1.5: 0.5}, d_q_table={4.0: 0.55})
        path = tmp_path / "profile.json"
        save_profile(p, path)
        q = load_profile(path)
        assert q.kappa2 == p.kappa2
        assert q.kappa_p_table == p.kappa_p_table
        assert q.d_q_table == p.d_q_table
