import math
from dataclasses import replace

import numpy as np
import pytest

from fractal_fourier import experiments as experiments_module
from fractal_fourier.errors import (
    BadConfig,
    CenterInsideSupport,
    InvalidIFS,
    ResourceExceeded,
    SupportNotPositive,
)
from fractal_fourier.experiments import (
    DEFAULT_DENSITY_BUDGET,
    ConvolutionFactor,
    _inversion_rounding,
    density_at,
    log_factor,
    measure_decay_slope,
    multiplicative_convolution,
    octave_frequencies,
    radial_projection_experiment,
    write_density_csv,
)
from fractal_fourier.fourier import PushforwardMap, constant_map, identity_map, square_map
from fractal_fourier.ifs import _count_stopping, ifs_1d, uniform_ifs


class TestDecayExperiment:
    def test_uniform_identity_sinc_envelope(self, uniform01):
        # |mu_hat| of the uniform measure has a 1/xi envelope.
        exp = measure_decay_slope(
            uniform01,
            identity_map(uniform01),
            octaves=(4, 12),
            samples_per_octave=48,
            tol=1e-6,
            seed=1,
            check_curvature=False,
        )
        assert exp.fitted_slope == pytest.approx(-1.0, abs=0.1)

    def test_constant_map_no_decay(self, cantor):
        exp = measure_decay_slope(
            cantor,
            constant_map(cantor, 0.4),
            octaves=(4, 10),
            samples_per_octave=16,
            tol=1e-8,
            seed=2,
            check_curvature=False,
        )
        assert exp.fitted_slope == pytest.approx(0.0, abs=1e-6)
        assert all(s.max_abs == pytest.approx(1.0, abs=1e-9) for s in exp.stats)

    def test_reproducible(self, cantor):
        kw = dict(octaves=(8, 12), samples_per_octave=8, tol=1e-3, seed=7)
        a = measure_decay_slope(cantor, square_map(cantor), **kw)
        b = measure_decay_slope(cantor, square_map(cantor), **kw)
        assert np.array_equal(a.values, b.values)
        assert a.fitted_slope == b.fitted_slope

    def test_q95_is_numpys_quantile(self):
        rng = np.random.default_rng(8)
        arrays = [np.array([0.3]), np.array([2.0, 2.0]), np.full(7, 0.125)]
        for n in (2, 3, 8, 20, 21, 64, 100, 257):
            values = rng.random(n) * 10.0 ** rng.integers(-6, 3)
            arrays += [values, np.round(values * 8.0) / 8.0, rng.choice(values[:3], n)]
        for values in arrays:
            assert experiments_module._quantile95(values) == float(np.quantile(values, 0.95))

    def test_frequencies_land_in_octaves(self):
        xis = octave_frequencies((5, 7), 16, seed=0)
        assert len(xis) == 48
        for i, octave in enumerate(range(5, 8)):
            block = xis[16 * i : 16 * (i + 1)]
            assert np.all(block >= 2.0**octave)
            assert np.all(block < 2.0 ** (octave + 1))

    def test_curvature_warning_for_flat_map(self, cantor):
        # Cube map has vanishing curvature at 0, which sits in the support.
        from fractal_fourier.fourier import cube_map

        exp = measure_decay_slope(
            cantor,
            cube_map(cantor),
            octaves=(6, 9),
            samples_per_octave=8,
            tol=1e-3,
            seed=0,
        )
        assert any("curvature" in w for w in exp.warnings)

    def test_unreliable_octave_flagged(self, cantor):
        # Gigantic tolerance makes error bounds swamp the octave max.
        exp = measure_decay_slope(
            cantor,
            square_map(cantor),
            octaves=(10, 13),
            samples_per_octave=8,
            tol=0.5,
            seed=0,
            check_curvature=False,
        )
        assert any(not s.reliable for s in exp.stats)
        assert any("10%" in w for w in exp.warnings)


@pytest.fixture(scope="module")
def small_uniform_experiment(uniform12):
    return multiplicative_convolution(
        [log_factor(uniform12), log_factor(uniform12)],
        max_frequency=2.0**11,
        density_points=256,
    )


class TestConvolution:
    def test_density_matches_analytic(self, small_uniform_experiment):
        z = np.linspace(1.05, 3.95, 300)
        dens = density_at(small_uniform_experiment, z)
        true = np.where(z <= 2.0, np.log(z), np.log(4.0 / z))
        assert np.max(np.abs(dens - true)) <= 0.02

    def test_mass_within_two_percent(self, small_uniform_experiment):
        assert 0.98 <= small_uniform_experiment.mass <= 1.02

    def test_product_at_zero_is_one(self, small_uniform_experiment):
        e = small_uniform_experiment
        assert abs(e.product[0] - 1.0) <= e.product_error[0] + 1e-12

    def test_l2_diagnostic_decays(self, small_uniform_experiment):
        assert small_uniform_experiment.l2_octave_slope < 0.0

    def test_imag_residue_and_positivity(self, small_uniform_experiment):
        e = small_uniform_experiment
        assert e.imag_residue <= 1e-8
        assert e.density.min() >= -1e-3

    def test_commutativity_exact(self, uniform12, cantor):
        shifted = ifs_1d([1 / 3, 1 / 3], [1.0, 1.0 + 2 / 3])  # Cantor set in [1, 2]
        f1, f2 = log_factor(uniform12), log_factor(shifted)
        a = multiplicative_convolution([f1, f2], max_frequency=2.0**9, density_points=64)
        b = multiplicative_convolution([f2, f1], max_frequency=2.0**9, density_points=64)
        assert np.array_equal(a.product, b.product)

    def test_parseval_on_grid(self, small_uniform_experiment):
        e = small_uniform_experiment
        lhs = e.delta * (abs(e.product[0]) ** 2 + 2.0 * np.sum(np.abs(e.product[1:]) ** 2))
        lo, hi = e.log_support
        t = np.linspace(lo - 0.05, hi + 0.05, 4096)
        rho, _ = _invert(e, t)
        rhs = np.trapezoid(rho**2, t)
        assert lhs == pytest.approx(rhs, rel=0.02)

    def test_density_csv_cells_are_plain_floats(self, small_uniform_experiment, tmp_path):
        path = tmp_path / "density.csv"
        write_density_csv(path, small_uniform_experiment)
        header, *rows = path.read_text().strip().split("\n")
        assert header == "x,density,error_estimate"
        assert len(rows) == len(small_uniform_experiment.density)
        for row in rows:
            cells = row.split(",")
            assert len(cells) == 3
            for cell in cells:
                float(cell)

    def test_support_positivity_enforced(self, uniform01):
        with pytest.raises(SupportNotPositive):
            log_factor(uniform01)  # support [0, 1] touches 0

    def test_atomic_factor_rejected_upstream(self):
        with pytest.raises(InvalidIFS):
            ifs_1d([0.5, 0.5], [0.5, 0.5])  # both maps fix x = 1

    @pytest.mark.parametrize("threads", [0, -4])
    def test_threads_below_one_rejected(self, cantor, uniform12, threads, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("evaluated before the threads check")

        monkeypatch.setattr(experiments_module, "pushforward_batch", no_work)
        monkeypatch.setattr(experiments_module, "curvature_diagnostic", no_work)
        message = f"threads must be at least 1, got {threads}"
        with pytest.raises(BadConfig, match=message):
            multiplicative_convolution(
                [log_factor(uniform12)] * 2, max_frequency=64.0, threads=threads
            )
        with pytest.raises(BadConfig, match=message):
            measure_decay_slope(cantor, square_map(cantor), octaves=(4, 5), threads=threads)

    @pytest.mark.parametrize("field", ["tol", "max_frequency"])
    def test_infinite_parameter_is_refused(self, uniform12, field):
        kwargs = {"max_frequency": 64.0, field: math.inf}
        with pytest.raises(BadConfig, match=f"{field} must be finite, got inf"):
            multiplicative_convolution([log_factor(uniform12)] * 2, **kwargs)

    def test_needs_two_factors(self, uniform12):
        with pytest.raises(BadConfig):
            multiplicative_convolution([log_factor(uniform12)])


class TestInversion:
    def test_matches_direct_reference(self, small_uniform_experiment):
        e = small_uniform_experiment
        t = np.linspace(e.log_support[0] - 0.1, e.log_support[1] + 0.1, 700)
        rho, imag_residue = _invert(e, t)
        # direct cos/sin of every phase, one point at a time
        reference = np.empty(len(t))
        for i, point in enumerate(t):
            theta = 2.0 * math.pi * e.frequencies[1:] * point
            terms = e.product[1:].real * np.cos(theta) - e.product[1:].imag * np.sin(theta)
            reference[i] = e.delta * (e.product[0].real + 2.0 * math.fsum(terms))
        assert np.max(np.abs(rho - reference)) <= 1e-12
        assert imag_residue == abs(e.product[0].imag)

    def test_rounding_is_in_the_certificate(self, small_uniform_experiment):
        e = small_uniform_experiment
        pad = 0.02 * (e.log_support[1] - e.log_support[0])
        t = np.linspace(e.log_support[0] - pad, e.log_support[1] + pad, len(e.density))
        rounding = _inversion_rounding(t, e.frequencies, e.product, e.delta)
        transform_part = e.delta * (e.product_error[0] + 2.0 * np.sum(e.product_error[1:]))
        assert 0.0 < rounding < 1e-10
        assert e.density_error_certified == float(transform_part) + rounding


DIGITS_B5 = ifs_1d([0.2] * 4, [d / 5 + 0.8 for d in range(4)])


class TestDensityBudget:
    @pytest.fixture(scope="class")
    def digits_factor(self):
        # base-5 digits {0, 1, 2, 3} moved to [1, 1.75]: dim 0.861, slow decay
        return log_factor(DIGITS_B5)

    @pytest.fixture(scope="class")
    def order1_digits_factor(self, digits_factor):
        # without a third-derivative bound the factor keeps order1
        return replace(digits_factor, pmap=replace(digits_factor.pmap, third_bound=None))

    def test_slow_decay_is_refined_into_budget(self, order1_digits_factor, monkeypatch):
        calls = []
        original = experiments_module.pushforward_batch

        def counted(*args, **kwargs):
            calls.append(kwargs["scale"])
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments_module, "pushforward_batch", counted)
        exp = multiplicative_convolution([order1_digits_factor] * 2, max_frequency=256.0)
        assert exp.density_error_certified <= DEFAULT_DENSITY_BUDGET
        # the first scale certifies 0.128; each retry halves it
        assert len(calls) >= 2
        assert all(b == 0.5 * a for a, b in zip(calls, calls[1:]))

    def test_within_budget_takes_one_evaluation(self, uniform12, monkeypatch):
        calls = []
        original = experiments_module.pushforward_batch

        def counted(*args, **kwargs):
            calls.append(kwargs["scale"])
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments_module, "pushforward_batch", counted)
        exp = multiplicative_convolution(
            [log_factor(uniform12)] * 2, max_frequency=2.0**9, density_points=64
        )
        assert len(calls) == 1
        assert exp.density_error_certified <= DEFAULT_DENSITY_BUDGET

    def test_no_scale_to_refine_raises(self, uniform12):
        # an affine coordinate has no Taylor term, so halving changes nothing
        affine = PushforwardMap(
            evaluator=lambda p: p[:, 0],
            gradient=lambda p: np.ones_like(p),
            lipschitz_bound=1.0,
            hessian_bound=0.0,
        )
        factor = ConvolutionFactor(uniform12, affine, (1.0, 2.0))
        with pytest.raises(ResourceExceeded) as info:
            multiplicative_convolution(
                [factor] * 2, max_frequency=64.0, density_points=16, density_budget=1e-30
            )
        assert info.value.budget_name == "density_budget"

    def test_order2_certifies_slow_decay_in_one_evaluation(self, digits_factor, monkeypatch):
        calls = []
        original = experiments_module.pushforward_batch

        def counted(*args, **kwargs):
            calls.append(kwargs["scheme"])
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments_module, "pushforward_batch", counted)
        exp = multiplicative_convolution([digits_factor] * 2, max_frequency=256.0)
        assert calls == ["order2"]
        assert exp.schemes == ("order2", "order2")
        assert exp.density_error_certified <= 0.05 * DEFAULT_DENSITY_BUDGET

    def test_order2_is_refined_into_a_tighter_budget(self, digits_factor, monkeypatch):
        calls = []
        original = experiments_module.pushforward_batch

        def counted(*args, **kwargs):
            calls.append((kwargs["scheme"], kwargs["scale"]))
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments_module, "pushforward_batch", counted)
        exp = multiplicative_convolution([digits_factor] * 2, max_frequency=256.0, density_budget=1e-4)
        assert exp.density_error_certified <= 1e-4
        # the first order-2 cover certifies 3.3e-4; each retry is finer
        assert len(calls) >= 2
        assert all(scheme == "order2" for scheme, _ in calls)
        assert all(b[1] < a[1] for a, b in zip(calls, calls[1:]))

    def test_retries_evaluate_each_cover_once(self, digits_factor, monkeypatch):
        # ratio 0.2: levels 5x apart, so several halvings keep one cover
        calls = []
        original = experiments_module.pushforward_batch

        def counted(*args, **kwargs):
            calls.append(_count_stopping(args[0], kwargs["scale"])[:2])
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments_module, "pushforward_batch", counted)
        with pytest.raises(ResourceExceeded) as info:
            multiplicative_convolution(
                [digits_factor] * 2, max_frequency=256.0, density_budget=1e-12, budget=5000
            )
        assert info.value.budget_name == "leaf_budget"
        assert "needs 16384 leaves > budget 5000" in str(info.value)
        # 1,024 and 4,096 leaves once each; the 16,384-leaf cover raises
        assert [n for n, _ in calls] == [1024, 4096, 16384]
        assert len(set(calls)) == len(calls)

    def test_unreachable_budget_raises_before_building(self, digits_factor):
        with pytest.raises(ResourceExceeded) as info:
            multiplicative_convolution(
                [digits_factor] * 2, max_frequency=256.0, density_budget=1e-12, budget=5000
            )
        assert info.value.budget_name == "leaf_budget"


def _invert(experiment, t):
    from fractal_fourier.experiments import _invert_on_points

    return _invert_on_points(
        t, experiment.frequencies, experiment.product, experiment.delta
    )


class TestRadialProjection:
    def test_uniform_ratio_density(self, uniform12):
        exp = radial_projection_experiment(
            uniform12, uniform12, 0.0, 0.0, max_frequency=2.0**11, density_points=256
        )
        v = np.linspace(0.55, 1.9, 200)
        dens = density_at(exp, v)
        true = (np.minimum(2.0, 2.0 / v) ** 2 - np.maximum(1.0, 1.0 / v) ** 2) / 2.0
        assert np.max(np.abs(dens - true)) <= 0.02
        assert 0.98 <= exp.mass <= 1.02

    def test_log_ratio_identity_with_plain_convolution(self, uniform12):
        # log(x) - log(y) equals the log of the multiplicative convolution
        # of X with the reciprocal measure; centre (0, 0) reduces to it.
        exp = radial_projection_experiment(
            uniform12, uniform12, 0.0, 0.0, max_frequency=2.0**9, density_points=64
        )
        assert exp.log_support[0] == pytest.approx(-math.log(2.0), abs=1e-12)
        assert exp.log_support[1] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_centre_inside_support(self, uniform12):
        with pytest.raises(CenterInsideSupport):
            radial_projection_experiment(uniform12, uniform12, 1.5, 0.0)
        with pytest.raises(CenterInsideSupport):
            radial_projection_experiment(uniform12, uniform12, 0.0, 1.5)


class TestOrder2Factors:
    """Factors evaluated by order2 are no looser, row by row, than order1 would be."""

    @pytest.mark.parametrize(
        "system, max_frequency",
        [(uniform_ifs(1.0, 2.0), 4096.0), (DIGITS_B5, 256.0)],
        ids=["uniform12", "digits_b5"],
    )
    def test_rows_within_the_order1_bounds(self, system, max_frequency, monkeypatch):
        covers, evaluations = [], []
        choose, evaluate = experiments_module._fixed_cover, experiments_module.pushforward_batch

        def record_cover(ifs, pmap, scale, top):
            covers.append((ifs, pmap, scale, *choose(ifs, pmap, scale, top)))
            return covers[-1][3:]

        def record_evaluation(*args, **kwargs):
            evaluations.append(evaluate(*args, **kwargs))
            return evaluations[-1]

        monkeypatch.setattr(experiments_module, "_fixed_cover", record_cover)
        monkeypatch.setattr(experiments_module, "pushforward_batch", record_evaluation)
        exp = multiplicative_convolution(
            [log_factor(system)] * 2, max_frequency=max_frequency, density_points=64
        )
        assert exp.schemes == ("order2", "order2")
        assert len(covers) == len(evaluations) >= 1
        for (ifs, pmap, scale1, scheme, _), (_, bounds, leaves) in zip(covers, evaluations):
            assert scheme == "order2"
            _, bounds1, leaves1 = evaluate(
                ifs, pmap, exp.frequencies, tol=1e-4, scheme="order1", scale=scale1
            )
            assert leaves.max() <= leaves1.max()
            assert np.all(bounds <= bounds1)

    def test_a_map_order2_refuses_is_evaluated_by_order1(self, uniform12):
        # third_bound but no hessian evaluator: order 2 cannot run the map
        factor = log_factor(uniform12)
        factor = replace(factor, pmap=replace(factor.pmap, hessian=None))
        assert experiments_module._fixed_cover(uniform12, factor.pmap, 0.01, 64.0)[0] == "order1"
        exp = multiplicative_convolution([factor] * 2, max_frequency=64.0, density_points=16)
        assert exp.schemes == ("order1", "order1")

    def test_schemes_recorded_in_the_summary(self, uniform12):
        affine = PushforwardMap(
            evaluator=lambda p: p[:, 0],
            gradient=lambda p: np.ones_like(p),
            lipschitz_bound=1.0,
            hessian_bound=0.0,
        )
        exp = multiplicative_convolution(
            [log_factor(uniform12), ConvolutionFactor(uniform12, affine, (1.0, 2.0))],
            max_frequency=64.0,
            density_points=16,
        )
        # the affine coordinate has no curvature, so nothing to refine: order1
        assert exp.schemes == ("order2", "order1")
        assert exp.to_summary()["schemes"] == ["order2", "order1"]
