"""Self-test of the benchmark's input generator, oracles and gates, at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import itertools
import json
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

from fractal_fourier import fourier, ifs  # noqa: E402


def _anchor_sum(xis, depth, f):
    """Order-0 cylinder sum of exp(-2 pi i xi f(x)) over the depth-d Cantor cylinders."""
    mids = np.array([0.5])
    for _ in range(depth):
        mids = np.concatenate([mids / 3.0, mids / 3.0 + 2.0 / 3.0])
    return np.array([np.mean(np.exp(-2j * math.pi * x * f(mids))) for x in xis])


# -- oracles against brute force -------------------------------------------------


def test_cantor_hat_matches_anchor_sum():
    xis = np.array([0.7, -3.0, 12.5])
    depth = 14
    closure = 2.0 * math.pi * np.abs(xis) * 0.5 * 3.0**-depth
    brute = _anchor_sum(xis, depth, lambda x: x)
    assert np.all(np.abs(oracles.cantor_hat(xis) - brute) <= closure + 1e-12)


def test_cantor_square_hat_matches_anchor_sum():
    xis = np.array([5.0, -20.0, 300.0])
    depth = 16
    # |d/dx x^2| <= 2 on [0, 1], cylinder radius 3^-d / 2
    closure = 2.0 * math.pi * np.abs(xis) * 2.0 * 0.5 * 3.0**-depth
    values, errors = oracles.cantor_square_hat(xis, target=1e-7)
    brute = _anchor_sum(xis, depth, lambda x: x * x)
    assert np.all(np.abs(values - brute) <= closure + errors)
    assert np.all(errors <= 1e-7 + oracles.phase_roundoff(xis))


def test_uniform12_log_hat_matches_quadrature():
    xi = 3.3
    t = np.linspace(0.0, math.log(2.0), 200001)
    integrand = np.exp(t) * np.exp(-2j * math.pi * xi * t)
    quad = np.sum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(t))
    assert abs(oracles.uniform12_log_hat(xi) - quad) < 1e-8


def test_log_product_density_has_unit_mass():
    z = np.linspace(1.0, 4.0, 300001)
    d = oracles.log_product_density(z)
    assert abs(np.sum(0.5 * (d[1:] + d[:-1]) * np.diff(z)) - 1.0) < 1e-8


# -- generator branches reproduce the Cantor measure --------------------------------


@pytest.mark.parametrize("expand", [0, 1])
@pytest.mark.parametrize("reflect", list(itertools.product([False, True], repeat=3)))
def test_every_generator_branch_is_the_cantor_measure(expand, reflect):
    maps, weights = workloads.nonhomog_cantor_maps(expand, list(reflect))
    doc = json.loads(workloads._ifs_doc(maps, weights, "SSC"))
    system = ifs.ifs_from_dict(doc).ifs
    assert not system.is_homogeneous
    assert sorted(m.ratio for m in system.maps) == pytest.approx([1 / 9, 1 / 9, 1 / 3])
    assert [m.orientation[0, 0] < 0 for m in system.maps] == list(reflect)
    for xi in (3.7, -11.2):
        sample = fourier.mu_hat(system, xi, tol=1e-3)
        exact = oracles.cantor_hat(xi)
        assert abs(sample.value - exact) <= sample.error_bound + oracles.phase_roundoff(xi)


def test_seed_chooses_branch_and_frequencies_deterministically():
    a, b = workloads.make("nonhomog", 5), workloads.make("nonhomog", 5)
    assert a.files == b.files and a.calls == b.calls
    seen = {json.dumps(workloads.make("nonhomog", s).params["reflect"]) for s in range(40)}
    assert len(seen) == 8
    assert workloads.make("decay", 3).files != workloads.make("decay", 4).files
    assert workloads.make("convolve", 3).files == workloads.make("convolve", 4).files


# -- gates reject a value moved just outside its allowance -----------------------------


def _just(reference, allowance, factor):
    return reference + factor * allowance * np.exp(0.3j)


@pytest.mark.parametrize(
    "oracle",
    ["cantor", "cantor_square", "uniform12_product"],
)
def test_row_gate_boundary(oracle):
    xis = np.array([17.0, -300.0, 4100.0])
    if oracle == "cantor":
        reference, oracle_error = oracles.cantor_hat(xis), oracles.phase_roundoff(xis)
    elif oracle == "cantor_square":
        reference, oracle_error = oracles.cantor_square_hat(xis, 1e-5)
    else:
        reference, oracle_error = oracles.uniform12_log_hat(xis) ** 2, oracles.phase_roundoff(xis)
    bounds = np.array([1e-4, 3e-4, 2e-3])
    allowance = bounds + oracle_error + oracles.ROUNDOFF_SLACK
    inside, _ = oracles.gate_rows(_just(reference, allowance, 1 - 1e-6), bounds, reference, oracle_error)
    assert len(inside) == 0
    moved = _just(reference, allowance, 1 - 1e-6)
    moved[1] = _just(reference[1], allowance[1], 1 + 1e-6)
    failing, tightness = oracles.gate_rows(moved, bounds, reference, oracle_error)
    assert list(failing) == [1]
    assert tightness > 1.0


def test_density_gate_boundary():
    z = np.exp(np.linspace(-0.03, math.log(4.0) + 0.03, 512))
    exact = oracles.log_product_density(z)
    assert oracles.gate_density(z, exact)[0] == []
    point = np.argmin(np.abs(z - 2.5))
    for factor, rejected in ((1 - 1e-6, False), (1 + 1e-6, True)):
        moved = exact.copy()
        moved[point] += factor * oracles.DENSITY_SUP_ERROR
        assert bool(oracles.gate_density(z, moved)[0]) is rejected
    mass = oracles.gate_density(z, exact)[2]
    for factor, rejected in ((1 - 1e-6, False), (1 + 1e-6, True)):
        scale = (1.0 + factor * oracles.MASS_TOLERANCE) / mass
        assert bool(oracles.gate_density(z, exact * scale)[0]) is rejected


def _write_samples(path, xis, values, bounds):
    lines = ["xi,re,im,abs,error_bound,scheme,leaves_used"]
    for x, v, b in zip(xis, values, bounds):
        lines.append(f"{x!r},{v.real!r},{v.imag!r},{abs(v)!r},{b!r},test,1")
    path.write_text("\n".join(lines) + "\n")


def test_nonhomog_checker_rejects_a_row_just_outside(tmp_path):
    plan = workloads.make("nonhomog", 0)
    rec = np.array(plan.params["recursion_xis"])
    sq = np.array(plan.params["order1_xis"])
    rec_ref = oracles.cantor_hat(rec)
    sq_ref, sq_err = oracles.cantor_square_hat(sq, workloads.SQUARE_ORACLE_TARGET)
    bounds = np.full(6, 1e-4)
    rec_allow = bounds + oracles.phase_roundoff(rec) + oracles.ROUNDOFF_SLACK
    sq_allow = bounds + sq_err + oracles.ROUNDOFF_SLACK
    _write_samples(tmp_path / "recursion.csv", rec, _just(rec_ref, rec_allow, 0.999), bounds)
    _write_samples(tmp_path / "order1.csv", sq, _just(sq_ref, sq_allow, 0.999), bounds)
    verdict = plan.check(str(tmp_path))
    assert verdict.violations == [] and verdict.bound_max == 1e-4
    moved = _just(sq_ref, sq_allow, 0.999)
    moved[4] = _just(sq_ref[4], sq_allow[4], 1.001)
    _write_samples(tmp_path / "order1.csv", sq, moved, bounds)
    assert len(plan.check(str(tmp_path)).violations) == 1


# -- per-layer self time ---------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    spans = [
        {"name": "cli.main", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "fourier.pushforward_batch", "parent": 0, "start": 1.0, "end": 9.0,
         "counts": {"terms": 100, "rss_hwm_mb": 5.0}},
        {"name": "fourier.mu_hat", "parent": 1, "start": 2.0, "end": 3.0, "counts": {"leaves": 7}},
        {"name": "fourier.mu_hat", "parent": 1, "start": 4.0, "end": 6.0, "counts": {"leaves": 8}},
    ]
    m = run.layer_metrics(spans)
    assert m["cli.main.self_s"] == 2.0
    assert m["fourier.pushforward_batch.total_s"] == 8.0
    assert m["fourier.pushforward_batch.self_s"] == 5.0
    assert m["fourier.pushforward_batch.ns_per_term"] == pytest.approx(5.0e7)
    assert m["fourier.mu_hat.calls"] == 2 and m["fourier.mu_hat.leaves"] == 15
    assert m["fourier.mu_hat.us_per_leaf"] == pytest.approx(3.0 / 15 * 1e6)
