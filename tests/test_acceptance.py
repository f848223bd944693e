"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criteria with sub-second budgets are timed on warm
calls (first call pays numpy and cache warmup).
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import _homogeneous_leaf_arrays
from fractal_fourier.bounds import compute_gamma, decay_bound, sigma_p_raw, symmetric_thresholds
from fractal_fourier.dimensions import DimensionProfile, build_profile, similarity_dimension_set
from fractal_fourier.errors import InconsistentProfile
from fractal_fourier.experiments import (
    density_at,
    log_factor,
    measure_decay_slope,
    multiplicative_convolution,
)
from fractal_fourier.fourier import (
    holomorphic_hessian_identity,
    holomorphic_map,
    mu_hat,
    pushforward_hat,
    quadratic_directional_hessian,
    quadratic_map,
    square_map,
)
from fractal_fourier.ifs import (
    SelfSimilarIFS,
    SimilarityMap,
    cantor_ifs,
    uniform_ifs,
)

LOG23 = math.log(2.0) / math.log(3.0)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SRC = Path(__file__).resolve().parents[1] / "src"


def report(number, ok, detail):
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def best_of(fn, repeats=5):
    best = math.inf
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def test_criterion_01_moran_solver():
    ratios = [1 / 3, 1 / 3]
    similarity_dimension_set(ratios)  # warm
    s, elapsed = best_of(lambda: similarity_dimension_set(ratios))
    residual = abs(2.0 * (1 / 3) ** s - 1.0)
    ok = abs(s - LOG23) <= 1e-12 and residual <= 1e-13 and elapsed < 1e-3
    report(
        1,
        ok,
        f"s={s!r}, |s-log2/log3|={abs(s - LOG23):.2e}, residual={residual:.2e}, "
        f"runtime={elapsed * 1e6:.0f}us",
    )


def test_criterion_02_cantor_decay_exponent():
    profile = build_profile(cantor_ifs(), "SSC")
    decay_bound(profile)  # warm
    bound, elapsed = best_of(lambda: decay_bound(profile))
    cites_baseline = any("0.016" in note for note in bound.notes)
    ok = abs(bound.sigma - 0.0614) <= 5e-4 and cites_baseline and elapsed < 1e-3
    report(
        2,
        ok,
        f"sigma={bound.sigma:.9f} (target 0.0614 +/- 5e-4), baseline cited={cites_baseline}, "
        f"runtime={elapsed * 1e6:.0f}us",
    )


def test_criterion_03_symmetric_thresholds():
    symmetric_thresholds()  # warm
    (t2, t3), elapsed = best_of(symmetric_thresholds)
    t2_exact = (math.sqrt(65.0) - 5.0) / 4.0
    t3_exact = (math.sqrt(41.0) - 3.0) / 4.0
    ok = abs(t2 - t2_exact) <= 1e-9 and abs(t3 - t3_exact) <= 1e-9 and elapsed < 1e-3
    report(
        3,
        ok,
        f"t2={t2!r} (closed form {t2_exact!r}), t3={t3!r} (closed form {t3_exact!r}), "
        f"runtime={elapsed * 1e6:.0f}us",
    )


def cantor_closed_form(xi):
    value = complex(math.cos(math.pi * xi), -math.sin(math.pi * xi))
    n = 1
    while 2.0 * math.pi * abs(xi) / 3.0**n >= 1e-12:
        value *= math.cos(2.0 * math.pi * xi / 3.0**n)
        n += 1
    return value


def test_criterion_04_mu_hat_oracle_equivalence():
    cantor = cantor_ifs()
    rng = np.random.default_rng(40)
    xis = rng.uniform(-1e4, 1e4, size=1000)
    t0 = time.perf_counter()
    worst_diff = worst_margin = 0.0
    failures = 0
    for xi in xis:
        sample = mu_hat(cantor, float(xi), tol=1e-7)
        diff = abs(sample.value - cantor_closed_form(float(xi)))
        worst_diff = max(worst_diff, diff)
        worst_margin = max(worst_margin, diff - sample.error_bound)
        if diff > sample.error_bound or diff > 1e-6:
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 30.0
    report(
        4,
        ok,
        f"{len(xis)} frequencies, failures={failures}, worst |diff|={worst_diff:.2e}, "
        f"runtime={elapsed:.1f}s (< 30s)",
    )


def test_criterion_05_certified_error_honesty():
    cantor = cantor_ifs()
    sq = square_map(cantor)
    _, _, weights, _, anchors = _homogeneous_leaf_arrays(cantor, 20, 10**8)
    fw = anchors[:, 0] ** 2
    rng = np.random.default_rng(50)
    xis = np.exp(rng.uniform(math.log(2.0**8), math.log(2.0**14), size=1000))
    t0 = time.perf_counter()
    bad0 = bad1 = 0
    ratio0 = []
    for xi in xis:
        phases = 2.0 * np.pi * xi * fw
        oracle = complex(np.sum(weights * np.cos(phases)), -np.sum(weights * np.sin(phases)))
        s0 = pushforward_hat(cantor, sq, float(xi), tol=1e-3, scheme="order0")
        s1 = pushforward_hat(cantor, sq, float(xi), tol=1e-3, scheme="order1")
        if abs(s0.value - oracle) > s0.error_bound:
            bad0 += 1
        if abs(s1.value - oracle) > s1.error_bound:
            bad1 += 1
        ratio0.append(abs(s0.value - oracle) / s0.error_bound)
    elapsed = time.perf_counter() - t0
    ok = bad0 == 0 and bad1 == 0 and elapsed < 300.0
    report(
        5,
        ok,
        f"order0 violations={bad0}/1000, order1 violations={bad1}/1000, "
        f"worst |diff|/bound={max(ratio0):.3f}, runtime={elapsed:.1f}s (< 5min)",
    )


def test_criterion_06_decay_experiment_vs_theory():
    cantor = cantor_ifs()
    theoretical = decay_bound(build_profile(cantor, "SSC")).sigma
    t0 = time.perf_counter()
    experiment = measure_decay_slope(
        cantor,
        square_map(cantor),
        octaves=(8, 18),
        samples_per_octave=64,
        seed=0,
        tol=1e-3,
        theoretical_sigma=theoretical,
    )
    elapsed = time.perf_counter() - t0
    reliable = all(s.reliable for s in experiment.stats)
    ok = (
        experiment.empirical_exponent >= 0.0614 - 0.02
        and reliable
        and elapsed < 300.0
    )
    report(
        6,
        ok,
        f"empirical exponent={experiment.empirical_exponent:.4f} "
        f">= {0.0614 - 0.02:.4f} (theory sigma={theoretical:.6f}), "
        f"octaves reliable={reliable}, runtime={elapsed:.1f}s (< 5min)",
    )


def _kdim_ifs(k):
    maps = (
        SimilarityMap(1 / 3, np.eye(k), np.zeros(k)),
        SimilarityMap(1 / 3, np.eye(k), np.full(k, 2 / 3)),
    )
    return SelfSimilarIFS(maps, (0.5, 0.5))


def test_criterion_07_quadratic_hessians():
    t0 = time.perf_counter()
    plane = _kdim_ifs(2)
    rotation_square = quadratic_map(plane, [{(0, 0): -1.0, (1, 1): 1.0}, {(0, 1): 2.0}])
    rng = np.random.default_rng(70)
    worst = 0.0
    for _ in range(100):
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        _, det = quadratic_directional_hessian(rotation_square, v)
        worst = max(worst, abs(det + 4.0))
    worst_k = 0.0
    for k in range(1, 7):
        ifs_k = _kdim_ifs(k)
        squares = quadratic_map(ifs_k, [{(i, i): 1.0} for i in range(k)])
        for _ in range(20):
            v = rng.normal(size=k)
            v /= np.linalg.norm(v)
            _, det = quadratic_directional_hessian(squares, v)
            expected = 2.0**k * float(np.prod(v))
            worst_k = max(worst_k, abs(det - expected))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and worst_k <= 1e-10 and elapsed < 1.0
    report(
        7,
        ok,
        f"max |det+4|={worst:.2e} (<=1e-12), max |det-2^k prod v|={worst_k:.2e} "
        f"(<=1e-10, k<=6), runtime={elapsed:.2f}s (< 1s)",
    )


def _fd_directional_det(pmap, z, v, h=1e-4):
    def fv(x, y):
        vals = pmap.evaluator(np.array([[x, y]]))[0]
        return v[0] * vals[0] + v[1] * vals[1]

    x, y = z.real, z.imag
    hxx = (fv(x + h, y) - 2 * fv(x, y) + fv(x - h, y)) / h**2
    hyy = (fv(x, y + h) - 2 * fv(x, y) + fv(x, y - h)) / h**2
    hxy = (
        fv(x + h, y + h) - fv(x + h, y - h) - fv(x - h, y + h) + fv(x - h, y - h)
    ) / (4 * h**2)
    return hxx * hyy - hxy**2


def test_criterion_08_holomorphic_identity():
    t0 = time.perf_counter()
    plane = _kdim_ifs(2)
    cube = holomorphic_map(
        plane,
        f=lambda z: z**3,
        df=lambda z: 3 * z * z,
        d2f=lambda z: 6 * z,
        lipschitz_bound=20.0,
        hessian_bound=20.0,
    )
    rng = np.random.default_rng(80)
    worst_rel = 0.0
    for _ in range(100):
        z = complex(rng.uniform(0.2, 1.2), rng.uniform(0.2, 1.2))
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        det, mags = holomorphic_hessian_identity(cube, z, v)
        assert det == pytest.approx(-abs(6 * z) ** 2, abs=1e-12)
        fd = _fd_directional_det(cube, z, v)
        worst_rel = max(worst_rel, abs(fd - det) / abs(det))
    # independence from the direction
    z0 = 0.6 + 0.5j
    dets = []
    for _ in range(10):
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        dets.append(holomorphic_hessian_identity(cube, z0, v)[0])
    spread = max(dets) - min(dets)
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-6 and spread <= 1e-10 and elapsed < 1.0
    report(
        8,
        ok,
        f"max FD relative error={worst_rel:.2e} (<=1e-6), direction spread={spread:.2e} "
        f"(<=1e-10), runtime={elapsed:.2f}s (< 1s)",
    )


def random_valid_profile(rng, need_sigma2=False, need_sigma1=False):
    k = int(rng.integers(1, 4))
    lo = k / 2.0 + 1e-3 if (need_sigma2 or need_sigma1) else 0.0
    vals = np.sort(rng.uniform(lo, float(k), size=4))
    kappa1, d_inf, kappa2, kappa_star = (float(v) for v in vals)
    return DimensionProfile(
        k=k,
        kappa2=kappa2,
        kappa_star=kappa_star,
        d_inf=d_inf,
        kappa1=kappa1,
        s_sim_set=kappa_star,
        s_sim_meas=kappa2,
    )


def test_criterion_09_gamma_consistency():
    rng = np.random.default_rng(90)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        p = 1.0 if i % 2 else 2.0
        profile = random_valid_profile(rng, need_sigma2=True, need_sigma1=True)
        raw = sigma_p_raw(profile, p)
        if raw <= 0.0:
            continue
        gamma = compute_gamma(profile, p)
        assert 1.0 < gamma < 2.0
        worst = max(worst, abs((2.0 - gamma) / gamma - raw))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(
        9,
        ok,
        f"max |(2-gamma)/gamma - sigma_p|={worst:.2e} (<=1e-12) over 1000 profiles, "
        f"gamma always in (1,2), runtime={elapsed:.2f}s (< 1s)",
    )


def test_criterion_10_convolution_oracle():
    uniform = uniform_ifs(1.0, 2.0)
    t0 = time.perf_counter()
    experiment = multiplicative_convolution(
        [log_factor(uniform), log_factor(uniform)], max_frequency=2.0**14
    )
    z = np.linspace(1.05, 3.95, 400)
    recovered = density_at(experiment, z)
    elapsed = time.perf_counter() - t0
    analytic = np.where(z <= 2.0, np.log(z), np.log(4.0 / z))
    sup_err = float(np.max(np.abs(recovered - analytic)))
    ok = sup_err <= 0.02 and 0.98 <= experiment.mass <= 1.02 and elapsed < 120.0
    report(
        10,
        ok,
        f"sup density error={sup_err:.2e} (<=0.02) on [1.05,3.95], "
        f"mass={experiment.mass:.5f} (within 2%), certified bound="
        f"{experiment.density_error_certified:.3e}, runtime={elapsed:.1f}s (< 2min)",
    )


VIOLATIONS = (
    ("kappa1 <= d_inf", dict(kappa1=0.7, d_inf=0.5, kappa2=0.8, kappa_star=0.9)),
    ("d_inf <= kappa2", dict(kappa1=0.2, d_inf=0.85, kappa2=0.8, kappa_star=0.9)),
    ("kappa2 <= kappa_star", dict(kappa1=0.2, d_inf=0.5, kappa2=0.95, kappa_star=0.9)),
    ("kappa_star <= k", dict(kappa1=0.2, d_inf=0.5, kappa2=0.8, kappa_star=1.2)),
    ("0 <= kappa1", dict(kappa1=-0.2, d_inf=0.5, kappa2=0.8, kappa_star=0.9)),
)


def test_criterion_11_profile_invariant_enforcement():
    rng = np.random.default_rng(110)
    t0 = time.perf_counter()
    rejected = accepted = 0
    for i in range(1000):
        name, base = VIOLATIONS[i % len(VIOLATIONS)]
        jitter = float(rng.uniform(0.0, 0.05))
        fields = dict(base)
        # push the violating side further out, keeping the violation named
        if name == "kappa1 <= d_inf":
            fields["kappa1"] += jitter
        elif name == "d_inf <= kappa2":
            fields["d_inf"] += jitter
        elif name == "kappa2 <= kappa_star":
            fields["kappa2"] = min(1.0, fields["kappa2"] + jitter / 2)
        elif name == "kappa_star <= k":
            fields["kappa_star"] += jitter
        else:
            fields["kappa1"] -= jitter
        try:
            DimensionProfile(
                k=1, s_sim_set=1.0, s_sim_meas=0.8, **fields
            )
        except InconsistentProfile as exc:
            assert exc.violated == name, (exc.violated, name)
            rejected += 1
    for _ in range(1000):
        profile = random_valid_profile(rng)
        accepted += 1
        assert profile.kappa2 <= profile.kappa_star
    elapsed = time.perf_counter() - t0
    ok = rejected == 1000 and accepted == 1000 and elapsed < 1.0
    report(
        11,
        ok,
        f"{rejected}/1000 violating profiles rejected with the inequality named, "
        f"{accepted}/1000 valid accepted, runtime={elapsed:.2f}s (< 1s)",
    )


def fresnel_midpoint_oracle(xi, n=1 << 22):
    x = (np.arange(n) + 0.5) / n
    phases = 2.0 * np.pi * xi * x * x
    return complex(np.mean(np.cos(phases)), -np.mean(np.sin(phases)))


def test_criterion_12_van_der_corput_sanity():
    uniform = uniform_ifs(0.0, 1.0)
    sq = square_map(uniform)
    t0 = time.perf_counter()
    experiment = measure_decay_slope(
        uniform,
        sq,
        octaves=(6, 16),
        samples_per_octave=64,
        seed=0,
        tol=5e-4,
    )
    # classical-rate oracle: direct oscillatory quadrature at spot frequencies
    worst_gap = 0.0
    for xi in (300.0, 700.0, 1000.0):
        sample = pushforward_hat(uniform, sq, xi, tol=1e-5, scheme="order1")
        oracle = fresnel_midpoint_oracle(xi)
        worst_gap = max(worst_gap, abs(sample.value - oracle) - sample.error_bound)
    elapsed = time.perf_counter() - t0
    ok = experiment.fitted_slope <= -0.45 and worst_gap <= 1e-6 and elapsed < 60.0
    report(
        12,
        ok,
        f"fitted slope={experiment.fitted_slope:.4f} (<= -0.45, theory -1/2), "
        f"oracle gap beyond bounds={worst_gap:.2e}, runtime={elapsed:.1f}s (< 1min)",
    )


def _run_cli(tmp_path, tag, threads, args):
    out_dir = tmp_path / f"{tag}_t{threads}"
    out_dir.mkdir()
    cmd = [
        sys.executable,
        "-m",
        "fractal_fourier.cli",
        "--threads",
        str(threads),
        *[a.replace("@OUT@", str(out_dir)) for a in args],
    ]
    # The CLI runs from configs/, so a relative PYTHONPATH would not resolve.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(CONFIGS), env=env)
    assert proc.returncode == 0, proc.stderr
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_criterion_13_thread_determinism(tmp_path):
    """Criteria 4-6 and 10 through the CLI with --threads in {1, 4}.

    Criterion 5 runs under order0, order1 and order2.

    Criterion 4 runs at full size; 5, 6 and 10 run scaled down (the
    determinism property has no size dependence, and the boxes running
    this suite have a single core).
    """
    decay_cfg = tmp_path / "decay.json"
    decay_cfg.write_text(
        json.dumps(
            {
                "ifs": str(CONFIGS / "cantor.json"),
                "map": {"kind": "square"},
                "octaves": [8, 11],
                "samples_per_octave": 16,
                "seed": 0,
                "tol": 1e-3,
            }
        )
    )
    conv_cfg = tmp_path / "conv.json"
    conv_cfg.write_text(
        json.dumps(
            {
                "factors": [
                    {"ifs": str(CONFIGS / "uniform12.json"), "map": {"kind": "log"}},
                    {"ifs": str(CONFIGS / "uniform12.json"), "map": {"kind": "log"}},
                ],
                "max_frequency": 2048.0,
                "density_points": 128,
            }
        )
    )
    runs = {
        "crit4": [
            "fourier", "--ifs", str(CONFIGS / "cantor.json"), "--tol", "1e-7",
            "--xi-min", "-10000", "--xi-max", "10000", "--count", "1000",
            "--out", "@OUT@/mu_hat.csv",
        ],
        "crit5a": [
            "fourier", "--ifs", str(CONFIGS / "cantor.json"), "--scheme", "order0",
            "--map", '{"kind": "square"}', "--tol", "1e-3",
            "--xi-list", "256,1024,4096,16384", "--out", "@OUT@/order0.csv",
        ],
        "crit5b": [
            "fourier", "--ifs", str(CONFIGS / "cantor.json"), "--scheme", "order1",
            "--map", '{"kind": "square"}', "--tol", "1e-3",
            "--xi-list", "256,1024,4096,16384", "--out", "@OUT@/order1.csv",
        ],
        "crit5c": [
            "fourier", "--ifs", str(CONFIGS / "cantor.json"), "--scheme", "order2",
            "--map", '{"kind": "square"}', "--tol", "1e-3",
            "--xi-list", "256,1024,4096,16384", "--out", "@OUT@/order2.csv",
        ],
        "crit6": ["decay", "--config", str(decay_cfg), "--out", "@OUT@"],
        "crit10": ["convolve", "--config", str(conv_cfg), "--out", "@OUT@"],
    }
    t0 = time.perf_counter()
    mismatches = []
    for tag, args in runs.items():
        single = _run_cli(tmp_path, tag, 1, args)
        quad = _run_cli(tmp_path, tag, 4, args)
        if single != quad:
            mismatches.append(tag)
    elapsed = time.perf_counter() - t0
    ok = not mismatches
    report(
        13,
        ok,
        f"byte-identical outputs for --threads 1 vs 4 across "
        f"{len(runs)} runs (mismatches: {mismatches or 'none'}), runtime={elapsed:.1f}s",
    )
