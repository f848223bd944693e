"""Command-line interface.

Subcommands: dims, bounds, fourier, decay, convolve, arith-check.  All
experiment parameters live in JSON config files (committed next to their
outputs they make reruns reproducible); every random choice funnels
through a single integer seed, defaulting to 0, never the clock.

Exit codes: 0 ok, 2 invalid config, 3 inconsistent profile, 4 resource
budget exceeded, 5 internal error; each error class of ``errors`` states
its own.  FRACTAL_FOURIER_BUDGET overrides the cylinder-leaf budget of
fourier, decay and convolve.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import bounds as bnd
from . import dimensions as dims
from . import experiments as xp
from . import fourier as fr
from . import ifs as ifsmod
from .errors import BadConfig, FractalFourierError
from .ifs import _fields, _float, _float_array, _int, _optional_float, _parsed, _separation


def _budget() -> int:
    raw = os.environ.get("FRACTAL_FOURIER_BUDGET")
    if raw is None:
        return ifsmod.DEFAULT_LEAF_BUDGET
    value = _parsed("FRACTAL_FOURIER_BUDGET", int, raw)
    if value <= 0:
        raise BadConfig("FRACTAL_FOURIER_BUDGET must be positive")
    return value


def _as_is(value):
    return value


def _octaves(value) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise TypeError("expected a JSON list [first, last]")
    return tuple(_int(o) for o in value)


def _coefficients(value) -> list:
    return [{(_int(p), _int(q)): _float(c) for p, q, c in comp} for comp in value]


# Field tables of the CLI's JSON inputs, field -> (parser, required).
_DECAY_FIELDS = {
    "ifs": (str, True),
    "map": (_as_is, True),
    "octaves": (_octaves, True),
    "samples_per_octave": (_int, False),
    "seed": (_int, False),
    "tol": (_float, False),
    "scheme": (str, False),
    "separation": (_separation, False),
    "theoretical_sigma": (_optional_float, False),
}
_CONVOLVE_FIELDS = {
    "factors": (list, True),
    "max_frequency": (_float, False),
    "density_points": (_int, False),
    "density_budget": (_float, False),
    "tol": (_float, False),
}
_FACTOR_FIELDS = {"ifs": (str, True), "map": (_as_is, False)}

# Map kinds: kind -> (builder, field table of the spec's other keys).
_MAP_KINDS = {
    "identity": (fr.identity_map, {}),
    "square": (fr.square_map, {}),
    "cube": (fr.cube_map, {}),
    "sum_of_squares": (fr.sum_of_squares_map, {}),
    "constant": (fr.constant_map, {"value": (_float, False)}),
    "log": (fr.log_map, {"shift": (_float, False)}),
    "neg_log": (fr.neg_log_map, {"shift": (_float, False)}),
    "quadratic": (
        fr.quadratic_map,
        {"coefficients": (_coefficients, True), "linear": (_float_array, False),
         "constant": (_float_array, False)},
    ),
}
_FACTOR_KINDS = {
    "log": (xp.log_factor, {"shift": (_float, False)}),
    "neg_log": (xp.neg_log_factor, {"shift": (_float, False)}),
}


def _build_map(ifs, spec, kinds=_MAP_KINDS):
    """``kinds[spec["kind"]]``'s builder, called with the spec's other keys."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise BadConfig("map spec needs to be a JSON object with a 'kind' field")
    params = dict(spec)
    kind = params.pop("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise BadConfig(f"unknown map kind {kind!r} (have {sorted(kinds)})")
    builder, table = kinds[kind]
    return builder(ifs, **_fields(params, f"{kind} map", table))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- dims -------------------------------------------------------------------


def cmd_dims(args) -> None:
    doc = ifsmod.load_ifs(args.ifs)
    separation = args.separation or doc.declared_separation
    profile = dims.build_profile(doc.ifs, separation, doc.exponents)
    print(f"ambient dimension     k       = {profile.k}")
    print(f"similarity dim (set)  s       = {profile.s_sim_set:.6f}")
    print(f"similarity dim (meas) k_sim   = {profile.s_sim_meas:.6f}")
    print(f"correlation dim       kappa2  = {profile.kappa2:.6f}  [{profile.provenance.get('kappa2')}]")
    print(f"Assouad dim           kappa_* = {profile.kappa_star:.6f}  [{profile.provenance.get('kappa_star')}]")
    print(f"Frostman exponent     d_inf   = {profile.d_inf:.6f}  [{profile.provenance.get('d_inf')}]")
    if profile.kappa1 is not None:
        print(f"Fourier l^1 dim       kappa1  = {profile.kappa1:.6f}  [user_supplied]")
    print(f"ad_regular = {str(profile.ad_regular).lower()}")
    for w in profile.warnings:
        print(f"warning: {w}")
    if args.out:
        out = _out_dir(args)
        dims.save_profile(profile, out / "profile.json")
        print(f"wrote {out / 'profile.json'}")


# -- bounds -----------------------------------------------------------------


def cmd_bounds(args) -> None:
    doc = ifsmod.load_ifs(args.ifs) if args.ifs else None
    if args.profile:
        profile = dims.load_profile(args.profile)
    elif doc is not None:
        separation = args.separation or doc.declared_separation
        profile = dims.build_profile(doc.ifs, separation, doc.exponents)
    else:
        raise BadConfig("bounds needs --ifs or --profile")
    curvature_ok = True if args.assume_curvature else None
    non_expanding = True if args.assume_non_expanding else None
    if doc is not None and non_expanding is None:
        verdict = ifsmod.non_expanding_heuristic(doc.ifs)
        if verdict is ifsmod.GrowthVerdict.NON_EXPANDING:
            non_expanding = True
    bound = bnd.decay_bound(profile, curvature_ok=curvature_ok, non_expanding=non_expanding)
    report = bound.to_dict()
    report["profile"] = profile.to_dict()
    if args.thresholds:
        t2, t3 = bnd.symmetric_thresholds()
        report["thresholds"] = {"two_fold": t2, "three_fold": t3}
        print(f"symmetric thresholds: two-fold {t2:.9f}, three-fold {t3:.9f}")
    print(f"sigma = {bound.sigma:.9f} (best p = {bound.best_p})")
    if bound.gamma is not None:
        print(f"gamma = {bound.gamma:.9f}, (2-gamma)/gamma = {(2 - bound.gamma) / bound.gamma:.9f}")
    print(f"applicable = {str(bound.applicable).lower()}")
    for note in bound.notes:
        print(f"note: {note}")
    if args.vdc:
        value = bnd.vdc_exponent(profile, args.vdc, refined=args.refined)
        report["vdc_exponent"] = {"l": args.vdc, "refined": args.refined, "value": value}
        print(f"oscillatory exponent (l={args.vdc}, refined={args.refined}): {value:.6f}")
    if args.out:
        out = _out_dir(args)
        ifsmod.write_json(out / "bounds.json", report)
        print(f"wrote {out / 'bounds.json'}")


# -- fourier ----------------------------------------------------------------


def cmd_fourier(args) -> None:
    doc = ifsmod.load_ifs(args.ifs)
    budget = _budget()
    if args.xi_list is not None:
        xis = np.array(_parsed("--xi-list", lambda text: [float(x) for x in text.split(",")],
                               args.xi_list))
    else:
        if args.count < 1:
            raise BadConfig("--count must be >= 1")
        xis = np.linspace(args.xi_min, args.xi_max, args.count)
    scheme = args.scheme
    if scheme == "recursion":
        if args.map is not None:
            raise BadConfig("--map: the recursion scheme is mu_hat itself and takes no map")
        pmap, scheme = fr.identity_map(doc.ifs), "exact_recursion"
    elif args.map:
        pmap = _build_map(doc.ifs, _parsed("--map", json.loads, args.map))
    else:
        raise BadConfig(f"the {scheme} scheme needs --map")
    values, errors, leaves = fr.pushforward_batch(
        doc.ifs,
        pmap,
        xis,
        tol=args.tol,
        scheme=scheme,
        threads=args.threads,
        budget=budget,
    )
    out = Path(args.out or "fourier.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    fr.write_samples_csv(out, xis, values, errors, scheme, leaves)
    print(f"wrote {out} ({len(xis)} rows)")


# -- decay ------------------------------------------------------------------


def cmd_decay(args) -> None:
    cfg = _fields(ifsmod.read_json(args.config, "decay config"), "decay config", _DECAY_FIELDS)
    doc = ifsmod.load_ifs(Path(args.config).parent / cfg.pop("ifs"))
    pmap = _build_map(doc.ifs, cfg.pop("map"))
    separation = cfg.pop("separation", doc.declared_separation)
    if cfg.get("theoretical_sigma") is None:
        profile = dims.build_profile(doc.ifs, separation, doc.exponents)
        cfg["theoretical_sigma"] = bnd.decay_bound(profile).sigma
    experiment = xp.measure_decay_slope(doc.ifs, pmap, threads=args.threads, budget=_budget(), **cfg)
    theoretical = experiment.theoretical_sigma
    out = _out_dir(args)
    xp.write_octave_csv(out / "octaves.csv", experiment)
    fr.write_samples_csv(
        out / "samples.csv",
        experiment.frequencies,
        experiment.values,
        experiment.error_bounds,
        experiment.scheme,
        experiment.leaves,
    )
    summary = experiment.to_summary()
    verdict = (
        "empirical decay is at least the theoretical bound"
        if theoretical is not None and experiment.empirical_exponent >= theoretical
        else "empirical decay below the theoretical bound (check reliability warnings)"
    )
    summary["verdict_note"] = verdict
    ifsmod.write_json(out / "summary.json", summary)
    print(
        f"fitted slope {experiment.fitted_slope:.4f} "
        f"(empirical exponent {experiment.empirical_exponent:.4f}, "
        f"theoretical sigma {theoretical if theoretical is None else round(theoretical, 6)})"
    )
    print(f"wrote {out / 'octaves.csv'}, {out / 'samples.csv'}, {out / 'summary.json'}")


# -- convolve ---------------------------------------------------------------


def cmd_convolve(args) -> None:
    cfg = _fields(ifsmod.read_json(args.config, "convolve config"), "convolve config",
                  _CONVOLVE_FIELDS)
    base = Path(args.config).parent
    factors = []
    for entry in cfg.pop("factors"):
        factor = _fields(entry, "factor", _FACTOR_FIELDS)
        doc = ifsmod.load_ifs(base / factor["ifs"])
        factors.append(_build_map(doc.ifs, factor.get("map", {"kind": "log"}), _FACTOR_KINDS))
    experiment = xp.multiplicative_convolution(
        factors, threads=args.threads, budget=_budget(), **cfg
    )
    out = _out_dir(args)
    xp.write_density_csv(out / "density.csv", experiment)
    fr.write_samples_csv(
        out / "product_transform.csv",
        experiment.frequencies,
        experiment.product,
        experiment.product_error,
        "*".join(experiment.schemes),
        np.zeros(len(experiment.frequencies), dtype=int),
    )
    ifsmod.write_json(out / "summary.json", experiment.to_summary())
    print(
        f"mass {experiment.mass:.4f}, certified inversion error "
        f"{experiment.density_error_certified:.2e}, tail estimate {experiment.tail_estimate:.2e}"
    )
    print(f"L1/L2 octave slopes: {experiment.l1_octave_slope:.3f} / {experiment.l2_octave_slope:.3f}")
    print(f"wrote {out / 'density.csv'}, {out / 'product_transform.csv'}, {out / 'summary.json'}")


# -- arith-check ------------------------------------------------------------


def cmd_arith_check(args) -> None:
    kind = args.check
    vals = _parsed(f"{kind} values", lambda values: [float(v) for v in values], args.values)
    report: dict = {"check": kind, "inputs": vals}
    if kind == "two-set":
        if len(vals) != 2:
            raise BadConfig("two-set needs exactly 2 dimensions")
        margin = bnd.two_set_margin(*vals)
        report.update({"verdict": margin > 0.0, "margin": margin})
        if abs(margin) < 1e-9:
            report["note"] = "boundary case: strict inequality fails"
    elif kind == "three-set":
        if len(vals) != 3:
            raise BadConfig("three-set needs exactly 3 dimensions")
        report["verdict"] = bnd.three_set_condition(*vals)
    elif kind == "two-measures":
        if len(vals) != 2:
            raise BadConfig("two-measures needs 2 correlation dimensions")
        verdict, bullets = bnd.two_measure_density_conditions(
            vals[0], vals[1], args.ad_regular
        )
        report.update(
            {"verdict": verdict, "satisfied_bullets": list(bullets), "note": bnd.TWO_MEASURE_NOTE}
        )
    elif kind == "log-sigma":
        if len(vals) != 1:
            raise BadConfig("log-sigma needs 1 correlation dimension")
        report["sigma"] = bnd.log_pushforward_sigma(vals[0])
        report["verdict"] = True
    elif kind == "high-dim":
        if len(vals) != 2:
            raise BadConfig("high-dim needs k and kappa2")
        report["verdict"] = bnd.high_dim_condition(_parsed("high-dim k", _int, vals[0]), vals[1])
    elif kind == "thresholds":
        if vals:
            raise BadConfig("thresholds takes no values")
        t2, t3 = bnd.symmetric_thresholds()
        report.update({"two_fold": t2, "three_fold": t3, "verdict": True})
    else:  # pragma: no cover - argparse restricts choices
        raise BadConfig(f"unknown check {kind!r}")
    print(json.dumps(report, indent=2, sort_keys=True))


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractal-fourier",
        description=(
            "Self-similar measures: dimension profiles, decay-bound calculators, "
            "certified Fourier evaluation, and nonlinear-arithmetic experiments."
        ),
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="max worker threads; outputs are identical for any value",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="compute a dimension profile from an IFS file")
    p.add_argument("--ifs", required=True, help="IFS description JSON")
    p.add_argument("--separation", choices=ifsmod.SEPARATION_KINDS, default=None,
                   help="override the file's declared separation")
    p.add_argument("--out", default=None, help="directory for profile.json")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("bounds", help="decay exponents and condition report")
    p.add_argument("--ifs", default=None)
    p.add_argument("--profile", default=None, help="profile.json from 'dims'")
    p.add_argument("--separation", choices=ifsmod.SEPARATION_KINDS, default=None)
    p.add_argument("--thresholds", action="store_true", help="include t2/t3 thresholds")
    p.add_argument("--vdc", type=int, default=None, metavar="L",
                   help="include the holomorphic exponent for derivative order L")
    p.add_argument("--refined", action="store_true")
    p.add_argument("--assume-curvature", action="store_true",
                   help="declare the curvature hypothesis verified")
    p.add_argument("--assume-non-expanding", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("fourier", help="evaluate transforms on a frequency sweep")
    p.add_argument("--ifs", required=True)
    p.add_argument(
        "--scheme",
        choices=("recursion", *fr.IMAGE_SCHEMES),
        default="recursion",
        help="recursion: mu_hat itself; order0/order1/order2: the image under --map by "
        "cylinder quadrature of that order (order2: homogeneous systems on the line, "
        "maps with a third-derivative bound)",
    )
    p.add_argument("--map", default=None, help="JSON map spec for order0/order1/order2")
    p.add_argument("--xi-min", type=float, default=0.0)
    p.add_argument("--xi-max", type=float, default=100.0)
    p.add_argument("--count", type=int, default=101)
    p.add_argument("--xi-list", default=None, help="comma-separated frequencies")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", default=None, help="output CSV path")
    p.set_defaults(func=cmd_fourier)

    p = sub.add_parser("decay", help="per-octave decay-slope experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="decay_out")
    p.set_defaults(func=cmd_decay)

    p = sub.add_parser("convolve", help="multiplicative convolution experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="convolve_out")
    p.set_defaults(func=cmd_convolve)

    p = sub.add_parser("arith-check", help="closed-form arithmetic condition checkers")
    p.add_argument(
        "check",
        choices=(
            "two-set",
            "three-set",
            "two-measures",
            "log-sigma",
            "high-dim",
            "thresholds",
        ),
    )
    p.add_argument("values", nargs="*", help="numeric arguments for the check")
    p.add_argument("--ad-regular", action="store_true",
                   help="second measure is AD-regular (two-measures)")
    p.set_defaults(func=cmd_arith_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:
            raise BadConfig(f"--threads must be at least 1, got {args.threads}")
        args.func(args)
    except FractalFourierError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return FractalFourierError.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
