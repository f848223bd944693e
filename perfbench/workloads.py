"""Seeded inputs for the benchmark's workloads, and the checks on their outputs.

Each workload is built from ``--seed`` alone: ``make(name, seed)`` returns
the files to write (IFS descriptions and configs), the CLI calls that read
them, and a checker for the outputs.  The library sees only those files
and arguments.

All three workloads drive ``fourier.pushforward_batch``, in three ways:

convolve  Product of two uniform[1, 2] variables in log coordinates,
          max_frequency 4096 (22,715 grid frequencies x 2,048 leaves).
          The uniform-grid, fixed-scale batch path: the phase-sum kernel
          with table lookups is ~90% of the time, Fourier inversion ~6%,
          CSV output ~4%.  The grid leaves nothing for the seed to vary,
          so this workload does not depend on the seed.
decay     Cantor measure under x -> x^2, order1, octaves [8, 22] with 256
          samples each drawn by the library from the seed.  The same batch
          function at random octave-grouped frequencies, where building
          the mu_hat interpolation table up to the top octave takes ~90%
          of the time; ``theoretical_sigma`` is unset, so it also runs the
          dimension and bound layers.
nonhomog  The Cantor measure written as a seeded non-homogeneous IFS: one
          of its two maps is expanded one level (ratios 1/3, 1/9, 1/9,
          weights 1/2, 1/4, 1/4) and each map g is replaced by
          x -> g(1 - x) with probability 1/2.  The measure is symmetric
          about 1/2, so it is unchanged and exact oracles remain.  Two
          ``fourier`` calls: recursion at tol 1e-4 for one frequency per
          octave in [2^4, 2^10), and order1 under x -> x^2 at tol 1e-3 for
          one per octave in [2^8, 2^14).  The only workload on the
          per-frequency path (Python DFS for stopping words and mu_hat, on
          orientation-reversing maps).  Each frequency sits at the
          geometric middle of its octave with a seeded sign: the DFS leaf
          count is a step function of |xi|, so drawing |xi| at random
          would make the work itself vary with the seed.
"""

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import oracles

OUT = "{out}"

# Oracle error budget for the Cantor x -> x^2 reference (its depth follows).
SQUARE_ORACLE_TARGET = 1e-5


@dataclass
class Verdict:
    """Outcome of the output checks; any violation fails the repetition."""

    violations: List[str]
    tightness: float
    bound_max: float


@dataclass
class Plan:
    """Inputs and CLI calls of one workload; ``probe`` is (IFS file, tol,
    order-1 frequencies) for the stopping-decomposition probe."""

    name: str
    files: Dict[str, str]
    calls: List[List[str]]
    outputs: List[str]
    check: Callable[[str], Verdict]
    probe: Optional[Tuple[str, float, List[float]]] = None
    params: dict = field(default_factory=dict)

    def write(self, workdir):
        """Write the input files; return the digest of inputs and calls."""
        digest = hashlib.sha256()
        for name in sorted(self.files):
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(self.files[name])
            digest.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        digest.update(json.dumps(self.calls).encode())
        return digest.hexdigest()


def _json(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _ifs_doc(maps, weights, separation):
    return _json(
        {
            "ambient_dim": 1,
            "maps": [
                {"ratio": r, "orientation": [o], "translation": [t]} for r, o, t in maps
            ],
            "weights": list(weights),
            "declared_separation": separation,
        }
    )


def _samples(path):
    cols = oracles.read_csv(path)
    return cols["xi"], cols["re"] + 1j * cols["im"], cols["error_bound"]


def _gate(label, values, bounds, reference, oracle_error, violations):
    failing, tightness = oracles.gate_rows(values, bounds, reference, oracle_error)
    if len(failing):
        violations.append(f"{label}: {len(failing)} rows outside their allowance (first {failing[0]})")
    return tightness


def _expect_xis(label, got, want, violations):
    if len(got) != len(want) or not np.array_equal(got, np.asarray(want, dtype=float)):
        violations.append(f"{label}: frequencies differ from the requested ones")


# -- convolve -----------------------------------------------------------------


def _convolve(seed):
    config = {
        "factors": [
            {"ifs": "uniform12.json", "map": {"kind": "log"}},
            {"ifs": "uniform12.json", "map": {"kind": "log"}},
        ],
        "max_frequency": 4096.0,
        "density_points": 512,
        "density_budget": 0.02,
        "tol": 1e-4,
    }
    files = {
        "uniform12.json": _ifs_doc([(0.5, 1.0, 0.5), (0.5, 1.0, 1.0)], [0.5, 0.5], "OSC"),
        "convolve.json": _json(config),
    }
    outputs = ["density.csv", "product_transform.csv", "summary.json"]

    def check(outdir):
        violations = []
        dens = oracles.read_csv(os.path.join(outdir, "density.csv"))
        bad, _, _ = oracles.gate_density(dens["x"], dens["density"])
        violations += bad
        xis, values, bounds = _samples(os.path.join(outdir, "product_transform.csv"))
        exact = oracles.uniform12_log_hat(xis) ** 2
        tightness = _gate(
            "product_transform", values, bounds, exact, oracles.phase_roundoff(xis), violations
        )
        with open(os.path.join(outdir, "summary.json"), "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        if summary["n_freq"] + 1 != len(xis):
            violations.append("product_transform row count differs from n_freq + 1")
        return Verdict(violations, tightness, float(summary["density_error_certified"]))

    calls = [["convolve", "--config", "convolve.json", "--out", OUT]]
    return Plan("convolve", files, calls, outputs, check, params=config)


# -- decay --------------------------------------------------------------------

CANTOR = [(1.0 / 3.0, 1.0, 0.0), (1.0 / 3.0, 1.0, 2.0 / 3.0)]


def _decay(seed):
    config = {
        "ifs": "cantor.json",
        "map": {"kind": "square"},
        "octaves": [8, 22],
        "samples_per_octave": 256,
        "seed": seed,
        "tol": 1e-3,
        "scheme": "order1",
    }
    files = {
        "cantor.json": _ifs_doc(CANTOR, [0.5, 0.5], "SSC"),
        "decay.json": _json(config),
    }
    outputs = ["octaves.csv", "samples.csv", "summary.json"]
    n_rows = (config["octaves"][1] - config["octaves"][0] + 1) * config["samples_per_octave"]

    def check(outdir):
        violations = []
        xis, values, bounds = _samples(os.path.join(outdir, "samples.csv"))
        if len(xis) != n_rows:
            violations.append(f"samples.csv has {len(xis)} rows, expected {n_rows}")
        reference, oracle_error = oracles.cantor_square_hat(xis, SQUARE_ORACLE_TARGET)
        tightness = _gate("samples", values, bounds, reference, oracle_error, violations)
        octaves = oracles.read_csv(os.path.join(outdir, "octaves.csv"))
        if octaves["max_error_bound"].max() != bounds.max():
            violations.append("octaves.csv max error bound disagrees with samples.csv")
        return Verdict(violations, tightness, float(bounds.max()))

    calls = [["decay", "--config", "decay.json", "--out", OUT]]
    return Plan("decay", files, calls, outputs, check, params=config)


# -- nonhomog -----------------------------------------------------------------


def nonhomog_cantor_maps(expand, reflect):
    """Cantor IFS with map ``expand`` split one level and maps reflected.

    Returns [(ratio, orientation, translation)] and the weights.  A map
    g(x) = r x + t composed with x -> 1 - x is -r x + (r + t).
    """
    r, _, t = CANTOR[expand]
    split = [(r / 3.0, 1.0, t + r * tj) for _, _, tj in CANTOR]
    keep = CANTOR[1 - expand]
    maps = [keep] + split if expand == 1 else split + [keep]
    weights = [0.5, 0.25, 0.25] if expand == 1 else [0.25, 0.25, 0.5]
    out = []
    for (ratio, _, trans), flip in zip(maps, reflect):
        out.append((ratio, -1.0, ratio + trans) if flip else (ratio, 1.0, trans))
    return out, weights


def octave_middles(first, last, signs):
    """sign_o 2^(o + 1/2) for octaves o = first .. last - 1."""
    return [float(s) * 2.0 ** (o + 0.5) for o, s in zip(range(first, last), signs)]


def _nonhomog(seed):
    rng = np.random.default_rng(seed)
    expand = int(rng.integers(2))
    reflect = [bool(b) for b in rng.integers(2, size=3)]
    maps, weights = nonhomog_cantor_maps(expand, reflect)
    rec_xis = octave_middles(4, 10, rng.choice([-1, 1], size=6))
    sq_xis = octave_middles(8, 14, rng.choice([-1, 1], size=6))
    rec_tol, sq_tol = 1e-4, 1e-3
    files = {"nonhomog.json": _ifs_doc(maps, weights, "SSC")}
    outputs = ["recursion.csv", "order1.csv"]

    def check(outdir):
        violations = []
        xis, values, bounds = _samples(os.path.join(outdir, "recursion.csv"))
        _expect_xis("recursion", xis, rec_xis, violations)
        exact = oracles.cantor_hat(xis)
        t1 = _gate("recursion", values, bounds, exact, oracles.phase_roundoff(xis), violations)
        xis2, values2, bounds2 = _samples(os.path.join(outdir, "order1.csv"))
        _expect_xis("order1", xis2, sq_xis, violations)
        reference, oracle_error = oracles.cantor_square_hat(xis2, SQUARE_ORACLE_TARGET)
        t2 = _gate("order1", values2, bounds2, reference, oracle_error, violations)
        return Verdict(violations, max(t1, t2), float(max(bounds.max(), bounds2.max())))

    def xi_list(xis):
        return ",".join(repr(x) for x in xis)

    calls = [
        ["fourier", "--ifs", "nonhomog.json", "--scheme", "recursion",
         "--xi-list=" + xi_list(rec_xis), "--tol", repr(rec_tol), "--out", OUT + "/recursion.csv"],
        ["fourier", "--ifs", "nonhomog.json", "--scheme", "order1", "--map", '{"kind": "square"}',
         "--xi-list=" + xi_list(sq_xis), "--tol", repr(sq_tol), "--out", OUT + "/order1.csv"],
    ]
    params = {"expand": expand, "reflect": reflect, "recursion_xis": rec_xis, "order1_xis": sq_xis}
    return Plan(
        "nonhomog", files, calls, outputs, check,
        probe=("nonhomog.json", sq_tol, sq_xis), params=params,
    )


BUILDERS = {"convolve": _convolve, "decay": _decay, "nonhomog": _nonhomog}


def make(name, seed):
    return BUILDERS[name](seed)
