"""Print the exit code and the sha256 of the stderr, stdout and output files of a fixed set of CLI runs on a checkout.

    python tools/output_digests.py TREE [RUN ...]

TREE is a source checkout.  Every run is one ``fractal_fourier.cli``
process per CLI call with TREE/src on its PYTHONPATH, in its own fresh
temporary directory, one process at a time:

* the three benchmark workloads at seed 0 (``workload-<name>-t<threads>``),
  their input files and CLI calls taken from ``make(name, 0)`` of
  TREE/perfbench/workloads.py, which is imported and never written;
* ``decay`` and ``convolve`` on configs/decay_cantor_square.json and
  configs/convolve_uniform12.json (``decay-t<threads>``,
  ``convolve-t<threads>``);
  each of these runs at ``--threads`` 1 and 2, and every ``convolve``
  run, whose grid rows and inversion sum by BLAS matrix products, also
  with two BLAS threads (``<run>-blas2``);
* ``fourier`` on every IFS file in TREE/configs with the schemes
  recursion, order0, order1 and order2, the last three with the square
  map, all at ``--xi-max 5000 --count 41 --tol 1e-5``
  (``fourier-<ifs>-<scheme>``), ``dims --out`` and ``bounds
  --thresholds --out`` on each of them (``dims-<ifs>``,
  ``bounds-<ifs>``), and a recursion sweep of configs/cantor.json on
  20,001 grid rows to 2000 at ``--tol 1e-9``, which the product form
  sums in many blocks of one base block
  (``fourier-cantor-recursion-grid``);
* ``arith-check`` once per check (``arith-check-<check>``), whose report
  is its standard output;
* runs that are refused: ``FRACTAL_FOURIER_BUDGET`` 10 on the order-1
  ``fourier`` sweep of configs/cantor.json and on the ``decay`` and
  ``convolve`` configs above (``budget10-<command>``, exit 4), the same
  sweep with ``FRACTAL_FOURIER_BUDGET`` abc (``budget-abc-fourier``,
  exit 2) and without ``--map`` (``no-map-fourier``, exit 2), the
  recursion with ``--map`` (``map-recursion-fourier``, exit 2), a
  ``decay`` config of one octave (``one-octave-decay``, exit 2),
  ``bounds --profile`` on a profile with kappa2 > kappa_star
  (``inconsistent-bounds``, exit 3), the order-1 ``fourier`` at xi = 10
  and 40 of the four-corner Cantor set in the plane under the maps on
  the line ``cube`` and ``log`` with shift -1 (``four-corner-cube``,
  ``four-corner-log``, exit 2), ``arith-check log-sigma nan``
  (``nan-log-sigma``, exit 2) and ``arith-check two-set`` with one value
  (``arith-check-two-set-arity``, exit 2);
* runs at the resource limits, on systems of ratios near 1 at xi = 1000:
  order 0 of three maps of ratios 0.999, 0.998 and 0.997 under the
  square map at ``--tol 1e-6``, whose cover count stops at the leaf
  budget (``near-one-three-order0``, exit 4), and at ``--tol 1e-9`` two
  maps of ratio 0.999 by order 1, a cover of 2^14381 leaves
  (``near-one-two-order1``, exit 4), and by the recursion, past the
  product form's depth limit (``near-one-two-recursion``, exit 4), eight
  maps of ratio 0.994 by the recursion, a leaf count of 4,343 digits
  (``near-one-eight-recursion``), and the recursion of
  configs/cantor.json at xi = 1e300 (``cantor-recursion-1e300``).

With RUN arguments only the runs whose names start with one of them run.
Runs take one BLAS thread (``OPENBLAS_NUM_THREADS`` 1) unless their name
ends in ``-blas2``.  Each run prints ``exit <code> <run>``, then
``stderr <digest> <run>`` and ``stdout <digest> <run>`` of its calls'
standard error and output, with TREE's path written as ``TREE``, then
``sha256 <digest> <run>/<file>`` for each file it wrote, in sorted order.
Two checkouts give the same output bytes, standard error, standard output
and exit codes exactly when

    diff <(python tools/output_digests.py A) <(python tools/output_digests.py B)

prints nothing.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

THREADS = (1, 2)
FOURIER_ARGS = ["--xi-max", "5000", "--count", "41", "--tol", "1e-5"]
SQUARE = ["--map", '{"kind": "square"}']
BLAS2 = {"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": "2"}
# kappa2 > kappa_star: the exponent chain fails when the profile is read
INCONSISTENT_PROFILE = json.dumps({"k": 1, "s_sim_set": 0.6, "s_sim_meas": 0.6, "kappa2": 0.7,
                                   "kappa_star": 0.6, "d_inf": 0.6})
# one valid call of each arith-check check
ARITH_CHECKS = {"two-set": ["0.8", "0.8"], "three-set": ["0.851"] * 3,
                "two-measures": ["0.9", "0.7", "--ad-regular"], "log-sigma": ["0.7"], "high-dim": ["5", "4.6"],
                "thresholds": []}
FOUR_CORNER = json.dumps({"ambient_dim": 2, "weights": [0.25] * 4, "maps": [
    {"ratio": 1 / 3, "orientation": [1.0, 0.0, 0.0, 1.0], "translation": [x, y]}
    for x in (0.0, 2 / 3) for y in (0.0, 2 / 3)]})


def line_ifs(ratios, translations, weights):
    """The IFS file of the maps x -> r x + t on the line."""
    return json.dumps({"ambient_dim": 1, "weights": weights, "maps": [
        {"ratio": r, "orientation": [1.0], "translation": [t]} for r, t in zip(ratios, translations)]})


# systems of ratios near 1
NEAR_ONE = {"three": line_ifs([0.999, 0.998, 0.997], [0.0, 0.001, 0.002], [0.3, 0.3, 0.4]),
            "two": line_ifs([0.999] * 2, [0.0, 0.001], [0.5] * 2),
            "eight": line_ifs([0.994] * 8, [0.001 * i for i in range(8)], [0.125] * 8)}


def runs(tree: Path):
    """(name, input files {name: text}, CLI calls with "{out}" for the output directory, environment) of every run."""
    sys.path.insert(0, str(tree / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    configs = tree / "configs"
    for threads in THREADS:
        flag = ["--threads", str(threads)]
        for name in sorted(workloads.BUILDERS):
            plan = workloads.make(name, 0)
            calls = [flag + call for call in plan.calls]
            yield f"workload-{name}-t{threads}", plan.files, calls, {}
            if name == "convolve":
                yield f"workload-{name}-t{threads}-blas2", plan.files, calls, BLAS2
        for command, config in (("decay", "decay_cantor_square"), ("convolve", "convolve_uniform12")):
            call = [*flag, command, "--config", str(configs / f"{config}.json"), "--out", "{out}"]
            yield f"{command}-t{threads}", {}, [call], {}
            if command == "convolve":
                yield f"{command}-t{threads}-blas2", {}, [call], BLAS2
    for path in sorted(configs.glob("*.json")):
        if "maps" not in json.loads(path.read_text(encoding="utf-8")):
            continue
        for scheme in ("recursion", "order0", "order1", "order2"):
            call = ["fourier", "--ifs", str(path), "--scheme", scheme, *FOURIER_ARGS,
                    *([] if scheme == "recursion" else SQUARE), "--out", "{out}/fourier.csv"]
            yield f"fourier-{path.stem}-{scheme}", {}, [call], {}
        yield f"dims-{path.stem}", {}, [["dims", "--ifs", str(path), "--out", "{out}"]], {}
        yield f"bounds-{path.stem}", {}, [["bounds", "--ifs", str(path), "--thresholds", "--out", "{out}"]], {}
    yield "fourier-cantor-recursion-grid", {}, [["fourier", "--ifs", str(configs / "cantor.json"), "--xi-min", "0",
                                                  "--xi-max", "2000", "--count", "20001", "--tol", "1e-9",
                                                  "--out", "{out}/fourier.csv"]], {}
    for check, values in ARITH_CHECKS.items():
        yield f"arith-check-{check}", {}, [["arith-check", check, *values]], {}
    sweep = ["fourier", "--ifs", str(configs / "cantor.json"), "--scheme", "order1", *FOURIER_ARGS,
             "--out", "{out}/fourier.csv"]
    small = {"FRACTAL_FOURIER_BUDGET": "10"}
    yield "budget10-fourier", {}, [sweep + SQUARE], small
    for command, config in (("decay", "decay_cantor_square"), ("convolve", "convolve_uniform12")):
        yield f"budget10-{command}", {}, [[command, "--config", str(configs / f"{config}.json"),
                                           "--out", "{out}"]], small
    yield "budget-abc-fourier", {}, [sweep + SQUARE], {"FRACTAL_FOURIER_BUDGET": "abc"}
    yield "no-map-fourier", {}, [sweep], {}
    yield "map-recursion-fourier", {}, [["fourier", "--ifs", str(configs / "cantor.json"), *SQUARE,
                                         "--xi-list", "3,5", "--out", "{out}/fourier.csv"]], {}
    one_octave = json.dumps({"ifs": str(configs / "cantor.json"), "map": {"kind": "square"}, "octaves": [8, 8]})
    yield "one-octave-decay", {"decay.json": one_octave}, [["decay", "--config", "decay.json", "--out", "{out}"]], {}
    yield "inconsistent-bounds", {"profile.json": INCONSISTENT_PROFILE}, \
        [["bounds", "--profile", "profile.json", "--out", "{out}"]], {}
    for kind, spec in (("cube", '{"kind": "cube"}'), ("log", '{"kind": "log", "shift": -1}')):
        yield f"four-corner-{kind}", {"four_corner.json": FOUR_CORNER}, \
            [["fourier", "--ifs", "four_corner.json", "--scheme", "order1", "--map", spec, "--xi-list", "10,40",
              "--tol", "1e-4", "--out", "{out}/fourier.csv"]], {}
    yield "nan-log-sigma", {}, [["arith-check", "log-sigma", "nan"]], {}
    yield "arith-check-two-set-arity", {}, [["arith-check", "two-set", "0.8"]], {}
    for system, scheme, tol in (("three", "order0", "1e-6"), ("two", "order1", "1e-9"), ("two", "recursion", "1e-9"),
                                ("eight", "recursion", "1e-9")):
        yield f"near-one-{system}-{scheme}", {"near_one.json": NEAR_ONE[system]}, \
            [["fourier", "--ifs", "near_one.json", "--scheme", scheme, *([] if scheme == "recursion" else SQUARE),
              "--xi-list", "1000", "--tol", tol, "--out", "{out}/fourier.csv"]], {}
    yield "cantor-recursion-1e300", {}, [["fourier", "--ifs", str(configs / "cantor.json"), "--xi-list", "1e300",
                                          "--out", "{out}/fourier.csv"]], {}


def digest_run(tree: Path, files: dict, calls: list, environment: dict):
    """(exit code of the first failing call, else 0; sha256 of the calls' stderr and of their stdout;
    [(file, sha256)] of the output directory)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.update(environment)
    with tempfile.TemporaryDirectory() as work:
        for name, text in files.items():
            Path(work, name).write_text(text, encoding="utf-8")
        out = Path(work, "out")
        out.mkdir()
        code, stderr, stdout = 0, hashlib.sha256(), hashlib.sha256()
        for call in calls:
            argv = [sys.executable, "-m", "fractal_fourier.cli", *(a.replace("{out}", "out") for a in call)]
            proc = subprocess.run(argv, cwd=work, env=env, capture_output=True)
            stderr.update(proc.stderr.replace(str(tree).encode(), b"TREE"))
            stdout.update(proc.stdout.replace(str(tree).encode(), b"TREE"))
            code = proc.returncode
            if code:
                break
        written = sorted(p for p in out.rglob("*") if p.is_file())
        return code, stderr.hexdigest(), stdout.hexdigest(), [
            (p.relative_to(out).as_posix(), hashlib.sha256(p.read_bytes()).hexdigest()) for p in written]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    tree, prefixes = Path(args[0]).resolve(), args[1:]
    for name, files, calls, environment in runs(tree):
        if prefixes and not name.startswith(tuple(prefixes)):
            continue
        code, stderr, stdout, digests = digest_run(tree, files, calls, environment)
        print(f"exit {code} {name}", flush=True)
        print(f"stderr {stderr} {name}", flush=True)
        print(f"stdout {stdout} {name}", flush=True)
        for file, digest in digests:
            print(f"sha256 {digest} {name}/{file}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
