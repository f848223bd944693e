"""Print the exit code and the sha256 of every output file of a fixed set of CLI runs on a checkout.

    python tools/output_digests.py TREE [RUN ...]

TREE is a source checkout.  Every run is one ``fractal_fourier.cli``
process with TREE/src on its PYTHONPATH, in its own fresh temporary
directory, one process at a time:

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
  (``fourier-<ifs>-<scheme>``).

With RUN arguments only the runs whose names start with one of them run.
Runs take one BLAS thread (``OPENBLAS_NUM_THREADS`` 1) unless their name
ends in ``-blas2``.  Each run prints ``exit <code> <run>``, then ``sha256 <digest> <run>/<file>``
for each file it wrote, in sorted order.  Two checkouts give the same
output bytes and exit codes exactly when

    diff <(python tools/output_digests.py A) <(python tools/output_digests.py B)

prints nothing.  Standard output and error of the runs are not compared.
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


def runs(tree: Path):
    """(name, input files {name: text}, CLI calls with "{out}" for the output directory) of every run."""
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
            yield f"workload-{name}-t{threads}", plan.files, calls
            if name == "convolve":
                yield f"workload-{name}-t{threads}-blas2", plan.files, calls
        for command, config in (("decay", "decay_cantor_square"), ("convolve", "convolve_uniform12")):
            call = [*flag, command, "--config", str(configs / f"{config}.json"), "--out", "{out}"]
            yield f"{command}-t{threads}", {}, [call]
            if command == "convolve":
                yield f"{command}-t{threads}-blas2", {}, [call]
    for path in sorted(configs.glob("*.json")):
        if "maps" not in json.loads(path.read_text(encoding="utf-8")):
            continue
        for scheme in ("recursion", "order0", "order1", "order2"):
            call = ["fourier", "--ifs", str(path), "--scheme", scheme, *FOURIER_ARGS,
                    *([] if scheme == "recursion" else SQUARE), "--out", "{out}/fourier.csv"]
            yield f"fourier-{path.stem}-{scheme}", {}, [call]


def digest_run(tree: Path, files: dict, calls: list, blas_threads: int = 1):
    """(exit code of the first failing call, else 0; [(file, sha256)] of the output directory)."""
    blas = str(blas_threads)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS=blas, OPENBLAS_NUM_THREADS=blas, MKL_NUM_THREADS=blas)
    with tempfile.TemporaryDirectory() as work:
        for name, text in files.items():
            Path(work, name).write_text(text, encoding="utf-8")
        out = Path(work, "out")
        out.mkdir()
        code = 0
        for call in calls:
            argv = [sys.executable, "-m", "fractal_fourier.cli", *(a.replace("{out}", "out") for a in call)]
            code = subprocess.run(argv, cwd=work, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL).returncode
            if code:
                break
        written = sorted(p for p in out.rglob("*") if p.is_file())
        return code, [(p.relative_to(out).as_posix(), hashlib.sha256(p.read_bytes()).hexdigest())
                      for p in written]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    tree, prefixes = Path(args[0]).resolve(), args[1:]
    for name, files, calls in runs(tree):
        if prefixes and not name.startswith(tuple(prefixes)):
            continue
        code, digests = digest_run(tree, files, calls, 2 if name.endswith("-blas2") else 1)
        print(f"exit {code} {name}", flush=True)
        for file, digest in digests:
            print(f"sha256 {digest} {name}/{file}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
