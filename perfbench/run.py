"""Benchmark for the fractal-fourier CLI.

    python3 perfbench/run.py --workload {convolve,decay,nonhomog} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/`` there and nowhere else.  The workload's inputs are generated from
the seed into ``perfbench/.work/<workload>/``.  Each repetition runs the
CLI in a fresh process with ``--threads 1``, one process at a time
(closed loop, one client), until ``--seconds`` of repetitions have run.
The first repetition's outputs are checked against independent oracles
after the timed window; every later repetition must write byte-identical
outputs.

``--trace 0`` prints the end-to-end metrics:

    wall_s       median time of one repetition, spawn to exit of its CLI
                 process(es), outputs written
    setup_s      median time from spawn until fractal_fourier.cli is
                 imported and about to run
    peak_rss_mb  median over repetitions of the CLI process's own peak RSS
                 (its rusage from wait4, not the machine's)
    bound_max    largest certified error bound among the outputs (for
                 convolve the certified density error); lower is tighter

``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics: calls, total and self time of each wrapped library
function, work counts read from return values, the ifs probe, the bound
tightness observed against the oracles, and the tracing overhead.

Failed repetitions (non-zero exit, missing or differing output, oracle
violation) are counted in ``failed``; fail_frac = failed / attempted is
printed with the other metrics.  The last line of standard output is the
JSON result.  All three workloads, end to end, with units:

    for w in convolve decay nonhomog; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 35 --trace 0 | grep summary
    done

Self-test of the generator, oracles and gates:
``PYTHONPATH=src python -m pytest -q perfbench/tests``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import launch  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 6
RUN_DEADLINE_S = 170.0
BUDGET_EXCEEDED_EXIT = 4

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "bound_max": "1"}


def per_layer_units():
    units = {}
    for name in launch.WRAPPED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(
        {
            "fourier.pushforward_batch.terms": "count",
            "fourier.pushforward_batch.ns_per_term": "ns",
            "fourier.pushforward_batch.rss_hwm_mb": "MB",
            "fourier.mu_hat.leaves": "count",
            "fourier.mu_hat.us_per_leaf": "us",
            "fourier.pushforward_hat_order1.leaves": "count",
            "fourier.write_samples_csv.bytes": "B",
            "experiments.multiplicative_convolution.rss_hwm_mb": "MB",
            "ifs.stopping_decomposition.leaves": "count",
            "ifs.stopping_decomposition.us_per_leaf": "us",
            "fourier.bound_tightness": "1",
            "trace.overhead_s": "s",
        }
    )
    return units


# -- environment --------------------------------------------------------------


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _cpu_model():
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _llc_size():
    best = (0, "unknown")
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")) if cache.is_dir() else []:
        level = _read(index / "level").strip()
        if level.isdigit() and int(level) >= best[0]:
            best = (int(level), f"L{level} {_read(index / 'size').strip()}")
    return best[1]


def _git_commit(root):
    head = _read(root / ".git" / "HEAD").strip()
    if head.startswith("ref: "):
        ref = head[5:]
        commit = _read(root / ".git" / ref).strip()
        if not commit:
            for line in _read(root / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    commit = line.split()[0]
        return commit or "unknown"
    return head or "unknown (not a git checkout)"


def _source_digest(package):
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root, package):
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "llc": _llc_size(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "library_commit": _git_commit(root),
        "library_source_sha256": _source_digest(package),
        "notes": [
            "thread scaling is not measured: a few shared cores give no steady scaling "
            "numbers; every CLI call runs with --threads 1 and single-threaded BLAS",
            "peak RSS is the CLI process's own rusage (ru_maxrss via wait4), not the machine's",
        ],
    }


# -- one child process ----------------------------------------------------------


class Child:
    """One spawned process: wall time, set-up time, exit code, peak RSS."""

    def __init__(self, argv, cwd, env, log, mark, deadline):
        start = time.monotonic()
        with open(log, "w", encoding="utf-8") as out:
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - start, 0.0), _kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        self.wall = time.monotonic() - start
        proc.returncode = self.exit = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.cpu = usage.ru_utime + usage.ru_stime
        mark_text = _read(mark)
        self.setup = float(mark_text) - start if mark_text else math.nan
        if os.path.exists(mark):
            os.remove(mark)


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# -- one repetition -------------------------------------------------------------


class Rep:
    def __init__(self, index, traced):
        self.index = index
        self.traced = traced
        self.wall = 0.0
        self.cpu = 0.0
        self.rss_mb = 0.0
        self.setups = []
        self.failure = None
        self.digests = None
        self.spans = []


class Bench:
    def __init__(self, root, plan, workdir, deadline):
        self.plan = plan
        self.workdir = workdir
        self.deadline = deadline
        self.mark = str(workdir / "setup.mark")
        self.env = dict(os.environ)
        self.env.pop("FRACTAL_FOURIER_BUDGET", None)
        pythonpath = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env["PYTHONPATH"] = os.pathsep.join(pythonpath)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.launcher = str(HERE / "launch.py")
        self.reference = None

    def spawn(self, mode_args, log):
        argv = [sys.executable, self.launcher, self.mark] + mode_args
        return Child(argv, str(self.workdir), self.env, log, self.mark, self.deadline)

    def setup_probe(self):
        child = self.spawn(["import-only"], str(self.workdir / "import.log"))
        return child.setup if child.exit == 0 else math.nan

    def repetition(self, index, traced):
        rep = Rep(index, traced)
        out = f"rep{index}"
        outdir = self.workdir / out
        outdir.mkdir()
        for j, call in enumerate(self.plan.calls):
            args = [a.replace(workloads.OUT, out) for a in call]
            trace_file = self.workdir / f"trace{index}-{j}.json"
            opts = [str(trace_file), str(index)] if traced else []
            child = self.spawn(
                ["run"] + opts + ["--", "--threads", "1"] + args, str(outdir / f"call{j}.log")
            )
            rep.wall += child.wall
            rep.cpu += child.cpu
            rep.rss_mb = max(rep.rss_mb, child.rss_mb)
            rep.setups.append(child.setup)
            if child.exit != 0:
                kind = "budget_exceeded" if child.exit == BUDGET_EXCEEDED_EXIT else "error"
                rep.failure = f"{kind}: call {j} exited {child.exit} after {rep.wall:.3f} s"
                return rep
            if traced:
                with open(trace_file, "r", encoding="utf-8") as fh:
                    spans = json.load(fh)
                offset = len(rep.spans)
                for span in spans:
                    if span["parent"] is not None:
                        span["parent"] += offset
                rep.spans += spans
        digests = {}
        for name in self.plan.outputs:
            path = outdir / name
            if not path.is_file():
                rep.failure = f"missing output {name}"
                return rep
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        rep.digests = digests
        if self.reference is None:
            self.reference = rep
        elif digests != self.reference.digests:
            rep.failure = "output differs from the checked repetition"
        if rep is not self.reference:
            shutil.rmtree(outdir)
        return rep


def _median(values):
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def run_reps(bench, seconds, trace):
    """Closed loop: start another repetition while it is expected to fit."""
    reps = []
    start = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(bench.repetition(len(reps), traced))
        elapsed = time.monotonic() - start
        expected = _median([r.wall for r in reps])
        need_both = trace and not any(r.traced for r in reps)
        if time.monotonic() + expected > bench.deadline:
            break
        if elapsed + expected > seconds and not need_both:
            break
    return reps


# -- per-layer metrics ------------------------------------------------------------


def layer_metrics(spans):
    """Calls, total and self seconds, and summed counts per span name."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    agg = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}} for name in launch.WRAPPED}
    for i, s in enumerate(spans):
        entry = agg[s["name"]]
        duration = s["end"] - s["start"]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time[i]
        for key, value in s.get("counts", {}).items():
            if key == "rss_hwm_mb":
                entry["counts"][key] = max(entry["counts"].get(key, 0.0), value)
            else:
                entry["counts"][key] = entry["counts"].get(key, 0) + value
    metrics = {}
    for name, entry in agg.items():
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.total_s"] = entry["total_s"]
        metrics[f"{name}.self_s"] = entry["self_s"]
    batch = agg["fourier.pushforward_batch"]
    terms = batch["counts"].get("terms", 0)
    metrics["fourier.pushforward_batch.terms"] = terms
    metrics["fourier.pushforward_batch.ns_per_term"] = batch["self_s"] / terms * 1e9 if terms else 0.0
    metrics["fourier.pushforward_batch.rss_hwm_mb"] = batch["counts"].get("rss_hwm_mb", 0.0)
    mu = agg["fourier.mu_hat"]
    leaves = mu["counts"].get("leaves", 0)
    metrics["fourier.mu_hat.leaves"] = leaves
    metrics["fourier.mu_hat.us_per_leaf"] = mu["self_s"] / leaves * 1e6 if leaves else 0.0
    metrics["fourier.pushforward_hat_order1.leaves"] = agg["fourier.pushforward_hat_order1"][
        "counts"
    ].get("leaves", 0)
    metrics["fourier.write_samples_csv.bytes"] = agg["fourier.write_samples_csv"]["counts"].get(
        "bytes", 0
    )
    metrics["experiments.multiplicative_convolution.rss_hwm_mb"] = agg[
        "experiments.multiplicative_convolution"
    ]["counts"].get("rss_hwm_mb", 0.0)
    return metrics


def stopping_probe(bench):
    """(leaves, us per leaf) of ifs.stopping_decomposition at the order-1 outer scales.

    Workloads without a probe report zeros; a failed probe reports NaN.
    """
    if bench.plan.probe is None:
        return 0, 0.0
    ifs_file, tol, xis = bench.plan.probe
    out = bench.workdir / "probe.json"
    args = ["probe-stopping", ifs_file, repr(tol), ",".join(repr(x) for x in xis), str(out)]
    child = bench.spawn(args, str(bench.workdir / "probe.log"))
    if child.exit != 0:
        print(f"stopping-decomposition probe exited {child.exit}")
        return math.nan, math.nan
    with open(out, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    return result["leaves"], result["seconds"] / result["leaves"] * 1e6


# -- entry point --------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    started = time.monotonic()
    root = Path.cwd()
    package = root / "src" / "fractal_fourier"
    if not (package / "cli.py").is_file():
        print(f"no library source at {package}; run from the root of a checkout", file=sys.stderr)
        return 2

    plan = workloads.make(args.workload, args.seed)
    workdir = HERE / ".work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    digest = plan.write(workdir)
    bench = Bench(root, plan, workdir, started + RUN_DEADLINE_S)

    print("env " + json.dumps(environment(root, package), sort_keys=True))
    print(
        "inputs "
        + json.dumps(
            {"workload": plan.name, "seed": args.seed, "digest": digest, "params": plan.params},
            sort_keys=True,
        )
    )

    setups = [bench.setup_probe() for _ in range(SETUP_PROBES)][1:]  # first one warms caches
    reps = run_reps(bench, args.seconds, bool(args.trace))

    verdict = None
    if bench.reference is not None:
        verdict = plan.check(str(workdir / f"rep{bench.reference.index}"))
        if verdict.violations:
            for rep in reps:
                if rep.failure is None:
                    rep.failure = "oracle: " + "; ".join(verdict.violations)
    failed = sum(1 for r in reps if r.failure is not None)
    for rep in reps:
        state = "ok" if rep.failure is None else f"FAILED {rep.failure}"
        kind = "traced" if rep.traced else "plain"
        print(
            f"rep {rep.index} {kind} wall={rep.wall:.4f}s cpu={rep.cpu:.4f}s "
            f"rss={rep.rss_mb:.1f}MB {state}"
        )

    plain = [r for r in reps if not r.traced]
    good = [r for r in plain if r.failure is None] or plain
    setups += [s for r in plain for s in r.setups]
    end_to_end = {
        "wall_s": _median([r.wall for r in good]),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([r.rss_mb for r in good]),
        "bound_max": verdict.bound_max if verdict is not None else math.nan,
    }
    summary = dict(end_to_end, fail_frac=failed / len(reps), reps=len(reps))
    print(
        "summary "
        + " ".join(
            f"{k}={v:.6g}{END_TO_END_UNITS.get(k, '')}" if isinstance(v, float) else f"{k}={v}"
            for k, v in summary.items()
        )
    )

    if args.trace:
        traced = [r for r in reps if r.traced and r.failure is None]
        per_rep = [layer_metrics(r.spans) for r in traced]
        units = per_layer_units()
        # median_low keeps counts integral: it returns one of the traced values
        values = {
            name: statistics.median_low([m[name] for m in per_rep]) for name in per_rep[0]
        } if per_rep else {}
        leaves, us_per_leaf = stopping_probe(bench)
        values["ifs.stopping_decomposition.leaves"] = leaves
        values["ifs.stopping_decomposition.us_per_leaf"] = us_per_leaf
        values["fourier.bound_tightness"] = verdict.tightness if verdict is not None else math.nan
        values["trace.overhead_s"] = _median([r.wall for r in reps if r.traced]) - end_to_end[
            "wall_s"
        ]
        reported = {name: (values.get(name, math.nan), unit) for name, unit in units.items()}
    else:
        reported = {name: (value, END_TO_END_UNITS[name]) for name, value in end_to_end.items()}
    # A metric that could not be measured reads 0 (JSON has no NaN); the run
    # is then not correct.
    metrics = {
        name: {"value": 0.0 if math.isnan(value) else value, "unit": unit}
        for name, (value, unit) in reported.items()
    }
    unmeasured = [name for name, (value, _) in reported.items() if math.isnan(value)]
    if unmeasured:
        print("unmeasured: " + ", ".join(unmeasured))

    correct = failed == 0 and verdict is not None and not unmeasured
    result = {"correct": correct, "attempted": len(reps), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
