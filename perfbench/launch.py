"""Child-process entry point for the benchmark.

Runs the fractal-fourier CLI the way the console script does
(``sys.exit(main(argv))``), after writing a set-up mark: the
CLOCK_MONOTONIC time at which ``fractal_fourier.cli`` is imported and
about to run.  The parent compares it with its own spawn time.

    python3 launch.py MARK run [TRACE REP] -- CLI-ARGS...
    python3 launch.py MARK import-only
    python3 launch.py MARK probe-stopping IFS TOL XI[,XI...] OUT

With TRACE, each layer's public functions are wrapped at the module
attributes through which the library's own modules call them, spans are
kept in memory on a thread-local stack, and the list is written to TRACE
when the CLI returns.  The library source is not modified.
"""

import functools
import importlib
import json
import math
import os
import resource
import sys
import threading
import time


def _write_mark(path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(repr(time.monotonic()))


# Span names and the module attributes that carry each function.  A
# function imported by name into another module is wrapped there too,
# because that is the name the importing module calls.
WRAPPED = {
    "ifs.load_ifs": ("ifs",),
    "ifs.chaos_game": ("ifs", "dimensions", "fourier"),
    "dimensions.build_profile": ("dimensions",),
    "bounds.decay_bound": ("bounds",),
    "fourier.pushforward_batch": ("fourier", "experiments"),
    "fourier.pushforward_hat_order1": ("fourier",),
    "fourier.mu_hat": ("fourier",),
    "fourier.curvature_diagnostic": ("fourier", "experiments"),
    "fourier.write_samples_csv": ("fourier",),
    "experiments.measure_decay_slope": ("experiments",),
    "experiments.multiplicative_convolution": ("experiments",),
    "experiments.write_density_csv": ("experiments",),
    "experiments.write_octave_csv": ("experiments",),
    "cli.main": ("cli",),
}


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _count_terms(args, result):
    return {"terms": int(result[2].sum()), "rss_hwm_mb": _rss_mb()}


def _count_leaves(args, result):
    return {"leaves": int(result.leaves_used)}


def _count_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _count_rss(args, result):
    return {"rss_hwm_mb": _rss_mb()}


# Work counts read from return values (or, for writers, the file written)
# after the span has closed, so counting is not charged to the layer.
COUNTERS = {
    "fourier.pushforward_batch": _count_terms,
    "fourier.mu_hat": _count_leaves,
    "fourier.pushforward_hat_order1": _count_leaves,
    "fourier.write_samples_csv": _count_bytes,
    "experiments.multiplicative_convolution": _count_rss,
}


class Tracer:
    """In-memory span recorder: (name, start, end, parent, rep, counts)."""

    def __init__(self, rep):
        self.rep = rep
        self.spans = []
        self._local = threading.local()

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            record = {"name": name, "parent": stack[-1] if stack else None, "rep": self.rep}
            spans.append(record)
            stack.append(len(spans) - 1)
            record["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = clock()
                stack.pop()
            if counter is not None:
                record["counts"] = counter(args, result)
            return result

        return traced

    def install(self, package):
        for name, homes in WRAPPED.items():
            attr = name.split(".", 1)[1]
            for home in homes:
                module = importlib.import_module(f"{package}.{home}")
                original = getattr(module, attr, None)
                if original is not None:
                    setattr(module, attr, self.wrap(name, original))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _probe_stopping(ifs_path, tol, xis, out_path, repeats=15):
    """Time ifs.stopping_decomposition at order-1 outer stopping scales.

    The scale per frequency is the one the order-1 quadrature uses,
    sqrt((tol / 2) / (pi |xi| H)) / R, with H the square map's Hessian bound
    and R the support radius.  Reports leaves per call and the median time.
    """
    from fractal_fourier import fourier, ifs

    system = ifs.load_ifs(ifs_path).ifs
    hess = fourier.square_map(system).hessian_bound
    radius = system.support_radius
    scales = [math.sqrt(0.5 * tol / (math.pi * abs(x) * hess)) / radius for x in xis]
    leaves = sum(len(ifs.stopping_decomposition(system, s)) for s in scales)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for s in scales:
            ifs.stopping_decomposition(system, s)
        times.append(time.perf_counter() - start)
    times.sort()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"leaves": leaves, "seconds": times[len(times) // 2]}, fh)


def main(argv):
    mark, mode, rest = argv[0], argv[1], argv[2:]
    if mode == "import-only":
        import fractal_fourier.cli  # noqa: F401

        _write_mark(mark)
        return 0
    if mode == "probe-stopping":
        import fractal_fourier.ifs  # noqa: F401

        _write_mark(mark)
        _probe_stopping(rest[0], float(rest[1]), [float(x) for x in rest[2].split(",")], rest[3])
        return 0
    if mode != "run":
        raise SystemExit(f"unknown mode {mode!r}")
    split = rest.index("--")
    options, cli_args = rest[:split], rest[split + 1 :]
    import fractal_fourier.cli as cli

    if not options:
        _write_mark(mark)
        return cli.main(cli_args)
    tracer = Tracer(int(options[1]))
    tracer.install("fractal_fourier")
    _write_mark(mark)
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(options[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
