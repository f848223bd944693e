import hashlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "output_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_names_cover_the_listed_runs():
    runs = [(name, environment) for name, _, _, environment in load_tool().runs(ROOT)]
    names = [name for name, _ in runs]
    environments = dict(runs)
    # every convolve run also with two BLAS threads, one recursion grid sweep and eleven refused runs
    assert len(names) == len(set(names)) == 3 * 2 + 2 * 2 + 2 * 2 + 4 * 4 + 1 + 11
    assert "workload-convolve-t2" in names and "decay-t1" in names
    assert [name for name in names if name.endswith("-blas2")] == [
        f"{run}-t{threads}-blas2" for threads in (1, 2) for run in ("workload-convolve", "convolve")
    ]
    assert "fourier-missing_digit_b5-order0" in names
    assert [name for name in names if environments[name].get("FRACTAL_FOURIER_BUDGET") == "10"] == [
        "budget10-fourier", "budget10-decay", "budget10-convolve"
    ]
    assert environments["budget-abc-fourier"] == {"FRACTAL_FOURIER_BUDGET": "abc"}
    assert {"no-map-fourier", "map-recursion-fourier", "one-octave-decay", "inconsistent-bounds",
            "fourier-cantor-recursion-grid", "four-corner-cube", "four-corner-log", "nan-log-sigma"} <= set(names)


def test_nonhomog_workload_digests(capsys):
    assert load_tool().main([str(ROOT), "workload-nonhomog"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "exit 0 workload-nonhomog-t1"
    assert lines[4] == "exit 0 workload-nonhomog-t2"
    # nothing on standard error: the digest of no bytes
    empty = hashlib.sha256(b"").hexdigest()
    assert [lines[1], lines[5]] == [f"stderr {empty} workload-nonhomog-t{threads}" for threads in (1, 2)]
    files = [line.split() for line in lines if line.startswith("sha256 ")]
    assert [path for _, _, path in files] == [
        f"workload-nonhomog-t{threads}/{name}"
        for threads in (1, 2) for name in ("order1.csv", "recursion.csv")
    ]
    # outputs are byte-identical for any thread count
    assert [digest for _, digest, _ in files[:2]] == [digest for _, digest, _ in files[2:]]


def test_refused_runs_digest_their_stderr(capsys):
    tool = load_tool()
    assert tool.main([str(ROOT), "budget10-decay", "inconsistent-bounds"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # refused before any file is written
    assert [line.split()[0] for line in lines] == ["exit", "stderr"] * 2
    assert lines[0] == "exit 4 budget10-decay" and lines[2] == "exit 3 inconsistent-bounds"
    report = b"resource exceeded (leaf_budget): stopping cover at scale 2.47876e-05 needs 1024 leaves > budget 10\n"
    assert lines[1] == f"stderr {hashlib.sha256(report).hexdigest()} budget10-decay"
