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
    names = [name for name, _, _ in load_tool().runs(ROOT)]
    # every convolve run also with two BLAS threads
    assert len(names) == len(set(names)) == 3 * 2 + 2 * 2 + 2 * 2 + 4 * 4
    assert "workload-convolve-t2" in names and "decay-t1" in names
    assert [name for name in names if name.endswith("-blas2")] == [
        f"{run}-t{threads}-blas2" for threads in (1, 2) for run in ("workload-convolve", "convolve")
    ]
    assert "fourier-missing_digit_b5-order0" in names


def test_nonhomog_workload_digests(capsys):
    assert load_tool().main([str(ROOT), "workload-nonhomog"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "exit 0 workload-nonhomog-t1"
    assert lines[3] == "exit 0 workload-nonhomog-t2"
    files = [line.split() for line in lines if line.startswith("sha256 ")]
    assert [path for _, _, path in files] == [
        f"workload-nonhomog-t{threads}/{name}"
        for threads in (1, 2) for name in ("order1.csv", "recursion.csv")
    ]
    # outputs are byte-identical for any thread count
    assert [digest for _, digest, _ in files[:2]] == [digest for _, digest, _ in files[2:]]
