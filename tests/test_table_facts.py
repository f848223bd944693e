import importlib.util
import json
from pathlib import Path

from fractal_fourier import fourier

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "table_facts.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("table_facts", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reports_the_decay_table(tmp_path, capsys):
    config = ROOT / "configs" / "decay_cantor_square.json"
    status = load_tool().main(["decay", "--config", str(config), "--out", str(tmp_path)])
    assert status == 0
    assert (tmp_path / "samples.csv").exists()
    assert fourier._MuHatTable.__name__ == "_MuHatTable"     # the wrapper is gone again
    lines = capsys.readouterr().out.splitlines()
    tables = [json.loads(line) for line in lines if line.startswith("{")]
    # one order-1 table of h at table_tol min(tol / 8, 1e-8) = 1e-8
    assert len(tables) == 1
    table = tables[0]
    assert table["columns"] == ["h"]
    assert table["cells"] == int(table["range"] * (1.0 / table["step"])) + 1
    assert table["bytes"] == 3 * 16 * table["cells"]
    assert 0.0 < table["slacks"][0] < 2e-8
    # the step comes from table_tol, not from the MAX_TABLE_CELLS clamp
    assert table["table_tol"] == 1e-8
    assert table["widened"] is False
    assert table["build_s"] >= 0.0


def test_a_one_frequency_order1_call_builds_one_table(tmp_path, capsys):
    # a single frequency is a batch of one: it reads the same table
    argv = ["fourier", "--ifs", str(ROOT / "configs" / "cantor.json"), "--scheme", "order1",
            "--map", '{"kind": "square"}', "--xi-list", "1000", "--out", str(tmp_path / "f.csv")]
    assert load_tool().main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    tables = [json.loads(line) for line in lines if line.startswith("{")]
    assert len(tables) == 1
    assert tables[0]["columns"] == ["h"]
