import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fractal_fourier import ifs as ifsmod
from fractal_fourier.cli import main
from fractal_fourier.experiments import DEFAULT_DENSITY_BUDGET

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SRC = Path(__file__).resolve().parents[1] / "src"


def write_ifs(path, ratios, translations, weights, separation="none", exponents=None):
    doc = {
        "ambient_dim": 1,
        "maps": [
            {"ratio": r, "orientation": [1.0], "translation": [t]}
            for r, t in zip(ratios, translations)
        ],
        "weights": weights,
        "declared_separation": separation,
    }
    if exponents:
        doc["exponents"] = exponents
    path.write_text(json.dumps(doc))
    return path


def _run_cli_subprocess(*argv):
    """The CLI in a subprocess with a timeout, so a run that hangs fails the test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "fractal_fourier.cli", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)


class TestDims:
    def test_cantor(self, capsys, tmp_path):
        code = main(
            ["dims", "--ifs", str(CONFIGS / "cantor.json"), "--out", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0.630930" in out
        assert "ad_regular = true" in out
        profile = json.loads((tmp_path / "profile.json").read_text())
        assert profile["kappa2"] == pytest.approx(math.log(2) / math.log(3), abs=1e-12)

    def test_missing_digit(self, capsys):
        code = main(["dims", "--ifs", str(CONFIGS / "missing_digit_b5.json")])
        assert code == 0
        assert "0.861353" in capsys.readouterr().out

    def test_bad_weights_exit_2(self, tmp_path, capsys):
        bad = write_ifs(tmp_path / "bad.json", [1 / 3, 1 / 3], [0.0, 2 / 3], [0.5, 0.4])
        code = main(["dims", "--ifs", str(bad)])
        assert code == 2
        assert "sum to 1" in capsys.readouterr().err

    def test_missing_file_exit_2(self):
        assert main(["dims", "--ifs", "no_such_file.json"]) == 2

    def test_inconsistent_exponents_exit_3(self, tmp_path, capsys):
        bad = write_ifs(
            tmp_path / "inc.json",
            [1 / 3, 1 / 3],
            [0.0, 2 / 3],
            [0.5, 0.5],
            separation="SSC",
            exponents={"kappa1": 0.7, "d_inf": 0.6, "kappa2": 0.62},
        )
        code = main(["dims", "--ifs", str(bad)])
        assert code == 3
        assert "kappa1 <= d_inf" in capsys.readouterr().err


class TestBounds:
    def test_cantor_sigma_and_baseline(self, capsys):
        code = main(
            [
                "bounds",
                "--ifs",
                str(CONFIGS / "cantor.json"),
                "--assume-curvature",
                "--thresholds",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "sigma = 0.061442548" in out
        assert "0.016" in out
        assert "0.765564437" in out
        assert "0.850781059" in out

    def test_report_written(self, tmp_path):
        code = main(
            [
                "bounds",
                "--ifs",
                str(CONFIGS / "cantor.json"),
                "--out",
                str(tmp_path),
                "--vdc",
                "2",
            ]
        )
        # vdc needs the plane; cantor is on the line -> validation failure
        assert code == 2

    def test_report_with_profile_roundtrip(self, tmp_path):
        assert (
            main(["dims", "--ifs", str(CONFIGS / "cantor.json"), "--out", str(tmp_path)])
            == 0
        )
        code = main(
            ["bounds", "--profile", str(tmp_path / "profile.json"), "--out", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "bounds.json").read_text())
        assert report["sigma"] == pytest.approx(0.0614425, abs=1e-6)
        assert "formula" in report

    def test_ifs_file_loaded_once(self, monkeypatch, capsys):
        calls = []
        load = ifsmod.load_ifs

        def counting_load(path):
            calls.append(path)
            return load(path)

        monkeypatch.setattr(ifsmod, "load_ifs", counting_load)
        assert main(["bounds", "--ifs", str(CONFIGS / "cantor.json")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read profile file"),
            ("{not json", "cannot read profile file"),
            ('{"k": 1}', "missing field 'kappa2'"),
        ],
    )
    def test_malformed_profile_exit_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "profile.json"
        if content is not None:
            path.write_text(content)
        assert main(["bounds", "--profile", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    def test_small_measure_warns_but_exits_zero(self, tmp_path, capsys):
        small = write_ifs(
            tmp_path / "small.json", [0.1, 0.1], [0.0, 0.9], [0.5, 0.5], "SSC"
        )
        code = main(["bounds", "--ifs", str(small)])
        out = capsys.readouterr().out
        assert code == 0
        assert "sigma = 0.000000000" in out
        assert "applicable = false" in out


class TestFourier:
    def test_recursion_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "fourier",
                "--ifs",
                str(CONFIGS / "cantor.json"),
                "--xi-min",
                "-50",
                "--xi-max",
                "50",
                "--count",
                "101",
                "--tol",
                "1e-8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 102
        assert lines[0] == "xi,re,im,abs,error_bound,scheme,leaves_used"
        # xi = 0 row has value exactly 1
        mid = lines[51].split(",")
        assert float(mid[0]) == 0.0
        assert float(mid[1]) == 1.0

    def test_order1_map_sweep(self, tmp_path):
        out = tmp_path / "sq.csv"
        code = main(
            [
                "fourier",
                "--ifs",
                str(CONFIGS / "cantor.json"),
                "--scheme",
                "order1",
                "--map",
                '{"kind": "square"}',
                "--xi-list",
                "256,512,1024",
                "--tol",
                "1e-3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 4

    def test_budget_exit_4(self, tmp_path, monkeypatch, capsys):
        mixed = write_ifs(tmp_path / "mixed.json", [0.5, 0.25], [0.0, 0.75], [0.5, 0.5])
        monkeypatch.setenv("FRACTAL_FOURIER_BUDGET", "50")
        code = main(
            [
                "fourier",
                "--ifs",
                str(mixed),
                "--xi-list",
                "4096",
                "--tol",
                "1e-6",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 4
        assert "leaf_budget" in capsys.readouterr().err

    def test_order1_inner_budget_exit_4(self, tmp_path, monkeypatch, capsys):
        # The 233 outer leaves fit; the top octave of the inner frequencies
        # needs a cover of 377.
        mixed = write_ifs(tmp_path / "mixed.json", [0.5, 0.25], [0.0, 0.75], [0.5, 0.5])
        monkeypatch.setenv("FRACTAL_FOURIER_BUDGET", "300")
        code = main(
            [
                "fourier",
                "--ifs",
                str(mixed),
                "--scheme",
                "order1",
                "--map",
                '{"kind": "square"}',
                "--xi-list",
                "300",
                "--tol",
                "1e-3",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert "leaf_budget" in err and "needs 377 leaves" in err

    @pytest.mark.parametrize("xi_list", ["inf", "1e400", "nan", "abc", "1,abc"])
    def test_bad_frequency_exit_2(self, tmp_path, xi_list):
        proc = _run_cli_subprocess(
            "fourier", "--ifs", str(CONFIGS / "cantor.json"), "--xi-list", xi_list,
            "--out", str(tmp_path / "x.csv"),
        )
        assert proc.returncode == 2, proc.stderr
        assert "config error" in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    def test_empty_xi_list_exit_2(self, tmp_path, capsys):
        # an empty list is malformed, not a request for the default grid
        out = tmp_path / "x.csv"
        code = main(["fourier", "--ifs", str(CONFIGS / "cantor.json"), "--xi-list=",
                     "--out", str(out)])
        assert code == 2
        assert "--xi-list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("xi", ["1e150", "1e160", "-1e160"])
    def test_huge_frequency_exit_4(self, tmp_path, xi):
        # |xi| on the line is abs(xi): a norm would overflow to inf above
        # ~1.3e154 and give a stopping scale of 0
        proc = _run_cli_subprocess(
            "fourier", "--ifs", str(CONFIGS / "cantor.json"), "--scheme", "order1",
            "--map", '{"kind": "square"}', f"--xi-list={xi}", "--out", str(tmp_path / "x.csv"),
        )
        assert proc.returncode == 4, proc.stderr
        assert "leaf_budget" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "scheme_args", [[], ["--scheme", "order1", "--map", '{"kind": "square"}']]
    )
    def test_nan_tol_exit_2(self, tmp_path, scheme_args):
        proc = _run_cli_subprocess(
            "fourier", "--ifs", str(CONFIGS / "cantor.json"), "--xi-list", "3",
            "--tol", "nan", *scheme_args, "--out", str(tmp_path / "x.csv"),
        )
        assert proc.returncode == 2, proc.stderr
        assert "tol must be positive, got nan" in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "scheme_args", [["--scheme", "recursion"], ["--scheme", "order1", "--map", '{"kind": "square"}']]
    )
    def test_infinite_tol_exit_2(self, tmp_path, scheme_args):
        # tol inf once wrote "certified" bounds such as 3.14 at xi = 1
        proc = _run_cli_subprocess(
            "fourier", "--ifs", str(CONFIGS / "cantor.json"), "--xi-list", "1",
            "--tol", "inf", *scheme_args, "--out", str(tmp_path / "x.csv"),
        )
        assert proc.returncode == 2, proc.stderr
        assert "tol must be finite, got inf" in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, threads):
        out = tmp_path / "x.csv"
        code = main(
            ["--threads", threads, "fourier", "--ifs", str(CONFIGS / "cantor.json"),
             "--out", str(out)]
        )
        assert code == 2
        assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err
        assert not out.exists()

    def test_recursion_threads_byte_identical(self, tmp_path):
        mixed = write_ifs(tmp_path / "mixed.json", [0.5, 0.25], [0.0, 0.75], [0.5, 0.5])
        outputs = []
        for threads in (1, 2):
            out = tmp_path / f"t{threads}.csv"
            code = main(
                [
                    "--threads", str(threads), "fourier", "--ifs", str(mixed),
                    "--xi-min", "-30", "--xi-max", "60", "--count", "150",
                    "--tol", "1e-3", "--out", str(out),
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"exact_recursion") == 150

    def test_out_into_a_missing_directory(self, tmp_path):
        out = tmp_path / "no_such_dir" / "r.csv"
        code = main(
            [
                "fourier", "--ifs", str(CONFIGS / "cantor.json"), "--scheme", "recursion",
                "--xi-list", "3", "--out", str(out),
            ]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 2

    def test_recursion_leaf_count_past_int64(self, tmp_path):
        # ten maps of ratio 1/10 on [0, 1]: at xi = 1e6 and tol 1e-12 the
        # product form closes at depth 19, a tree of 10^19 > 2^63 leaves
        ten = write_ifs(tmp_path / "ten.json", [0.1] * 10, [0.1 * i for i in range(10)], [0.1] * 10)
        out = tmp_path / "r.csv"
        code = main(
            [
                "fourier", "--ifs", str(ten), "--scheme", "recursion", "--xi-list", "1e6",
                "--tol", "1e-12", "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_text().splitlines()[1].split(",")[-1] == "10000000000000000000"

    def test_recursion_planar_scalar_xi_exit_2(self, tmp_path, capsys):
        doc = {
            "ambient_dim": 2,
            "maps": [
                {"ratio": 0.5, "orientation": [[1.0, 0.0], [0.0, 1.0]], "translation": t}
                for t in ([0.0, 0.0], [0.5, 0.5])
            ],
            "weights": [0.5, 0.5],
            "declared_separation": "none",
        }
        path = tmp_path / "planar.json"
        path.write_text(json.dumps(doc))
        code = main(
            ["fourier", "--ifs", str(path), "--xi-list", "3", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "frequency must have 2 components" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", [
        ("{bad", "--map: malformed value"),
        ("5", "map spec needs to be a JSON object"),
        ('{"kind": "log", "shift": "a"}', "shift: malformed value"),
        ('{"kind": "constant", "value": "a"}', "value: malformed value"),
        ('{"kind": "quadratic", "coefficients": [[[0, 0]]]}', "coefficients: malformed value"),
    ])
    def test_malformed_map_exit_2(self, tmp_path, capsys, spec, message):
        code = main(["fourier", "--ifs", str(CONFIGS / "cantor.json"), "--scheme", "order0",
                     "--map", spec, "--xi-list", "1.0", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_order2_map_sweep(self, tmp_path):
        out = tmp_path / "sq.csv"
        code = main(["fourier", "--ifs", str(CONFIGS / "cantor.json"), "--scheme", "order2",
                     "--map", '{"kind": "square"}', "--xi-list", "256,1024,4096",
                     "--tol", "1e-3", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert [row[5] for row in rows] == ["order2"] * 3
        assert all(float(row[4]) <= 1e-3 for row in rows)

    @pytest.mark.parametrize("system, spec, message", [
        ("planar", '{"kind": "sum_of_squares"}', "order2 is implemented on the line only"),
        ("mixed", '{"kind": "square"}', "order2 needs a homogeneous system"),
        ("cantor", '{"kind": "square"}', "order2 needs third_bound"),
    ])
    def test_order2_outside_its_scope_exit_2(self, tmp_path, capsys, monkeypatch, system, spec,
                                             message):
        paths = {"cantor": CONFIGS / "cantor.json"}
        paths["mixed"] = write_ifs(tmp_path / "mixed.json", [0.5, 0.25], [0.0, 0.75], [0.5, 0.5])
        planar = {
            "ambient_dim": 2,
            "maps": [
                {"ratio": 1 / 3, "orientation": [1.0, 0.0, 0.0, 1.0], "translation": [x, y]}
                for x in (0.0, 2 / 3) for y in (0.0, 2 / 3)
            ],
            "weights": [0.25] * 4,
        }
        paths["planar"] = tmp_path / "planar.json"
        paths["planar"].write_text(json.dumps(planar))
        if system == "cantor":
            # a square map whose third-derivative bound is unknown
            from dataclasses import replace

            from fractal_fourier import cli as cli_module

            square = cli_module._MAP_BUILDERS["square"]
            monkeypatch.setitem(
                cli_module._MAP_BUILDERS, "square",
                lambda ifs, spec: replace(square(ifs, spec), third_bound=None),
            )
        code = main(["fourier", "--ifs", str(paths[system]), "--scheme", "order2", "--map", spec,
                     "--xi-list", "10.0", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_map_required_for_order0(self):
        code = main(
            ["fourier", "--ifs", str(CONFIGS / "cantor.json"), "--scheme", "order0"]
        )
        assert code == 2


class TestDecayCommand:
    def test_small_run(self, tmp_path):
        cfg = {
            "ifs": str(CONFIGS / "cantor.json"),
            "map": {"kind": "square"},
            "octaves": [8, 11],
            "samples_per_octave": 8,
            "seed": 0,
            "tol": 1e-3,
        }
        cfg_path = tmp_path / "decay.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["decay", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert "fitted_slope" in summary
        assert summary["theoretical_sigma"] == pytest.approx(0.0614425, abs=1e-6)
        assert (tmp_path / "out" / "octaves.csv").exists()
        assert (tmp_path / "out" / "samples.csv").exists()

    def test_threads_byte_identical(self, tmp_path):
        outputs = []
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            code = main(
                [
                    "--threads", str(threads), "decay",
                    "--config", str(CONFIGS / "decay_cantor_square.json"), "--out", str(out),
                ]
            )
            assert code == 0
            outputs.append([(out / name).read_bytes() for name in ("samples.csv", "octaves.csv")])
        assert outputs[0] == outputs[1]
        # octaves 8..18 at 64 samples each, plus the header
        assert outputs[0][0].count(b"\n") == 11 * 64 + 1

    def test_nan_tol_exit_2(self, tmp_path):
        cfg = {"ifs": str(CONFIGS / "cantor.json"), "map": {"kind": "square"},
               "octaves": [8, 9], "tol": math.nan}
        cfg_path = tmp_path / "decay.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = _run_cli_subprocess(
            "decay", "--config", str(cfg_path), "--out", str(tmp_path / "o")
        )
        assert proc.returncode == 2, proc.stderr
        assert "tol must be positive, got nan" in proc.stderr

    def test_infinite_tol_exit_2(self, tmp_path):
        cfg = {"ifs": str(CONFIGS / "cantor.json"), "map": {"kind": "square"},
               "octaves": [8, 9], "tol": math.inf}
        cfg_path = tmp_path / "decay.json"
        cfg_path.write_text(json.dumps(cfg))     # json writes Infinity, and reads it back
        proc = _run_cli_subprocess(
            "decay", "--config", str(cfg_path), "--out", str(tmp_path / "o")
        )
        assert proc.returncode == 2, proc.stderr
        assert "tol must be finite, got inf" in proc.stderr

    @pytest.mark.parametrize("field, value", [("octaves", ["a", 3]), ("samples_per_octave", "x")])
    def test_malformed_field_exit_2(self, tmp_path, capsys, field, value):
        cfg = {"ifs": str(CONFIGS / "cantor.json"), "map": {"kind": "square"},
               "octaves": [8, 9], field: value}
        cfg_path = tmp_path / "decay.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["decay", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert f"{field}: malformed value" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path):
        cfg_path = tmp_path / "decay.json"
        cfg_path.write_text(
            json.dumps({"ifs": "x.json", "map": {}, "octaves": [1, 2], "bogus": 1})
        )
        assert main(["decay", "--config", str(cfg_path)]) == 2


class TestConvolveCommand:
    def test_small_run(self, tmp_path):
        cfg = {
            "factors": [
                {"ifs": str(CONFIGS / "uniform12.json"), "map": {"kind": "log"}},
                {"ifs": str(CONFIGS / "uniform12.json"), "map": {"kind": "log"}},
            ],
            "max_frequency": 512.0,
            "density_points": 64,
        }
        cfg_path = tmp_path / "conv.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(
            ["convolve", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        )
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert 0.9 <= summary["mass"] <= 1.1
        density = (tmp_path / "out" / "density.csv").read_text().strip().split("\n")
        assert density[0] == "x,density,error_estimate"

    def test_scheme_column_names_the_factors_schemes(self, tmp_path):
        # a homogeneous factor takes order2, a non-homogeneous one order1
        mixed = write_ifs(tmp_path / "mixed.json", [0.5, 0.25], [1.0, 1.75], [0.5, 0.5])
        cfg = {
            "factors": [
                {"ifs": str(CONFIGS / "uniform12.json"), "map": {"kind": "log"}},
                {"ifs": str(mixed), "map": {"kind": "log"}},
            ],
            "max_frequency": 128.0,
            "density_points": 32,
        }
        cfg_path = tmp_path / "conv.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["convolve", "--config", str(cfg_path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schemes"] == ["order2", "order1"]
        lines = (out / "product_transform.csv").read_text().strip().split("\n")
        assert lines[0].split(",")[5] == "scheme"
        assert {line.split(",")[5] for line in lines[1:]} == {"order2*order1"}

    @pytest.mark.parametrize("field", ["bogus", "seed"])
    def test_unknown_field_rejected(self, tmp_path, field):
        cfg = {"factors": [{"ifs": str(CONFIGS / "uniform12.json")}] * 2, field: 0}
        cfg_path = tmp_path / "conv.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["convolve", "--config", str(cfg_path)]) == 2

    def test_factor_not_an_object_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "conv.json"
        cfg_path.write_text(json.dumps({"factors": [5, 5]}))
        assert main(["convolve", "--config", str(cfg_path)]) == 2
        assert "factor: malformed value 5" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["tol", "max_frequency", "density_budget"])
    def test_nan_parameter_exit_2(self, tmp_path, field):
        cfg = {"factors": [{"ifs": str(CONFIGS / "uniform12.json")}] * 2, field: math.nan}
        cfg_path = tmp_path / "conv.json"
        cfg_path.write_text(json.dumps(cfg))     # json writes NaN, and reads it back
        proc = _run_cli_subprocess(
            "convolve", "--config", str(cfg_path), "--out", str(tmp_path / "o")
        )
        assert proc.returncode == 2, proc.stderr
        assert f"{field} must be positive, got nan" in proc.stderr

    @pytest.mark.parametrize("field", ["tol", "max_frequency"])
    def test_infinite_parameter_exit_2(self, tmp_path, field):
        # max_frequency inf once ended in an internal error (exit 5)
        cfg = {"factors": [{"ifs": str(CONFIGS / "uniform12.json")}] * 2, field: math.inf}
        cfg_path = tmp_path / "conv.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = _run_cli_subprocess(
            "convolve", "--config", str(cfg_path), "--out", str(tmp_path / "o")
        )
        assert proc.returncode == 2, proc.stderr
        assert f"{field} must be finite, got inf" in proc.stderr

    def test_density_budget_defaults_to_library_value(self, tmp_path):
        summaries = []
        for extra in ({}, {"density_budget": DEFAULT_DENSITY_BUDGET}):
            cfg = {
                "factors": [{"ifs": str(CONFIGS / "uniform12.json")}] * 2,
                # high enough that budgets 0.01 and 0.02 pick different covers
                "max_frequency": 1024.0,
                "density_points": 64,
                **extra,
            }
            cfg_path = tmp_path / "conv.json"
            cfg_path.write_text(json.dumps(cfg))
            out = tmp_path / f"out{len(summaries)}"
            assert main(["convolve", "--config", str(cfg_path), "--out", str(out)]) == 0
            summaries.append((out / "summary.json").read_text())
        assert summaries[0] == summaries[1]

    def test_unreachable_density_budget_exit_4(self, tmp_path, capsys, monkeypatch):
        # base-5 digits {0, 1, 2, 3} in [1, 1.75]: slow decay, so the scale is
        # halved until the next cover passes the leaf budget
        ifs_path = write_ifs(
            tmp_path / "digits.json", [0.2] * 4, [d / 5 + 0.8 for d in range(4)], [0.25] * 4
        )
        cfg = {
            "factors": [{"ifs": str(ifs_path), "map": {"kind": "log"}}] * 2,
            "max_frequency": 256.0,
            "density_budget": 1e-12,
        }
        cfg_path = tmp_path / "conv.json"
        cfg_path.write_text(json.dumps(cfg))
        monkeypatch.setenv("FRACTAL_FOURIER_BUDGET", "5000")
        code = main(["convolve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 4
        assert "leaf_budget" in capsys.readouterr().err
        assert not (tmp_path / "o" / "density.csv").exists()

    def test_support_violation_exit_2(self, tmp_path, capsys):
        cfg = {
            "factors": [
                {"ifs": str(CONFIGS / "uniform01.json"), "map": {"kind": "log"}},
                {"ifs": str(CONFIGS / "uniform12.json"), "map": {"kind": "log"}},
            ]
        }
        cfg_path = tmp_path / "conv.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["convolve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "right of" in capsys.readouterr().err


class TestArithCheck:
    def run_json(self, capsys, *argv):
        code = main(["arith-check", *argv])
        assert code == 0
        return json.loads(capsys.readouterr().out)

    def test_two_set(self, capsys):
        report = self.run_json(capsys, "two-set", "0.8", "0.8")
        assert report["verdict"] is True

    def test_three_set(self, capsys):
        report = self.run_json(capsys, "three-set", "0.851", "0.851", "0.851")
        assert report["verdict"] is True

    def test_two_measures(self, capsys):
        report = self.run_json(
            capsys, "two-measures", "0.9", "0.7", "--ad-regular"
        )
        assert report["verdict"] is True
        assert 3 in report["satisfied_bullets"]
        assert "7/9" in report["note"]

    def test_thresholds(self, capsys):
        report = self.run_json(capsys, "thresholds")
        assert report["two_fold"] == pytest.approx((math.sqrt(65) - 5) / 4, abs=1e-9)
        assert report["three_fold"] == pytest.approx((math.sqrt(41) - 3) / 4, abs=1e-9)

    def test_high_dim(self, capsys):
        report = self.run_json(capsys, "high-dim", "5", "4.6")
        assert report["verdict"] is True

    def test_bad_arity_exit_2(self):
        assert main(["arith-check", "two-set", "0.8"]) == 2

    def test_non_numeric_values_exit_2(self, capsys):
        assert main(["arith-check", "two-set", "a", "b"]) == 2
        assert "two-set values: malformed value" in capsys.readouterr().err

    def test_nan_dimension_exit_2(self, capsys):
        assert main(["arith-check", "high-dim", "nan", "4"]) == 2
        assert "high-dim k: malformed value nan" in capsys.readouterr().err


class TestHelp:
    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("dims", "bounds", "fourier", "decay", "convolve", "arith-check"):
            assert name in out


def test_a_process_imports_neither_numpy_ma_nor_concurrent_futures():
    # numpy.ma (the first call of np.unique, or of np.quantile through it) and
    # concurrent.futures (with logging)
    # cost every CLI process milliseconds that a one-thread run never uses
    code = """
import sys
import numpy as np
import fractal_fourier.cli
from fractal_fourier import experiments, fourier, ifs
cantor = ifs.cantor_ifs()
xis = np.r_[np.geomspace(300.0, 30000.0, 24), -np.geomspace(500.0, 5000.0, 4)]
fourier.pushforward_batch(cantor, fourier.square_map(cantor), xis, tol=1e-3)
fourier.mu_hat(ifs.ifs_1d([0.5, 0.25], [0.0, 0.75]), 37.5, tol=1e-6)
experiments.measure_decay_slope(cantor, fourier.square_map(cantor), octaves=(4, 6), samples_per_octave=8)
print(sorted(name for name in ("numpy.ma", "concurrent.futures") if name in sys.modules))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
