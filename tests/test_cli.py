import argparse
import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from fractal_fourier import bounds as bnd
from fractal_fourier import cli as cli_module
from fractal_fourier import dimensions
from fractal_fourier import errors
from fractal_fourier import experiments
from fractal_fourier import fourier as fr
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


def _run_cli_subprocess(*argv, env_vars=None):
    """The CLI in a subprocess with a timeout, so a run that hangs fails the test."""
    env = dict(os.environ, **(env_vars or {}))
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
            ('{"k": 1}', "profile file missing fields: ['d_inf', 'kappa2'"),
        ],
    )
    def test_malformed_profile_exit_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "profile.json"
        if content is not None:
            path.write_text(content)
        assert main(["bounds", "--profile", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    @pytest.mark.parametrize("field, value", [
        ("ad_regular", "false"),    # bool("false") is True
        ("k", 1.5),
        ("kappa1", "0.3"),
        ("kappa_p_table", {"3": 0.6}),
        ("extra", 1),
        # once exit 0, with ['a', 'b', 'c'] and both tags written to bounds.json
        ("warnings", "abc"),
        ("warnings", ["ok", 1]),
        ("provenance", {"kappa2": 5, "bogus_field": [1]}),
        ("provenance", {"kappa2": 5}),
        ("provenance", {"bogus_field": "estimated"}),
    ])
    def test_malformed_profile_field_exit_2(self, tmp_path, capsys, field, value):
        assert main(["dims", "--ifs", str(CONFIGS / "cantor.json"), "--out", str(tmp_path)]) == 0
        path = tmp_path / "profile.json"
        doc = json.loads(path.read_text())
        path.write_text(json.dumps(dict(doc, **{field: value})))
        capsys.readouterr()
        assert main(["bounds", "--profile", str(path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["dims"], ["bounds"], ["fourier"]])
    def test_malformed_exponent_exit_2(self, tmp_path, capsys, argv):
        # once exit 5, "could not convert string to float: 'abc'"
        bad = write_ifs(tmp_path / "bad.json", [1 / 3, 1 / 3], [0.0, 2 / 3], [0.5, 0.5],
                        "SSC", exponents={"kappa1": "abc"})
        assert main([*argv, "--ifs", str(bad)]) == 2
        assert "kappa1: malformed value 'abc'" in capsys.readouterr().err

    def test_tabulated_pair_used(self, tmp_path, capsys):
        # once ignored: sigma = 0.061442548 at best p = 2.0
        ifs = write_ifs(tmp_path / "tab.json", [1 / 3, 1 / 3], [0.0, 2 / 3], [0.5, 0.5], "SSC",
                        exponents={"kappa_p": {"1.5": 0.6}, "d_q": {"3": 0.6309297535714575}})
        code = main(["bounds", "--ifs", str(ifs), "--assume-curvature", "--assume-non-expanding"])
        assert code == 0
        assert "sigma = 0.071474706 (best p = 1.5)" in capsys.readouterr().out

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
        # needs a cover of 377, whose count stops at 319.
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
        assert "leaf_budget" in err and "needs 319 leaves or more > budget 300" in err

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

    def test_recursion_leaf_count_past_4300_digits(self, tmp_path):
        # eight maps of ratio 0.994: the product form closes at depth D near
        # 4,800, a tree of 8^D leaves, which str() of an int refuses to write
        eight = write_ifs(tmp_path / "eight.json", [0.994] * 8, [0.001 * i for i in range(8)], [0.125] * 8)
        out = tmp_path / "r.csv"
        code = main(["fourier", "--ifs", str(eight), "--xi-list", "1000", "--tol", "1e-9", "--out", str(out)])
        assert code == 0
        leaves = fr.mu_hat(ifsmod.load_ifs(eight).ifs, 1000.0, tol=1e-9).leaves_used
        assert leaves == 8 ** round(math.log(leaves, 8))
        cell = out.read_text().splitlines()[1].split(",")[-1]
        assert len(cell) == 4343 and cell == str(Decimal(leaves))

    def test_runaway_count_exit_4_at_once(self, tmp_path):
        # three ratios near 1: the count of the cover stops at the leaf budget
        three = write_ifs(tmp_path / "three.json", [0.999, 0.998, 0.997], [0.0, 0.001, 0.002], [0.3, 0.3, 0.4])
        start = time.monotonic()
        proc = _run_cli_subprocess(
            "fourier", "--ifs", str(three), "--scheme", "order0", "--map", '{"kind": "square"}',
            "--xi-list", "1000", "--tol", "1e-6", "--out", str(tmp_path / "x.csv"),
        )
        assert time.monotonic() - start < 5.0
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.startswith("resource exceeded (leaf_budget): ")
        assert proc.stderr.endswith(" leaves or more > budget 10000000\n")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("args, budget_name", [
        # a cover of 2^14381 leaves, whose count has 4,330 digits
        (["--scheme", "order1", "--map", '{"kind": "square"}'], "leaf_budget"),
        # the product form's depth limit
        ([], "recursion_depth"),
    ])
    def test_ratios_near_one_exit_4(self, tmp_path, capsys, args, budget_name):
        two = write_ifs(tmp_path / "two.json", [0.999] * 2, [0.0, 0.001], [0.5, 0.5])
        out = tmp_path / "x.csv"
        code = main(["fourier", "--ifs", str(two), *args, "--xi-list", "1000", "--tol", "1e-9", "--out", str(out)])
        assert code == 4
        assert capsys.readouterr().err.startswith(f"resource exceeded ({budget_name}): ")
        assert not out.exists()

    def test_recursion_at_1e300_writes_a_finite_bound(self, tmp_path):
        # |eta| on the line is abs(eta) in the product form too: eta^2 overflows above ~1.3e154
        out = tmp_path / "x.csv"
        proc = _run_cli_subprocess("fourier", "--ifs", str(CONFIGS / "cantor.json"), "--xi-list", "1e300",
                                   "--out", str(out))
        assert proc.returncode == 0 and proc.stderr == ""
        assert math.isfinite(float(out.read_text().splitlines()[1].split(",")[4]))

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
        # non-finite parameters once ended in exit 5 or in NaN rows with exit 0
        ('{"kind": "log", "shift": NaN}', "shift must be finite, got nan"),
        ('{"kind": "neg_log", "shift": NaN}', "shift must be finite, got nan"),
        ('{"kind": "log", "shift": -Infinity}', "shift must be finite, got -inf"),
        ('{"kind": "constant", "value": NaN}', "value must be finite, got nan"),
        ('{"kind": "quadratic", "coefficients": [[[0, 0, 1]]], "linear": "x"}',
         "linear: malformed value"),
        ('{"kind": "quadratic", "coefficients": [[[0, 3, 1]]]}',
         "coefficients: index (0, 3) outside 0..0"),
        ('{"kind": "quadratic", "coefficients": [[[0, 0, 1]]], "linear": [[1, 2]]}',
         "linear must have shape (1, 1), got (1, 2)"),
        ('{"kind": "quadratic", "coefficients": [[[0, 0, NaN]]]}', "coefficients must be finite"),
        ('{"kind": "quadratic", "coefficients": [[[0, 0, 1]]], "constant": [Infinity]}',
         "constant must be finite"),
        ('{"kind": "quadratic", "coefficients": [[[0, 0, 1]]], "constant": [1, 2]}',
         "constant must have shape (1,), got (2,)"),
        # keys a kind does not take were once ignored
        ('{"kind": "square", "shift": 1}', "square map has unknown fields: ['shift']"),
        ('{"kind": "constant", "valu": 2}', "constant map has unknown fields: ['valu']"),
        ('{"kind": "quadratic"}', "quadratic map missing fields: ['coefficients']"),
        # a bool was once read as a number
        ('{"kind": "log", "shift": true}', "shift: malformed value True"),
        ('{"kind": "quadratic", "coefficients": [[[0, 0, 1]]], "linear": [[true]]}',
         "linear: malformed value"),
        ('{"kind": "quadratic", "coefficients": [[[0, false, 1]]]}', "coefficients: malformed value"),
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

            square, fields = cli_module._MAP_KINDS["square"]
            monkeypatch.setitem(
                cli_module._MAP_KINDS, "square",
                (lambda ifs: replace(square(ifs), third_bound=None), fields),
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

    @pytest.mark.parametrize("scheme", [[], ["--scheme", "recursion"]])
    @pytest.mark.parametrize("spec", ['{"kind": "square"}', "{bad"])
    def test_recursion_refuses_map_exit_2(self, tmp_path, capsys, scheme, spec):
        # recursion, the default scheme, is mu_hat itself: it once ignored the map and exited 0
        out = tmp_path / "x.csv"
        code = main(["fourier", "--ifs", str(CONFIGS / "cantor.json"), *scheme, "--map", spec,
                     "--xi-list", "3,5", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: --map: ")
        assert not out.exists()

    @pytest.mark.parametrize("spec, label", [
        ('{"kind": "cube"}', "cube"),
        ('{"kind": "log", "shift": -1}', "log(x+1.0)"),
        ('{"kind": "neg_log", "shift": -1}', "-log(y+1.0)"),
        ('{"kind": "log"}', "log"),
    ])
    def test_line_maps_refuse_planar_systems_exit_2(self, tmp_path, capsys, spec, label):
        # The four-corner Cantor set.  These maps read x_0 only, but their
        # gradients and Hessians once acted on every coordinate: cube
        # certified 4.93e-5 at xi = 10 against an error of 5.66e-5 and exited
        # 0, and log blamed its L and H (or, with no shift, the support).
        planar = {
            "ambient_dim": 2,
            "maps": [{"ratio": 1 / 3, "orientation": [1.0, 0.0, 0.0, 1.0], "translation": [x, y]}
                     for x in (0.0, 2 / 3) for y in (0.0, 2 / 3)],
            "weights": [0.25] * 4,
        }
        path = tmp_path / "four_corner.json"
        path.write_text(json.dumps(planar))
        out = tmp_path / "x.csv"
        code = main(["fourier", "--ifs", str(path), "--scheme", "order1", "--map", spec,
                     "--xi-list", "10,40", "--tol", "1e-4", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {label} is a map on the line (k = 1), got k = 2\n"
        assert not out.exists()


class TestDecayCommand:
    def test_budget_exit_4(self, tmp_path, monkeypatch, capsys):
        # the leaf budget of FRACTAL_FOURIER_BUDGET holds for decay as for fourier and convolve
        monkeypatch.setenv("FRACTAL_FOURIER_BUDGET", "10")
        out = tmp_path / "out"
        code = main(["decay", "--config", str(CONFIGS / "decay_cantor_square.json"), "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("resource exceeded (leaf_budget): ")
        assert "needs 16 leaves or more > budget 10" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("field, value, message", [
        # once read as "none": sigma 0.0524 in place of 0.0614
        ("separation", "bogus", "separation: malformed value 'bogus'"),
        # once measured mu_hat, not the image, and exited 0
        ("scheme", "exact_recursion", "scheme must be one of"),
        # once exit 5 (TypeError at the verdict's comparison)
        ("theoretical_sigma", "abc", "theoretical_sigma: malformed value 'abc'"),
        # once ignored: the map was x -> x^2
        ("map", {"kind": "square", "power": 3}, "square map has unknown fields: ['power']"),
        # once exit 0: octaves 8-9 with 4 samples each at tol 1.0
        ("octaves", "89", "octaves: malformed value '89' (expected a JSON list [first, last])"),
        ("octaves", [8, 9, 10], "octaves: malformed value [8, 9, 10]"),
        ("octaves", [8, 9.5], "octaves: malformed value [8, 9.5]"),
        ("samples_per_octave", 4.9, "samples_per_octave: malformed value 4.9"),
        ("seed", True, "seed: malformed value True"),
        ("tol", True, "tol: malformed value True"),
        ("theoretical_sigma", False, "theoretical_sigma: malformed value False"),
    ])
    def test_refused_field_exit_2(self, tmp_path, capsys, field, value, message):
        cfg = {"ifs": str(CONFIGS / "cantor.json"), "map": {"kind": "square"},
               "octaves": [8, 9], "samples_per_octave": 4, field: value}
        cfg_path = tmp_path / "decay.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["decay", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_one_octave_exit_2(self, tmp_path, capsys, monkeypatch):
        # one octave once fitted a slope through one point and exited 0
        def evaluated(*args, **kwargs):
            raise AssertionError("a transform was evaluated")

        monkeypatch.setattr(experiments, "pushforward_batch", evaluated)
        monkeypatch.setattr(experiments, "curvature_diagnostic", evaluated)
        cfg = {"ifs": str(CONFIGS / "cantor.json"), "map": {"kind": "square"}, "octaves": [8, 8]}
        cfg_path = tmp_path / "decay.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["decay", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error: octaves must be [first, last] with last > first")
        assert not (tmp_path / "o").exists()

    def test_malformed_exponent_exit_2(self, tmp_path, capsys):
        bad = write_ifs(tmp_path / "bad.json", [1 / 3, 1 / 3], [0.0, 2 / 3], [0.5, 0.5],
                        "SSC", exponents={"kappa1": "abc"})
        cfg_path = tmp_path / "decay.json"
        cfg_path.write_text(json.dumps({"ifs": str(bad), "map": {"kind": "square"},
                                        "octaves": [8, 9], "samples_per_octave": 4}))
        assert main(["decay", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "kappa1: malformed value 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("value, sigma", [(None, 0.0614425), (0.25, 0.25)])
    def test_theoretical_sigma(self, tmp_path, value, sigma):
        # null, like an omitted field, computes sigma from the profile
        cfg = {"ifs": str(CONFIGS / "cantor.json"), "map": {"kind": "square"},
               "octaves": [8, 9], "samples_per_octave": 4, "theoretical_sigma": value}
        cfg_path = tmp_path / "decay.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["decay", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["theoretical_sigma"] == pytest.approx(sigma, abs=1e-6)


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

    def test_blas_threads_do_not_change_the_files(self, tmp_path):
        # the grid rows and the inversion sum by BLAS matrix products, whose
        # threads split the output, not the sums: the files are the same bytes
        cfg = {
            "factors": [{"ifs": str(CONFIGS / "uniform12.json"), "map": {"kind": "log"}}] * 2,
            "max_frequency": 2048.0,
            "density_points": 256,
        }
        cfg_path = tmp_path / "conv.json"
        cfg_path.write_text(json.dumps(cfg))
        files = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            proc = _run_cli_subprocess("convolve", "--config", str(cfg_path), "--out", str(out),
                                       env_vars={"OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            files.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
        assert sorted(files[0]) == ["density.csv", "product_transform.csv", "summary.json"]
        assert files[0] == files[1]

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

    @pytest.mark.parametrize("kind", ["log", "neg_log"])
    @pytest.mark.parametrize("shift", [math.nan, -math.inf])
    def test_non_finite_shift_exit_2(self, tmp_path, capsys, kind, shift):
        # once exit 5: the log support's NaN reached an integer conversion
        factor = {"ifs": str(CONFIGS / "uniform12.json"), "map": {"kind": kind, "shift": shift}}
        cfg_path = tmp_path / "conv.json"
        cfg_path.write_text(json.dumps({"factors": [factor] * 2, "max_frequency": 64.0}))
        code = main(["convolve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"shift must be finite, got {shift}" in capsys.readouterr().err

    def test_unknown_factor_map_key_exit_2(self, tmp_path, capsys):
        # once ignored: the factor was log(x), shift 0
        factor = {"ifs": str(CONFIGS / "uniform12.json"), "map": {"kind": "log", "shfit": 0.5}}
        cfg_path = tmp_path / "conv.json"
        cfg_path.write_text(json.dumps({"factors": [factor] * 2, "max_frequency": 64.0}))
        code = main(["convolve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "log map has unknown fields: ['shfit']" in capsys.readouterr().err

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


class TestFieldTables:
    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.name)
    def test_every_config_passes_its_field_table(self, path):
        doc = ifsmod.read_json(path, "config")
        if "maps" in doc:
            ifsmod.ifs_from_dict(doc)
        elif "factors" in doc:
            cfg = cli_module._fields(doc, "convolve config", cli_module._CONVOLVE_FIELDS)
            for entry in cfg["factors"]:
                factor = cli_module._fields(entry, "factor", cli_module._FACTOR_FIELDS)
                ifs = ifsmod.load_ifs(path.parent / factor["ifs"]).ifs
                cli_module._build_map(ifs, factor["map"], cli_module._FACTOR_KINDS)
        else:
            cfg = cli_module._fields(doc, "decay config", cli_module._DECAY_FIELDS)
            cli_module._build_map(ifsmod.load_ifs(path.parent / cfg["ifs"]).ifs, cfg["map"])

    def test_fields_are_parameters_of_the_call_they_feed(self):
        # an omitted field takes the default of the library call's signature
        def parameters(call):
            return set(inspect.signature(call).parameters)

        decay = set(cli_module._DECAY_FIELDS) - {"ifs", "map", "separation"}
        assert decay <= parameters(experiments.measure_decay_slope)
        convolve = set(cli_module._CONVOLVE_FIELDS) - {"factors"}
        assert convolve <= parameters(experiments.multiplicative_convolution)
        for kinds in (cli_module._MAP_KINDS, cli_module._FACTOR_KINDS):
            for builder, fields in kinds.values():
                assert set(fields) <= parameters(builder)

    def test_profile_fields_are_the_profile_dataclass_fields(self):
        names = {f.name for f in dataclasses.fields(dimensions.DimensionProfile)}
        assert set(dimensions._PROFILE_FIELDS) == names

    @pytest.fixture(scope="class")
    def records(self):
        """name -> (record, its JSON object, fields left out, keys added) of the four written records."""
        cantor = ifsmod.load_ifs(CONFIGS / "cantor.json").ifs
        uniform = ifsmod.load_ifs(CONFIGS / "uniform12.json").ifs
        profile = dimensions.build_profile(cantor, "SSC", {"kappa_p": {"1.5": 0.6}})
        bound = bnd.decay_bound(profile)
        decay = experiments.measure_decay_slope(cantor, fr.square_map(cantor), octaves=(3, 4),
                                                samples_per_octave=4)
        convolve = experiments.multiplicative_convolution([experiments.log_factor(uniform)] * 2,
                                                          max_frequency=64.0, density_points=16)
        return {
            "profile": (profile, profile.to_dict(), set(), set()),
            "bound": (bound, bound.to_dict(), set(), {"formula"}),
            "decay": (decay, decay.to_summary(), {"stats"}, {"per_octave", "empirical_exponent"}),
            "convolve": (convolve, convolve.to_summary(), set(), {"max_frequency"}),
        }

    @pytest.mark.parametrize("name", ["profile", "bound", "decay", "convolve"])
    def test_records_write_every_non_array_field(self, records, name):
        # the JSON object is the fields that are not numpy arrays, under
        # their own names, plus only the keys named in ``records``
        record, doc, dropped, added = records[name]
        fields = {f.name for f in dataclasses.fields(record)
                  if not isinstance(getattr(record, f.name), np.ndarray)}
        assert set(doc) == fields - dropped | added
        assert json.loads(json.dumps(doc)).keys() == doc.keys()

    def test_per_octave_rows_are_the_octave_stat_fields(self, records):
        record, doc, _, _ = records["decay"]
        names = {f.name for f in dataclasses.fields(experiments.OctaveStat)}
        renamed = names - {"n_samples", "max_error"} | {"n", "max_error_bound"}
        assert [set(row) for row in doc["per_octave"]] == [renamed] * len(record.stats)

    def test_exponent_fields_are_read_by_build_profile(self):
        # each override is the value of its profile field, tagged user-supplied
        cantor = ifsmod.load_ifs(CONFIGS / "cantor.json").ifs
        log23 = math.log(2) / math.log(3)
        cases = {"kappa1": (0.5, 0.5), "kappa2": (0.635, 0.635), "kappa_star": (0.9, 0.9),
                 "d_inf": (0.6, 0.6), "kappa_p": ({"1.5": 0.6}, {1.5: 0.6}),
                 "d_q": ({"3": log23}, {3.0: log23})}
        profile_field = {"kappa_p": "kappa_p_table", "d_q": "d_q_table"}
        assert set(cases) == set(ifsmod._EXPONENT_FIELDS)
        for name, (value, parsed) in cases.items():
            profile = dimensions.build_profile(cantor, "none", {name: value})
            field = profile_field.get(name, name)
            assert getattr(profile, field) == parsed
            assert profile.provenance[field] == "user_supplied"

    @pytest.mark.parametrize("path", sorted(p for p in CONFIGS.glob("*.json")
                                            if "maps" in json.loads(p.read_text())),
                             ids=lambda path: path.name)
    def test_profile_round_trips(self, tmp_path, path):
        doc = ifsmod.load_ifs(path)
        profile = dimensions.build_profile(doc.ifs, doc.declared_separation, doc.exponents)
        dimensions.save_profile(profile, tmp_path / "profile.json")
        again = dimensions.load_profile(tmp_path / "profile.json")
        assert again == profile and again.to_dict() == profile.to_dict()

    @pytest.mark.parametrize("spec, label", [
        ({"kind": "constant"}, "constant(0.0)"),
        ({"kind": "constant", "value": 2}, "constant(2.0)"),
        ({"kind": "log"}, "log"),
        ({"kind": "neg_log", "shift": 0.5}, "-log(y-0.5)"),
    ])
    def test_omitted_map_parameters_take_the_builders_defaults(self, spec, label):
        ifs = ifsmod.load_ifs(CONFIGS / "uniform12.json").ifs
        assert cli_module._build_map(ifs, spec).label == label


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

    @pytest.mark.parametrize("check, arity, refusal", [
        ("two-set", 2, "two-set needs exactly 2 dimensions"),
        ("three-set", 3, "three-set needs exactly 3 dimensions"),
        ("two-measures", 2, "two-measures needs 2 correlation dimensions"),
        ("log-sigma", 1, "log-sigma needs 1 correlation dimension"),
        ("high-dim", 2, "high-dim needs k and kappa2"),
        ("thresholds", 0, "thresholds takes no values"),
    ])
    def test_each_check_refuses_any_other_number_of_values(self, capsys, check, arity, refusal):
        for count in sorted({0, 1, 2, 3, 4} - {arity}):
            assert main(["arith-check", check, *["0.5"] * count]) == 2
            assert capsys.readouterr() == ("", f"config error: {refusal}\n")

    def test_choices_are_the_table_of_checks(self):
        parser = cli_module.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        check = next(a for a in commands.choices["arith-check"]._actions if a.dest == "check")
        assert list(check.choices) == list(cli_module._CHECKS) == [
            "two-set", "three-set", "two-measures", "log-sigma", "high-dim", "thresholds"]

    def test_non_numeric_values_exit_2(self, capsys):
        assert main(["arith-check", "two-set", "a", "b"]) == 2
        assert "two-set values: malformed value" in capsys.readouterr().err

    def test_nan_dimension_exit_2(self, capsys):
        assert main(["arith-check", "high-dim", "nan", "4"]) == 2
        assert "high-dim k: malformed value nan" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["log-sigma", "nan"], "kappa2 must lie in [0, 1], got nan"),
        (["log-sigma", "1.5"], "kappa2 must lie in [0, 1], got 1.5"),
        (["high-dim", "5", "nan"], "kappa2 must lie in [0, 5], got nan"),
        (["high-dim", "6", "inf"], "kappa2 must lie in [0, 6], got inf"),
        (["high-dim", "5.7", "4.9"], "high-dim k: malformed value 5.7"),
        (["thresholds", "1", "2"], "thresholds takes no values"),
    ])
    def test_values_outside_their_range_exit_2(self, capsys, argv, message):
        # each ran before with a wrong or ignored input and exited 0
        assert main(["arith-check", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


# The exit code and stderr prefix of every error class through ``main``.
EXIT_TABLE = {
    "FractalFourierError": (5, "error"),
    "InvalidIFS": (2, "config error"),
    "BadConfig": (2, "config error"),
    "MissingExponent": (2, "config error"),
    "NotApplicable": (2, "config error"),
    "Unsupported": (2, "config error"),
    "MissingHessianBound": (2, "config error"),
    "SupportNotPositive": (2, "config error"),
    "CenterInsideSupport": (2, "config error"),
    "InconsistentProfile": (3, "inconsistent profile"),
    "ResourceExceeded": (4, "resource exceeded (density_budget)"),
}
ERROR_CLASSES = [cls for cls in vars(errors).values()
                 if isinstance(cls, type) and issubclass(cls, errors.FractalFourierError)]


class TestExitCodes:
    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_each_error_class(self, cls, monkeypatch, capsys):
        # a class missing from the table, or one that inherits its code, fails here
        assert "exit_code" in vars(cls) and "prefix" in vars(cls)
        code, prefix = EXIT_TABLE[cls.__name__]
        exc = cls("boom", "density_budget") if cls is errors.ResourceExceeded else cls("boom")

        def command(args):
            raise exc

        monkeypatch.setattr(cli_module, "cmd_arith_check", command)
        assert main(["arith-check", "thresholds"]) == code
        assert capsys.readouterr().err == f"{prefix}: {exc}\n"

    def test_table_names_every_class(self):
        assert sorted(cls.__name__ for cls in ERROR_CLASSES) == sorted(EXIT_TABLE)

    def test_other_exceptions_are_internal_errors(self, monkeypatch, capsys):
        def command(args):
            raise ValueError("boom")

        monkeypatch.setattr(cli_module, "cmd_arith_check", command)
        assert main(["arith-check", "thresholds"]) == 5
        assert capsys.readouterr().err == "internal error: ValueError: boom\n"

    def test_a_command_that_returns_exits_0(self, monkeypatch):
        monkeypatch.setattr(cli_module, "cmd_arith_check", lambda args: None)
        assert main(["arith-check", "thresholds"]) == 0


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
