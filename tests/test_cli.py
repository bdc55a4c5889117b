import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from infopower import sic, states
from infopower.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestBounds:
    def test_d2_row(self, capsys):
        code, out = run(capsys, "bounds", "--dmax", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "d,holevo,sic_upper,scrooge_lower,rastegin_cond,pg_sic_value"
        assert lines[1] == "2,1.000000,0.415037,0.278652,1.584963,0.207519"
        assert "# asymptotes: scrooge_lower->0.609970, sic_upper->1.0" in lines

    def test_d3_row_present(self, capsys):
        code, out = run(capsys, "bounds", "--dmax", "3")
        assert code == 0
        assert any(line.startswith("3,") and ",0.584963," in line for line in out.splitlines())

    def test_discrepancy_note_present(self, capsys):
        _, out = run(capsys, "bounds", "--dmax", "2")
        assert "0.201253 vs 0.207519" in out

    def test_rows_ordered(self, capsys):
        _, out = run(capsys, "bounds", "--dmax", "20")
        for line in out.splitlines()[1:]:
            if line.startswith("#"):
                continue
            parts = line.split(",")
            holevo, up, low, pg = float(parts[1]), float(parts[2]), float(parts[3]), float(parts[5])
            assert low < up < holevo
            assert pg <= low + 1e-9

    def test_json_format(self, capsys):
        code, out = run(capsys, "bounds", "--dmax", "4", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [r["dim"] for r in rows] == [2, 3, 4]

    def test_dmax_too_small_is_usage_error(self, capsys):
        code, _ = run(capsys, "bounds", "--dmax", "1")
        assert code == 2


class TestVerifySic:
    def test_builtin_tetrahedral_passes(self, capsys):
        code, out = run(capsys, "verify-sic", "--builtin", "tetrahedral")
        assert code == 0
        assert "PASS" in out
        assert '"lambda": 0.5' in out

    def test_builtin_qutrit_passes(self, capsys):
        code, out = run(capsys, "verify-sic", "--builtin", "qutrit")
        assert code == 0
        assert "lambda=0.333333" in out

    def test_json_format_is_only_json(self, capsys):
        code, out = run(capsys, "verify-sic", "--builtin", "tetrahedral", "--format", "json")
        assert code == 0
        cert = json.loads(out)
        assert cert["lambda"] == 0.5

    def test_perturbed_file_fails_with_exit_1(self, capsys, tmp_path):
        p = sic.tetrahedral_povm()
        eps = 1e-3
        rot = np.array([[np.cos(eps), -np.sin(eps)], [np.sin(eps), np.cos(eps)]])
        effects = list(p.effects)
        effects[0] = rot @ effects[0] @ rot.T
        # restore identity sum so the file still parses as a POVM
        effects[1] = effects[1] + (np.eye(2) - sum(effects))
        path = tmp_path / "perturbed.json"
        states.save(states.Povm(effects), path)
        code, out = run(capsys, "verify-sic", str(path))
        assert code == 1
        assert "FAIL" in out

    def test_parse_failure_exit_2(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all")
        code, _ = run(capsys, "verify-sic", str(path))
        assert code == 2


class TestMutinfo:
    def test_corollary_one_from_builtins(self, capsys):
        code, out = run(
            capsys, "mutinfo", "builtin:antitetrahedral", "builtin:tetrahedral"
        )
        assert code == 0
        assert "I=0.415037" in out

    def test_pg_pair_from_files(self, capsys, tmp_path):
        e = sic.sic_ensemble_from_povm(sic.tetrahedral_povm())
        p = states.pretty_good_povm(e)
        epath, ppath = tmp_path / "e.json", tmp_path / "p.json"
        states.save(e, epath)
        states.save(p, ppath)
        code, out = run(capsys, "mutinfo", str(epath), str(ppath))
        assert code == 0
        assert "I=0.207519" in out

    def test_basis_pair_d4(self, capsys, tmp_path):
        d = 4
        projectors = [np.diag([1.0 if i == k else 0.0 for i in range(d)]) for k in range(d)]
        e = states.Ensemble([pr / d for pr in projectors])
        p = states.Povm(projectors)
        epath, ppath = tmp_path / "e.json", tmp_path / "p.json"
        states.save(e, epath)
        states.save(p, ppath)
        code, out = run(capsys, "mutinfo", str(epath), str(ppath))
        assert code == 0
        assert "I=2.000000" in out

    def test_dimension_mismatch_exit_2(self, capsys, tmp_path):
        code, _ = run(capsys, "mutinfo", "builtin:antitetrahedral", "builtin:qutrit")
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code, _ = run(capsys, "mutinfo", "/nonexistent.json", "builtin:tetrahedral")
        assert code == 2

    def test_nan_entry_exit_2(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        states.save(sic.antitetrahedral_ensemble(), path)
        data = json.loads(path.read_text())
        data["elements"][0]["matrix"][0][0][0] = float("nan")
        path.write_text(json.dumps(data))
        assert "NaN" in path.read_text()
        code = main(["mutinfo", str(path), "builtin:tetrahedral"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_infinite_entry_prints_one_error_line(self, tmp_path):
        path = tmp_path / "inf.json"
        states.save(sic.antitetrahedral_ensemble(), path)
        data = json.loads(path.read_text())
        data["elements"][0]["matrix"][0][0][0] = float("inf")
        path.write_text(json.dumps(data))
        # a child process, so stderr holds whatever numpy would warn
        done = subprocess.run(
            [sys.executable, "-m", "infopower.cli", "mutinfo", str(path), "builtin:tetrahedral"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("error:") and "non-finite" in done.stderr

    def test_declared_dim_unlike_elements_exit_2(self, capsys, tmp_path):
        path = tmp_path / "povm.json"
        data = states.to_json_dict(sic.tetrahedral_povm())
        data["dim"] = 7
        path.write_text(json.dumps(data))
        for argv in (["mutinfo", "builtin:antitetrahedral", str(path)], ["power", "--povm", str(path)]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("error:")


class TestOptimizerCommands:
    def test_power_tetrahedral(self, capsys):
        code, out = run(
            capsys, "power", "--builtin", "tetrahedral", "--starts", "40", "--seed", "7"
        )
        assert code == 0
        report = json.loads(out)
        assert abs(report["best_value"] - np.log2(4 / 3)) < 1e-6
        assert report["seed"] == 7
        assert report["rng_algorithm"] == "pcg64"

    def test_minent_qutrit(self, capsys):
        code, out = run(
            capsys, "minent", "--builtin", "qutrit", "--starts", "40", "--seed", "7"
        )
        assert code == 0
        report = json.loads(out)
        assert abs(report["best_value"] - np.log2(6)) < 1e-6

    def test_minent_reproducible(self, capsys):
        _, out1 = run(capsys, "minent", "--builtin", "tetrahedral", "--starts", "5", "--seed", "3")
        _, out2 = run(capsys, "minent", "--builtin", "tetrahedral", "--starts", "5", "--seed", "3")
        assert out1 == out2

    def test_scrooge_estimate(self, capsys):
        code, out = run(
            capsys, "scrooge", "--dim", "2", "--samples", "100000", "--seed", "7"
        )
        assert code == 0
        report = json.loads(out)
        assert abs(report["estimate"] - 0.278652) < 0.01
        assert abs(report["closed_form"] - 0.278652) < 1e-6

    def test_minent_from_fiducial_file(self, capsys, tmp_path):
        from conftest import qubit_wh_fiducial

        f = qubit_wh_fiducial()
        path = tmp_path / "fid.json"
        path.write_text(
            json.dumps(
                {"kind": "fiducial", "dim": 2, "amplitudes": [[z.real, z.imag] for z in f]}
            )
        )
        code, out = run(
            capsys, "minent", "--fiducial", str(path), "--starts", "20", "--seed", "1"
        )
        assert code == 0
        report = json.loads(out)
        assert abs(report["best_value"] - np.log2(3)) < 1e-6


    @pytest.mark.parametrize(
        "argv",
        [
            ["power", "--builtin", "tetrahedral", "--starts", "2"],
            ["minent", "--builtin", "qutrit", "--starts", "2"],
            ["scrooge", "--dim", "2", "--samples", "100"],
        ],
    )
    def test_negative_seed_is_usage_error(self, capsys, argv):
        code = main([*argv, "--seed", "-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["scrooge", "--dim", "2", "--samples", "100"],
            ["power", "--builtin", "tetrahedral", "--starts", "2"],
            ["minent", "--builtin", "qutrit", "--starts", "2"],
        ],
    )
    def test_format_is_not_accepted(self, capsys, argv):
        # these commands always print a JSON report
        code = main([*argv, "--format", "csv"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--format" in err
        assert "Traceback" not in err

    def test_zero_starts_is_usage_error(self, capsys):
        code = main(["power", "--builtin", "tetrahedral", "--starts", "0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestOutputContracts:
    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "bounds.csv"
        code, out = run(capsys, "bounds", "--dmax", "2", "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("d,holevo")

    def test_saved_objects_round_trip_through_parsers(self, tmp_path):
        for obj in (sic.qutrit_sic_povm(), sic.antitetrahedral_ensemble()):
            path = tmp_path / "obj.json"
            states.save(obj, path)
            loaded = states.load(path)
            assert type(loaded) is type(obj)

    def test_unknown_command_exit_2(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2
