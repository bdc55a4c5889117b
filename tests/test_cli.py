import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from infopower import cli, optimize, sic, states
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
        assert "# asymptotes: scrooge_lower->0.609949, sic_upper->1.0" in lines

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

    def test_fiducial_whose_norm_overflows_prints_one_error_line(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(
            json.dumps({"kind": "fiducial", "dim": 2, "amplitudes": [[1e308, 0], [1e308, 0]]})
        )
        # a child process, so stderr holds whatever numpy would warn
        done = subprocess.run(
            [sys.executable, "-m", "infopower.cli", "minent", "--fiducial", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("error:") and "norm inf" in done.stderr

    def test_pair_whose_tolerances_add_is_accepted(self, capsys, tmp_path):
        # traces sum to 1 + 9e-10 and effects to (1 + 9e-10) I: each file is
        # valid, and the pair's joint distribution sums to 1 + 1.8e-9
        epath, ppath = tmp_path / "edge_ens.json", tmp_path / "edge_povm.json"
        states.save(states.Ensemble([np.diag([0.50000000045, 0]), np.diag([0, 0.50000000045])]), epath)
        states.save(states.Povm([np.diag([1.0000000009, 0]), np.diag([0, 1.0000000009])]), ppath)
        code, out = run(capsys, "mutinfo", str(epath), str(ppath), "--format", "json")
        assert code == 0
        assert json.loads(out)["I"] == pytest.approx(1.0, abs=1e-12)

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

    def test_max_support_is_unknown_argument(self, capsys):
        # the see-saw always searches ensembles of d^2 states
        code = main(["power", "--builtin", "tetrahedral", "--starts", "2", "--max-support", "2"])
        assert code == 2
        assert "--max-support" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "error",
        [MemoryError(), MemoryError("Unable to allocate 8.00 TiB for an array with shape (1, 2)")],
        ids=["bare", "numpy"],
    )
    def test_out_of_memory_is_usage_error(self, capsys, monkeypatch, error):
        # the handler is looked up at dispatch, so the rebound one raises;
        # nothing large is allocated
        def out_of_memory(args):
            raise error

        monkeypatch.setattr(cli, "cmd_scrooge", out_of_memory)
        code = main(["scrooge", "--dim", "2", "--samples", "100"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_zero_starts_is_usage_error(self, capsys):
        code = main(["power", "--builtin", "tetrahedral", "--starts", "0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["power", "minent"])
    def test_starts_above_the_cap_is_usage_error(self, capsys, monkeypatch, command):
        # the cap is checked before any generator is made
        def fail(*args):
            raise AssertionError("the search started")

        monkeypatch.setattr(optimize, "_start_rngs", fail)
        code = main([command, "--builtin", "qutrit", "--starts", "100000000"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "starts" in err and str(optimize._MAX_STARTS) in err

    def test_floor_dimension_above_the_cap_is_usage_error(self, capsys, monkeypatch):
        # the cap is checked before any buffer is allocated: an 8 TiB draw row
        def fail(*args, **kwargs):
            raise AssertionError("a buffer was allocated")

        monkeypatch.setattr(np, "empty", fail)
        argv = ["scrooge", "--dim", str(2**40), "--samples", str(2**80), "--seed", "1"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--dim" in err and str(optimize._MAX_FLOOR_DIM) in err

    @pytest.mark.parametrize("command", ["power", "minent"])
    def test_report_keys(self, capsys, command):
        # the JSON contract README lists; a new key is a deliberate change
        _, out = run(capsys, command, "--builtin", "tetrahedral", "--starts", "2", "--seed", "1")
        assert set(json.loads(out)) == {
            "best_value",
            "best_states",
            "starts",
            "converged_starts",
            "iterations_per_start",
            "values_per_start",
            "seed",
            "rng_algorithm",
        }


class TestParserReuse:
    """main builds its parser once per process and looks handlers up by name
    when it dispatches."""

    VALID = [
        ["bounds", "--dmax", "5", "--format", "json"],
        ["mutinfo", "builtin:antitetrahedral", "builtin:tetrahedral", "--format", "json"],
        ["verify-sic", "--builtin", "qutrit"],
    ]

    def test_usage_error_and_help_leave_later_calls_unchanged(self, capsys):
        first = []
        for argv in self.VALID:
            cli._parser.cache_clear()
            first.append(run(capsys, *argv))
        cli._parser.cache_clear()
        assert run(capsys, "bounds", "--dmax", "two")[0] == 2
        assert run(capsys, "--help")[0] == 0
        assert [run(capsys, *argv) for argv in self.VALID] == first

    def test_parser_is_built_once(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        for argv in self.VALID:
            run(capsys, *argv)
        assert built == [1]

    def test_rebound_search_is_the_one_called(self, capsys, monkeypatch):
        run(capsys, "bounds", "--dmax", "2")  # the parser exists before the rebinding
        seen = []

        class Report:
            def to_json_dict(self):
                return {"fake": True}

        def fake(povm, starts, seed):
            seen.append((povm.dim, starts, seed))
            return Report()

        monkeypatch.setattr(optimize, "min_output_entropy", fake)
        code, out = run(capsys, "minent", "--builtin", "qutrit", "--starts", "3", "--seed", "5")
        assert code == 0 and seen == [(3, 3, 5)]
        assert json.loads(out) == {"fake": True}

    def test_rebound_handler_is_the_one_called(self, capsys, monkeypatch):
        run(capsys, "bounds", "--dmax", "2")
        monkeypatch.setattr(cli, "cmd_bounds", lambda args: 7)
        assert run(capsys, "bounds", "--dmax", "2") == (7, "")


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["mutinfo", "FILE", "builtin:tetrahedral"],
            ["verify-sic", "FILE"],
            ["power", "--povm", "FILE", "--starts", "2"],
            ["minent", "--fiducial", "FILE", "--starts", "2"],
        ],
    )
    def test_non_utf8_file_is_usage_error(self, capsys, tmp_path, argv):
        path = tmp_path / "binary.json"
        path.write_bytes(b'{"kind": "\xd0\xff\x00"}')
        code = main([str(path) if a == "FILE" else a for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["verify-sic"], ["power", "--povm"]])
    def test_fiducial_file_given_as_povm_names_its_kind(self, capsys, d4_fiducial_path, argv):
        code = main([*argv, d4_fiducial_path])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "fiducial" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["mutinfo", "builtin:nope", "builtin:tetrahedral"], "unknown builtin 'nope'"),
            (
                ["power", "--builtin", "antitetrahedral", "--starts", "1"],
                "expected a POVM, got an ensemble",
            ),
            (["bounds", "--dmax", "1"], "--dmax must be an integer >= 2, got 1"),
        ],
    )
    def test_bad_choice_is_one_error_line(self, capsys, argv, message):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["mutinfo", "FILE", "builtin:tetrahedral"],
            ["power", "--povm", "FILE", "--starts", "1"],
            ["power", "--fiducial", "FILE", "--starts", "1"],
        ],
    )
    def test_missing_file_is_one_error_line_naming_it(self, capsys, tmp_path, argv):
        path = str(tmp_path / "nope.json")
        code = main([path if a == "FILE" else a for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert path in err


    @pytest.mark.parametrize(
        "argv",
        [
            ["mutinfo", "FILE", "builtin:tetrahedral"],
            ["verify-sic", "FILE"],
            ["power", "--povm", "FILE", "--starts", "2"],
            ["minent", "--fiducial", "FILE", "--starts", "2"],
        ],
    )
    @pytest.mark.parametrize("content", ["huge-entry", "too-many-digits", "too-deep"])
    def test_unparsable_number_or_nesting_is_usage_error(self, capsys, tmp_path, argv, content):
        # a 401-digit entry overflows a float, a 4301-digit one exceeds the
        # int parsing limit, and 100 000 nested arrays exceed the recursion limit
        entry = {"huge-entry": "1" + "0" * 400, "too-many-digits": "1" * 4301}.get(content)
        if entry is None:
            text = "[" * 100_000 + "]" * 100_000
        elif argv[0] == "minent":
            text = f'{{"kind": "fiducial", "dim": 2, "amplitudes": [[{entry}, 0], [0, 0]]}}'
        else:
            matrix = f"[[[{entry}, 0], [0, 0]], [[0, 0], [1, 0]]]"
            text = f'{{"kind": "povm", "dim": 2, "elements": [{{"matrix": {matrix}}}]}}'
        path = tmp_path / "number.json"
        path.write_text(text)
        code = main([str(path) if a == "FILE" else a for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err


# one-element objects in dimension 1: a point mass for every entropy
D1_FILES = {
    "D1_POVM": {"kind": "povm", "dim": 1, "elements": [{"matrix": [[[1, 0]]]}]},
    "D1_ENSEMBLE": {"kind": "ensemble", "dim": 1, "elements": [{"matrix": [[[1, 0]]]}]},
    "D1_FIDUCIAL": {"kind": "fiducial", "dim": 1, "amplitudes": [[1, 0]]},
}


def run_d1(capsys, tmp_path, *argv):
    """run() with the D1_* names in argv replaced by paths of those files."""
    paths = {}
    for name, data in D1_FILES.items():
        paths[name] = tmp_path / f"{name.lower()}.json"
        paths[name].write_text(json.dumps(data))
    return run(capsys, *(str(paths[a]) if a in paths else a for a in argv))


def strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity, as RFC 8259 does."""

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--dmax", "4", "--format", "json"],
            ["verify-sic", "--builtin", "qutrit", "--format", "json"],
            ["verify-sic", "D1_POVM", "--format", "json"],
            ["mutinfo", "builtin:antitetrahedral", "builtin:tetrahedral", "--format", "json"],
            ["mutinfo", "D1_ENSEMBLE", "D1_POVM", "--format", "json"],
            ["power", "--builtin", "tetrahedral", "--starts", "2", "--seed", "1"],
            ["power", "--povm", "D1_POVM", "--starts", "2"],
            ["minent", "--builtin", "qutrit", "--starts", "2"],
            ["minent", "--povm", "D1_POVM", "--starts", "2"],
            ["minent", "--fiducial", "D1_FIDUCIAL", "--starts", "2"],
            ["scrooge", "--dim", "3", "--samples", "1000", "--seed", "1"],
        ],
    )
    def test_output_parses_as_strict_json(self, capsys, tmp_path, argv):
        code, out = run_d1(capsys, tmp_path, *argv)
        assert code == 0
        strict_json(out)

    def test_single_element_has_no_pairwise_deviation(self, capsys, tmp_path):
        # no pairs: the overlap condition is vacuous and the d=1 set passes
        code, out = run_d1(capsys, tmp_path, "verify-sic", "D1_POVM", "--format", "json")
        assert code == 0
        cert = strict_json(out)
        assert cert["max_pairwise_deviation"] == 0.0
        assert cert["passes"] is True

    @pytest.mark.parametrize("source", [["--povm", "D1_POVM"], ["--fiducial", "D1_FIDUCIAL"]])
    def test_minent_of_point_mass_is_positive_zero(self, capsys, tmp_path, source):
        _, out = run_d1(capsys, tmp_path, "minent", *source, "--starts", "2")
        value = strict_json(out)["best_value"]
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_mutinfo_of_point_mass_is_positive_zero(self, capsys, tmp_path):
        _, out = run_d1(capsys, tmp_path, "mutinfo", "D1_ENSEMBLE", "D1_POVM", "--format", "json")
        for key in ("H_X", "H_Y", "H_XY"):
            assert math.copysign(1.0, strict_json(out)[key]) == 1.0
        _, text = run_d1(capsys, tmp_path, "mutinfo", "D1_ENSEMBLE", "D1_POVM")
        assert "H(X)=0.000000" in text and "-0.000000" not in text
