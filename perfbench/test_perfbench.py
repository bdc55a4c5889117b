"""Tests of the benchmark itself: its references, its checks and its tracer.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

run.import_program()

import references as ref  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

import infopower  # noqa: E402


def tetrahedral_effects():
    w = np.exp(2j * np.pi / 3)
    a, b = 1 / math.sqrt(3), math.sqrt(2 / 3)
    kets = np.array([[1, 0], [a, b], [a, w * b], [a, w.conjugate() * b]])
    return np.einsum("yi,yj->yij", kets, kets.conj()) / 2


def antitetrahedral_kets():
    u = np.exp(1j * np.pi / 3)
    a, b = 1 / math.sqrt(3), math.sqrt(2 / 3)
    return np.array([[0, 1], [b, -a], [b, u.conjugate() * a], [b, u * a]])


def power_report(value):
    kets = antitetrahedral_kets()
    return SimpleNamespace(
        best_value=value,
        values_per_start=[value, value - 0.01],
        best_states=[(0.25, k) for k in kets],
    )


# --- references against hand values ---------------------------------------


def test_closed_forms_match_hand_values():
    assert ref.scrooge_floor(2) == pytest.approx(0.278652, abs=1e-6)
    assert ref.scrooge_floor(3) == pytest.approx(0.382717, abs=1e-6)
    assert ref.POWER_QUBIT_SIC == pytest.approx(0.415037, abs=1e-6)
    assert ref.POWER_QUTRIT_SIC == pytest.approx(0.584963, abs=1e-6)
    assert ref.MINENT_QUTRIT_SIC == pytest.approx(2.584963, abs=1e-6)
    assert ref.MINENT_D4_FLOOR == pytest.approx(3.321928, abs=1e-6)
    assert ref.rastegin_floor(4) == pytest.approx(math.log2(10), abs=1e-15)
    assert ref.sic_upper(2) == pytest.approx(0.415037, abs=1e-6)
    assert ref.pg_sic(2) == pytest.approx(0.2075187496, abs=1e-9)


def test_pg_sic_matches_its_joint_distribution():
    for d in (2, 3, 4):
        n = d * d
        joint = np.full((n, n), 1.0 / (d**3 * (d + 1)))
        np.fill_diagonal(joint, 1.0 / d**3)
        assert ref.mutual_information(joint) == pytest.approx(ref.pg_sic(d), abs=1e-12)


def test_mutual_information_from_raw_arrays():
    kets = antitetrahedral_kets()
    states = 0.25 * np.einsum("xi,xj->xij", kets, kets.conj())
    joint = ref.born_matrix(states, tetrahedral_effects())
    assert ref.mutual_information(joint) == pytest.approx(math.log2(4 / 3), abs=1e-12)
    assert np.allclose(0.25 * ref.pure_born_matrix(kets, tetrahedral_effects()), joint)
    assert ref.mutual_information(np.eye(2) / 2) == pytest.approx(1.0)
    assert ref.mutual_information(np.full((3, 3), 1 / 9)) == pytest.approx(0.0, abs=1e-15)


def test_fiducials_are_sic_and_perturbed_copies_are_not():
    for f in (ref.qubit_sic_fiducial(), ref.qutrit_sic_fiducial(), workloads.load_fiducial_d4()):
        assert ref.fiducial_deviation(f) <= 1e-12
        g = f + workloads.PERTURBATION * np.ones(len(f)) / math.sqrt(len(f))
        assert ref.fiducial_deviation(g / np.linalg.norm(g)) > 1e-6


def test_make_fiducial_regenerates_a_sic_fiducial():
    import make_fiducial

    assert ref.fiducial_deviation(make_fiducial.find_fiducial()) <= 1e-12


# --- every check rejects a wrong output -------------------------------------


def test_power_check():
    effects = tetrahedral_effects()
    ref.check_power_report(power_report(ref.POWER_QUBIT_SIC), effects, ref.POWER_QUBIT_SIC)
    with pytest.raises(ref.CheckFailed):
        ref.check_power_report(power_report(ref.POWER_QUBIT_SIC + 1e-5), effects, ref.POWER_QUBIT_SIC)
    above = power_report(ref.POWER_QUBIT_SIC)
    above.values_per_start.append(ref.POWER_QUBIT_SIC + 1e-8)
    with pytest.raises(ref.CheckFailed):
        ref.check_power_report(above, effects, ref.POWER_QUBIT_SIC)
    # a reported value the reported ensemble does not reach
    with pytest.raises(ref.CheckFailed):
        ref.check_power_report(power_report(ref.POWER_QUBIT_SIC - 5e-7), effects, ref.POWER_QUBIT_SIC)


def minent_report(povm, value, extra=()):
    report = infopower.optimize.min_output_entropy(povm, starts=20, seed=3)
    report.best_value = value if value is not None else report.best_value
    report.values_per_start = list(report.values_per_start) + list(extra)
    return report, np.array(povm.effects)


def test_minent_check():
    povm = infopower.sic.qutrit_sic_povm()
    report, effects = minent_report(povm, None)
    ref.check_minent_report(report, effects, 3)
    for bad in (
        minent_report(povm, report.best_value + 1e-5),
        minent_report(povm, None, extra=[ref.rastegin_floor(3) - 1e-6]),
    ):
        with pytest.raises(ref.CheckFailed):
            ref.check_minent_report(*bad, 3)


def test_scalar_checks():
    ref.check_scrooge(ref.scrooge_floor(64) + 0.009, 64)
    with pytest.raises(ref.CheckFailed):
        ref.check_scrooge(ref.scrooge_floor(64) + 0.011, 64)
    ref.check_mutinfo({"I": 0.5}, 0.5, 2)
    with pytest.raises(ref.CheckFailed):
        ref.check_mutinfo({"I": 0.5 + 1e-5}, 0.5, 2)
    with pytest.raises(ref.CheckFailed):
        ref.check_mutinfo({"I": 1.5}, 1.5, 2)
    ref.check_duality(0.3, 0.3 + 1e-9, 0.3)
    with pytest.raises(ref.CheckFailed):
        ref.check_duality(0.3, 0.3 + 1e-7, 0.3)
    with pytest.raises(ref.CheckFailed):
        ref.check_duality(0.3 + 1e-5, 0.3 + 1e-5, 0.3)
    # a perturbed SIC reported as passing
    with pytest.raises(ref.CheckFailed):
        ref.check_exit_code("verify-sic bent4", 0, 1)


def bound_rows(dmax):
    return [
        {
            "dim": d,
            "holevo": ref.holevo(d),
            "sic_upper": ref.sic_upper(d),
            "scrooge_lower": ref.scrooge_floor(d),
            "rastegin_cond": ref.rastegin_floor(d),
            "pg_sic_value": ref.pg_sic(d),
        }
        for d in range(2, dmax + 1)
    ]


def test_bounds_check():
    ref.check_bounds_rows(bound_rows(10), 10)
    with pytest.raises(ref.CheckFailed):
        ref.check_bounds_rows(bound_rows(9), 10)
    rows = bound_rows(10)
    rows[3]["scrooge_lower"] += 1e-5
    with pytest.raises(ref.CheckFailed):
        ref.check_bounds_rows(rows, 10)


# --- the workloads against the program --------------------------------------


@pytest.mark.parametrize("name", ["solvers", "io-cli"])
def test_one_round_passes_its_checks(name, tmp_path):
    ctx, built = workloads.setup(name, 5, str(tmp_path))
    phase = run.run_phase(workloads.WORKLOADS[name], ctx, 5, seconds=0.0)
    assert len(phase.rounds) == 1
    assert phase.attempted == len(workloads.WORKLOADS[name].ops(ctx, 5, 0))
    assert phase.failures == [] and phase.wrong == []


def test_setup_probes_are_spread_over_the_run(tmp_path):
    ctx, _ = workloads.setup("io-cli", 5, str(tmp_path))
    taken = []
    phase = run.run_phase(
        workloads.WORKLOADS["io-cli"], ctx, 5, seconds=0.0, probe=lambda: taken.append(1) or 0.1
    )
    assert len(taken) == run.SETUP_REPEATS and phase.setup_samples == [0.1] * run.SETUP_REPEATS
    assert run.end_to_end_metrics(phase)["setup_s"]["value"] == 0.1


def test_an_operation_that_raises_makes_the_run_incorrect(tmp_path):
    ctx, _ = workloads.setup("io-cli", 5, str(tmp_path))
    ctx["pairs"][2] = (None, None, *ctx["pairs"][2][2:])  # the duality call raises
    phase = run.run_phase(workloads.WORKLOADS["io-cli"], ctx, 5, seconds=0.0)
    assert [f.split(":")[0] for f in phase.failures] == ["round 0 duality-d2"]
    result = run.summarise([phase], {})
    assert result["correct"] is False and result["failed"] == 1


def test_io_cli_catches_a_wrong_verdict(tmp_path):
    ctx, _ = workloads.setup("io-cli", 5, str(tmp_path))
    ctx["sic_files"]["bent4"] = ctx["sic_files"]["sic4"]  # a SIC where a non-SIC is due
    phase = run.run_phase(workloads.WORKLOADS["io-cli"], ctx, 5, seconds=0.0)
    assert [w.split(":")[0] for w in phase.wrong] == ["round 0 verify-bent4"]


def test_optimizer_counts_repeat_at_one_seed(tmp_path):
    ctx, _ = workloads.setup("solvers", 9, str(tmp_path))
    minent = [op for op in workloads.WORKLOADS["solvers"].ops(ctx, 9, 0) if op.name.startswith("minent")]
    first, second = ([("minent", op.call(), 0.0) for op in minent] for _ in range(2))
    assert run.optimizer_counters(first) == run.optimizer_counters(second)
    assert run.optimizer_counters(first)[1] > 0


# --- the tracer -------------------------------------------------------------


def test_tracer_wraps_and_restores(tmp_path):
    ctx, _ = workloads.setup("io-cli", 2, str(tmp_path))
    original = infopower.states.Povm.__init__, infopower.cli.main, infopower.infotheory.joint_distribution
    untraced = run.run_phase(workloads.WORKLOADS["io-cli"], ctx, 2, 0.0)
    assert not hasattr(infopower.cli.main, "__traced_layer__")
    tracer = Tracer(infopower)
    tracer.install()
    try:
        assert infopower.cli.main.__traced_layer__ == "cli"
        assert infopower.joint_distribution is infopower.infotheory.joint_distribution
        traced = run.run_phase(workloads.WORKLOADS["io-cli"], ctx, 2, 0.0)
    finally:
        tracer.uninstall()
    assert (infopower.states.Povm.__init__, infopower.cli.main, infopower.infotheory.joint_distribution) == original
    assert traced.wrong == [] and untraced.wrong == []
    assert all(tracer.calls[layer] > 0 for layer in LAYERS if layer != "optimize")
    # self times partition the traced time; busy time bounds self time
    assert sum(tracer.self_time.values()) <= traced.rounds[0]["wall"]
    for layer in LAYERS:
        assert tracer.self_time[layer] <= tracer.busy[layer] + 1e-12
    metrics = run.per_layer_metrics(untraced, traced, tracer)
    assert metrics["cli.calls"]["value"] == tracer.calls["cli"]
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert list(metrics) == [m["name"] for m in declared["per_layer"]]
    assert [metrics[m["name"]]["unit"] for m in declared["per_layer"]] == [
        m["unit"] for m in declared["per_layer"]
    ]
    untraced.setup_samples = [0.1]
    e2e = run.end_to_end_metrics(untraced)
    assert [(k, v["unit"]) for k, v in e2e.items()] == [
        (m["name"], m["unit"]) for m in declared["end_to_end"]
    ]
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


# --- the command ------------------------------------------------------------


def test_setup_is_timed_in_fresh_interpreters():
    assert 0 < run.setup_probe("io-cli", 1) < 60
    assert not any(run.WORK.glob("probe-*"))


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "solvers", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
