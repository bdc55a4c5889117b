"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS line (visible with pytest -s or in the -v summary).
"""

import time

import numpy as np

from infopower import infotheory, sic, states
from infopower.cli import main
from infopower.infotheory import (
    conditional_output_entropy,
    index_of_coincidence,
    joint_distribution,
    mutual_information,
    pg_sic_value,
    rastegin_conditional_floor,
    scrooge_asymptote,
    scrooge_lower,
    sic_pretty_good_joint,
)
from infopower.optimize import (
    informational_power_lower_bound,
    min_output_entropy,
    output_entropy_gradient,
    scrooge_lower_bound_estimate,
)

from conftest import random_ensemble, random_povm, random_pure_states


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS — {text}")


def test_criterion_1_corollary_qubit():
    t0 = time.perf_counter()
    value = mutual_information(
        joint_distribution(sic.antitetrahedral_ensemble(), sic.tetrahedral_povm())
    )
    elapsed = time.perf_counter() - t0
    assert abs(value - np.log2(4 / 3)) <= 1e-9
    assert elapsed < 1.0
    report(1, f"I(antitetrahedral, tetrahedral) = {value:.9f} = log(4/3) in {elapsed:.3f}s")


def test_criterion_2_corollary_qutrit():
    e, p = sic.qutrit_orthonormal_ensemble(), sic.qutrit_sic_povm()
    j = joint_distribution(e, p)
    value = mutual_information(j)
    assert abs(value - np.log2(3 / 2)) <= 1e-9
    expected = np.full((3, 9), 1 / 18)
    expected[0, 0:3] = expected[1, 3:6] = expected[2, 6:9] = 0
    assert np.max(np.abs(j.probs - expected)) <= 1e-12
    report(2, f"I(orthonormal, qutrit SIC) = {value:.9f} = log(3/2); joint matches 0-and-1/18 pattern")


def test_criterion_3_optimizer_saturation():
    t0 = time.perf_counter()
    power = informational_power_lower_bound(sic.tetrahedral_povm(), starts=100, seed=7)
    t_power = time.perf_counter() - t0
    assert abs(power.best_value - np.log2(4 / 3)) <= 1e-6
    assert t_power < 30.0

    t0 = time.perf_counter()
    minent = min_output_entropy(sic.qutrit_sic_povm(), starts=100, seed=7)
    t_minent = time.perf_counter() - t0
    assert abs(minent.best_value - np.log2(6)) <= 1e-6
    assert t_minent < 30.0
    report(
        3,
        f"power(tetrahedral) = {power.best_value:.9f} in {t_power:.1f}s; "
        f"minent(qutrit) = {minent.best_value:.9f} in {t_minent:.1f}s",
    )


def test_criterion_4_scrooge_monte_carlo():
    t0 = time.perf_counter()
    est2 = scrooge_lower_bound_estimate(2, 100_000, seed=11)
    est3 = scrooge_lower_bound_estimate(3, 100_000, seed=11)
    elapsed = time.perf_counter() - t0
    assert abs(est2 - 0.278652) <= 0.01
    assert abs(est3 - 0.382717) <= 0.01
    assert elapsed < 60.0
    # asymptote constant matches to 5 significant digits at d = 10^6
    assert f"{scrooge_lower(10**6):.5g}" == f"{scrooge_asymptote():.5g}"
    assert abs(scrooge_asymptote() - 0.60995) < 5e-5
    report(
        4,
        f"estimates d=2: {est2:.4f}, d=3: {est3:.4f} in {elapsed:.1f}s; "
        f"asymptote {scrooge_asymptote():.5f}",
    )


def test_criterion_5_pretty_good_dominance():
    for d in range(2, 65):
        brute = mutual_information(sic_pretty_good_joint(d))
        assert abs(brute - pg_sic_value(d)) <= 1e-9
        assert brute <= scrooge_lower(d)
    assert abs(pg_sic_value(2) - 0.2075187496) <= 1e-9
    # the alternative printed closed form is a flagged discrepancy, not a target
    assert abs(infotheory.pg_sic_closed_form(2) - pg_sic_value(2)) > 1e-3
    report(5, "pg_sic_value <= scrooge_lower for d in 2..64; d=2 value 0.207519 by brute force")


def test_criterion_6a_holevo_ceiling():
    rng = np.random.default_rng(61)
    for d in (2, 3, 4):
        for _ in range(1000):
            e = random_ensemble(rng, d, n=d + 1)
            p = random_povm(rng, d, n=d + 1)
            assert mutual_information(joint_distribution(e, p)) <= np.log2(d) + 1e-8
    report("6a", "I <= log d on 1000 random pairs for each d in {2,3,4}")


def test_criterion_6b_rastegin_floor():
    rng = np.random.default_rng(62)
    for povm, d in ((sic.tetrahedral_povm(), 2), (sic.qutrit_sic_povm(), 3)):
        floor = rastegin_conditional_floor(d)
        for psi in random_pure_states(rng, 1000, d):
            assert conditional_output_entropy(povm, psi) >= floor - 1e-8
    report("6b", "H(Y|X=x) >= log(d(d+1)/2) - 1e-8 on 1000 Haar states per built-in SIC")


def test_criterion_6c_index_of_coincidence():
    rng = np.random.default_rng(63)
    for povm, d in ((sic.tetrahedral_povm(), 2), (sic.qutrit_sic_povm(), 3)):
        values = np.array(
            [
                index_of_coincidence(povm, np.outer(v, v.conj()))
                for v in random_pure_states(rng, 1000, d)
            ]
        )
        assert np.max(np.abs(values - 2 / (d * (d + 1)))) < 1e-9
        assert np.std(values) < 1e-9
    report("6c", "index of coincidence constant 2/(d(d+1)) with stddev < 1e-9")


def test_criterion_6d_duality_identity():
    rng = np.random.default_rng(64)
    checked = 0
    while checked < 100:
        d = int(rng.integers(2, 5))
        e = random_ensemble(rng, d)
        p = random_povm(rng, d)
        rho = states.average_state(e)
        if np.min(np.linalg.eigvalsh(rho)) < 1e-6:
            continue
        i_direct = mutual_information(joint_distribution(e, p))
        i_dual = mutual_information(
            joint_distribution(
                states.pretty_good_ensemble(p, rho), states.pretty_good_povm(e)
            )
        )
        assert abs(i_direct - i_dual) <= 1e-8
        checked += 1
    report("6d", "duality identity within 1e-8 on 100 random full-rank pairs")


def test_criterion_6e_average_operator_identity():
    from conftest import qubit_wh_fiducial

    sets = [
        (sic.tetrahedral_povm().effects, 2),
        (sic.sic_ensemble_from_povm(sic.tetrahedral_povm()).states, 2),
        (sic.antitetrahedral_ensemble().states, 2),
        (sic.qutrit_sic_povm().effects, 3),
        (sic.wh_covariant_povm(qubit_wh_fiducial()).effects, 2),
    ]
    for elems, d in sets:
        cert = sic.is_sic(elems)
        assert cert.passes
        assert cert.average_deviation <= 1e-8
    report("6e", "sum of every constructed SIC set equals d*lambda*identity within 1e-8")


def test_criterion_6f_gradient_check():
    rng = np.random.default_rng(66)
    povms = [sic.tetrahedral_povm(), sic.qutrit_sic_povm()]
    h = 1e-6
    checked = 0
    while checked < 100:
        p = povms[checked % 2]
        d = p.dim
        z = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi = z / np.linalg.norm(z)
        if np.min(infotheory.outcome_distribution(p, psi)) < 1e-3:
            continue
        grad = output_entropy_gradient(p, psi)
        num = np.zeros(d, dtype=complex)
        for k in range(d):
            for unit in (1.0, 1j):
                e = np.zeros(d, dtype=complex)
                e[k] = unit * h
                fp = conditional_output_entropy(p, (psi + e) / np.linalg.norm(psi + e))
                fm = conditional_output_entropy(p, (psi - e) / np.linalg.norm(psi - e))
                num[k] += unit * (fp - fm) / (2 * h)
        assert np.linalg.norm(num - grad) / np.linalg.norm(grad) < 1e-5
        checked += 1
    report("6f", "Riemannian gradient matches central differences (rel err < 1e-5) at 100 points")


def test_criterion_7_d4_reproduction(d4_fiducial_path):
    fiducial = states.load_fiducial(d4_fiducial_path)
    povm = sic.wh_covariant_povm(fiducial)
    assert sic.is_sic(povm.effects).passes
    t0 = time.perf_counter()
    result = min_output_entropy(povm, starts=1000, seed=7)
    elapsed = time.perf_counter() - t0
    assert abs(result.best_value - 3.433) <= 0.005
    assert result.best_value > np.log2(10)
    assert elapsed < 600.0
    report(7, f"d=4 minimal outcome entropy {result.best_value:.4f} in {elapsed:.0f}s")


def test_criterion_8_bounds_table(capsys):
    code = main(["bounds", "--dmax", "100"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [
        line.split(",")
        for line in out.splitlines()[1:]
        if line and not line.startswith("#")
    ]
    scrooge_col = [float(r[3]) for r in rows]
    upper_col = [float(r[2]) for r in rows]
    holevo_col = [float(r[1]) for r in rows]
    assert len(rows) == 99
    assert all(a < b for a, b in zip(scrooge_col, scrooge_col[1:]))
    assert all(a < b for a, b in zip(upper_col, upper_col[1:]))
    assert scrooge_col[-1] < 0.609970 < scrooge_col[-1] + 0.01
    assert upper_col[-1] < 1.0 < upper_col[-1] + 0.02
    for low, up, hol in zip(scrooge_col, upper_col, holevo_col):
        assert low < up < hol
    assert "# asymptotes: scrooge_lower->0.609970, sic_upper->1.0" in out
    report(8, "bounds table monotone toward asymptotes 0.609970 and 1.0 with correct ordering")
