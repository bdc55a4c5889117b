import json
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from infopower import hilbert, infotheory, optimize, sic, states
from infopower.errors import DimMismatch, InvalidDimension, InvalidInput
from infopower.infotheory import (
    JointDistribution,
    conditional_output_entropy,
    joint_distribution,
    mutual_information,
    outcome_distribution,
    scrooge_lower,
    shannon_entropy,
    sic_upper,
)
from infopower.optimize import (
    _ARMIJO_BATCH,
    _ARMIJO_C,
    _ARMIJO_SHRINK,
    _CHECK_EVERY,
    _MAX_STARTS,
    _MIN_STEP,
    CONV_TOL,
    GRAD_TOL,
    MAX_ITER,
    _bb_length,
    _divergence_coef,
    _effect_gradient,
    _haar_from_rng,
    _mutual_information_bits,
    _normalize,
    _outcome_marginal,
    _project_tangent,
    _reweight_prior,
    _riemannian_ascent,
    _sphere_step,
    informational_power_lower_bound,
    min_output_entropy,
    output_entropy_gradient,
    scrooge_lower_bound_estimate,
    uniform_povm_approximant,
)
from infopower.states import Ensemble, Povm, load_fiducial

from conftest import SHIPPED_D4_FIDUCIAL, random_pure_states


class TestApproximantStream:
    def test_determinism(self):
        a = uniform_povm_approximant(3, 10, seed=42)
        b = uniform_povm_approximant(3, 10, seed=42)
        np.testing.assert_array_equal(a.effects, b.effects)

    def test_different_seeds_differ(self):
        a = uniform_povm_approximant(3, 10, seed=1)
        b = uniform_povm_approximant(3, 10, seed=2)
        assert not np.allclose(a.effects, b.effects)

    def test_stream_is_pinned(self):
        # the effects at (2, 4, seed=5), recorded from the PCG64(seed) stream:
        # another bit generator, a spawned SeedSequence child or another draw
        # order moves them, and with them every test margin built on the
        # approximants. Swapping the real and imaginary draws conjugates
        # every effect, which keeps the traces, so the off-diagonals are
        # pinned too.
        effects = uniform_povm_approximant(2, 4, seed=5).effects
        np.testing.assert_allclose(
            np.trace(effects, axis1=1, axis2=2).real,
            [0.7163778398855487, 0.38310561697075635, 0.5992881915197912, 0.30122835162390355],
            rtol=0,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            effects[:, 0, 1],
            [
                0.30215063632367795 + 0.18826277895818752j,
                -0.14899026407894453 + 0.04170870703261576j,
                -0.18302646687228102 - 0.1407219060045255j,
                0.029866094627547583 - 0.08924957998627797j,
            ],
            rtol=0,
            atol=1e-12,
        )

    @pytest.mark.parametrize("dim", [2, 3, 7])
    @pytest.mark.parametrize("seed", [0, 1, 5, 42, 2024])
    def test_effect_k_is_row_k_of_the_stream(self, dim, seed):
        # with S the frame operator of the stream's n states, S^1/2 E_k S^1/2
        # gives back the projector on the stream's k-th state, in order
        n = 2 * dim
        psis = _haar_from_rng(np.random.Generator(np.random.PCG64(seed)), dim, n)
        root = hilbert.op_sqrt(psis.T @ psis.conj())
        effects = uniform_povm_approximant(dim, n, seed).effects
        np.testing.assert_allclose(
            root @ effects @ root,
            psis[:, :, None] * psis[:, None, :].conj(),
            rtol=0,
            atol=1e-9,
        )

    def test_mean_projector_is_maximally_mixed(self):
        psis = _haar_from_rng(np.random.Generator(np.random.PCG64(0)), 2, 100_000)
        mean_proj = np.einsum("ni,nj->ij", psis, psis.conj()) / len(psis)
        assert np.max(np.abs(mean_proj - np.eye(2) / 2)) < 0.01

    def test_mean_overlap_with_basis_vector(self):
        for d in (2, 4):
            psis = _haar_from_rng(np.random.Generator(np.random.PCG64(1)), d, 100_000)
            assert abs(np.mean(np.abs(psis[:, 0]) ** 2) - 1 / d) < 0.01


@pytest.mark.parametrize(
    "call",
    [
        lambda: uniform_povm_approximant(2, 4, seed=-1),
        lambda: scrooge_lower_bound_estimate(2, 100, seed=-1),
        lambda: min_output_entropy(sic.tetrahedral_povm(), starts=2, seed=-1),
        lambda: informational_power_lower_bound(sic.tetrahedral_povm(), starts=2, seed=-1),
    ],
    ids=["uniform_povm_approximant", "scrooge", "minent", "power"],
)
def test_negative_seed_is_invalid_input(call):
    with pytest.raises(InvalidInput, match="seed"):
        call()


TETRAHEDRAL = sic.tetrahedral_povm()


@pytest.mark.parametrize(
    "call, err",
    [
        (lambda: uniform_povm_approximant(0, 4), InvalidDimension),
        (lambda: uniform_povm_approximant(2, 4, seed=1.0), InvalidInput),
        (lambda: uniform_povm_approximant(2, 4, seed=True), InvalidInput),
        (lambda: uniform_povm_approximant(2, 4.0), InvalidDimension),
        (lambda: uniform_povm_approximant(2, 1), InvalidDimension),
        (lambda: uniform_povm_approximant(2.5, 4), InvalidDimension),
        (lambda: uniform_povm_approximant(-1, 4), InvalidDimension),
        (lambda: uniform_povm_approximant(2, -1), InvalidDimension),
        (lambda: uniform_povm_approximant(2, 4, seed="1"), InvalidInput),
        (lambda: informational_power_lower_bound(TETRAHEDRAL, starts=2.5), InvalidInput),
        (lambda: informational_power_lower_bound(TETRAHEDRAL, starts=2, seed=None), InvalidInput),
        (lambda: min_output_entropy(TETRAHEDRAL, seed=1.5), InvalidInput),
        (lambda: min_output_entropy(TETRAHEDRAL, starts=True), InvalidInput),
        (lambda: scrooge_lower_bound_estimate(2, 100.0), InvalidDimension),
        (lambda: scrooge_lower_bound_estimate(2.0, 100), InvalidDimension),
        (lambda: scrooge_lower_bound_estimate(1, 100), InvalidDimension),
        (lambda: scrooge_lower_bound_estimate(2, 100, seed="1"), InvalidInput),
    ],
    ids=[
        "approximant-d-0",
        "approximant-seed-float",
        "approximant-seed-bool",
        "approximant-n-float",
        "approximant-n-below-d",
        "approximant-d-float",
        "approximant-d-negative",
        "approximant-n-negative",
        "approximant-seed-str",
        "power-starts-float",
        "power-seed-none",
        "minent-seed-float",
        "minent-starts-bool",
        "scrooge-samples-float",
        "scrooge-d-float",
        "scrooge-d-1",
        "scrooge-seed-str",
    ],
)
def test_count_argument_outside_its_range_is_typed(call, err):
    with pytest.raises(err, match="must be an integer >= "):
        call()


class TestStartsCap:
    """A search over more than _MAX_STARTS starts is a usage error, raised
    before a generator is made or the POVM is tested for triviality; at the
    cap the search reaches its generators."""

    TRIVIAL = Povm([np.eye(2) / 2, np.eye(2) / 2])
    CASES = [
        (informational_power_lower_bound, TETRAHEDRAL),
        (min_output_entropy, TETRAHEDRAL),
        (informational_power_lower_bound, TRIVIAL),
    ]

    class Reached(Exception):
        pass

    @pytest.mark.parametrize("solver, p", CASES, ids=["power", "minent", "power-trivial"])
    def test_above_the_cap_raises_first(self, monkeypatch, solver, p):
        def fail(*args):
            raise AssertionError("the search started")

        monkeypatch.setattr(optimize, "_start_rngs", fail)
        monkeypatch.setattr(optimize, "_is_trivial_povm", fail)
        with pytest.raises(InvalidInput, match=f"starts must be at most {_MAX_STARTS}"):
            solver(p, starts=_MAX_STARTS + 1, seed=1)

    @pytest.mark.parametrize("solver", [informational_power_lower_bound, min_output_entropy])
    def test_the_cap_itself_passes(self, monkeypatch, solver):
        def reached(seed, starts):
            assert starts == _MAX_STARTS
            raise self.Reached

        monkeypatch.setattr(optimize, "_start_rngs", reached)
        with pytest.raises(self.Reached):
            solver(TETRAHEDRAL, starts=_MAX_STARTS, seed=1)


@pytest.mark.parametrize("int_type", [np.int32, np.int64, np.uint8])
class TestNumpyIntegerCounts:
    @pytest.mark.parametrize("solver", [informational_power_lower_bound, min_output_entropy])
    def test_optimizers_report_the_python_int_run(self, solver, int_type):
        report = solver(TETRAHEDRAL, starts=int_type(3), seed=int_type(5)).to_json_dict()
        assert json.dumps(report) == json.dumps(solver(TETRAHEDRAL, starts=3, seed=5).to_json_dict())
        assert type(report["seed"]) is int

    def test_haar_stream_matches_the_python_int_stream(self, int_type):
        rng = np.random.Generator(np.random.PCG64(int_type(4)))
        psis = _haar_from_rng(rng, int_type(3), int_type(5))
        expected = _haar_from_rng(np.random.Generator(np.random.PCG64(4)), 3, 5)
        np.testing.assert_array_equal(psis, expected)

    def test_scrooge_and_approximant(self, int_type):
        est = scrooge_lower_bound_estimate(int_type(3), int_type(200), int_type(2))
        assert est == scrooge_lower_bound_estimate(3, 200, 2)
        povm = uniform_povm_approximant(int_type(2), int_type(5), int_type(1))
        np.testing.assert_array_equal(povm.effects, uniform_povm_approximant(2, 5, 1).effects)


@pytest.mark.parametrize("solver", [informational_power_lower_bound, min_output_entropy])
def test_report_amplitudes_decode_to_the_reported_vectors(solver):
    # the report writes [re, im] pairs with the states module's encoder, so
    # its decoder gives back every reported vector bit for bit
    report = solver(sic.qutrit_sic_povm(), starts=3, seed=2)
    entries = report.to_json_dict()["best_states"]
    assert len(entries) == len(report.best_states)
    for entry, (_, v) in zip(entries, report.best_states):
        assert np.array_equal(states._complex_from_pairs(entry["amplitudes"], 1), v)


class TestMinOutputEntropy:
    def test_tetrahedral_reaches_log3(self):
        report = min_output_entropy(sic.tetrahedral_povm(), starts=50, seed=7)
        assert report.best_value == pytest.approx(np.log2(3), abs=1e-9)
        # optimum sits at an antitetrahedral direction: outcomes (0,1/3,1/3,1/3)
        _, psi = report.best_states[0]
        dist = sorted(infotheory.outcome_distribution(sic.tetrahedral_povm(), psi))
        np.testing.assert_allclose(dist, [0, 1 / 3, 1 / 3, 1 / 3], atol=1e-6)

    def test_qutrit_reaches_log6(self):
        report = min_output_entropy(sic.qutrit_sic_povm(), starts=50, seed=7)
        assert report.best_value == pytest.approx(np.log2(6), abs=1e-9)

    def test_certification(self):
        p = sic.qutrit_sic_povm()
        report = min_output_entropy(p, starts=20, seed=3)
        _, psi = report.best_states[0]
        assert conditional_output_entropy(p, psi) == pytest.approx(
            report.best_value, abs=1e-9
        )

    def test_determinism(self):
        p = sic.tetrahedral_povm()
        r1 = min_output_entropy(p, starts=10, seed=5)
        r2 = min_output_entropy(p, starts=10, seed=5)
        assert r1.best_value == r2.best_value
        assert r1.values_per_start == r2.values_per_start
        assert r1.iterations_per_start == r2.iterations_per_start
        np.testing.assert_array_equal(r1.best_states[0][1], r2.best_states[0][1])

    @pytest.mark.parametrize("seed", [3, 4])
    def test_point_mass_entropy_is_positive_zero(self, seed):
        # a start that lands on a basis state sums to +0.0 (seed 4) or to just
        # below zero through a Born probability of 1 + eps (seed 3)
        p = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        report = min_output_entropy(p, starts=5, seed=seed)
        assert report.best_value == 0.0
        assert math.copysign(1.0, report.best_value) == 1.0
        assert all(v >= 0.0 and math.copysign(1.0, v) == 1.0 for v in report.values_per_start)

    def test_report_metadata(self):
        report = min_output_entropy(sic.tetrahedral_povm(), starts=8, seed=1)
        assert report.starts == 8
        assert len(report.iterations_per_start) == 8
        assert report.converged_starts == 8
        assert report.rng_algorithm == "pcg64"


class TestDivergenceAscent:
    """The first-order check (reference q_bar) and the minimal entropy
    (reference 1) run one relative-entropy ascent; at a uniform reference
    D(q || 1/n) = log2(n) - H(q), so both meet the public outcome entropy."""

    @pytest.mark.parametrize("povm", [sic.tetrahedral_povm, sic.qutrit_sic_povm])
    def test_divergence_from_uniform_is_entropy_deficit(self, povm):
        p = povm()
        n = len(p.effects)
        rngs = [np.random.default_rng(seed) for seed in range(4)]
        q_bar = np.full((len(rngs), n), 1.0 / n)
        phi, divergence, _, _ = optimize._divergence_search(p.factor, q_bar, rngs, 3)
        for state, value in zip(phi, divergence):
            deficit = np.log2(n) - conditional_output_entropy(p, state)
            assert value == pytest.approx(deficit, rel=0, abs=1e-12)

    @staticmethod
    def recorded_starts(monkeypatch, p, ref, seeds, restarts, pool):
        """The states (k * restarts, d) that _divergence_search hands its
        ascent, with each row's stream a default_rng of seeds."""
        starts = []

        def recording(objective, gradient, psi):
            starts.append(psi.copy())
            return _riemannian_ascent(objective, gradient, psi)

        monkeypatch.setattr(optimize, "_riemannian_ascent", recording)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        optimize._divergence_search(p.factor, ref, rngs, restarts, pool)
        (psi0,) = starts
        return psi0

    @pytest.mark.parametrize("povm", [sic.tetrahedral_povm, sic.qutrit_sic_povm])
    def test_each_check_ascent_starts_from_its_highest_divergence_draw(self, monkeypatch, povm):
        p = povm()
        n, d = len(p.effects), p.dim
        seeds = range(11, 16)
        q_bar = np.random.default_rng(5).dirichlet(np.ones(n), size=len(seeds))
        psi0 = self.recorded_starts(monkeypatch, p, q_bar, seeds, 3, 64)
        assert psi0.shape == (3 * len(seeds), d)
        for k, seed in enumerate(seeds):
            # the row's 192 draws, one group of 64 per restart, each scored alone
            draws = _haar_from_rng(np.random.default_rng(seed), d, 3 * 64).reshape(3, 64, d)
            for j, group in enumerate(draws):
                scores = [
                    infotheory._divergence_bits(infotheory._born(p.factor, v), q_bar[k])
                    for v in group
                ]
                assert np.array_equal(psi0[3 * k + j], group[np.argmax(scores)])

    def test_one_draw_pool_starts_from_the_streams_first_draw(self, monkeypatch):
        # min_output_entropy's call: one restart from one draw per row
        p = sic.qutrit_sic_povm()
        seeds = range(21, 27)
        psi0 = self.recorded_starts(monkeypatch, p, np.ones((len(seeds), 1)), seeds, 1, 1)
        first = [_haar_from_rng(np.random.default_rng(seed), p.dim)[0] for seed in seeds]
        assert np.array_equal(psi0, np.array(first))

    @pytest.mark.parametrize("povm", [sic.tetrahedral_povm, sic.qutrit_sic_povm])
    def test_min_entropy_is_the_entropy_of_its_state(self, povm):
        p = povm()
        report = min_output_entropy(p, starts=10, seed=4)
        _, psi = report.best_states[0]
        assert report.best_value == conditional_output_entropy(p, psi)


class TestInformationalPower:
    def test_tetrahedral_saturates_sic_bound(self):
        report = informational_power_lower_bound(
            sic.tetrahedral_povm(), starts=40, seed=7
        )
        assert report.best_value == pytest.approx(np.log2(4 / 3), abs=1e-6)
        # best ensemble is (up to relabeling/phase) the antitetrahedral one:
        # every kept state is orthogonal to exactly one POVM direction
        effects = sic.tetrahedral_povm().effects
        kept = [v for w, v in report.best_states if w > 1e-6]
        for psi in kept:
            overlaps = np.einsum("yij,i,j->y", effects, psi.conj(), psi).real
            assert np.min(overlaps) < 1e-6

    def test_qutrit_saturates_sic_bound(self):
        report = informational_power_lower_bound(
            sic.qutrit_sic_povm(), starts=15, seed=7
        )
        assert report.best_value == pytest.approx(np.log2(3 / 2), abs=1e-6)
        # converges to an orthonormal triple of weight ~1/3
        kept = [(w, v) for w, v in report.best_states if w > 1e-6]
        assert len(kept) == 3
        for _, a in kept:
            for _, b in kept:
                if a is not b:
                    assert abs(np.vdot(a, b)) < 1e-4

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_qutrit_every_start_reaches_the_sic_bound(self, seed):
        report = informational_power_lower_bound(sic.qutrit_sic_povm(), starts=24, seed=seed)
        assert max(report.iterations_per_start) < MAX_ITER
        np.testing.assert_allclose(report.values_per_start, np.log2(3 / 2), rtol=0, atol=1e-6)

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_tetrahedral_every_start_reaches_the_sic_bound(self, seed):
        # no start may stop at a local optimum such as 0.3933819: its
        # first-order check must find the violating state
        report = informational_power_lower_bound(sic.tetrahedral_povm(), starts=100, seed=seed)
        np.testing.assert_allclose(report.values_per_start, np.log2(4 / 3), rtol=0, atol=1e-6)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_basis_povm_reaches_log_d(self, d):
        # the rank-one floor is tight here: a basis measurement's power is
        # log2 d, reached by the basis ensemble, at every d
        p = Povm(list(np.eye(d)[:, None, :] * np.eye(d)[:, :, None]))
        report = informational_power_lower_bound(p, starts=4, seed=1)
        assert report.best_value == pytest.approx(np.log2(d), rel=0, abs=1e-12)
        assert report.converged_starts == 4

    @pytest.mark.parametrize("d, starts, seed", [(2, 6, 1), (3, 4, 2)])
    def test_povm_with_a_zero_effect(self, d, starts, seed):
        # the zero effect's outcome has marginal 0: the see-saw's log ratios
        # read it through the floor, with no divide-by-zero warning
        p = Povm(list(np.eye(d)[:, None, :] * np.eye(d)[:, :, None]) + [np.zeros((d, d))])
        report = informational_power_lower_bound(p, starts=starts, seed=seed)
        assert report.best_value == pytest.approx(np.log2(d), abs=1e-9)
        entropy = min_output_entropy(p, starts=starts, seed=seed)
        assert entropy.best_value == pytest.approx(0.0, abs=1e-9)

    def test_trivial_povm_returns_zero(self):
        p = Povm([np.eye(2) / 2, np.eye(2) / 2])
        report = informational_power_lower_bound(p, starts=5, seed=0)
        assert report.best_value == 0.0
        assert report.converged_starts == 5

    def test_certification(self):
        p = sic.tetrahedral_povm()
        report = informational_power_lower_bound(p, starts=10, seed=2)
        ensemble = Ensemble(
            [w * np.outer(v, v.conj()) for w, v in report.best_states if w > 0]
        )
        recomputed = mutual_information(joint_distribution(ensemble, p))
        assert recomputed == pytest.approx(report.best_value, abs=1e-9)

    def test_determinism(self):
        p = sic.tetrahedral_povm()
        r1 = informational_power_lower_bound(p, starts=6, seed=9)
        r2 = informational_power_lower_bound(p, starts=6, seed=9)
        assert r1.best_value == r2.best_value
        assert r1.values_per_start == r2.values_per_start

    def test_start_that_always_violates_runs_to_max_iter(self, monkeypatch):
        # every first-order check finds a violating state, so every stalled
        # start takes it and goes on: none stops early, none converges
        check = optimize._divergence_search

        def violating(effects, q_bar, rngs, restarts, pool):
            phi, divergence, iterations, converged = check(effects, q_bar, rngs, restarts, pool)
            return phi, divergence + 10.0, iterations, converged

        monkeypatch.setattr(optimize, "_divergence_search", violating)
        report = informational_power_lower_bound(sic.tetrahedral_povm(), starts=4, seed=9)
        assert report.iterations_per_start == [MAX_ITER] * 4
        assert report.converged_starts == 0

    @pytest.mark.parametrize("eps", [1e-8, 1e-11])
    def test_near_trivial_povm_reports_no_value_below_zero(self, eps):
        # the information of a near-trivial POVM rounds about 1e-16 from zero
        # either way; no reported value may be negative or -0.0
        p = Povm([np.diag([0.5 + eps, 0.5 - eps]), np.diag([0.5 - eps, 0.5 + eps])])
        report = informational_power_lower_bound(p, starts=6, seed=1)
        for v in report.values_per_start + [report.best_value]:
            assert v >= 0 and math.copysign(1.0, v) == 1.0

    def test_sandwich_property(self):
        for povm, d, starts in ((sic.tetrahedral_povm(), 2, 20), (sic.qutrit_sic_povm(), 3, 8)):
            report = informational_power_lower_bound(povm, starts=starts, seed=4)
            assert scrooge_lower(d) - 1e-9 <= report.best_value <= sic_upper(d) + 1e-9

    def test_d4_sic_within_1e5_of_exact(self, d4_fiducial_path):
        # the exact value is 4 - H_min of the d = 4 WH SIC
        povm = sic.wh_covariant_povm(load_fiducial(d4_fiducial_path))
        report = informational_power_lower_bound(povm, starts=12, seed=7)
        assert abs(report.best_value - 0.5670677) <= 1e-5

    @pytest.mark.parametrize("seed", range(2001, 2011))
    def test_reports_the_best_ensemble_it_reached(self, seed, monkeypatch):
        # a start that takes a violating state late can end below an earlier
        # step; it reports the best ensemble after any step, whose value is I
        reached = []

        def recording(objective, psi, grad, value, aux, prev_psi, prev_g, rows):
            accepted = _sphere_step(objective, psi, grad, value, aux, prev_psi, prev_g, rows)
            if psi.ndim == 3:  # an ensemble block, whose value is I
                reached.append(value[rows][0])
            return accepted

        monkeypatch.setattr(optimize, "_sphere_step", recording)
        p = sic.qutrit_sic_povm()
        report = informational_power_lower_bound(p, starts=1, seed=seed)
        # the recorded values are I, not -I: a sign slip would make them negative
        assert max(reached) > 0
        assert report.best_value >= max(reached)
        ensemble = Ensemble([w * np.outer(v, v.conj()) for w, v in report.best_states if w > 0])
        assert mutual_information(joint_distribution(ensemble, p)) == pytest.approx(
            report.best_value, abs=1e-9
        )


class TestFirstOrderSchedule:
    """The see-saw checks first-order optimality every _CHECK_EVERY outer
    iterations, in one call, on every live start; only a start that stalled
    on that step and has no violating state found converges."""

    @staticmethod
    def trace(monkeypatch, povm, starts, seed):
        """Run the see-saw and return its report, each start's post-step value
        (iteration, start), and every check as (iteration, checked starts). A
        start is live at iteration t while its iteration count is at least t,
        so the rows of the step at t are those starts."""
        steps, checks, rngs = [], [], []
        start_rngs, check = optimize._start_rngs, optimize._divergence_search

        def recording_rngs(seed, starts):
            rngs.extend(start_rngs(seed, starts))
            return rngs

        def recording_step(objective, psi, grad, value, aux, prev_psi, prev_g, rows):
            accepted = _sphere_step(objective, psi, grad, value, aux, prev_psi, prev_g, rows)
            if psi.ndim == 3:  # an ensemble block, whose value is I
                steps.append(value[rows])
            return accepted

        def recording_check(effects, q_bar, row_rngs, restarts, pool):
            checked = [next(i for i, r in enumerate(rngs) if r is rng) for rng in row_rngs]
            checks.append((len(steps), checked))
            return check(effects, q_bar, row_rngs, restarts, pool)

        monkeypatch.setattr(optimize, "_start_rngs", recording_rngs)
        monkeypatch.setattr(optimize, "_sphere_step", recording_step)
        monkeypatch.setattr(optimize, "_divergence_search", recording_check)
        report = informational_power_lower_bound(povm, starts=starts, seed=seed)
        iterations = np.array(report.iterations_per_start)
        values = np.full((len(steps) + 1, starts), np.nan)
        for t, v in enumerate(steps, start=1):
            values[t, np.flatnonzero(iterations >= t)] = v
        # every traced value is an I, so none is negative: a read of -I fails here
        assert np.all(np.concatenate(steps) >= 0)
        return report, values, checks

    CALLS = [(sic.tetrahedral_povm, 6, 9), (sic.qutrit_sic_povm, 6, 7)]

    @pytest.mark.parametrize("povm, starts, seed", CALLS)
    def test_one_call_per_scheduled_iteration_on_every_live_start(
        self, monkeypatch, povm, starts, seed
    ):
        _, values, checks = self.trace(monkeypatch, povm(), starts, seed)
        expected = [
            (t, np.flatnonzero(~np.isnan(values[t])).tolist())
            for t in range(_CHECK_EVERY, len(values), _CHECK_EVERY)
        ]
        assert expected
        assert checks == expected

    @pytest.mark.parametrize("povm, starts, seed", CALLS)
    def test_converged_starts_stalled_at_their_last_check(self, monkeypatch, povm, starts, seed):
        report, values, checks = self.trace(monkeypatch, povm(), starts, seed)
        probed = dict(checks)
        converged = [s for s, n in enumerate(report.iterations_per_start) if n < MAX_ITER]
        assert len(converged) == report.converged_starts > 0
        for s in converged:
            n = report.iterations_per_start[s]
            assert s in probed[n]
            assert values[n, s] - values[n - 1, s] < CONV_TOL


def _random_wh_povm(d, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=d) + 1j * rng.normal(size=d)
    return sic.wh_covariant_povm(z / np.linalg.norm(z))


def _basis_povm_with_a_zero_effect(d):
    return Povm(list(np.eye(d)[:, None, :] * np.eye(d)[:, :, None]) + [np.zeros((d, d))])


def _rank_two_and_one_povm():
    return Povm([np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])])


def _merged_approximant():
    # uniform_povm_approximant(4, 16, seed=5) with effects 0-2 merged into one
    # rank-3 effect: 14 outcomes, ranks 3, 1, ..., 1
    e = uniform_povm_approximant(4, 16, seed=5).effects
    return Povm([e[:3].sum(axis=0)] + list(e[3:]))


class TestFactoredKernels:
    """Born probabilities and their gradient through Povm.factor agree with
    the sums over the effects they replace, on every kind of factor."""

    # (POVM, largest effect rank r): the factor is (n, r, d), r = 1 for the
    # rank-one POVMs and the zero effect, and lower-rank effects of the
    # mixed-rank POVMs are padded with zero rows
    POVMS = {
        "tetrahedral": (sic.tetrahedral_povm, 1),
        "qutrit": (sic.qutrit_sic_povm, 1),
        "d4-sic": (lambda: sic.wh_covariant_povm(load_fiducial(SHIPPED_D4_FIDUCIAL)), 1),
        "d8-wh": (lambda: _random_wh_povm(8, 11), 1),
        "approximant": (lambda: uniform_povm_approximant(3, 9, seed=5), 1),
        "near-trivial": (
            lambda: Povm([np.diag([0.5 + 1e-8, 0.5 - 1e-8]), np.diag([0.5 - 1e-8, 0.5 + 1e-8])]),
            2,
        ),
        "basis-and-zero": (lambda: _basis_povm_with_a_zero_effect(3), 1),
        "rank-2-and-1": (_rank_two_and_one_povm, 2),
        "merged-approximant": (_merged_approximant, 3),
    }
    SHAPES = [(), (5,), (3, 4)]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("name", sorted(POVMS))
    def test_matches_the_sums_over_the_effects(self, name, shape):
        build, _ = self.POVMS[name]
        p = build()
        n, d = len(p), p.dim
        rng = np.random.default_rng(8)
        z = rng.normal(size=shape + (d,)) + 1j * rng.normal(size=shape + (d,))
        psis = z / np.linalg.norm(z, axis=-1, keepdims=True)
        coef = rng.normal(size=shape + (n,))
        born = np.einsum("yij,...i,...j->...y", p.effects, psis.conj(), psis).real
        grad = 2.0 * np.einsum("...y,yij,...j->...i", coef, p.effects, psis)
        assert infotheory._born(p.factor, psis).shape == shape + (n,)
        np.testing.assert_allclose(infotheory._born(p.factor, psis), born, rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            _effect_gradient(coef, p.factor, psis), grad, rtol=0, atol=1e-13
        )

    @pytest.mark.parametrize("name", sorted(POVMS))
    def test_factor_is_read_only_and_computed_once_on_first_use(self, name):
        build, rank = self.POVMS[name]
        p = build()
        assert "factor" not in vars(p)
        factor = p.factor
        assert p.factor is factor
        assert factor.shape == (len(p), rank, p.dim)
        assert not factor.flags.writeable
        with pytest.raises(ValueError):
            factor[0, 0, 0] = 1.0

    def test_zero_effect_has_no_rows_and_probability_zero(self):
        # the zero effect's one row of the factor is a zero row
        p = _basis_povm_with_a_zero_effect(3)
        psi = np.ones(3) / np.sqrt(3)
        assert not p.factor[3].any()
        assert infotheory._born(p.factor, psi)[3] == 0.0


class TestMixedRankOracle:
    """On the POVM {diag(1, 1, 0), diag(0, 0, 1)} a basis ensemble reaches the
    informational power W = 1 bit, and diag(0, 0, 1)'s state gives outcome
    entropy H_min = 0; both searches find them from every seed tried."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_see_saw_reaches_one_bit(self, seed):
        r = informational_power_lower_bound(_rank_two_and_one_povm(), starts=4, seed=seed)
        assert abs(r.best_value - 1.0) < 1e-10
        assert r.converged_starts == 4

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_min_output_entropy_reaches_zero(self, seed):
        r = min_output_entropy(_rank_two_and_one_povm(), starts=4, seed=seed)
        assert abs(r.best_value) < 1e-10


class TestWhOrbitOracle:
    """For a WH-covariant POVM, the WH orbit of any state psi with uniform
    weights 1/d^2 has a uniform outcome marginal and outcome entropy H(q_psi)
    at every orbit state, so its mutual information is 2 log2 d - H(q_psi)."""

    @pytest.mark.parametrize("eta", [1, 0.9, 0.5, 0.1])
    @pytest.mark.parametrize("d", range(2, 6))
    @pytest.mark.parametrize("s", range(3))
    def test_orbit_information_is_two_log_d_minus_the_entropy(self, d, s, eta):
        # E(eta) = eta E + (1 - eta) I/d^2 is WH covariant too; below 1 its
        # effects are full rank
        f, psi = random_pure_states(np.random.default_rng(100 * d + s), 2, d)
        p = Povm(eta * sic.wh_covariant_povm(f).effects + (1 - eta) * np.eye(d) / d**2)
        assert p.factor.shape[1] == (1 if eta == 1 else d)
        # the orbit's states D|psi><psi|D+ with weights 1/d^2 are the effects
        # of psi's own WH POVM divided by d
        ensemble = Ensemble(list(sic.wh_covariant_povm(psi).effects / d))
        info = mutual_information(joint_distribution(ensemble, p))
        expected = 2 * np.log2(d) - shannon_entropy(outcome_distribution(p, psi))
        assert info == pytest.approx(expected, rel=0, abs=1e-12)


class TestRankOneFloor:
    """Every rank-one POVM in dimension d has informational power at least
    scrooge_lower(d) and at most log2 d, so a see-saw value outside that
    interval on one is a see-saw failure."""

    CASES = [
        (d, kind, arg)
        for d in range(2, 5)
        for kind, arg in (("wh", 0), ("wh", 1), ("approximant", d * d), ("approximant", 64))
    ]

    @pytest.mark.parametrize("d, kind, arg", CASES)
    def test_see_saw_lies_between_the_floor_and_log_d(self, d, kind, arg):
        p = _random_wh_povm(d, arg) if kind == "wh" else uniform_povm_approximant(d, arg, seed=5)
        best = informational_power_lower_bound(p, starts=4, seed=1).best_value
        assert scrooge_lower(d) - 1e-9 <= best <= np.log2(d) + 1e-12


class TestGradient:
    def test_rejects_a_state_of_another_dimension(self):
        with pytest.raises(DimMismatch):
            output_entropy_gradient(sic.tetrahedral_povm(), np.ones(3) / np.sqrt(3))

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(14)
        povms = [sic.tetrahedral_povm(), sic.qutrit_sic_povm()]
        h = 1e-6
        checked = 0
        while checked < 100:
            p = povms[checked % 2]
            d = p.dim
            z = rng.normal(size=d) + 1j * rng.normal(size=d)
            psi = z / np.linalg.norm(z)
            q = infotheory.outcome_distribution(p, psi)
            if np.min(q) < 1e-3:  # entropy gradient blows up near the boundary
                continue
            grad = output_entropy_gradient(p, psi)
            num = np.zeros(d, dtype=complex)
            for k in range(d):
                for part, unit in ((1.0, 1.0), (1j, 1j)):
                    e = np.zeros(d, dtype=complex)
                    e[k] = unit * h
                    fp = conditional_output_entropy(p, (psi + e) / np.linalg.norm(psi + e))
                    fm = conditional_output_entropy(p, (psi - e) / np.linalg.norm(psi - e))
                    if part == 1.0:
                        num[k] += (fp - fm) / (2 * h)
                    else:
                        num[k] += 1j * (fp - fm) / (2 * h)
            assert np.linalg.norm(num - grad) / np.linalg.norm(grad) < 1e-5
            checked += 1

    def test_information_block_gradient_matches_central_finite_differences(self):
        # the see-saw's gradient of I(X;Y) over all m = d^2 states of an ensemble
        rng = np.random.default_rng(16)
        povms = [sic.tetrahedral_povm(), sic.qutrit_sic_povm()]
        h = 1e-6

        def information(w, psis, p):
            e = Ensemble([wx * np.outer(v, v.conj()) for wx, v in zip(w, psis)])
            return mutual_information(joint_distribution(e, p))

        checked = 0
        while checked < 6:
            p = povms[checked % 2]
            d, m = p.dim, p.dim**2
            z = rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))
            psis = z / np.linalg.norm(z, axis=1, keepdims=True)
            w = rng.dirichlet(np.ones(m))
            cond = np.array([infotheory.outcome_distribution(p, v) for v in psis])
            if np.min(cond) < 1e-3 or np.min(w) < 1e-3:
                continue
            coef = w[:, None] * _divergence_coef(cond, _outcome_marginal(w, cond))
            grad = _project_tangent(psis, _effect_gradient(coef, p.factor, psis))
            num = np.zeros((m, d), dtype=complex)
            for x in range(m):
                for k in range(d):
                    for unit in (1.0, 1j):
                        shifted = []
                        for sign in (1.0, -1.0):
                            moved = psis.copy()
                            moved[x, k] += sign * unit * h
                            moved[x] /= np.linalg.norm(moved[x])
                            shifted.append(information(w, moved, p))
                        num[x, k] += unit * (shifted[0] - shifted[1]) / (2 * h)
            assert np.linalg.norm(num - grad) / np.linalg.norm(grad) < 1e-5
            checked += 1

    def test_ascent_monotone(self, monkeypatch):
        p = sic.tetrahedral_povm()
        effects = p.effects

        def born(psi):
            return np.clip(np.einsum("yij,ri,rj->ry", effects, psi.conj(), psi).real, 0, None)

        # the entropy is minimized by ascending its negation
        def objective(psi, rows):
            q = born(psi)
            return -np.array([infotheory._entropy_bits(qr) for qr in q]), q

        def gradient(psi, rows, q):
            coef = np.log2(np.maximum(q, 1e-18)) + 1 / np.log(2)
            return 2.0 * np.einsum("ry,yij,rj->ri", coef, effects, psi)

        changes = []

        def recording(objective, psi, grad, value, aux, prev_psi, prev_g, rows):
            before = value[rows]
            accepted = _sphere_step(objective, psi, grad, value, aux, prev_psi, prev_g, rows)
            changes.append(value[rows] - before)
            return accepted

        monkeypatch.setattr(optimize, "_sphere_step", recording)
        rng = np.random.default_rng(15)
        starts = []
        for _ in range(20):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            starts.append(z / np.linalg.norm(z))
        _riemannian_ascent(objective, gradient, np.array(starts))
        assert changes
        assert np.all(np.concatenate(changes) >= -CONV_TOL)


def _one_length_search(objective, psi, g, gnorm, value, ascend):
    """Reference line search: one row and one step length per objective call,
    as the descent (-g) and the ascent (+g) ran before the kernel batched them.
    Returns the accepted step (0 on failure), state and value of every row."""
    steps, states, values = np.zeros(len(psi)), psi.copy(), value.copy()
    for r in range(len(psi)):
        step = 1.0
        while not gnorm[r] < GRAD_TOL and step > _MIN_STEP:
            trial = _normalize(psi[r] + step * g[r] if ascend else psi[r] - step * g[r])
            v = objective(trial[None], np.array([r]))[0][0]
            bound = _ARMIJO_C * step * gnorm[r] ** 2
            if (v >= value[r] + bound) if ascend else (v <= value[r] - bound):
                steps[r], states[r], values[r] = step, trial, v
                break
            step *= _ARMIJO_SHRINK
    return steps, states, values


class TestArmijo:
    """The batched line search accepts the step, state and value that a
    search trying one step length per call accepts, bit for bit."""

    # halvings before row r passes the Armijo test. None passes only after
    # every step length above _MIN_STEP has been tried, so a correct search
    # never moves it; the last row has a flat gradient.
    HALVINGS = [0, 3, 4, 5, 9, None, 0]
    # step lengths 1, 1/2, 1/4, ... above _MIN_STEP
    LENGTHS = int(np.sum(_ARMIJO_SHRINK ** np.arange(64) > _MIN_STEP))

    def setup_rows(self, ascend):
        # row r starts at U_r e0 and moves along gn_r U_r e1, so a trial at
        # step s is U_r (e0 -+ s gn_r e1) / norm and s can be read back from it
        rng = np.random.default_rng(21)
        frames = np.array([
            np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
            for _ in self.HALVINGS
        ])
        psi = frames[:, :, 0].copy()
        gnorm = rng.uniform(0.5, 2.0, size=len(frames))
        gnorm[-1] = 0.0
        g = gnorm[:, None] * frames[:, :, 1]
        value = rng.normal(size=len(frames))
        tried = np.zeros(len(frames), dtype=int)
        sign = 1.0 if ascend else -1.0

        def objective(states, rows):
            c = np.einsum("rji,rj->ri", frames[rows].conj(), states)
            steps = sign * c[:, 1].real / (c[:, 0].real * gnorm[rows])
            passes = []
            for r, step in zip(rows, steps):
                tried[r] += 1
                n = self.HALVINGS[r]
                passes.append(tried[r] > self.LENGTHS if n is None else step < 1.5 * 2.0**-n)
            return value[rows] + sign * np.where(passes, 1.0, -1.0), steps

        return objective, psi, g, gnorm, value, tried

    @pytest.mark.parametrize("ascend", [False, True])
    def test_matches_one_length_per_call(self, ascend):
        objective, psi, g, gnorm, value, tried = self.setup_rows(ascend)
        ref_steps, ref_states, ref_values = _one_length_search(
            objective, psi, _project_tangent(psi, g), gnorm, value, ascend
        )
        ref_tried = tried.copy()
        assert ref_steps.tolist() == [0.0 if n is None else 2.0**-n for n in self.HALVINGS[:-1]] + [0.0]

        tried[:] = 0
        states, aux = psi.copy(), np.full(len(psi), np.nan)
        # the previous state is the state itself, so the first length is 1
        first = (psi.copy(), np.zeros_like(psi), np.arange(len(psi)))
        if ascend:
            values = value.copy()
            steps = _sphere_step(objective, states, g, values, aux, *first)
        else:
            # the descent ascends the negated objective along the negated gradient
            def negated(st, rows):
                v, steps = objective(st, rows)
                return -v, steps

            values = -value
            steps = _sphere_step(negated, states, -g, values, aux, *first)
            values = -values

        assert np.array_equal(steps, ref_steps)
        assert np.array_equal(states, ref_states)
        assert np.array_equal(values, ref_values)
        # aux is what the objective returned for the accepted trial
        moved = steps > 0
        np.testing.assert_allclose(aux[moved], steps[moved], rtol=1e-12)
        assert np.isnan(aux[~moved]).all()
        # the failing row ends after the last length above _MIN_STEP, which
        # the kernel reaches in whole batches; the flat row is never evaluated
        never = self.HALVINGS.index(None)
        assert ref_tried[never] == self.LENGTHS
        assert tried[never] == -(-self.LENGTHS // _ARMIJO_BATCH) * _ARMIJO_BATCH
        assert ref_tried[-1] == tried[-1] == 0

    def test_blocks_of_one_state_match_rows(self):
        objective, psi, g, gnorm, value, tried = self.setup_rows(True)
        rows = np.arange(len(psi))
        row_states, row_values, row_aux = psi.copy(), value.copy(), np.full(len(psi), np.nan)
        row_steps = _sphere_step(
            objective, row_states, g, row_values, row_aux, psi.copy(), np.zeros_like(psi), rows
        )

        tried[:] = 0
        block_states, block_values = psi[:, None].copy(), value.copy()
        block_aux = np.full(len(psi), np.nan)
        block_steps = _sphere_step(
            lambda st, rows: objective(st[:, 0], rows),
            block_states,
            g[:, None],
            block_values,
            block_aux,
            block_states.copy(),
            np.zeros_like(block_states),
            rows,
        )
        assert np.array_equal(block_steps, row_steps)
        # the first length is 1, so each row takes its own power of two
        expected = [0.0 if n is None else 2.0**-n for n in self.HALVINGS[:-1]] + [0.0]
        assert row_steps.tolist() == expected
        assert np.array_equal(block_states[:, 0], row_states)
        assert np.array_equal(block_values, row_values)
        assert np.array_equal(block_aux, row_aux, equal_nan=True)


class TestBarzilaiBorwein:
    """The first trial length of a sphere step is the Barzilai-Borwein length
    <s,s>/<s,y> of the block's last move s and gradient change y, else 1."""

    def test_length_is_the_ratio_of_real_inner_products(self):
        s = np.array([[1 + 2j, 0.5], [0.25j, -1.0]])
        y = np.array([[3.0, 0.5 + 1j], [1 + 0.5j, -0.25 - 2j]])
        # <s,s> = 1 + 4 + 0.25 and 0.0625 + 1; <s,y> = 3 + 0.25 and 0.125 + 0.25
        expected = [5.25 / 3.25, 1.0625 / 0.375]
        np.testing.assert_allclose(_bb_length(s, y), expected, rtol=1e-15)

    def test_length_is_one_without_positive_curvature(self):
        s = np.array([[0.0, 0.0], [1.0, 1j], [1.0, 0.0], [1e-300, 0.0]])
        y = np.array([[1.0, 2j], [-2.0, 0.5j], [0.0, 3.0], [1e-300, 0.0]])
        # s = 0, <s,y> < 0, <s,y> = 0, and a ratio that is 0/0 in floating point
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lengths = _bb_length(s, y)
        assert lengths.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_blocks_of_one_state_match_rows(self):
        objective, psi, g, gnorm, value, tried = TestArmijo().setup_rows(True)
        rng = np.random.default_rng(22)
        s = rng.normal(size=psi.shape) + 1j * rng.normal(size=psi.shape)
        y = s * rng.uniform(-0.5, 4.0, size=(len(psi), 1)) + 0.1 * rng.normal(size=psi.shape)
        # a previous state and tangent gradient that leave a last move s and
        # a gradient change y, up to rounding; the ascent's change is the
        # previous tangent gradient minus the current one
        tangent = _project_tangent(psi, g)
        prev_psi, prev_g = psi - s, tangent + y
        s, y = psi - prev_psi, prev_g - tangent
        row_lengths = _bb_length(s, y)
        block_lengths = _bb_length(s[:, None], y[:, None])
        assert np.array_equal(block_lengths, row_lengths)
        assert (row_lengths != 1.0).any() and (row_lengths == 1.0).any()

        rows = np.arange(len(psi))
        row_states, row_values, row_aux = psi.copy(), value.copy(), np.full(len(psi), np.nan)
        row_prev = prev_psi.copy(), prev_g.copy()
        row_steps = _sphere_step(objective, row_states, g, row_values, row_aux, *row_prev, rows)
        tried[:] = 0
        block_states, block_values = psi[:, None].copy(), value.copy()
        block_aux = np.full(len(psi), np.nan)
        block_prev = prev_psi[:, None].copy(), prev_g[:, None].copy()
        block_steps = _sphere_step(
            lambda st, rows: objective(st[:, 0], rows),
            block_states,
            g[:, None],
            block_values,
            block_aux,
            *block_prev,
            rows,
        )
        # the step leaves this step's state and tangent gradient as the memory
        assert np.array_equal(row_prev[0], psi) and np.array_equal(row_prev[1], tangent)
        assert np.array_equal(block_prev[0][:, 0], psi)
        assert np.array_equal(block_prev[1][:, 0], tangent)
        assert np.array_equal(block_steps, row_steps)
        # some rows move, and exactly those raise their value
        assert (row_steps > 0).any() and np.array_equal(row_values > value, row_steps > 0)
        assert np.array_equal(block_states[:, 0], row_states)
        assert np.array_equal(block_values, row_values)
        assert np.array_equal(block_aux, row_aux, equal_nan=True)

    def test_ascent_first_step_tries_one(self, monkeypatch):
        lengths = []

        def recording(s, y):
            length = _bb_length(s, y)
            lengths.append(length.copy())
            return length

        monkeypatch.setattr(optimize, "_bb_length", recording)
        min_output_entropy(sic.qutrit_sic_povm(), starts=5, seed=3)
        assert lengths[0].tolist() == [1.0] * 5
        assert any((step != 1.0).any() for step in lengths[1:])

    def test_see_saw_tries_one_after_every_augmentation(self, monkeypatch):
        # one start whose every divergence check reports a violation, so it is
        # augmented after every stall until MAX_ITER; its next step after each
        # must try 1
        events = []
        check = optimize._divergence_search

        def recording_length(s, y):
            length = _bb_length(s, y)
            if s.ndim == 3:  # an ensemble block, not a divergence-check row
                events.append(float(length[0]))
            return length

        def violating_check(effects, q_bar, rngs, restarts, pool):
            events.append("check")
            phi, divergence, iterations, converged = check(effects, q_bar, rngs, restarts, pool)
            return phi, divergence + 10.0, iterations, converged

        monkeypatch.setattr(optimize, "_bb_length", recording_length)
        monkeypatch.setattr(optimize, "_divergence_search", violating_check)
        informational_power_lower_bound(sic.tetrahedral_povm(), starts=1, seed=9)
        after_check = [b for a, b in zip(events, events[1:]) if a == "check"]
        assert events[0] == 1.0
        assert len(after_check) > 20
        assert all(step == 1.0 for step in after_check)
        assert any(e not in ("check", 1.0) for e in events)


class TestReweightPrior:
    """The Blahut-Arimoto reweighting runs every sweep on every row."""

    def stack(self, seed, starts, m, n):
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(m), size=starts)
        cond = rng.dirichlet(np.full(n, 0.3), size=(starts, m))
        # some zero outcome probabilities, as a state orthogonal to an effect gives
        cond[rng.random(cond.shape) < 0.1] = 0.0
        return weights, cond / cond.sum(axis=-1, keepdims=True)

    @pytest.mark.parametrize("seed, m, n", [(31, 4, 4), (32, 9, 9), (33, 16, 16), (34, 5, 3)])
    def test_rows_match_rows_reweighted_alone(self, seed, m, n):
        weights, cond = self.stack(seed, 12, m, n)
        stacked = _reweight_prior(weights, cond)
        for r in range(len(weights)):
            alone = _reweight_prior(weights[r : r + 1], cond[r : r + 1])
            assert np.array_equal(stacked[r : r + 1], alone)

    @pytest.mark.parametrize("seed, m, n", [(41, 4, 4), (42, 9, 9), (43, 16, 16), (44, 5, 3)])
    def test_information_never_falls(self, seed, m, n):
        weights, cond = self.stack(seed, 12, m, n)
        reweighted = _reweight_prior(weights, cond)
        np.testing.assert_allclose(reweighted.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        before = _mutual_information_bits(weights, cond)
        assert np.all(_mutual_information_bits(reweighted, cond) >= before)

    @pytest.mark.parametrize("seed, m, n", [(31, 4, 4), (32, 9, 9), (33, 16, 16), (34, 5, 3)])
    def test_information_kernel_equals_the_public_one(self, seed, m, n):
        # exact zeros in the conditionals, which the see-saw reads through its floor
        weights, cond = self.stack(seed, 12, m, n)
        public = [mutual_information(JointDistribution(j)) for j in weights[..., None] * cond]
        kernel = _mutual_information_bits(weights, cond)
        np.testing.assert_allclose(kernel, public, rtol=0, atol=1e-12)


class TestBatchedStarts:
    """All starts run as one stack; each start still follows the trajectory
    it follows when it runs on its own."""

    # values_per_start and iterations_per_start of the same call, recorded
    # from the sphere step that first tries the Barzilai-Borwein length of
    # each row's (each ensemble's) last move; the see-saw entries are those
    # of the block see-saw, which ascends all states of an ensemble in one step
    # and checks first-order optimality every _CHECK_EVERY iterations, each
    # check ascent from the best of _CHECK_POOL Haar draws. The
    # iteration counts are those of Born probabilities and gradients taken
    # through the POVM's factor: a kernel that rounds differently can move a
    # start's stop by one check or one step.
    SERIAL = {
        "power-tetrahedral": (
            [
                0.4150374992788438,
                0.4150374992788439,
                0.41503749927884404,
                0.4150374992788439,
                0.41503749927884415,
                0.41503749927884387,
            ],
            [20, 20, 20, 20, 30, 25],
        ),
        "power-qutrit": (
            [0.5849625007211562, 0.5849625007210684, 0.5849625007211563, 0.5849625007211341],
            [15, 15, 20, 45],
        ),
        "minent-qutrit": (
            [
                2.5849625007213666, 2.6682806380796116, 2.6682806393289193,
                2.668280638113952, 2.6682806380663378, 2.668280638069178,
                2.668280638065871, 2.6682806380660136, 2.668280638066016,
                2.6682806381130058, 2.6682806380675883, 2.668280638071464,
                2.5849625007213812, 2.677973831856232, 2.6682806380687145,
                2.66828063807335, 2.6682806380678903, 2.5849625007252,
                2.668280638067339, 2.584962500721312,
            ],
            [7, 17, 15, 14, 24, 17, 18, 25, 18, 22, 22, 23, 12, 13, 21, 19, 21, 13, 49, 12],
        ),
    }
    CALLS = {
        "power-tetrahedral": (informational_power_lower_bound, sic.tetrahedral_povm, 6, 9),
        "power-qutrit": (informational_power_lower_bound, sic.qutrit_sic_povm, 4, 7),
        "minent-qutrit": (min_output_entropy, sic.qutrit_sic_povm, 20, 3),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_reproduces_serial_trajectories(self, name):
        solver, povm, starts, seed = self.CALLS[name]
        report = solver(povm(), starts=starts, seed=seed)
        values, iterations = self.SERIAL[name]
        np.testing.assert_allclose(report.values_per_start, values, rtol=0, atol=1e-9)
        assert report.iterations_per_start == iterations

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_rows_are_independent(self, name):
        solver, povm, starts, seed = self.CALLS[name]
        many = solver(povm(), starts=starts, seed=seed)
        one = solver(povm(), starts=1, seed=seed)
        assert one.values_per_start[0] == many.values_per_start[0]
        assert one.iterations_per_start[0] == many.iterations_per_start[0]

    @pytest.mark.parametrize("solver", [informational_power_lower_bound, min_output_entropy])
    def test_rejects_bad_run_parameters(self, solver):
        p = sic.tetrahedral_povm()
        with pytest.raises(InvalidInput):
            solver(p, starts=0, seed=1)
        with pytest.raises(InvalidInput):
            solver(p, starts=2, seed=-1)

    @pytest.mark.parametrize(
        "solver, starts",
        [(min_output_entropy, 100), (informational_power_lower_bound, 24)],
        ids=["minent", "power"],
    )
    def test_report_owns_only_the_states_it_reports(self, solver, starts):
        # the reported rows must not be views that keep the whole
        # (starts, d) or (starts, m, d) stack of the search alive
        report = solver(sic.qutrit_sic_povm(), starts=starts, seed=1)
        states = [v for _, v in report.best_states]
        owned = len(states) * len(states[0])
        assert all(v.base is None or v.base.size <= owned for v in states)


def _serial_scrooge(d, samples, seed):
    """Reference: the Monte-Carlo floor drawn and reduced chunk by chunk, a
    fresh array per chunk, from the same stream in the same order."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = min(max(1, optimize._CHUNK_ENTRIES // d), samples)
    q_sum = np.zeros(d)
    entropy_sum = 0.0
    for done in range(0, samples, rows):
        e = np.empty((min(rows, samples - done), d))
        rng.standard_exponential(out=e)
        t = e.sum(axis=1)
        log_e = np.log2(np.maximum(e, optimize._LOG_FLOOR))
        q_sum += (1.0 / t) @ e
        entropy_sum += float(np.sum(np.log2(t) - optimize._row_dot(e, log_e) / t))
    return max(float(infotheory._entropy_bits(q_sum / samples)) - entropy_sum / samples, 0.0)


class TestScroogeEstimate:
    def test_d2_converges_to_closed_form(self):
        est = scrooge_lower_bound_estimate(2, 100_000, seed=7)
        assert abs(est - scrooge_lower(2)) < 0.01

    def test_d3_converges_to_closed_form(self):
        est = scrooge_lower_bound_estimate(3, 100_000, seed=7)
        assert abs(est - scrooge_lower(3)) < 0.01

    def test_minimal_samples_no_crash(self):
        est = scrooge_lower_bound_estimate(2, 4, seed=0)
        assert np.isfinite(est) and est >= 0

    def test_rejects_too_few_samples(self):
        with pytest.raises(InvalidDimension):
            scrooge_lower_bound_estimate(3, 8)

    def test_rejects_negative_seed(self):
        with pytest.raises(InvalidInput):
            scrooge_lower_bound_estimate(2, 100, seed=-1)

    def test_chunks_match_one_pass_over_the_same_stream(self):
        # two full chunks and a partial one of normalized exponential rows,
        # reduced in one pass for reference
        d = 4
        chunk = optimize._CHUNK_ENTRIES // d
        rng = np.random.Generator(np.random.PCG64(5))
        q = np.concatenate([rng.standard_exponential(size=(n, d)) for n in (chunk, chunk, 123)])
        q /= q.sum(axis=1, keepdims=True)
        per_state = -np.sum(q * np.log2(q), axis=1)
        expected = infotheory._entropy_bits(q.mean(axis=0)) - per_state.mean()
        est = scrooge_lower_bound_estimate(d, len(q), seed=5)
        assert est == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("d, samples", [(16, 1001), (100, 10_001)])
    def test_entries_budget_sets_rows_per_chunk(self, monkeypatch, d, samples):
        # 64 draws per chunk: 4 rows at d = 16, and one row at d = 100,
        # where the budget is smaller than a row
        monkeypatch.setattr(optimize, "_CHUNK_ENTRIES", 64)
        rng = np.random.Generator(np.random.PCG64(3))
        q = rng.standard_exponential(size=(samples, d))
        q /= q.sum(axis=1, keepdims=True)
        expected = infotheory._entropy_bits(q.mean(axis=0)) - infotheory._entropy_bits(q).mean()
        est = scrooge_lower_bound_estimate(d, samples, seed=3)
        assert est == pytest.approx(expected, abs=1e-12)

    def test_zero_draws_count_as_zero_log_zero(self, monkeypatch):
        # exact zeros among the draws (about one in 5.5 here) must follow
        # 0 log 0 = 0; a bare log2 of a zero would raise a RuntimeWarning
        real = np.random.Generator

        class ZeroingGenerator:
            def __init__(self, bit_generator):
                self._rng = real(bit_generator)

            def standard_exponential(self, size=None, out=None):
                e = self._rng.standard_exponential(size=size, out=out)
                e[e < 0.2] = 0.0
                return e

        monkeypatch.setattr(np.random, "Generator", ZeroingGenerator)
        d, samples = 8, 3000
        e = ZeroingGenerator(np.random.PCG64(4)).standard_exponential(size=(samples, d))
        assert np.all(e.sum(axis=1) > 0) and np.mean(e == 0.0) > 0.1
        q = e / e.sum(axis=1, keepdims=True)
        per_state = -np.sum(q * np.log2(q, out=np.zeros_like(q), where=q > 0), axis=1)
        expected = infotheory._entropy_bits(q.mean(axis=0)) - per_state.mean()
        est = scrooge_lower_bound_estimate(d, samples, seed=4)
        assert np.isfinite(est)
        assert est == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_d64_within_2e3_of_closed_form(self, seed):
        # the exponential draws follow the Haar law of the squared moduli
        est = scrooge_lower_bound_estimate(64, 100_000, seed=seed)
        assert abs(est - scrooge_lower(64)) < 2e-3

    def test_determinism(self):
        assert scrooge_lower_bound_estimate(2, 1000, 3) == scrooge_lower_bound_estimate(
            2, 1000, 3
        )

    @pytest.mark.parametrize(
        "d, samples, seed, budget",
        [
            (64, 100_000, 0, None),
            (64, 100_000, 1, None),
            (64, 100_000, 2, None),
            (4, 2 * (optimize._CHUNK_ENTRIES // 4) + 123, 5, None),
            (2, 4, 0, None),
            (128, 16_384, 6, None),
            (100, 10_001, 3, 64),
        ],
        ids=[
            "d64-seed0",
            "d64-seed1",
            "d64-seed2",
            "two-chunks-and-a-part",
            "d2-minimal",
            "d128",
            "one-row-chunks",
        ],
    )
    def test_buffers_equal_the_reference_chunk_loop(self, monkeypatch, d, samples, seed, budget):
        # reusing the two buffers changes neither the stream nor the
        # reduction order
        if budget is not None:
            monkeypatch.setattr(optimize, "_CHUNK_ENTRIES", budget)
        assert scrooge_lower_bound_estimate(d, samples, seed) == _serial_scrooge(d, samples, seed)

    def test_draw_error_is_raised_and_no_thread_outlives_a_call(self, monkeypatch):
        before = threading.active_count()
        scrooge_lower_bound_estimate(16, 1001, seed=1)
        assert threading.active_count() == before

        real = np.random.Generator

        class FailingGenerator:
            def __init__(self, bit_generator):
                self._rng = real(bit_generator)
                self.calls = 0

            def standard_exponential(self, size=None, out=None):
                self.calls += 1
                if self.calls == 2:
                    raise MemoryError("second chunk")
                return self._rng.standard_exponential(size=size, out=out)

        monkeypatch.setattr(optimize, "_CHUNK_ENTRIES", 64)
        monkeypatch.setattr(np.random, "Generator", FailingGenerator)
        with pytest.raises(MemoryError, match="second chunk"):
            scrooge_lower_bound_estimate(16, 1001, seed=1)
        assert threading.active_count() == before

    def test_concurrent_calls_share_no_state(self, monkeypatch):
        # four callers at once and a thread switch every microsecond: every
        # estimate is its own seed's reference one
        monkeypatch.setattr(optimize, "_CHUNK_ENTRIES", 64)
        expected = {seed: _serial_scrooge(16, 1001, seed) for seed in range(4)}
        got = {}
        callers = [
            threading.Thread(
                target=lambda s=seed: got.__setitem__(s, scrooge_lower_bound_estimate(16, 1001, s))
            )
            for seed in expected
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == expected

    def test_reduction_error_is_raised_and_no_thread_outlives_a_call(self, monkeypatch):
        before = threading.active_count()

        def failing_row_dot(a, b):
            raise FloatingPointError("reduction")

        monkeypatch.setattr(optimize, "_row_dot", failing_row_dot)
        with pytest.raises(FloatingPointError, match="reduction"):
            scrooge_lower_bound_estimate(4, 2 * (optimize._CHUNK_ENTRIES // 4) + 123, seed=5)
        assert threading.active_count() == before

    def test_runs_on_the_calling_thread(self, monkeypatch):
        # a call that started a thread would raise here
        def no_thread(self):
            raise RuntimeError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        monkeypatch.setattr(optimize, "_CHUNK_ENTRIES", 64)
        assert scrooge_lower_bound_estimate(16, 1001, 1) == _serial_scrooge(16, 1001, 1)

    def test_memory_does_not_grow_with_the_sample_count(self, monkeypatch):
        # one row per chunk at d = 4, so anything held per chunk for the whole
        # call would grow with the sample count
        monkeypatch.setattr(optimize, "_CHUNK_ENTRIES", 4)
        scrooge_lower_bound_estimate(4, 1000, seed=1)  # warm-up: imports and caches
        peaks = []
        for samples in (1000, 4000):
            tracemalloc.start()
            try:
                scrooge_lower_bound_estimate(4, samples, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 16 * 1024


class TestUniformPovmApproximant:
    def test_small_orbit_is_valid_povm(self):
        p = uniform_povm_approximant(2, 4, seed=0)
        assert len(p) == 4  # Povm constructor already checked the invariants

    def test_effect_traces_concentrate(self):
        n = 2000
        p = uniform_povm_approximant(2, n, seed=1)
        traces = np.array([np.trace(e).real for e in p.effects])
        assert abs(traces.mean() - 2 / n) < 1e-12  # traces sum to d exactly
        assert np.max(np.abs(traces - 2 / n)) < 10 * 2 / n

    def test_power_approaches_scrooge_floor(self):
        p = uniform_povm_approximant(2, 1000, seed=3)
        report = informational_power_lower_bound(p, starts=3, seed=5)
        assert abs(report.best_value - scrooge_lower(2)) < 0.02
