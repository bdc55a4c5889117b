import numpy as np
import pytest

from infopower import infotheory, optimize, sic
from infopower.errors import InvalidDimension, InvalidInput
from infopower.infotheory import (
    conditional_output_entropy,
    joint_distribution,
    mutual_information,
    scrooge_lower,
    sic_upper,
)
from infopower.optimize import (
    _ARMIJO_BATCH,
    _ARMIJO_C,
    _ARMIJO_SHRINK,
    _MIN_STEP,
    CONV_TOL,
    GRAD_TOL,
    HaarSampler,
    _armijo,
    _normalize,
    _riemannian_descent,
    informational_power_lower_bound,
    min_output_entropy,
    output_entropy_gradient,
    scrooge_lower_bound_estimate,
    uniform_povm_approximant,
)
from infopower.states import Ensemble, Povm


class TestHaarSampler:
    def test_determinism(self):
        a = HaarSampler(3, seed=42)
        b = HaarSampler(3, seed=42)
        np.testing.assert_array_equal(a.state(), b.state())
        np.testing.assert_array_equal(a.states(10), b.states(10))

    @pytest.mark.parametrize("dim", [2, 3, 7])
    @pytest.mark.parametrize("seed", [0, 1, 5, 42, 2024])
    def test_state_is_one_row_of_states(self, dim, seed):
        np.testing.assert_array_equal(
            HaarSampler(dim, seed).state(), HaarSampler(dim, seed).states(1)[0]
        )

    def test_different_seeds_differ(self):
        assert not np.allclose(HaarSampler(2, 1).state(), HaarSampler(2, 2).state())

    def test_mean_projector_is_maximally_mixed(self):
        psis = HaarSampler(2, 0).states(100_000)
        mean_proj = np.einsum("ni,nj->ij", psis, psis.conj()) / len(psis)
        assert np.max(np.abs(mean_proj - np.eye(2) / 2)) < 0.01

    def test_mean_overlap_with_basis_vector(self):
        for d in (2, 4):
            psis = HaarSampler(d, 1).states(100_000)
            assert abs(np.mean(np.abs(psis[:, 0]) ** 2) - 1 / d) < 0.01


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

    def test_report_metadata(self):
        report = min_output_entropy(sic.tetrahedral_povm(), starts=8, seed=1)
        assert report.starts == 8
        assert len(report.iterations_per_start) == 8
        assert report.converged_starts == 8
        assert report.rng_algorithm == "pcg64"
        assert report.tolerance_used == CONV_TOL


class TestInformationalPower:
    def test_tetrahedral_saturates_sic_bound(self):
        report = informational_power_lower_bound(
            sic.tetrahedral_povm(), starts=40, seed=7
        )
        assert report.best_value == pytest.approx(np.log2(4 / 3), abs=1e-6)
        # best ensemble is (up to relabeling/phase) the antitetrahedral one:
        # every kept state is orthogonal to exactly one POVM direction
        effects = sic.tetrahedral_povm().stack()
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

    def test_basis_povm_reaches_log_d(self):
        p = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        report = informational_power_lower_bound(p, starts=10, seed=1)
        assert report.best_value == pytest.approx(1.0, abs=1e-8)

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

    def test_sandwich_property(self):
        for povm, d, starts in ((sic.tetrahedral_povm(), 2, 20), (sic.qutrit_sic_povm(), 3, 8)):
            report = informational_power_lower_bound(povm, starts=starts, seed=4)
            assert scrooge_lower(d) - 1e-9 <= report.best_value <= sic_upper(d) + 1e-9


class TestGradient:
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

    def test_descent_monotone(self):
        p = sic.tetrahedral_povm()
        effects = p.stack()

        def born(psi):
            return np.clip(np.einsum("yij,ri,rj->ry", effects, psi.conj(), psi).real, 0, None)

        def objective(psi, rows):
            q = born(psi)
            return np.array([infotheory._entropy_bits(qr) for qr in q]), q

        def gradient(psi, rows, q):
            coef = -(np.log2(np.maximum(q, 1e-18)) + 1 / np.log(2))
            return 2.0 * np.einsum("ry,yij,rj->ri", coef, effects, psi)

        rng = np.random.default_rng(15)
        starts = []
        for _ in range(20):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            starts.append(z / np.linalg.norm(z))
        trace = []
        _riemannian_descent(objective, gradient, np.array(starts), trace=trace)
        diffs = np.diff(np.array(trace), axis=0)
        assert np.all(diffs <= CONV_TOL)


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
            objective, psi, g, gnorm, value, ascend
        )
        ref_tried = tried.copy()
        assert ref_steps.tolist() == [0.0 if n is None else 2.0**-n for n in self.HALVINGS[:-1]] + [0.0]

        tried[:] = 0
        states, aux = psi.copy(), np.full(len(psi), np.nan)
        if ascend:
            # the ascent descends the negated objective along the negated gradient
            def negated(st, rows):
                v, steps = objective(st, rows)
                return -v, steps

            values = -value
            steps = _armijo(negated, states, -g, gnorm, values, aux)
            values = -values
        else:
            values = value.copy()
            steps = _armijo(objective, states, g, gnorm, values, aux)

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


class TestBatchedStarts:
    """All starts run as one stack; each start still follows the trajectory
    it had when starts ran one after the other."""

    # values_per_start and iterations_per_start of the one-start-at-a-time
    # see-saw and sphere descent for the same calls
    SERIAL = {
        "power-tetrahedral": (
            [
                0.4150374992787733,
                0.41503749927878786,
                0.415037499278813,
                0.4150374992787915,
                0.41503749891934216,
                0.415037498949904,
            ],
            [48, 31, 65, 50, 66, 75],
        ),
        "power-qutrit": (
            [0.5849625007047125, 0.5849625007039112, 0.5849625006995005, 0.5015717885377137],
            [75, 38, 32, 200],
        ),
        "minent-qutrit": (
            [
                2.5849625024829597, 2.668280638070717, 2.668280638992717,
                2.668280638148403, 2.668280638077342, 2.668280638225803,
                2.6682806381157715, 2.668280638105082, 2.6682806382970403,
                2.6682806382383024, 2.6682806381388966, 2.668280638094185,
                2.5849625025064755, 2.6682806589141124, 2.6682806384675386,
                2.6682806382150335, 2.668280638080338, 2.5849625007212023,
                2.6682806380754784, 2.584962502506911,
            ],
            [18, 26, 24, 22, 30, 25, 19, 36, 22, 21, 25, 23, 22, 112, 21, 22, 23, 23, 79, 19],
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
        # two full chunks and a partial one, reduced in one pass for reference
        d, chunk = 4, optimize._SAMPLE_CHUNK
        sampler = HaarSampler(d, seed=5)
        psis = np.concatenate([sampler.states(n) for n in (chunk, chunk, 123)])
        q = np.abs(psis) ** 2
        per_state = -np.sum(q * np.log2(q), axis=1)
        expected = infotheory._entropy_bits(q.mean(axis=0)) - per_state.mean()
        est = scrooge_lower_bound_estimate(d, len(psis), seed=5)
        assert est == pytest.approx(expected, abs=1e-12)

    def test_determinism(self):
        assert scrooge_lower_bound_estimate(2, 1000, 3) == scrooge_lower_bound_estimate(
            2, 1000, 3
        )


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
