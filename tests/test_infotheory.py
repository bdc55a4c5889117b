import json
import math

import numpy as np
import pytest

from infopower import infotheory, sic, states
from infopower.errors import DimMismatch, InvalidDimension, InvalidDistribution, InvalidState
from infopower.infotheory import (
    JointDistribution,
    bounds_for_dimension,
    conditional_output_entropy,
    holevo_bound,
    index_of_coincidence,
    joint_distribution,
    mutual_information,
    outcome_distribution,
    pg_sic_closed_form,
    pg_sic_value,
    rastegin_conditional_floor,
    scrooge_asymptote,
    scrooge_lower,
    shannon_entropy,
    sic_pretty_good_joint,
    sic_upper,
)
from infopower.states import Ensemble, Povm

from conftest import random_ensemble, random_povm, random_pure_states


class TestShannonEntropy:
    def test_uniform(self):
        assert shannon_entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-12)

    def test_deterministic(self):
        assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_point_mass_is_positive_zero(self):
        # the sum is +0.0, and negating it must not give -0.0
        assert math.copysign(1.0, shannon_entropy([1.0, 0.0])) == 1.0

    def test_mixed(self):
        # frozen from exact-arithmetic evaluation of the definition
        assert shannon_entropy([1 / 2, 1 / 3, 1 / 6]) == pytest.approx(
            1.45914791703, abs=1e-9
        )

    def test_rejects_negative(self):
        with pytest.raises(InvalidDistribution):
            shannon_entropy([1.2, -0.2])

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidDistribution):
            shannon_entropy([0.5, 0.4])

    def test_rejects_empty_and_misshaped_input(self):
        for bad in ([], [[0.5, 0.5]]):
            with pytest.raises(InvalidDistribution):
                shannon_entropy(bad)
        for bad in (np.zeros((0, 2)), [0.5, 0.5]):
            with pytest.raises(InvalidDistribution):
                JointDistribution(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InvalidDistribution, match="non-finite"):
            shannon_entropy([bad, 1.0])
        with pytest.raises(InvalidDistribution, match="non-finite"):
            JointDistribution([[bad, 0.5], [0.25, 0.25]])


class TestJointDistribution:
    def test_corollary_pattern_qutrit(self):
        j = joint_distribution(sic.qutrit_orthonormal_ensemble(), sic.qutrit_sic_povm())
        expected = np.full((3, 9), 1 / 18)
        expected[0, 0:3] = 0
        expected[1, 3:6] = 0
        expected[2, 6:9] = 0
        np.testing.assert_allclose(j.probs, expected, atol=1e-12)

    def test_tetrahedral_self_measurement(self):
        e = sic.sic_ensemble_from_povm(sic.tetrahedral_povm())
        j = joint_distribution(e, sic.tetrahedral_povm())
        expected = np.full((4, 4), 1 / 24)
        np.fill_diagonal(expected, 1 / 8)
        np.testing.assert_allclose(j.probs, expected, atol=1e-12)

    def test_basis_ensemble_basis_povm(self):
        d = 3
        e = Ensemble([np.diag([1 / d if i == k else 0.0 for i in range(d)]) for k in range(d)])
        p = Povm([np.diag([1.0 if i == k else 0.0 for i in range(d)]) for k in range(d)])
        np.testing.assert_allclose(
            joint_distribution(e, p).probs, np.eye(d) / d, atol=1e-12
        )

    def test_deterministic_channel_has_no_negative_conditional_entropy(self):
        # H(X,Y) and H(X) of these weights round 2.2e-16 apart, H(X,Y) lower
        j = JointDistribution(np.diag([0.65, 0.25, 0.04, 0.06]))
        assert j.entropy_y_given_x() == 0.0
        assert math.copysign(1.0, j.entropy_y_given_x()) == 1.0

    def test_row_sums_are_probabilities(self):
        rng = np.random.default_rng(17)
        e = random_ensemble(rng, 3)
        p = random_povm(rng, 3)
        j = joint_distribution(e, p)
        np.testing.assert_allclose(j.marginal_x(), e.probabilities(), atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimMismatch):
            joint_distribution(sic.antitetrahedral_ensemble(), sic.qutrit_sic_povm())

    def test_tolerances_of_a_valid_pair_add(self):
        # each trace sum and the effect sum sit 9e-10 from 1 and I, inside
        # SUM_TOL; their product's total, 1 + 1.8e-9, is not
        e = Ensemble([np.diag([0.50000000045, 0.0]), np.diag([0.0, 0.50000000045])])
        p = Povm([np.diag([1.0000000009, 0.0]), np.diag([0.0, 1.0000000009])])
        j = joint_distribution(e, p)
        assert abs(j.probs.sum() - 1.0) <= 1e-15
        assert mutual_information(j) == pytest.approx(1.0, abs=1e-12)


class TestMutualInformation:
    def test_corollary_qubit(self):
        j = joint_distribution(sic.antitetrahedral_ensemble(), sic.tetrahedral_povm())
        assert mutual_information(j) == pytest.approx(np.log2(4 / 3), abs=1e-12)

    def test_corollary_qutrit(self):
        j = joint_distribution(sic.qutrit_orthonormal_ensemble(), sic.qutrit_sic_povm())
        assert mutual_information(j) == pytest.approx(np.log2(3 / 2), abs=1e-12)

    def test_independent_variables(self):
        j = JointDistribution(np.outer([0.3, 0.7], [0.2, 0.5, 0.3]))
        assert mutual_information(j) == pytest.approx(0.0, abs=1e-12)

    def test_identity_cross_check(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            m = rng.random(size=(int(rng.integers(2, 6)), int(rng.integers(2, 6))))
            j = JointDistribution(m / m.sum())
            alt = j.entropy_y() - j.entropy_y_given_x()
            assert mutual_information(j) == pytest.approx(alt, abs=1e-8)

    def test_chain_rule(self):
        rng = np.random.default_rng(19)
        for _ in range(1000):
            m = rng.random(size=(int(rng.integers(2, 6)), int(rng.integers(2, 6))))
            j = JointDistribution(m / m.sum())
            assert j.entropy_joint() == pytest.approx(
                j.entropy_x() + j.entropy_y_given_x(), abs=1e-8
            )

    def test_holevo_ceiling_random_pairs(self):
        rng = np.random.default_rng(20)
        for d in (2, 3, 4):
            for _ in range(200):
                e = random_ensemble(rng, d)
                p = random_povm(rng, d)
                assert mutual_information(joint_distribution(e, p)) <= np.log2(d) + 1e-8

    def test_duality_identity(self):
        # Tr[rho_x Pi_y] is invariant under the paired pretty-good distortions
        rng = np.random.default_rng(22)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            e = random_ensemble(rng, d)
            p = random_povm(rng, d)
            rho = states.average_state(e)
            if np.min(np.linalg.eigvalsh(rho)) < 1e-6:
                continue
            dual_p = states.pretty_good_povm(e)
            dual_e = states.pretty_good_ensemble(p, rho)
            i_direct = mutual_information(joint_distribution(e, p))
            i_dual = mutual_information(joint_distribution(dual_e, dual_p))
            assert i_direct == pytest.approx(i_dual, abs=1e-8)


class TestConditionalOutputEntropy:
    def test_antitetrahedral_direction_saturates_floor(self):
        psi = np.array([0.0, 1.0], dtype=complex)
        value = conditional_output_entropy(sic.tetrahedral_povm(), psi)
        assert value == pytest.approx(np.log2(3), abs=1e-12)
        np.testing.assert_allclose(
            sorted(outcome_distribution(sic.tetrahedral_povm(), psi)),
            [0, 1 / 3, 1 / 3, 1 / 3],
            atol=1e-12,
        )

    def test_qutrit_orthonormal_direction(self):
        psi = np.array([0.0, 0.0, 1.0], dtype=complex)
        assert conditional_output_entropy(sic.qutrit_sic_povm(), psi) == pytest.approx(
            np.log2(6), abs=1e-12
        )

    def test_basis_povm_on_basis_state(self):
        p = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert conditional_output_entropy(p, np.array([1.0, 0.0])) == 0.0

    def test_rastegin_floor_on_haar_states(self):
        rng = np.random.default_rng(23)
        for povm, d in ((sic.tetrahedral_povm(), 2), (sic.qutrit_sic_povm(), 3)):
            floor = rastegin_conditional_floor(d)
            for psi in random_pure_states(rng, 1000, d):
                assert conditional_output_entropy(povm, psi) >= floor - 1e-8


class TestIndexOfCoincidence:
    def test_sic_constancy_qubit(self):
        rng = np.random.default_rng(24)
        p = sic.tetrahedral_povm()
        values = [
            index_of_coincidence(p, np.outer(psi, psi.conj()))
            for psi in random_pure_states(rng, 1000, 2)
        ]
        assert np.allclose(values, 1 / 3, atol=1e-12)
        assert np.std(values) < 1e-9

    def test_sic_constancy_qutrit(self):
        rng = np.random.default_rng(25)
        p = sic.qutrit_sic_povm()
        values = [
            index_of_coincidence(p, np.outer(psi, psi.conj()))
            for psi in random_pure_states(rng, 1000, 3)
        ]
        assert np.allclose(values, 1 / 6, atol=1e-12)
        assert np.std(values) < 1e-9

    def test_basis_state(self):
        p = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert index_of_coincidence(p, np.diag([1.0, 0.0])) == pytest.approx(1.0)

    @pytest.mark.parametrize("rho", [np.diag([2.0, -1.0]), np.diag([3.0, 0.0])])
    def test_rejects_operators_that_are_not_states(self, rho):
        with pytest.raises(InvalidState):
            index_of_coincidence(sic.tetrahedral_povm(), rho)

    def test_rejects_a_state_of_another_dimension(self):
        with pytest.raises(DimMismatch):
            index_of_coincidence(sic.tetrahedral_povm(), np.eye(3) / 3)


class TestBounds:
    def test_d2_values(self):
        b = bounds_for_dimension(2)
        assert b.holevo == pytest.approx(1.0, abs=1e-9)
        assert b.scrooge_lower == pytest.approx(0.278652, abs=1e-6)
        assert b.sic_upper == pytest.approx(0.415037, abs=1e-6)
        assert b.rastegin_cond == pytest.approx(1.584963, abs=1e-6)
        assert b.pg_sic_value == pytest.approx(0.207519, abs=1e-6)

    def test_d3_values(self):
        b = bounds_for_dimension(3)
        assert b.scrooge_lower == pytest.approx(0.382717, abs=1e-6)
        assert b.sic_upper == pytest.approx(0.584963, abs=1e-6)

    def test_asymptotes(self):
        assert scrooge_lower(10**6) == pytest.approx(scrooge_asymptote(), abs=1e-5)
        assert f"{scrooge_asymptote():.5g}" == "0.60995"
        assert sic_upper(10**6) == pytest.approx(1.0, abs=1e-5)

    def test_ordering_all_dimensions(self):
        for d in range(2, 65):
            b = bounds_for_dimension(d)
            assert b.scrooge_lower < b.sic_upper < b.holevo
            assert b.pg_sic_value <= b.scrooge_lower

    def test_rejects_small_dimension(self):
        with pytest.raises(InvalidDimension):
            bounds_for_dimension(1)

    SINGLE_FORMULA = [holevo_bound, scrooge_lower, sic_upper, rastegin_conditional_floor]

    @pytest.mark.parametrize("bound", SINGLE_FORMULA)
    @pytest.mark.parametrize("d", [0, -1])
    def test_single_formula_bounds_reject_dimension_below_one(self, bound, d):
        with pytest.raises(InvalidDimension):
            bound(d)

    @pytest.mark.parametrize("bound", SINGLE_FORMULA)
    def test_single_formula_bounds_vanish_at_dimension_one(self, bound):
        assert bound(1) == 0.0

    PAIR_FORMULA = [bounds_for_dimension, sic_pretty_good_joint, pg_sic_value, pg_sic_closed_form]

    @pytest.mark.parametrize("bound", PAIR_FORMULA)
    @pytest.mark.parametrize("d", [1, 0])
    def test_pair_formulas_reject_dimension_below_two(self, bound, d):
        with pytest.raises(InvalidDimension, match=f"integer >= 2, got {d}"):
            bound(d)

    @pytest.mark.parametrize("bound", SINGLE_FORMULA + PAIR_FORMULA)
    @pytest.mark.parametrize("d", [2.5, 3.0, np.float64(3.0), True, "3", None])
    def test_non_integer_dimension_is_invalid(self, bound, d):
        with pytest.raises(InvalidDimension, match="must be an integer"):
            bound(d)

    @pytest.mark.parametrize("int_type", [np.int32, np.int64, np.uint8])
    def test_numpy_integer_dimension_gives_the_python_int_values(self, int_type):
        for d in (2, 3, 7):
            assert bounds_for_dimension(int_type(d)) == bounds_for_dimension(d)
            assert pg_sic_closed_form(int_type(d)) == pg_sic_closed_form(d)
            for bound in self.SINGLE_FORMULA:
                assert bound(int_type(d)) == bound(d)

    def test_numpy_integer_dimension_serializes_as_json(self):
        text = json.dumps(bounds_for_dimension(np.int64(3)).to_json_dict())
        assert json.loads(text) == bounds_for_dimension(3).to_json_dict()


class TestPrettyGoodSicValue:
    def test_matches_explicit_joint_distribution(self):
        # independent oracle: brute-force mutual information of the full matrix
        for d in range(2, 9):
            brute = mutual_information(sic_pretty_good_joint(d))
            assert pg_sic_value(d) == pytest.approx(brute, abs=1e-10)

    def test_matches_born_rule_computation_d2(self):
        e = sic.sic_ensemble_from_povm(sic.tetrahedral_povm())
        p = states.pretty_good_povm(e)
        born = mutual_information(joint_distribution(e, p))
        assert pg_sic_value(2) == pytest.approx(born, abs=1e-10)

    def test_closed_form_variant_disagrees(self):
        # the alternative printed coefficient pattern is recorded, not used
        assert pg_sic_closed_form(2) == pytest.approx(0.201253, abs=1e-6)
        assert abs(pg_sic_closed_form(2) - pg_sic_value(2)) > 1e-3

    def test_dominated_by_scrooge_floor(self):
        for d in range(2, 65):
            assert pg_sic_value(d) <= scrooge_lower(d)
