import json

import numpy as np
import pytest

from infopower import sic, states
from infopower.errors import (
    InfopowerError,
    InvalidEnsemble,
    InvalidInput,
    InvalidPovm,
    NotSic,
)
from infopower.hilbert import RECON_TOL
from infopower.sic import sic_ensemble_from_povm, sic_povm_from_ensemble
from infopower.states import (
    SUM_TOL,
    Ensemble,
    Povm,
    average_state,
    pretty_good_ensemble,
    pretty_good_povm,
    restrict_to_support,
)

from conftest import random_ensemble, random_povm, random_pure_states


class TestValidation:
    def test_ensemble_traces_must_sum_to_one(self):
        with pytest.raises(InvalidEnsemble):
            Ensemble([np.eye(2) / 2, np.eye(2) / 2, np.eye(2) / 2])

    def test_ensemble_rejects_negative_state(self):
        with pytest.raises(InvalidEnsemble):
            Ensemble([np.diag([1.5, -0.5])])

    def test_povm_must_resolve_identity(self):
        with pytest.raises(InvalidPovm):
            Povm([np.diag([1.0, 0.0])])

    def test_povm_rejects_negative_effect(self):
        with pytest.raises(InvalidPovm):
            Povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_elements_are_rejected(self, bad):
        with pytest.raises(InfopowerError, match="non-finite"):
            Ensemble([np.diag([bad, 0.0]), np.eye(2) / 2])
        with pytest.raises(InfopowerError, match="non-finite"):
            Povm([np.diag([1.0, bad]), np.diag([0.0, 1.0])])
        with pytest.raises(InfopowerError, match="non-finite"):
            pretty_good_ensemble(sic.tetrahedral_povm(), np.diag([bad, 0.5]))

    def test_zero_trace_elements_are_carried(self):
        e = Ensemble([np.eye(2) / 2, np.zeros((2, 2))])
        assert len(e) == 2
        assert e.probabilities()[1] == 0.0


class TestAverageState:
    def test_sic_ensemble_averages_to_maximally_mixed(self):
        e = sic_ensemble_from_povm(sic.tetrahedral_povm())
        np.testing.assert_allclose(average_state(e), np.eye(2) / 2, atol=1e-12)

    def test_single_state(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        np.testing.assert_allclose(average_state(Ensemble([rho])), rho)

    def test_antitetrahedral(self):
        e = sic.antitetrahedral_ensemble()
        np.testing.assert_allclose(average_state(e), np.eye(2) / 2, atol=1e-12)


class TestRestrictToSupport:
    def test_full_support_keeps_effects(self):
        p = sic.tetrahedral_povm()
        r = restrict_to_support(p, np.eye(2) / 2)
        assert r.dim == 2
        # same joint statistics against any state
        traces = sorted(np.trace(x).real for x in r.effects)
        np.testing.assert_allclose(
            traces, sorted(np.trace(x).real for x in p.effects), atol=1e-12
        )

    def test_rank_one_support(self):
        p = sic.tetrahedral_povm()
        r = restrict_to_support(p, np.diag([1.0, 0.0]).astype(complex))
        assert r.dim == 1
        vals = sorted(e[0, 0].real for e in r.effects)
        np.testing.assert_allclose(vals, [1 / 6, 1 / 6, 1 / 6, 1 / 2], atol=1e-12)

    def test_rank_two_qutrit(self):
        p = sic.qutrit_sic_povm()
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        r = restrict_to_support(p, rho)
        assert r.dim == 2
        proj = np.diag([1.0, 1.0, 0.0])
        for eff, sub in zip(p.effects, r.effects):
            assert np.trace(sub).real == pytest.approx(
                np.trace(proj @ eff @ proj).real, abs=1e-12
            )

    def test_born_rule_preserved(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            r = int(rng.integers(1, d + 1))
            basis = np.linalg.qr(
                rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            )[0][:, :r]
            # ensemble supported inside span(basis)
            small = random_ensemble(rng, r)
            lifted = Ensemble([basis @ s @ basis.conj().T for s in small.states])
            rho = basis @ np.eye(r) / r @ basis.conj().T
            p = random_povm(rng, d)
            restricted = restrict_to_support(p, rho)
            sub_basis = __import__("infopower").hilbert.support_basis(rho)
            before = np.array(
                [[np.trace(s @ eff).real for eff in p.effects] for s in lifted.states]
            )
            compressed = [
                sub_basis.conj().T @ s @ sub_basis for s in lifted.states
            ]
            after = np.array(
                [
                    [np.trace(s @ eff).real for eff in restricted.effects]
                    for s in compressed
                ]
            )
            assert np.max(np.abs(before - after)) <= RECON_TOL


class TestPrettyGood:
    def test_sic_ensemble_gives_rescaled_povm(self):
        e = sic_ensemble_from_povm(sic.tetrahedral_povm())
        p = pretty_good_povm(e)
        for eff, rho in zip(p.effects, e.states):
            np.testing.assert_allclose(eff, 2 * rho, atol=1e-10)

    def test_orthonormal_ensemble_gives_basis_projectors(self):
        e = Ensemble([np.diag([1 / 3, 0, 0]), np.diag([0, 1 / 3, 0]), np.diag([0, 0, 1 / 3])])
        p = pretty_good_povm(e)
        for k, eff in enumerate(p.effects):
            expected = np.zeros((3, 3))
            expected[k, k] = 1.0
            np.testing.assert_allclose(eff, expected, atol=1e-10)

    def test_proportional_states_give_support_projectors(self):
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        p = pretty_good_povm(Ensemble([rho / 2, rho / 2]))
        assert p.dim == 2
        for eff in p.effects:
            np.testing.assert_allclose(eff, np.eye(2) / 2, atol=1e-10)

    def test_pg_ensemble_of_tetrahedral(self):
        p = sic.tetrahedral_povm()
        e = pretty_good_ensemble(p, np.eye(2) / 2)
        for rho, eff in zip(e.states, p.effects):
            np.testing.assert_allclose(rho, eff / 2, atol=1e-12)

    def test_pg_ensemble_of_basis_povm(self):
        p = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        e = pretty_good_ensemble(p, np.eye(2) / 2)
        np.testing.assert_allclose(e.probabilities(), [0.5, 0.5], atol=1e-12)

    def test_pg_ensemble_pure_distortion(self):
        p = sic.tetrahedral_povm()
        rho = np.diag([1.0, 0.0]).astype(complex)
        e = pretty_good_ensemble(p, rho)
        for s, eff in zip(e.states, p.effects):
            np.testing.assert_allclose(s, eff[0, 0].real * rho, atol=1e-12)

    def test_average_of_pg_ensemble_is_rho(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            p = random_povm(rng, d)
            w = rng.dirichlet(np.ones(d))
            rho = np.diag(w).astype(complex)
            e = pretty_good_ensemble(p, rho)
            assert np.max(np.abs(average_state(e) - rho)) <= SUM_TOL

    def test_duality_round_trip(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            p = random_povm(rng, d)
            rho = np.diag(rng.dirichlet(np.ones(d)) + 0.05).astype(complex)
            rho /= np.trace(rho).real
            e = pretty_good_ensemble(p, rho)
            back = pretty_good_povm(e)
            for orig, rec in zip(p.effects, back.effects):
                assert np.max(np.abs(orig - rec)) <= RECON_TOL


class TestSicConversion:
    def test_povm_to_ensemble_traces(self):
        e = sic_ensemble_from_povm(sic.tetrahedral_povm())
        np.testing.assert_allclose(e.probabilities(), np.full(4, 1 / 4), atol=1e-12)

    def test_qutrit_traces(self):
        e = sic_ensemble_from_povm(sic.qutrit_sic_povm())
        np.testing.assert_allclose(e.probabilities(), np.full(9, 1 / 9), atol=1e-12)

    def test_round_trip(self):
        p = sic.tetrahedral_povm()
        back = sic_povm_from_ensemble(sic_ensemble_from_povm(p))
        for orig, rec in zip(p.effects, back.effects):
            np.testing.assert_allclose(orig, rec, atol=1e-12)

    def test_rejects_non_sic(self):
        basis = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        with pytest.raises(NotSic):
            sic_ensemble_from_povm(basis)


class TestSerialization:
    def test_round_trip_povm(self, tmp_path):
        p = sic.qutrit_sic_povm()
        path = tmp_path / "povm.json"
        states.save(p, path)
        loaded = states.load(path)
        assert isinstance(loaded, Povm)
        for a, b in zip(p.effects, loaded.effects):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_round_trip_ensemble(self, tmp_path):
        e = sic.antitetrahedral_ensemble()
        path = tmp_path / "ens.json"
        states.save(e, path)
        loaded = states.load(path)
        assert isinstance(loaded, Ensemble)
        for a, b in zip(e.states, loaded.states):
            np.testing.assert_allclose(a, b, atol=1e-15)

    @pytest.mark.parametrize("dim", [7, 1, "2", 2.0, None])
    def test_rejects_declared_dim_unlike_elements(self, dim):
        data = states.to_json_dict(sic.tetrahedral_povm())
        data["dim"] = dim
        with pytest.raises(InvalidInput, match="dim"):
            states.from_json_dict(data)

    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidInput):
            states.from_json_dict({"kind": "widget", "dim": 2, "elements": []})

    def test_fiducial_parsing(self, tmp_path):
        path = tmp_path / "fid.json"
        amps = random_pure_states(np.random.default_rng(0), 1, 4)[0]
        path.write_text(
            json.dumps(
                {
                    "kind": "fiducial",
                    "dim": 4,
                    "amplitudes": [[z.real, z.imag] for z in amps],
                }
            )
        )
        loaded = states.load_fiducial(path)
        np.testing.assert_allclose(loaded, amps, atol=1e-15)


def test_pretty_good_povm_always_valid():
    rng = np.random.default_rng(41)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        e = random_ensemble(rng, d)
        pretty_good_povm(e)  # Povm constructor enforces the invariant
