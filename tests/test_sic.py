import numpy as np
import pytest

from infopower import sic
from infopower.errors import InvalidInput, InvalidOperator
from infopower.sic import (
    SIC_TOL,
    antitetrahedral_ensemble,
    is_sic,
    qutrit_orthonormal_ensemble,
    qutrit_sic_povm,
    tetrahedral_povm,
    wh_covariant_povm,
)
from infopower.states import SUM_TOL, average_state, load_fiducial

from conftest import qubit_wh_fiducial


class TestTetrahedral:
    def test_first_effect(self):
        p = tetrahedral_povm()
        np.testing.assert_allclose(p.effects[0], 0.5 * np.diag([1.0, 0.0]), atol=1e-12)

    def test_pairwise_overlap(self):
        p = tetrahedral_povm()
        assert np.trace(p.effects[0] @ p.effects[1]).real == pytest.approx(
            1 / 12, abs=1e-12
        )

    def test_resolves_identity(self):
        p = tetrahedral_povm()
        np.testing.assert_allclose(sum(p.effects), np.eye(2), atol=1e-12)

    def test_certificate(self):
        cert = is_sic(tetrahedral_povm().effects)
        assert cert.passes
        assert cert.lam == pytest.approx(0.5, abs=1e-12)


class TestAntitetrahedral:
    def test_first_state(self):
        e = antitetrahedral_ensemble()
        np.testing.assert_allclose(e.states[0], 0.25 * np.diag([0.0, 1.0]), atol=1e-12)

    def test_orthogonal_to_tetrahedral(self):
        e = antitetrahedral_ensemble()
        p = tetrahedral_povm()
        for rho, eff in zip(e.states, p.effects):
            assert abs(np.trace(rho @ eff)) < 1e-15

    def test_average(self):
        np.testing.assert_allclose(
            average_state(antitetrahedral_ensemble()), np.eye(2) / 2, atol=1e-12
        )

    def test_is_sic_ensemble(self):
        cert = is_sic(antitetrahedral_ensemble().states)
        assert cert.passes
        assert cert.lam == pytest.approx(0.25, abs=1e-12)


class TestQutrit:
    def test_first_effect(self):
        p = qutrit_sic_povm()
        np.testing.assert_allclose(
            p.effects[0], np.diag([1 / 3, 0.0, 0.0]), atol=1e-12
        )

    def test_cross_group_overlap(self):
        p = qutrit_sic_povm()
        assert np.trace(p.effects[0] @ p.effects[3]).real == pytest.approx(
            1 / 36, abs=1e-12
        )

    def test_resolves_identity(self):
        np.testing.assert_allclose(sum(qutrit_sic_povm().effects), np.eye(3), atol=1e-12)

    def test_certificate(self):
        cert = is_sic(qutrit_sic_povm().effects)
        assert cert.passes
        assert cert.lam == pytest.approx(1 / 3, abs=1e-12)

    def test_triples_have_uniform_internal_overlap(self):
        # each index triple lies on a circle: squared ket overlaps all 1/4
        p = qutrit_sic_povm()
        for group in ([0, 1, 2], [3, 4, 5], [6, 7, 8]):
            for i in group:
                for j in group:
                    if i != j:
                        # Tr[Pi Pj] = (1/9)|<pi_i|pi_j>|^2
                        ov = 9 * np.trace(p.effects[i] @ p.effects[j]).real
                        assert ov == pytest.approx(1 / 4, abs=1e-12)


class TestQutritOrthonormal:
    def test_first_state(self):
        e = qutrit_orthonormal_ensemble()
        np.testing.assert_allclose(e.states[0], np.diag([0.0, 0.0, 1 / 3]), atol=1e-12)

    def test_orthogonality(self):
        e = qutrit_orthonormal_ensemble()
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(np.trace(e.states[i] @ e.states[j])) < 1e-15

    def test_average(self):
        np.testing.assert_allclose(
            average_state(qutrit_orthonormal_ensemble()), np.eye(3) / 3, atol=1e-12
        )


class TestWeylHeisenberg:
    def test_orbit_equals_the_displaced_fiducial_projectors(self, d4_fiducial_path):
        # reference: effect j*d + k is (1/d) D|f><f|D+ with D = X^j Z^k built
        # from dense shift and clock matrices; the two agree bit for bit at
        # d <= 4 and round apart by about 1e-17 above
        rng = np.random.default_rng(30)
        for d in range(2, 17):
            shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
            clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
            w = np.exp(2j * np.pi / d)
            np.testing.assert_allclose(clock @ shift, w * shift @ clock, atol=1e-12)
            fiducials = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(2)]
            if d == 4:
                fiducials.append(load_fiducial(d4_fiducial_path))
            for z in fiducials:
                f = z / np.linalg.norm(z)
                effects = wh_covariant_povm(f).effects
                for j in range(d):
                    for k in range(d):
                        ket = (
                            np.linalg.matrix_power(shift, j)
                            @ np.linalg.matrix_power(clock, k)
                            @ f
                        )
                        expected = np.outer(ket, ket.conj()) / d
                        if d <= 4:
                            assert np.array_equal(effects[j * d + k], expected)
                        else:
                            np.testing.assert_allclose(
                                effects[j * d + k], expected, rtol=0, atol=1e-15
                            )

    def test_non_fiducial_still_resolves_identity(self):
        p = wh_covariant_povm(np.array([1, 1]) / np.sqrt(2))
        assert len(p) == 4
        assert not is_sic(p.effects).passes

    def test_qubit_fiducial_generates_sic(self):
        p = wh_covariant_povm(qubit_wh_fiducial())
        cert = is_sic(p.effects)
        assert cert.passes
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.trace(p.effects[i] @ p.effects[j]).real == pytest.approx(
                    1 / 12, abs=1e-9
                )

    def test_random_fiducial_orbit_completeness(self):
        rng = np.random.default_rng(13)
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        p = wh_covariant_povm(z / np.linalg.norm(z))
        assert len(p) == 16
        assert np.max(np.abs(sum(p.effects) - np.eye(4))) <= SUM_TOL


class TestCertificate:
    def test_basis_povm_fails(self):
        cert = is_sic([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert not cert.passes
        assert cert.element_count == 2

    def test_perturbed_tetrahedron_fails_at_matching_scale(self):
        p = tetrahedral_povm()
        eps = 1e-3
        rot = np.array(
            [[np.cos(eps), -np.sin(eps)], [np.sin(eps), np.cos(eps)]], dtype=complex
        )
        elems = list(p.effects)
        elems[1] = rot @ elems[1] @ rot.conj().T
        cert = is_sic(elems)
        assert not cert.passes
        assert 1e-5 < cert.max_pairwise_deviation < 1e-1

    def test_lemma_average_identity(self):
        for elems, d, lam in [
            (tetrahedral_povm().effects, 2, 0.5),
            (antitetrahedral_ensemble().states, 2, 0.25),
            (qutrit_sic_povm().effects, 3, 1 / 3),
            (wh_covariant_povm(qubit_wh_fiducial()).effects, 2, 0.5),
        ]:
            total = sum(elems)
            dev = np.linalg.norm(total - d * lam * np.eye(d))
            assert dev <= d * d * SUM_TOL
            assert is_sic(elems).average_deviation <= d * d * SUM_TOL

    def test_overlap_uniformity(self):
        for elems in (tetrahedral_povm().effects, qutrit_sic_povm().effects):
            cert = is_sic(elems)
            assert cert.max_pairwise_deviation <= SIC_TOL

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(InvalidInput):
            is_sic([np.eye(2), np.eye(3)])

    def test_rejects_empty(self):
        with pytest.raises(InvalidInput):
            is_sic([])

    def test_array_input_and_malformed_elements(self):
        stacked = np.array(tetrahedral_povm().effects)
        assert is_sic(stacked) == is_sic(list(stacked))
        for bad in (np.zeros((0, 2, 2)), [np.eye(2), np.ones((2, 3))]):
            with pytest.raises(InvalidInput):
                is_sic(bad)
        with pytest.raises(InvalidOperator):
            is_sic([[["a", 0], [0, 1]]])
