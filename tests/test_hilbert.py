import numpy as np
import pytest

from infopower import hilbert
from infopower.errors import InfopowerError, InvalidOperator, InvalidState, NotPositive
from infopower.hilbert import (
    KERNEL_TOL,
    RECON_TOL,
    eigh,
    op_inv_sqrt,
    op_sqrt,
    outer,
    support_projector,
)

from conftest import random_hermitian

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestEigh:
    def test_identity(self):
        vals, _ = eigh(np.eye(2, dtype=complex))
        np.testing.assert_allclose(vals, [1, 1])

    def test_pauli_x(self):
        vals, _ = eigh(PAULI_X)
        np.testing.assert_allclose(vals, [1, -1], atol=1e-12)

    def test_scaled_projector(self):
        vals, _ = eigh(0.25 * np.diag([1.0, 0.0]).astype(complex))
        np.testing.assert_allclose(vals, [0.25, 0], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidOperator):
            eigh(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_deterministic_and_reconstructs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = rng.integers(2, 7)
            op = random_hermitian(rng, d)
            vals, vecs = eigh(op)
            vals2, vecs2 = eigh(op.copy())
            assert np.array_equal(vals, vals2) and np.array_equal(vecs, vecs2)
            recon = (vecs * vals) @ vecs.conj().T
            assert np.linalg.norm(recon - op) <= RECON_TOL
            gram = vecs.conj().T @ vecs
            assert np.max(np.abs(gram - np.eye(d))) <= RECON_TOL

    def test_eigenvalue_sum_is_trace(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            d = rng.integers(2, 7)
            op = random_hermitian(rng, d)
            vals, _ = eigh(op)
            assert abs(vals.sum() - np.trace(op).real) <= RECON_TOL


class TestOpSqrt:
    def test_identity(self):
        np.testing.assert_allclose(op_sqrt(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(
            op_sqrt(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]), atol=1e-12
        )

    def test_rank_one(self):
        proj = 0.25 * np.diag([1.0, 0.0])
        np.testing.assert_allclose(op_sqrt(proj), 0.5 * np.diag([1.0, 0.0]), atol=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(NotPositive):
            op_sqrt(np.diag([1.0, -1.0]))

    def test_square_reproduces(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = rng.integers(2, 6)
            h = random_hermitian(rng, d)
            psd = h @ h.conj().T
            root = op_sqrt(psd)
            assert np.linalg.norm(root @ root - psd) <= RECON_TOL * max(
                1.0, np.linalg.norm(psd)
            )

    def test_spectral_idempotence(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            d = rng.integers(2, 6)
            h = random_hermitian(rng, d)
            psd = h @ h.conj().T
            root = op_sqrt(psd)
            again = op_sqrt(root @ root)
            assert np.linalg.norm(again - root) <= 10 * RECON_TOL


class TestOpInvSqrt:
    def test_scaled_identity(self):
        np.testing.assert_allclose(
            op_inv_sqrt(np.eye(2) / 2), np.sqrt(2) * np.eye(2), atol=1e-12
        )

    def test_kernel_maps_to_zero(self):
        np.testing.assert_allclose(
            op_inv_sqrt(np.diag([4.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-12
        )

    def test_diagonal(self):
        s6 = np.sqrt(6)
        np.testing.assert_allclose(
            op_inv_sqrt(np.diag([1.0, 1.0, 4.0]) / 6),
            np.diag([s6, s6, s6 / 2]),
            atol=1e-12,
        )

    def test_sandwich_gives_support_projector(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            r = int(rng.integers(1, d + 1))
            basis = np.linalg.qr(
                rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            )[0][:, :r]
            weights = rng.uniform(0.1, 2.0, size=r)
            op = (basis * weights) @ basis.conj().T
            inv = op_inv_sqrt(op)
            proj = support_projector(op)
            assert np.linalg.norm(inv @ op @ inv - proj) <= RECON_TOL
            assert np.sum(np.linalg.eigvalsh(op) > KERNEL_TOL) == r


class TestOuter:
    def test_basis_state(self):
        np.testing.assert_allclose(outer([1, 0]), np.diag([1.0, 0.0]), atol=1e-12)

    def test_plus_state(self):
        np.testing.assert_allclose(
            outer(np.array([1, 1]) / np.sqrt(2)), np.full((2, 2), 0.5), atol=1e-12
        )

    def test_tetrahedral_direction(self):
        v = np.array([1 / np.sqrt(3), np.sqrt(2 / 3)])
        np.testing.assert_allclose(np.diag(outer(v)).real, [1 / 3, 2 / 3], atol=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidState):
            outer([1, 1])

    def test_rank_one_trace_one(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        p = outer(z / np.linalg.norm(z))
        vals = np.linalg.eigvalsh(p)
        assert abs(np.trace(p).real - 1) < 1e-12
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(vals[:-1])) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_rejected(bad):
    with pytest.raises(InvalidState, match="non-finite"):
        hilbert.check_state_vector([bad, 1.0])
    for fn in (hilbert.check_hermitian, eigh, op_sqrt, op_inv_sqrt):
        with pytest.raises(InfopowerError, match="non-finite"):
            fn(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_support_basis_spans_support():
    op = np.diag([0.5, 0.5, 0.0]).astype(complex)
    basis = hilbert.support_basis(op)
    assert basis.shape == (3, 2)
    np.testing.assert_allclose(
        basis @ basis.conj().T, np.diag([1.0, 1.0, 0.0]), atol=1e-12
    )
