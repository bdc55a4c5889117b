import warnings
from functools import partial

import numpy as np
import pytest

from infopower import hilbert, infotheory, optimize, sic, states
from infopower.errors import (
    InfopowerError, InvalidDistribution, InvalidOperator, InvalidState, NotPositive
)
from infopower.hilbert import (
    KERNEL_TOL,
    _projectors,
    eigh,
    op_inv_sqrt,
    op_sqrt,
)

from conftest import RECON_TOL, random_hermitian, random_pure_states

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
            proj = basis @ basis.conj().T
            assert np.linalg.norm(inv @ op @ inv - proj) <= RECON_TOL
            assert np.sum(np.linalg.eigvalsh(op) > KERNEL_TOL) == r


class TestProjectors:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_rows_are_the_outer_products_bit_for_bit(self, d):
        kets = random_pure_states(np.random.default_rng(d), d * d + 1, d)
        expected = np.stack([np.outer(k, k.conj()) for k in kets])
        assert _projectors(kets).tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_rejected(bad):
    with pytest.raises(InvalidState, match="non-finite"):
        hilbert.check_state_vector([bad, 1.0])
    for fn in (hilbert.check_hermitian, eigh, op_sqrt, op_inv_sqrt):
        with pytest.raises(InfopowerError, match="non-finite"):
            fn(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_norm_that_overflows_is_rejected_without_a_warning():
    # each entry is finite, but the squared norm overflows to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidState, match="norm inf"):
            hilbert.check_state_vector([1e308, 1e308])


RAGGED = [[1, 0], [0]]
HUGE = 10**400  # a Python int too large for a float
POVM = sic.tetrahedral_povm()


# each argument fails numpy's conversion: a ragged nest, a non-number string,
# or an int too large for a float
@pytest.mark.parametrize(
    "fn, arg, err",
    [
        (hilbert.check_hermitian, RAGGED, InvalidOperator),
        (eigh, [[1, "a"], [0, 1]], InvalidOperator),
        (op_sqrt, RAGGED, InvalidOperator),
        (op_inv_sqrt, [[HUGE, 0], [0, 1]], InvalidOperator),
        (hilbert.support_basis, [["x", 0], [0, 1]], InvalidOperator),
        (hilbert.check_state_vector, [1, [0]], InvalidState),
        (partial(infotheory.index_of_coincidence, POVM), RAGGED, InvalidOperator),
        (partial(states.pretty_good_ensemble, POVM), [[0.5, "x"], [0, 0.5]], InvalidOperator),
        (partial(states.restrict_to_support, POVM), [[HUGE, 0], [0, 0]], InvalidOperator),
        (partial(infotheory.outcome_distribution, POVM), [1, [0]], InvalidState),
        (partial(infotheory.conditional_output_entropy, POVM), ["a", 0], InvalidState),
        (partial(optimize.output_entropy_gradient, POVM), [HUGE, 0], InvalidState),
        (sic.wh_covariant_povm, [RAGGED, 1], InvalidState),
        (infotheory.shannon_entropy, ["a", 1], InvalidDistribution),
        (infotheory.shannon_entropy, [HUGE, 0], InvalidDistribution),
        (infotheory.JointDistribution, [[0.5], [0.25, 0.25]], InvalidDistribution),
    ],
    ids=lambda v: getattr(getattr(v, "func", v), "__name__", None),
)
def test_unconvertible_argument_raises_its_typed_error(fn, arg, err):
    with pytest.raises(err, match="not an array of numbers|not a matrix"):
        fn(arg)


def test_support_basis_spans_support():
    op = np.diag([0.5, 0.5, 0.0]).astype(complex)
    basis = hilbert.support_basis(op)
    assert basis.shape == (3, 2)
    np.testing.assert_allclose(
        basis @ basis.conj().T, np.diag([1.0, 1.0, 0.0]), atol=1e-12
    )


def test_check_hermitian_takes_a_stack():
    stack = np.stack([PAULI_X, np.eye(2, dtype=complex)])
    np.testing.assert_array_equal(hilbert.check_hermitian(stack), stack)
    skewed = stack.copy()
    skewed[1, 0, 1] = 1.0
    with pytest.raises(InvalidOperator, match="Hermitian"):
        hilbert.check_hermitian(skewed)
    for bad in (np.ones(2), np.ones((2, 2, 3))):
        with pytest.raises(InvalidOperator, match="square"):
            hilbert.check_hermitian(bad)
    # the spectral calculus takes one matrix only
    with pytest.raises(InvalidOperator):
        eigh(stack)


def _degenerate_spectra(d):
    """I/d, a doubly repeated eigenvalue beside distinct ones, and a rank-d//2 projector."""
    half = d // 2
    return {
        "maximally-mixed": np.full(d, 1 / d),
        "repeated": np.r_[0.25, 0.25, np.arange(1.0, d - 1)],
        "projector": np.r_[np.ones(half), np.zeros(d - half)],
    }


@pytest.mark.parametrize("d", range(2, 7))
@pytest.mark.parametrize("name", ["maximally-mixed", "repeated", "projector"])
def test_degenerate_spectra(d, name):
    # ties leave the eigenbasis free inside an eigenspace; every map of the
    # operator and the support it spans must not depend on that choice
    rng = np.random.default_rng(100 + d)
    unitary = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    spec = _degenerate_spectra(d)[name]
    op = (unitary * spec) @ unitary.conj().T
    vals, vecs = eigh(op)
    assert np.all(np.diff(vals) <= 0)
    np.testing.assert_allclose(vals, np.sort(spec)[::-1], atol=RECON_TOL)
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(d))) <= RECON_TOL
    assert np.max(np.abs((vecs * vals) @ vecs.conj().T - op)) <= RECON_TOL
    vals2, vecs2 = eigh(op.copy())
    assert np.array_equal(vals, vals2) and np.array_equal(vecs, vecs2)
    basis = hilbert.support_basis(op)
    proj = (unitary * (spec > 0)) @ unitary.conj().T
    assert basis.shape == (d, np.count_nonzero(spec))
    assert np.max(np.abs(basis @ basis.conj().T - proj)) <= RECON_TOL
    root = op_sqrt(op)
    assert np.max(np.abs(root @ root - op)) <= RECON_TOL
    inv = op_inv_sqrt(op)
    assert np.max(np.abs(inv @ op @ inv - proj)) <= RECON_TOL
