"""Dense complex linear algebra on small Hilbert spaces.

Everything is done through the spectral calculus (decompose, map the
eigenvalues, recompose); dimensions are tiny so exactness beats speed.
All functions are pure and operate on plain numpy arrays.
"""

import numpy as np

from .errors import InvalidOperator, InvalidState, NotPositive

HERM_TOL = 1e-10
NORM_TOL = 1e-10
PSD_TOL = 1e-10
KERNEL_TOL = 1e-12


def _as_array(x, dtype, err) -> np.ndarray:
    """x as a numpy array of dtype, the one conversion of every array argument:
    err if it does not convert (a ragged nest, a non-number, an integer too
    large for a float) or has an entry that is NaN or infinite."""
    try:
        a = np.asarray(x, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise err(f"not an array of numbers: {exc}") from exc
    if not np.isfinite(a).all():
        raise err(f"non-finite entry {a[~np.isfinite(a)][0]}")
    return a


def check_hermitian(matrix) -> np.ndarray:
    """Return one matrix or a stack (..., d, d) as a finite complex array,
    raising InvalidOperator if it is not square and Hermitian."""
    a = _as_array(matrix, complex, InvalidOperator)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidOperator(f"expected a square matrix, got shape {a.shape}")
    dev = np.max(np.abs(a - a.conj().swapaxes(-1, -2)), initial=0.0)
    if not dev <= HERM_TOL:
        raise InvalidOperator(f"matrix deviates from Hermitian by {dev:.3e}")
    return a


def check_state_vector(amplitudes) -> np.ndarray:
    """Return a normalized complex vector, raising InvalidState otherwise."""
    v = _as_array(amplitudes, complex, InvalidState)
    if v.ndim != 1 or v.size == 0:
        raise InvalidState(f"expected a nonempty vector, got shape {v.shape}")
    with np.errstate(over="ignore"):  # entries near the float maximum: norm inf
        norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= NORM_TOL:
        raise InvalidState(f"vector norm {norm} is not 1 within {NORM_TOL}")
    return v


def eigh(op) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition with descending eigenvalues; the eigenvector
    phases and degenerate-eigenspace bases are numpy's, the same for the same input."""
    a = check_hermitian(op)
    if a.ndim != 2:
        raise InvalidOperator(f"expected one square matrix, got shape {a.shape}")
    vals, vecs = np.linalg.eigh(a)
    return vals[::-1], vecs[:, ::-1]


def _spectral_map(op, fn) -> np.ndarray:
    """f(op) for a PSD operator, fn acting on the whole clipped eigenvalue array."""
    vals, vecs = eigh(op)
    if vals.size and not vals[-1] >= -PSD_TOL:
        raise NotPositive(f"eigenvalue {vals[-1]:.3e} below -{PSD_TOL}")
    return (vecs * fn(np.maximum(vals, 0.0))) @ vecs.conj().T


def op_sqrt(op) -> np.ndarray:
    """Positive square root of a PSD operator."""
    return _spectral_map(op, np.sqrt)


def op_inv_sqrt(op) -> np.ndarray:
    """Pseudo-inverse square root: eigenvalues below KERNEL_TOL map to 0."""
    return _spectral_map(
        op, lambda v: np.where(v > KERNEL_TOL, 1 / np.sqrt(np.maximum(v, KERNEL_TOL)), 0.0))


def support_basis(op) -> np.ndarray:
    """d x r matrix whose columns span the support of a PSD operator."""
    vals, vecs = eigh(op)
    return vecs[:, vals > KERNEL_TOL]


def _projectors(kets: np.ndarray) -> np.ndarray:
    """Rank-one operators |k><k| of the rows of kets: (n, d) -> (n, d, d).
    The kets are not checked; Povm and Ensemble validate what they receive."""
    return kets[:, :, None] * kets[:, None, :].conj()
