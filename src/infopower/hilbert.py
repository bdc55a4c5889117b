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
RECON_TOL = 1e-9
KERNEL_TOL = 1e-12

# Components smaller than this are ignored when fixing eigenvector phases.
_PHASE_TOL = 1e-12


def _check_finite(a: np.ndarray, err) -> np.ndarray:
    """Return a, raising err naming the first entry that is NaN or infinite."""
    if not np.isfinite(a).all():
        raise err(f"non-finite entry {a[~np.isfinite(a)][0]}")
    return a


def as_operator(matrix) -> np.ndarray:
    """Coerce to a finite square complex array, raising InvalidOperator otherwise."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidOperator(f"expected a square matrix, got shape {a.shape}")
    return _check_finite(a, InvalidOperator)


def check_hermitian(matrix) -> np.ndarray:
    """Return the matrix as an array, raising InvalidOperator if not Hermitian."""
    a = as_operator(matrix)
    dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if not dev <= HERM_TOL:
        raise InvalidOperator(f"matrix deviates from Hermitian by {dev:.3e}")
    return a


def check_state_vector(amplitudes) -> np.ndarray:
    """Return a normalized complex vector, raising InvalidState otherwise."""
    v = np.asarray(amplitudes, dtype=complex)
    if v.ndim != 1 or v.size == 0:
        raise InvalidState(f"expected a nonempty vector, got shape {v.shape}")
    _check_finite(v, InvalidState)
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= NORM_TOL:
        raise InvalidState(f"vector norm {norm} is not 1 within {NORM_TOL}")
    return v


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its first non-negligible entry is real positive."""
    out = vecs.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        sig = np.flatnonzero(np.abs(col) > _PHASE_TOL)
        if sig.size:
            pivot = col[sig[0]]
            out[:, k] = col * (abs(pivot) / pivot)
    return out


def eigh(op) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition with a deterministic ordering.

    Eigenvalues are returned in descending order; each eigenvector is
    phase-normalized so its first non-negligible component is real
    positive, and exact ties are broken lexicographically on the
    normalized eigenvector entries.
    """
    a = check_hermitian(op)
    vals, vecs = np.linalg.eigh(a)
    vals, vecs = vals[::-1], _fix_phases(vecs[:, ::-1])
    # stable lexicographic tie-break inside degenerate eigenvalue groups
    order = sorted(
        range(len(vals)),
        key=lambda k: (-vals[k], tuple(zip(vecs[:, k].real, vecs[:, k].imag))),
    )
    return vals[order], vecs[:, order]


def _spectral_map(op, fn, psd_check=True) -> np.ndarray:
    vals, vecs = eigh(op)
    if psd_check and vals.size and not vals[-1] >= -PSD_TOL:
        raise NotPositive(f"eigenvalue {vals[-1]:.3e} below -{PSD_TOL}")
    mapped = np.array([fn(max(v, 0.0)) for v in vals])
    return (vecs * mapped) @ vecs.conj().T


def op_sqrt(op) -> np.ndarray:
    """Positive square root of a PSD operator."""
    return _spectral_map(op, np.sqrt)


def op_inv_sqrt(op) -> np.ndarray:
    """Pseudo-inverse square root: eigenvalues below KERNEL_TOL map to 0."""
    return _spectral_map(op, lambda v: 1.0 / np.sqrt(v) if v > KERNEL_TOL else 0.0)


def support_projector(op) -> np.ndarray:
    """Orthogonal projector onto the support (eigenvalues > KERNEL_TOL)."""
    return _spectral_map(op, lambda v: 1.0 if v > KERNEL_TOL else 0.0)


def support_basis(op) -> np.ndarray:
    """d x r matrix whose columns span the support of a PSD operator."""
    vals, vecs = eigh(op)
    keep = vals > KERNEL_TOL
    return vecs[:, keep]


def outer(v) -> np.ndarray:
    """Rank-one projector |v><v| of a normalized vector."""
    v = check_state_vector(v)
    return np.outer(v, v.conj())
