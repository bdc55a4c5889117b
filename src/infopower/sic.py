"""Explicit SIC objects for qubits and qutrits, Weyl-Heisenberg covariant
POVM generation from a fiducial vector, certification of the SIC defining
conditions (d^2 rank-one elements, equal traces, equal pairwise overlaps
lambda^2/(d+1)), and the renormalizations between SIC POVMs and ensembles."""

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import InvalidInput, NotSic
from .states import Ensemble, Povm, _hermitian_stack

SIC_TOL = 1e-9


def tetrahedral_povm() -> Povm:
    """The four-outcome qubit SIC POVM with effects |pi_y><pi_y| / 2."""
    w = np.exp(2j * np.pi / 3)
    a, b = 1 / np.sqrt(3), np.sqrt(2 / 3)
    kets = np.array([[1, 0], [a, b], [a, w * b], [a, w.conjugate() * b]], dtype=complex)
    return Povm(hilbert._projectors(kets) / 2)


def antitetrahedral_ensemble() -> Ensemble:
    """Four qubit states |psi_x><psi_x| / 4, each orthogonal to the matching
    tetrahedral POVM direction."""
    u = np.exp(1j * np.pi / 3)
    a, b = 1 / np.sqrt(3), np.sqrt(2 / 3)
    # ordered so that <psi_x|pi_x> = 0 against tetrahedral_povm
    kets = np.array([[0, 1], [b, -a], [b, u.conjugate() * a], [b, u * a]], dtype=complex)
    return Ensemble(hilbert._projectors(kets) / 4)


def qutrit_sic_povm() -> Povm:
    """The nine-outcome qutrit SIC POVM with effects |pi_y><pi_y| / 3."""
    w = np.exp(2j * np.pi / 3)
    s3 = np.sqrt(3) / 2
    r2 = 1 / np.sqrt(2)
    kets = np.array(
        [
            [1, 0, 0],
            [0.5, 1j * s3, 0],
            [0.5, -1j * s3, 0],
            [0.5, 0.5, r2],
            [0.5, 0.5, w * r2],
            [0.5, 0.5, w.conjugate() * r2],
            [0.5, -0.5, r2],
            [0.5, -0.5, w * r2],
            [0.5, -0.5, w.conjugate() * r2],
        ],
        dtype=complex,
    )
    return Povm(hilbert._projectors(kets) / 3)


def qutrit_orthonormal_ensemble() -> Ensemble:
    """Three mutually orthogonal qutrit states with weight 1/3 each."""
    r2 = 1 / np.sqrt(2)
    kets = np.array([[0, 0, 1], [-r2, r2, 0], [r2, r2, 0]], dtype=complex)
    return Ensemble(hilbert._projectors(kets) / 3)


def wh_covariant_povm(fiducial) -> Povm:
    """Orbit of a fiducial vector under the displacement operators X^j Z^k.

    Returns the d^2 effects (1/d) D |f><f| D+ with D = X^j Z^k in the order
    j*d + k, where the clock Z multiplies amplitude m by w^(k*m), w =
    exp(2 pi i/d), and the shift X moves it to m + j mod d. The orbit always
    resolves the identity, so the result is a valid POVM whether or not the
    fiducial generates a SIC set.
    """
    f = hilbert.check_state_vector(fiducial)
    d = len(f)
    phased = np.exp(2j * np.pi * np.arange(d) / d) ** np.arange(d)[:, None] * f
    kets = np.stack([np.roll(phased, j, axis=1) for j in range(d)]).reshape(d * d, d)
    return Povm(hilbert._projectors(kets) / d)


@dataclass(frozen=True)
class SicCertificate:
    """Numerical certificate of the SIC defining conditions for an operator set."""

    dim: int
    element_count: int
    lam: float
    max_trace_deviation: float
    max_pairwise_deviation: float
    max_rank_deviation: float
    average_deviation: float
    passes: bool

    def to_json_dict(self) -> dict:
        return {("lambda" if k == "lam" else k): v for k, v in vars(self).items()}


def is_sic(elements) -> SicCertificate:
    """Certify whether Hermitian operators, a list or an (n, d, d) array, are a SIC set.

    Reports the common trace lambda (mean of the element traces), the worst
    trace deviation, the worst deviation of the pairwise overlaps from
    lambda^2/(d+1), the worst second eigenvalue (rank-one check), and the
    Frobenius deviation of the element sum from d*lambda*identity.
    """
    ops = _hermitian_stack(elements, InvalidInput)
    n, d = len(ops), ops.shape[-1]
    traces = np.einsum("xii->x", ops).real
    lam = float(np.mean(traces))
    trace_dev = float(np.max(np.abs(traces - lam)))

    overlaps = np.einsum("xij,yji->xy", ops, ops).real
    target = lam**2 / (d + 1)
    off = overlaps[~np.eye(n, dtype=bool)]
    # with one element there are no pairs and the overlap condition is vacuous
    pair_dev = float(np.max(np.abs(off - target), initial=0.0))
    # every eigenvalue but the largest of each element is zero for rank one
    rank_dev = float(np.max(np.abs(np.linalg.eigvalsh(ops)[:, :-1]), initial=0.0))

    avg_dev = float(np.linalg.norm(ops.sum(axis=0) - d * lam * np.eye(d)))

    passes = (
        n == d * d
        and trace_dev <= SIC_TOL
        and pair_dev <= SIC_TOL
        and rank_dev <= SIC_TOL
    )
    return SicCertificate(
        dim=d,
        element_count=n,
        lam=lam,
        max_trace_deviation=trace_dev,
        max_pairwise_deviation=pair_dev,
        max_rank_deviation=rank_dev,
        average_deviation=avg_dev,
        passes=passes,
    )


def sic_ensemble_from_povm(p: Povm) -> Ensemble:
    """Renormalize a SIC POVM into the corresponding SIC ensemble (scale 1/d)."""
    if not is_sic(p.effects).passes:
        raise NotSic("input POVM does not pass the SIC certificate")
    return Ensemble(p.effects / p.dim)


def sic_povm_from_ensemble(e: Ensemble) -> Povm:
    """Renormalize a SIC ensemble into the corresponding SIC POVM (scale d)."""
    if not is_sic(e.states).passes:
        raise NotSic("input ensemble does not pass the SIC certificate")
    return Povm(e.states * e.dim)
