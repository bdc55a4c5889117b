"""Explicit SIC objects for qubits and qutrits, Weyl-Heisenberg covariant
POVM generation from a fiducial vector, certification of the SIC defining
conditions (d^2 rank-one elements, equal traces, equal pairwise overlaps
lambda^2/(d+1)), and the renormalizations between SIC POVMs and ensembles."""

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import InvalidInput, NotSic
from .states import Ensemble, Povm

SIC_TOL = 1e-9
RANK_TOL = 1e-9


def _ket(*amps) -> np.ndarray:
    return np.array(amps, dtype=complex)


def tetrahedral_povm() -> Povm:
    """The four-outcome qubit SIC POVM with effects |pi_y><pi_y| / 2."""
    w = np.exp(2j * np.pi / 3)
    a, b = 1 / np.sqrt(3), np.sqrt(2 / 3)
    kets = [
        _ket(1, 0),
        _ket(a, b),
        _ket(a, w * b),
        _ket(a, w.conjugate() * b),
    ]
    return Povm([hilbert.outer(k) / 2 for k in kets])


def antitetrahedral_ensemble() -> Ensemble:
    """Four qubit states |psi_x><psi_x| / 4, each orthogonal to the matching
    tetrahedral POVM direction."""
    u = np.exp(1j * np.pi / 3)
    a, b = 1 / np.sqrt(3), np.sqrt(2 / 3)
    # ordered so that <psi_x|pi_x> = 0 against tetrahedral_povm
    kets = [
        _ket(0, 1),
        _ket(b, -a),
        _ket(b, u.conjugate() * a),
        _ket(b, u * a),
    ]
    return Ensemble([hilbert.outer(k) / 4 for k in kets])


def qutrit_sic_povm() -> Povm:
    """The nine-outcome qutrit SIC POVM with effects |pi_y><pi_y| / 3."""
    w = np.exp(2j * np.pi / 3)
    s3 = np.sqrt(3) / 2
    r2 = 1 / np.sqrt(2)
    kets = [
        _ket(1, 0, 0),
        _ket(0.5, 1j * s3, 0),
        _ket(0.5, -1j * s3, 0),
        _ket(0.5, 0.5, r2),
        _ket(0.5, 0.5, w * r2),
        _ket(0.5, 0.5, w.conjugate() * r2),
        _ket(0.5, -0.5, r2),
        _ket(0.5, -0.5, w * r2),
        _ket(0.5, -0.5, w.conjugate() * r2),
    ]
    return Povm([hilbert.outer(k) / 3 for k in kets])


def qutrit_orthonormal_ensemble() -> Ensemble:
    """Three mutually orthogonal qutrit states with weight 1/3 each."""
    r2 = 1 / np.sqrt(2)
    kets = [
        _ket(0, 0, 1),
        _ket(-r2, r2, 0),
        _ket(r2, r2, 0),
    ]
    return Ensemble([hilbert.outer(k) / 3 for k in kets])


def clock_shift(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Shift X (|m> -> |m+1 mod d|) and clock Z (|m> -> w^m |m>) matrices."""
    shift = np.roll(np.eye(dim, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))
    return shift, clock


def wh_covariant_povm(fiducial) -> Povm:
    """Orbit of a fiducial vector under the displacement operators X^j Z^k.

    Returns the d^2 effects (1/d) D |f><f| D+; the orbit always resolves the
    identity, so the result is a valid POVM whether or not the fiducial
    generates a SIC set.
    """
    f = hilbert.check_state_vector(fiducial)
    d = len(f)
    shift, clock = clock_shift(d)
    effects = []
    for j in range(d):
        for k in range(d):
            disp = np.linalg.matrix_power(shift, j) @ np.linalg.matrix_power(clock, k)
            effects.append(hilbert.outer(disp @ f) / d)
    return Povm(effects)


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
    """Certify whether a list of Hermitian operators is a SIC set.

    Reports the common trace lambda (mean of the element traces), the worst
    trace deviation, the worst deviation of the pairwise overlaps from
    lambda^2/(d+1), the worst second eigenvalue (rank-one check), and the
    Frobenius deviation of the element sum from d*lambda*identity.
    """
    if not len(elements):
        raise InvalidInput("empty operator list")
    ops = [hilbert.check_hermitian(x) for x in elements]
    d = ops[0].shape[0]
    if any(o.shape[0] != d for o in ops):
        raise InvalidInput("elements have mixed dimensions")

    stacked = np.stack(ops)
    traces = np.einsum("xii->x", stacked).real
    lam = float(np.mean(traces))
    trace_dev = float(np.max(np.abs(traces - lam)))

    overlaps = np.einsum("xij,yji->xy", stacked, stacked).real
    target = lam**2 / (d + 1)
    off = overlaps[~np.eye(len(ops), dtype=bool)]
    pair_dev = float(np.max(np.abs(off - target))) if off.size else np.inf

    rank_dev = 0.0
    for o in ops:
        evs = np.sort(np.linalg.eigvalsh(o))
        rank_dev = max(rank_dev, float(np.max(np.abs(evs[:-1]))) if d > 1 else 0.0)

    avg_dev = float(np.linalg.norm(stacked.sum(axis=0) - d * lam * np.eye(d)))

    passes = (
        len(ops) == d * d
        and trace_dev <= SIC_TOL
        and pair_dev <= SIC_TOL
        and rank_dev <= RANK_TOL
    )
    return SicCertificate(
        dim=d,
        element_count=len(ops),
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
    return Ensemble([eff / p.dim for eff in p.effects])


def sic_povm_from_ensemble(e: Ensemble) -> Povm:
    """Renormalize a SIC ensemble into the corresponding SIC POVM (scale d)."""
    if not is_sic(e.states).passes:
        raise NotSic("input ensemble does not pass the SIC certificate")
    return Povm([s * e.dim for s in e.states])
