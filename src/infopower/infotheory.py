"""Born-rule and entropy kernels, joint distributions, mutual information,
and evaluators for every closed-form dimensional bound.

_born (outcome probabilities of stacked pure states) and _entropy_bits
(Shannon entropy of every row of a stack of distributions) are the one
definition of each quantity in the package; the optimizers import them.
All informational quantities are in bits. The 0*log(0) = 0 convention is
applied everywhere; probabilities at or below 1e-15 are treated as exact zeros.
"""

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import DimMismatch, InvalidDimension, InvalidDistribution
from .hilbert import PSD_TOL, _check_finite
from .states import SUM_TOL, Ensemble, Povm

_ZERO_PROB = 1e-15

EULER_GAMMA = float(np.euler_gamma)


# Kernels on stacked arrays: each maps the trailing axis and broadcasts over
# the leading ones, so a call serves one state or distribution, or a stack.


def _born(effects: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """Outcome probabilities <psi|E_y|psi>: states (..., d) -> (..., n)."""
    return np.maximum(np.einsum("yij,...i,...j->...y", effects, psis.conj(), psis).real, 0.0)


def _entropy_bits(q: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of every row of q (..., n); entries at or below
    _ZERO_PROB count as zeros."""
    return -np.sum(q * np.log2(np.where(q > _ZERO_PROB, q, 1.0)), axis=-1)


class JointDistribution:
    """|X| x |Y| matrix of joint probabilities summing to one."""

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 2:
            raise InvalidDistribution(f"expected a matrix, got shape {probs.shape}")
        _check_finite(probs, InvalidDistribution)
        if not np.min(probs) >= -PSD_TOL:
            raise InvalidDistribution(f"negative probability {np.min(probs):.3e}")
        probs = np.clip(probs, 0.0, None)
        total = probs.sum()
        if not abs(total - 1.0) <= SUM_TOL:
            raise InvalidDistribution(f"probabilities sum to {total}, not 1")
        self.probs = probs

    def marginal_x(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    def marginal_y(self) -> np.ndarray:
        return self.probs.sum(axis=0)

    def entropy_x(self) -> float:
        return float(_entropy_bits(self.marginal_x()))

    def entropy_y(self) -> float:
        return float(_entropy_bits(self.marginal_y()))

    def entropy_joint(self) -> float:
        return float(_entropy_bits(self.probs.ravel()))

    def entropy_y_given_x(self) -> float:
        return self.entropy_joint() - self.entropy_x()


def shannon_entropy(dist) -> float:
    """Entropy in bits of a probability vector."""
    p = np.asarray(dist, dtype=float)
    if p.ndim != 1:
        raise InvalidDistribution(f"expected a vector, got shape {p.shape}")
    _check_finite(p, InvalidDistribution)
    if not np.min(p) >= -PSD_TOL:
        raise InvalidDistribution(f"negative probability {np.min(p):.3e}")
    if not abs(p.sum() - 1.0) <= SUM_TOL:
        raise InvalidDistribution(f"probabilities sum to {p.sum()}, not 1")
    return float(_entropy_bits(p))


def joint_distribution(e: Ensemble, p: Povm) -> JointDistribution:
    """Born-rule joint distribution probs[x][y] = Tr[rho_x Pi_y]."""
    if e.dim != p.dim:
        raise DimMismatch(f"ensemble dim {e.dim} != POVM dim {p.dim}")
    probs = np.einsum("xij,yji->xy", e.stack(), p.stack()).real
    return JointDistribution(probs)


def mutual_information(j: JointDistribution) -> float:
    """I(X;Y) = H(X) + H(Y) - H(X,Y), clamped at zero."""
    value = j.entropy_x() + j.entropy_y() - j.entropy_joint()
    return max(value, 0.0)


def outcome_distribution(p: Povm, psi) -> np.ndarray:
    """Outcome probabilities <psi|Pi_y|psi> of a pure state."""
    psi = hilbert.check_state_vector(psi)
    if len(psi) != p.dim:
        raise DimMismatch(f"state dim {len(psi)} != POVM dim {p.dim}")
    return _born(p.stack(), psi)


def conditional_output_entropy(p: Povm, psi) -> float:
    """Entropy in bits of the measurement outcome on a pure input state."""
    return float(_entropy_bits(outcome_distribution(p, psi)))


def index_of_coincidence(p: Povm, rho) -> float:
    """Collision probability sum_y Tr[rho Pi_y]^2 of the outcome distribution."""
    rho = hilbert.check_hermitian(rho)
    if rho.shape[0] != p.dim:
        raise DimMismatch(f"state dim {rho.shape[0]} != POVM dim {p.dim}")
    q = np.einsum("yij,ji->y", p.stack(), rho).real
    return float(np.sum(q**2))


# ---------------------------------------------------------------------------
# Closed-form dimensional bounds

def holevo_bound(d: int) -> float:
    """Ceiling log2(d) on extractable information in dimension d."""
    return float(np.log2(d))


def scrooge_lower(d: int) -> float:
    """log2(d) - (1/ln 2) * sum_{n=2}^d 1/n, the uniform-measurement floor."""
    harmonic_tail = np.sum(1.0 / np.arange(2, d + 1))
    return float(np.log2(d) - harmonic_tail / np.log(2))


def sic_upper(d: int) -> float:
    """log2(2d/(d+1)), the ceiling for SIC ensembles and measurements."""
    return float(np.log2(2 * d / (d + 1)))


def rastegin_conditional_floor(d: int) -> float:
    """log2(d(d+1)/2), the outcome-entropy floor of a SIC measurement."""
    return float(np.log2(d * (d + 1) / 2))


def scrooge_asymptote() -> float:
    """Limit (1 - euler_gamma)/ln 2 of the uniform-measurement floor."""
    return float((1.0 - EULER_GAMMA) / np.log(2))


def sic_pretty_good_joint(d: int) -> JointDistribution:
    """Explicit d^2 x d^2 joint distribution of a SIC ensemble measured by
    its pretty-good POVM: diagonal 1/d^3, off-diagonal 1/(d^3 (d+1))."""
    if d < 2:
        raise InvalidDimension(f"dimension {d} < 2")
    n = d * d
    probs = np.full((n, n), 1.0 / (d**3 * (d + 1)))
    np.fill_diagonal(probs, 1.0 / d**3)
    return JointDistribution(probs)


def pg_sic_value(d: int) -> float:
    """Mutual information of the SIC pretty-good joint distribution,
    evaluated directly from its two-valued entry structure."""
    if d < 2:
        raise InvalidDimension(f"dimension {d} < 2")
    n = d * d
    p_diag = 1.0 / d**3
    p_off = 1.0 / (d**3 * (d + 1))
    h_joint = -(n * p_diag * np.log2(p_diag) + n * (n - 1) * p_off * np.log2(p_off))
    return float(4 * np.log2(d) - h_joint)


def pg_sic_closed_form(d: int) -> float:
    """Closed-form variant (2d/(d^2(d+1))) log d - ((d-1)/(d^2(d+1))) log(d+1).

    Disagrees with the direct evaluation pg_sic_value (0.201253 vs 0.207519
    at d=2); kept only so the discrepancy can be reported, never used as a
    reference value.
    """
    return float(
        2 * d / (d**2 * (d + 1)) * np.log2(d)
        - (d - 1) / (d**2 * (d + 1)) * np.log2(d + 1)
    )


@dataclass(frozen=True)
class BoundSet:
    """All closed-form dimensional bounds, in bits."""

    dim: int
    holevo: float
    scrooge_lower: float
    sic_upper: float
    rastegin_cond: float
    pg_sic_value: float

    def __post_init__(self):
        if not self.scrooge_lower <= self.sic_upper <= self.holevo:
            raise InvalidDimension(
                f"bound ordering violated at d={self.dim}: "
                f"{self.scrooge_lower} <= {self.sic_upper} <= {self.holevo}"
            )

    def to_json_dict(self) -> dict:
        return dict(vars(self))


def bounds_for_dimension(d: int) -> BoundSet:
    """Evaluate every dimensional bound at d >= 2."""
    if d < 2:
        raise InvalidDimension(f"dimension {d} < 2")
    return BoundSet(
        dim=d,
        holevo=holevo_bound(d),
        scrooge_lower=scrooge_lower(d),
        sic_upper=sic_upper(d),
        rastegin_cond=rastegin_conditional_floor(d),
        pg_sic_value=pg_sic_value(d),
    )
