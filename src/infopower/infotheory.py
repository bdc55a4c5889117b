"""Born-rule and entropy kernels, joint distributions, mutual information,
and evaluators for every closed-form dimensional bound.

_born (Born probabilities of stacked pure states), _effect_gradient (their
gradient), _divergence_bits (relative entropy D(q || r) of every row of a
stack of distributions) and _entropy_bits (-D(q || 1)) are the one definition
of each quantity; the optimizers import them. Only _born and _effect_gradient
(through _amplitudes) read the layout of a POVM's factor K (Povm.factor,
(n, r, d) with E_y = K_y^+ K_y): <psi|E_y|psi> is the squared norm of
K_y psi, O(n r d) per state in place of O(n d^2), and r = 1 for a rank-one
POVM.
All quantities are in bits, with 0*log(0) = 0: probabilities at or below 1e-15
are zeros here, and at or below optimize._LOG_FLOOR (1e-18) in the see-saw.
"""

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import DimMismatch, InvalidDimension, InvalidDistribution
from .hilbert import PSD_TOL, _as_array
from .states import SUM_TOL, Ensemble, Povm, _check_density

_ZERO_PROB = 1e-15


# Kernels on stacked arrays: each maps the trailing axis and broadcasts over
# the leading ones, so a call serves one state or distribution, or a stack.


def _amplitudes(factor: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """K psi of every state for the factor K (n, r, d): (..., d) -> (..., n, r).
    Each state is multiplied on its own, so a state in a stack rounds as it
    does alone."""
    n, r, d = factor.shape
    a = (psis[..., None, :] @ factor.reshape(n * r, d).T)[..., 0, :]
    return a.reshape(a.shape[:-1] + (n, r))


def _born(factor: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """Outcome probabilities <psi|E_y|psi> = |K_y psi|^2: states (..., d) ->
    (..., n). The squared moduli are never negative."""
    a = _amplitudes(factor, psis)
    return (a.real**2 + a.imag**2).sum(axis=-1)


def _effect_gradient(coef: np.ndarray, factor: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """Euclidean gradient 2 sum_y coef_y E_y psi = 2 K^+ (coef * K psi) of
    sum_y f(q_y), coef = f'(q) (..., n), states (..., d) -> (..., d), in the
    per-state form of _amplitudes."""
    n, r, d = factor.shape
    c = coef[..., None] * _amplitudes(factor, psis)
    c = c.reshape(c.shape[:-2] + (n * r,))
    return 2.0 * (c[..., None, :] @ factor.reshape(n * r, d).conj())[..., 0, :]


def _nonnegative(h: np.ndarray) -> np.ndarray:
    """h with every entry at or below zero read as +0.0: an entropy of a point
    mass sums to +0.0 and is negated to -0.0, and a Born probability that
    rounds to 1 + eps, as |K psi|^2 of a state on one effect's support can,
    gives one just below zero. Entries above zero keep every bit; NaN passes
    through."""
    return np.maximum(h, 0.0) + 0.0


def _divergence_bits(q: np.ndarray, r=1.0) -> np.ndarray:
    """Relative entropy D(q || r) in bits of every row of q (..., n) from r,
    which broadcasts; entries of q at or below _ZERO_PROB count as zeros."""
    return np.sum(q * np.log2(np.where(q > _ZERO_PROB, q, r) / r), axis=-1)


def _entropy_bits(q: np.ndarray) -> np.ndarray:
    """Shannon entropy -D(q || 1) in bits of every row, never -0.0 or below zero."""
    return _nonnegative(-_divergence_bits(q))


def _check_distribution(probs, ndim: int) -> np.ndarray:
    """probs as a nonempty float array with ndim axes, finite, nonnegative up
    to PSD_TOL (clipped to zero) and summing to one; InvalidDistribution
    otherwise."""
    p = _as_array(probs, float, InvalidDistribution)
    if p.ndim != ndim or not p.size:
        raise InvalidDistribution(f"expected a nonempty {ndim}-d array, got shape {p.shape}")
    if not np.min(p) >= -PSD_TOL:
        raise InvalidDistribution(f"negative probability {np.min(p):.3e}")
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if not abs(total - 1.0) <= SUM_TOL:
        raise InvalidDistribution(f"probabilities sum to {total}, not 1")
    return p


class JointDistribution:
    """|X| x |Y| matrix of joint probabilities summing to one."""

    def __init__(self, probs):
        self.probs = _check_distribution(probs, 2)

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
        """H(X,Y) - H(X), clamped at zero: the two sums round apart by an ulp
        when Y is a function of X."""
        return max(self.entropy_joint() - self.entropy_x(), 0.0)


def shannon_entropy(dist) -> float:
    """Entropy in bits of a probability vector."""
    return float(_entropy_bits(_check_distribution(dist, 1)))


def joint_distribution(e: Ensemble, p: Povm) -> JointDistribution:
    """Born-rule joint distribution probs[x][y] = Tr[rho_x Pi_y], divided by
    its total: the ensemble's and the POVM's SUM_TOL add in the product."""
    if e.dim != p.dim:
        raise DimMismatch(f"ensemble dim {e.dim} != POVM dim {p.dim}")
    probs = np.einsum("xij,yji->xy", e.states, p.effects).real
    return JointDistribution(probs / probs.sum())


def mutual_information(j: JointDistribution) -> float:
    """I(X;Y) = H(X) + H(Y) - H(X,Y), clamped at zero."""
    value = j.entropy_x() + j.entropy_y() - j.entropy_joint()
    return max(value, 0.0)


def _check_pure_state(p: Povm, psi) -> np.ndarray:
    """psi as a checked state vector (hilbert.check_state_vector) of the POVM's
    dimension, DimMismatch otherwise."""
    psi = hilbert.check_state_vector(psi)
    if len(psi) != p.dim:
        raise DimMismatch(f"state dim {len(psi)} != POVM dim {p.dim}")
    return psi


def outcome_distribution(p: Povm, psi) -> np.ndarray:
    """Outcome probabilities <psi|Pi_y|psi> of a pure state."""
    return _born(p.factor, _check_pure_state(p, psi))


def conditional_output_entropy(p: Povm, psi) -> float:
    """Entropy in bits of the measurement outcome on a pure input state."""
    return float(_entropy_bits(outcome_distribution(p, psi)))


def index_of_coincidence(p: Povm, rho) -> float:
    """Collision probability sum_y Tr[rho Pi_y]^2 of the outcome distribution."""
    q = np.einsum("yij,ji->y", p.effects, _check_density(rho, p.dim)).real
    return float(np.sum(q**2))


# ---------------------------------------------------------------------------
# Closed-form dimensional bounds

def _check_count(n, least: int, err=InvalidDimension, what: str = "dimension") -> int:
    """n as a Python int if it is a Python or numpy integer (not a bool) of at
    least least, else err. Every count argument goes through here; callers bind
    the result, so a numpy integer computes and serializes as an int."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < least:
        raise err(f"{what} must be an integer >= {least}, got {n!r}")
    return int(n)


def holevo_bound(d: int) -> float:
    """Ceiling log2(d) on extractable information in dimension d."""
    return float(np.log2(_check_count(d, 1)))


def scrooge_lower(d: int) -> float:
    """log2(d) - (1/ln 2) * sum_{n=2}^d 1/n, the uniform-measurement floor."""
    d = _check_count(d, 1)
    harmonic_tail = np.sum(1.0 / np.arange(2, d + 1))
    return float(np.log2(d) - harmonic_tail / np.log(2))


def sic_upper(d: int) -> float:
    """log2(2d/(d+1)), the ceiling for SIC ensembles and measurements."""
    d = _check_count(d, 1)
    return float(np.log2(2 * d / (d + 1)))


def rastegin_conditional_floor(d: int) -> float:
    """log2(d(d+1)/2), the outcome-entropy floor of a SIC measurement."""
    d = _check_count(d, 1)
    return float(np.log2(d * (d + 1) / 2))


def scrooge_asymptote() -> float:
    """Limit (1 - euler_gamma)/ln 2 of the uniform-measurement floor."""
    return float((1.0 - np.euler_gamma) / np.log(2))


def sic_pretty_good_joint(d: int) -> JointDistribution:
    """Explicit d^2 x d^2 joint distribution of a SIC ensemble measured by
    its pretty-good POVM: diagonal 1/d^3, off-diagonal 1/(d^3 (d+1))."""
    d = _check_count(d, 2)
    n = d * d
    probs = np.full((n, n), 1.0 / (d**3 * (d + 1)))
    np.fill_diagonal(probs, 1.0 / d**3)
    return JointDistribution(probs)


def pg_sic_value(d: int) -> float:
    """Mutual information of the SIC pretty-good joint distribution,
    evaluated directly from its two-valued entry structure."""
    d = _check_count(d, 2)
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
    d = _check_count(d, 2)
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
    d = _check_count(d, 2)
    return BoundSet(
        dim=d,
        holevo=holevo_bound(d),
        scrooge_lower=scrooge_lower(d),
        sic_upper=sic_upper(d),
        rastegin_cond=rastegin_conditional_floor(d),
        pg_sic_value=pg_sic_value(d),
    )
