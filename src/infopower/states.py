"""Ensembles and POVMs: validation, averages, the pretty-good duality maps,
and the JSON file schema shared with the CLI.

An ensemble stores sub-normalized states (each trace is the preparation
probability), so the pretty-good maps are single sandwich products. Both
classes hold their elements as one validated, read-only (n, d, d) complex
array, and every map acts on that array as a whole. A POVM's factor K
(n, r, d), with E_y = K_y^+ K_y, is one more such array: the Born-rule
kernels on pure states (infotheory._born) read it, and it is computed only
on first use.
Zero-trace elements are permitted; they contribute nothing to any entropy.
Nothing here knows about SIC sets: their renormalizations live in sic.
"""

import json
from functools import cached_property

import numpy as np

from . import hilbert
from .errors import (
    DimMismatch, InvalidEnsemble, InvalidInput, InvalidOperator, InvalidPovm, InvalidState
)
from .hilbert import KERNEL_TOL, PSD_TOL

SUM_TOL = 1e-9


def _hermitian_stack(elements, err) -> np.ndarray:
    """The elements, a list or an (n, d, d) array, as a new Hermitian complex
    (n, d, d) array: err if there are none or their shapes differ,
    InvalidOperator if they are not square matrices of finite numbers."""
    try:
        ops = np.array(elements)
    except ValueError as exc:
        for el in elements:
            try:
                np.array(el)
            except ValueError as ragged:
                raise InvalidOperator(f"element is not a matrix: {ragged}") from ragged
        raise err("elements have mixed dimensions") from exc
    if ops.shape[:1] == (0,):
        raise err("element list is empty")
    if ops.ndim != 3 or not ops.shape[-1]:
        raise InvalidOperator(f"expected a list of square matrices, got shape {ops.shape}")
    return hilbert.check_hermitian(ops)


def _check_elements(elements, err) -> np.ndarray:
    """The elements as a read-only positive (n, d, d) array, a copy that does
    not alias the caller's arrays."""
    ops = _hermitian_stack(elements, err)
    low = np.linalg.eigvalsh(ops)[:, 0].min()
    if not low >= -PSD_TOL:
        raise err(f"element has negative eigenvalue {low:.3e}")
    ops.flags.writeable = False
    return ops


class Ensemble:
    """Positive operators (n, d, d), read-only, whose traces sum to one."""

    def __init__(self, states):
        self.states = _check_elements(states, InvalidEnsemble)
        self.dim = self.states.shape[-1]
        total = self.probabilities().sum()
        if not abs(total - 1.0) <= SUM_TOL:
            raise InvalidEnsemble(f"traces sum to {total}, not 1")

    def __len__(self):
        return len(self.states)

    def probabilities(self) -> np.ndarray:
        """Preparation probabilities Tr[rho_x]."""
        return np.trace(self.states, axis1=1, axis2=2).real


class Povm:
    """Positive effects (n, d, d), read-only, summing to the identity, and
    their factor K (n, r, d), computed once on first use."""

    def __init__(self, effects):
        self.effects = _check_elements(effects, InvalidPovm)
        self.dim = self.effects.shape[-1]
        dev = np.max(np.abs(self.effects.sum(axis=0) - np.eye(self.dim)))
        if not dev <= SUM_TOL:
            raise InvalidPovm(f"effects sum deviates from identity by {dev:.3e}")

    def __len__(self):
        return len(self.effects)

    @cached_property
    def factor(self) -> np.ndarray:
        """K (n, r, d), read-only, with E_y = K_y^+ K_y and r the largest
        effect rank, from one batched eigendecomposition on first use. Row
        K[y, k] is sqrt(lam) v^+ for the k-th of the r largest eigenpairs
        (lam, v) of E_y, or zero where lam is at or below hilbert.KERNEL_TOL,
        so a lower-rank or zero effect has exact zero rows."""
        vals, vecs = np.linalg.eigh(self.effects)  # ascending: kept pairs last
        keep = vals > KERNEL_TOL  # (n, d): eigenpair k of effect y
        r = keep.sum(axis=1).max()
        lam = np.where(keep, vals, 0.0)[:, -r:]
        factor = np.sqrt(lam)[..., None] * vecs.swapaxes(1, 2)[:, -r:].conj()
        factor.flags.writeable = False
        return factor


def average_state(e: Ensemble) -> np.ndarray:
    """Average state: the sum of the (sub-normalized) ensemble members."""
    return e.states.sum(axis=0)


def _check_density(rho, dim: int) -> np.ndarray:
    """rho as a read-only array: InvalidOperator unless it is one square
    Hermitian matrix, InvalidState unless it is positive with unit trace,
    DimMismatch unless it is d x d with d = dim."""
    rho = _check_elements([rho], InvalidState)[0]
    if rho.shape != (dim, dim):
        raise DimMismatch(f"state shape {rho.shape} != POVM dim {dim}")
    if not abs(np.trace(rho).real - 1.0) <= SUM_TOL:
        raise InvalidState("state trace is not 1")
    return rho


def restrict_to_support(p: Povm, rho) -> Povm:
    """Compress a POVM onto the support of a state.

    The effects become V+ Pi V with V an orthonormal basis of supp(rho)
    (the support eigenvectors hilbert.eigh returns), so they sum to the
    identity of the subspace and Born probabilities against any state
    supported there are unchanged.
    """
    basis = hilbert.support_basis(_check_density(rho, p.dim))
    return Povm(basis.conj().T @ p.effects @ basis)


def pretty_good_povm(e: Ensemble) -> Povm:
    """Effects rho^{-1/2} rho_x rho^{-1/2} for the ensemble's average rho.

    When the average state is rank-deficient the construction is carried out
    on its support subspace so the output is a valid POVM there.
    """
    rho = average_state(e)
    inv_sqrt = hilbert.op_inv_sqrt(rho)
    basis = hilbert.support_basis(rho)
    if basis.shape[1] == e.dim:
        return Povm(inv_sqrt @ e.states @ inv_sqrt)
    compress = basis.conj().T @ inv_sqrt
    return Povm(compress @ e.states @ compress.conj().T)


def pretty_good_ensemble(p: Povm, rho) -> Ensemble:
    """States rho^{1/2} Pi_y rho^{1/2}; the output averages back to rho."""
    sq = hilbert.op_sqrt(_check_density(rho, p.dim))
    return Ensemble(sq @ p.effects @ sq)


# ---------------------------------------------------------------------------
# JSON serialization (shared with the CLI)

def _complex_to_pairs(a: np.ndarray) -> list:
    """The complex array a as nested lists with an [re, im] pair per entry."""
    return np.stack([a.real, a.imag], -1).tolist()


def _complex_from_pairs(pairs, ndim: int) -> np.ndarray:
    """The complex array whose entries are the [re, im] pairs nested ndim lists
    deep, each with the bits of complex(re, im). ValueError unless every pair
    is two numbers at that depth; a string, a null, a deeper list or an
    integer too long for numpy's integer types is not a number."""
    a = np.array(pairs)
    if a.dtype.kind not in "biuf" or a.shape[ndim:] != (2,):
        raise ValueError(f"expected pairs of numbers [re, im], nested {ndim} lists deep")
    return np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]


def to_json_dict(obj) -> dict:
    """Serialize an Ensemble or Povm to the shared JSON schema."""
    if isinstance(obj, Ensemble):
        kind, elements = "ensemble", obj.states
    elif isinstance(obj, Povm):
        kind, elements = "povm", obj.effects
    else:
        raise InvalidInput(f"cannot serialize {type(obj).__name__}")
    return {
        "kind": kind,
        "dim": obj.dim,
        "elements": [{"matrix": m} for m in _complex_to_pairs(elements)],
    }


def from_json_dict(data: dict):
    """Parse the shared JSON schema into an Ensemble or Povm; the declared dim
    must be the int dimension of the elements."""
    try:
        kind = data["kind"]
        if kind not in ("ensemble", "povm"):
            raise InvalidInput(f"expected kind 'ensemble' or 'povm', got {kind!r}")
        dim = data["dim"]
        elements = [_complex_from_pairs(el["matrix"], 2) for el in data["elements"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"malformed serialized object: {exc}") from exc
    obj = Ensemble(elements) if kind == "ensemble" else Povm(elements)
    if type(dim) is not int or dim != obj.dim:
        raise InvalidInput(f"declared dim {dim!r} != element dimension {obj.dim}")
    return obj


def _read_json(path):
    """Parse a UTF-8 JSON file; undecodable or malformed content, an integer
    too long to convert and nesting too deep to parse are InvalidInput."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise InvalidInput(f"cannot load {path}: {exc}") from exc


def load(path):
    """Load an Ensemble or Povm from a JSON file."""
    return from_json_dict(_read_json(path))


def save(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(to_json_dict(obj)))


def load_fiducial(path) -> np.ndarray:
    """Load a fiducial vector file {"kind": "fiducial", "dim": d, "amplitudes": [[re,im],...]};
    the declared dim must be the int count of amplitudes."""
    data = _read_json(path)
    try:
        if data["kind"] != "fiducial":
            raise InvalidInput(f"expected kind 'fiducial', got {data['kind']!r}")
        dim = data["dim"]
        amps = _complex_from_pairs(data["amplitudes"], 1)
        if type(dim) is not int or len(amps) != dim:
            raise InvalidInput(f"declared dim {dim!r} != amplitude count {len(amps)}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"malformed fiducial file: {exc}") from exc
    return hilbert.check_state_vector(amps)
