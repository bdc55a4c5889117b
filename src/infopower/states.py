"""Ensembles and POVMs: validation, averages, and the pretty-good duality maps.

An ensemble stores sub-normalized states (each trace is the preparation
probability), so the pretty-good maps are single sandwich products.
Zero-trace elements are permitted; they contribute nothing to any entropy.
"""

import json

import numpy as np

from . import hilbert
from .errors import (
    DimMismatch,
    InvalidEnsemble,
    InvalidInput,
    InvalidPovm,
    InvalidState,
    NotSic,
)
from .hilbert import KERNEL_TOL, PSD_TOL

SUM_TOL = 1e-9


def _check_elements(elements, err):
    if not elements:
        raise err("element list is empty")
    ops = [hilbert.check_hermitian(x) for x in elements]
    dim = ops[0].shape[0]
    if any(o.shape[0] != dim for o in ops):
        raise err("elements have mixed dimensions")
    for o in ops:
        evs = np.linalg.eigvalsh(o)
        if evs.size and not evs[0] >= -PSD_TOL:
            raise err(f"element has negative eigenvalue {evs[0]:.3e}")
    return dim, ops


class Ensemble:
    """Finite list of positive operators whose traces sum to one."""

    def __init__(self, states):
        dim, ops = _check_elements(states, InvalidEnsemble)
        total = sum(np.trace(o).real for o in ops)
        if not abs(total - 1.0) <= SUM_TOL:
            raise InvalidEnsemble(f"traces sum to {total}, not 1")
        self.dim = dim
        self.states = ops

    def __len__(self):
        return len(self.states)

    def probabilities(self) -> np.ndarray:
        """Preparation probabilities Tr[rho_x]."""
        return np.array([np.trace(s).real for s in self.states])

    def normalized_states(self):
        """(probability, unit-trace state) pairs; zero-weight states pass through."""
        out = []
        for s in self.states:
            p = np.trace(s).real
            out.append((p, s / p if p > KERNEL_TOL else s))
        return out

    def stack(self) -> np.ndarray:
        return np.stack(self.states)


class Povm:
    """Finite list of positive effects summing to the identity."""

    def __init__(self, effects):
        dim, ops = _check_elements(effects, InvalidPovm)
        total = sum(ops)
        dev = np.max(np.abs(total - np.eye(dim)))
        if not dev <= SUM_TOL:
            raise InvalidPovm(f"effects sum deviates from identity by {dev:.3e}")
        self.dim = dim
        self.effects = ops

    def __len__(self):
        return len(self.effects)

    def stack(self) -> np.ndarray:
        return np.stack(self.effects)


def average_state(e: Ensemble) -> np.ndarray:
    """Average state: the sum of the (sub-normalized) ensemble members."""
    return sum(e.states)


def _check_density(rho) -> np.ndarray:
    rho = hilbert.check_hermitian(rho)
    evs = np.linalg.eigvalsh(rho)
    if not evs[0] >= -PSD_TOL:
        raise InvalidState(f"state has negative eigenvalue {evs[0]:.3e}")
    if not abs(np.trace(rho).real - 1.0) <= SUM_TOL:
        raise InvalidState("state trace is not 1")
    return rho


def restrict_to_support(p: Povm, rho) -> Povm:
    """Compress a POVM onto the support of a state.

    The effects become V+ Pi V with V an orthonormal basis of supp(rho)
    (support eigenvectors in deterministic eigh order), so they sum to the
    identity of the subspace and Born probabilities against any state
    supported there are unchanged.
    """
    rho = _check_density(rho)
    if rho.shape[0] != p.dim:
        raise DimMismatch(f"state dim {rho.shape[0]} != POVM dim {p.dim}")
    basis = hilbert.support_basis(rho)
    return Povm([basis.conj().T @ eff @ basis for eff in p.effects])


def pretty_good_povm(e: Ensemble) -> Povm:
    """Effects rho^{-1/2} rho_x rho^{-1/2} for the ensemble's average rho.

    When the average state is rank-deficient the construction is carried out
    on its support subspace so the output is a valid POVM there.
    """
    rho = average_state(e)
    inv_sqrt = hilbert.op_inv_sqrt(rho)
    rank = int(np.sum(np.linalg.eigvalsh(rho) > KERNEL_TOL))
    if rank == e.dim:
        return Povm([inv_sqrt @ s @ inv_sqrt for s in e.states])
    basis = hilbert.support_basis(rho)
    compress = basis.conj().T @ inv_sqrt
    return Povm([compress @ s @ compress.conj().T for s in e.states])


def pretty_good_ensemble(p: Povm, rho) -> Ensemble:
    """States rho^{1/2} Pi_y rho^{1/2}; the output averages back to rho."""
    rho = _check_density(rho)
    if rho.shape[0] != p.dim:
        raise DimMismatch(f"state dim {rho.shape[0]} != POVM dim {p.dim}")
    sq = hilbert.op_sqrt(rho)
    return Ensemble([sq @ eff @ sq for eff in p.effects])


def sic_ensemble_from_povm(p: Povm) -> Ensemble:
    """Renormalize a SIC POVM into the corresponding SIC ensemble (scale 1/d)."""
    from .sic import is_sic

    if not is_sic(p.effects).passes:
        raise NotSic("input POVM does not pass the SIC certificate")
    return Ensemble([eff / p.dim for eff in p.effects])


def sic_povm_from_ensemble(e: Ensemble) -> Povm:
    """Renormalize a SIC ensemble into the corresponding SIC POVM (scale d)."""
    from .sic import is_sic

    if not is_sic(e.states).passes:
        raise NotSic("input ensemble does not pass the SIC certificate")
    return Povm([s * e.dim for s in e.states])


# ---------------------------------------------------------------------------
# JSON serialization (shared with the CLI)

def _matrix_to_json(m: np.ndarray):
    return [[[z.real, z.imag] for z in row] for row in np.asarray(m, dtype=complex)]


def _matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


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
        "elements": [{"matrix": _matrix_to_json(m)} for m in elements],
    }


def from_json_dict(data: dict):
    """Parse the shared JSON schema into an Ensemble or Povm."""
    try:
        kind = data["kind"]
        elements = [_matrix_from_json(el["matrix"]) for el in data["elements"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed serialized object: {exc}") from exc
    if kind == "ensemble":
        return Ensemble(elements)
    if kind == "povm":
        return Povm(elements)
    raise InvalidInput(f"unknown kind {kind!r}")


def load(path):
    """Load an Ensemble or Povm from a JSON file."""
    with open(path, encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))


def save(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(obj), fh)


def load_fiducial(path) -> np.ndarray:
    """Load a fiducial vector file {"kind": "fiducial", "dim": d, "amplitudes": [[re,im],...]}."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        if data["kind"] != "fiducial":
            raise InvalidInput(f"expected kind 'fiducial', got {data['kind']!r}")
        amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
        if len(amps) != data["dim"]:
            raise InvalidInput("amplitude count does not match dim")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed fiducial file: {exc}") from exc
    return hilbert.check_state_vector(amps)
