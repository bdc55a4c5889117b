from pathlib import Path

import numpy as np
import pytest

from infopower.states import Ensemble, Povm


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def random_pure_states(rng, n, d):
    z = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def random_ensemble(rng, d, n=None):
    n = n or d * d
    weights = rng.dirichlet(np.ones(n))
    psis = random_pure_states(rng, n, d)
    return Ensemble([w * np.outer(v, v.conj()) for w, v in zip(weights, psis)])


def random_povm(rng, d, n=None):
    from infopower.hilbert import op_inv_sqrt

    n = n or d * d
    psis = random_pure_states(rng, n, d)
    s = psis.T @ psis.conj()
    balance = op_inv_sqrt(s)
    rotated = psis @ balance.T
    return Povm([np.outer(v, v.conj()) for v in rotated])


def qubit_wh_fiducial():
    """Qubit fiducial whose clock-shift orbit is a SIC set."""
    a = np.sqrt((3 + np.sqrt(3)) / 6)
    b = np.sqrt((3 - np.sqrt(3)) / 6)
    return np.array([a, np.exp(1j * np.pi / 4) * b])


# reconstruction error allowed when a test rebuilds a matrix from its parts
RECON_TOL = 1e-9

# the d=4 fiducial the benchmark ships, found from this file, not the working directory
SHIPPED_D4_FIDUCIAL = Path(__file__).resolve().parents[1] / "perfbench" / "fiducial_d4.json"


@pytest.fixture(scope="session")
def d4_fiducial_path():
    return str(SHIPPED_D4_FIDUCIAL)
