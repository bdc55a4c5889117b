"""Make the d=4 Weyl-Heisenberg SIC fiducial that the benchmark loads.

Seeded frame-potential minimisation in plain numpy, independent of
infopower: steepest descent of sum_{(j,k)!=0} |<f|X^j Z^k|f>|^4 on the unit
sphere down to its SIC value (d-1)/(d+1), then a Gauss-Newton polish of the
overlap residuals |<f|X^j Z^k|f>|^2 - 1/(d+1).

    python3 perfbench/make_fiducial.py
"""

import json
import sys
from pathlib import Path

import numpy as np

from references import fiducial_deviation, wh_displacements

DIM = 4
SEED = 1
TRIES = 20
OUT = Path(__file__).resolve().parent / "fiducial_d4.json"


def overlaps(f, ds):
    """|<f|D|f>|^2 for every displacement D."""
    return np.abs(np.einsum("i,nij,j->n", f.conj(), ds, f)) ** 2


def _frame_potential(f, ds):
    return float(np.sum(overlaps(f, ds) ** 2))


def _descend(f, ds, steps=5000, tol=1e-13):
    target = (len(f) - 1) / (len(f) + 1)
    value = _frame_potential(f, ds)
    for _ in range(steps):
        if value - target < tol:
            break
        g = np.einsum("i,nij,j->n", f.conj(), ds, f)
        w = 2 * np.abs(g) ** 2
        # Wirtinger gradient dF/d(conj f), doubled to the real gradient
        grad = 2 * (
            np.einsum("n,n,nij,j->i", w, g.conj(), ds, f)
            + np.einsum("n,n,nji,j->i", w, g, ds.conj(), f)
        )
        grad -= np.real(np.vdot(f, grad)) * f
        step = 1.0
        while step > 1e-16:
            cand = f - step * grad
            cand /= np.linalg.norm(cand)
            cand_value = _frame_potential(cand, ds)
            if cand_value <= value - 1e-4 * step * np.vdot(grad, grad).real:
                break
            step /= 2
        else:
            break
        f, value = cand, cand_value
    return f


def _polish(f, ds, sweeps=20, h=1e-7):
    d = len(f)

    def residuals(x):
        v = x[:d] + 1j * x[d:]
        return np.append(overlaps(v, ds) - 1.0 / (d + 1), np.vdot(v, v).real - 1.0)

    x = np.concatenate([f.real, f.imag])
    for _ in range(sweeps):
        r = residuals(x)
        if np.max(np.abs(r)) < 1e-15:
            break
        jac = np.stack(
            [(residuals(x + h * e) - residuals(x - h * e)) / (2 * h) for e in np.eye(2 * d)],
            axis=1,
        )
        x = x - np.linalg.lstsq(jac, r, rcond=None)[0]
    v = x[:d] + 1j * x[d:]
    return v / np.linalg.norm(v)


def find_fiducial():
    """First seeded start whose polished overlaps are all 1/(d+1) within 1e-12."""
    ds = wh_displacements(DIM)
    rng = np.random.default_rng(SEED)
    for _ in range(TRIES):
        f = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
        f = _polish(_descend(f / np.linalg.norm(f), ds), ds)
        if fiducial_deviation(f) < 1e-12:
            return f
    raise RuntimeError(f"no SIC fiducial in d={DIM} after {TRIES} seeded starts")


def main():
    f = find_fiducial()
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "kind": "fiducial",
                "dim": DIM,
                "amplitudes": [[float(z.real), float(z.imag)] for z in f],
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    print(f"wrote {OUT.name}: max overlap deviation {fiducial_deviation(f):.3e}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
