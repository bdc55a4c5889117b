"""The two benchmark workloads.

Each workload has three parts:

- ``generate(seed)``: benchmark-only work: seeded random arrays, data files
  read by the benchmark itself and reference values. Not part of set-up time.
- ``build(raw, workdir)``: the program's set-up: validated ``Povm`` and
  ``Ensemble`` objects, the d=4 orbit, input files written to disk.
- ``ops(ctx, seed, r)``: the operations of round ``r``, each a call into the
  program plus the check of its output. Every round has the same operations;
  only the optimizer and sampler seeds change from round to round.

Why these two: every layer is measured on one of them, and every planned
optimizer change (see-saw, batched kernel, chunked sampling) runs on
`solvers` and not at all on `io-cli`. See README.md for the table and for why
the optimizer paths share one workload.
"""

import contextlib
import io
import itertools
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from infopower import cli, infotheory, optimize, sic, states

import references as ref

HERE = Path(__file__).resolve().parent
FIDUCIAL_D4 = HERE / "fiducial_d4.json"

POWER_STARTS = {"tetrahedral": 12, "qutrit": 24}
POWER_REFS = {"tetrahedral": ref.POWER_QUBIT_SIC, "qutrit": ref.POWER_QUTRIT_SIC}
MINENT_STARTS = {"qutrit": 100, "d4": 200}
SCROOGE_DIM = 64
SCROOGE_SAMPLES = 100_000
SCROOGE_CALLS = 3
IO_DIMS = range(2, 9)
BOUNDS_DMAX = 100
PERTURBATION = 0.05


@dataclass
class Op:
    """One timed call into the program and the check of what it returned."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    samples: int = 0  # Haar samples the call draws
    dim: int = 0
    read_bytes: int = 0  # JSON bytes the call reads


def sub_seed(seed, *keys):
    """A 32-bit seed for one call, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def load_fiducial_d4():
    """The d=4 WH SIC fiducial kept beside the benchmark, checked on load."""
    with open(FIDUCIAL_D4, encoding="utf-8") as fh:
        data = json.load(fh)
    f = np.array([complex(re, im) for re, im in data["amplitudes"]])
    dev = ref.fiducial_deviation(f)
    if len(f) != 4 or not dev <= 1e-9:
        raise ref.CheckFailed(f"{FIDUCIAL_D4.name}: overlap deviation {dev:.3e} > 1e-9")
    return f


class Solvers:
    """The three optimizer paths, one after the other in every round:

    - the informational-power see-saw on the tetrahedral and the qutrit SIC
      POVMs (the slowest acceptance gate, criterion 3);
    - sphere descent with Born probabilities and entropy only, on the qutrit
      and the d=4 WH SICs (criteria 3 and 7): a see-saw rewrite must leave
      these calls unchanged, a batched kernel must move them;
    - the Monte-Carlo floor at d=64, the only array- and memory-bound calls
      and the only HaarSampler user: peak RSS is set here.
    """

    def generate(self, seed):
        load_fiducial_d4()
        return {}

    def build(self, raw, workdir):
        return {
            "tetrahedral": sic.tetrahedral_povm(),
            "qutrit": sic.qutrit_sic_povm(),
            "d4": sic.wh_covariant_povm(states.load_fiducial(str(FIDUCIAL_D4))),
        }

    def ops(self, ctx, seed, r):
        seeds = (sub_seed(seed, r, i) for i in itertools.count())
        out = []
        for name, starts in POWER_STARTS.items():
            povm, s = ctx[name], next(seeds)
            effects = np.array(povm.effects)
            value = POWER_REFS[name]
            out.append(
                Op(
                    f"power-{name}",
                    lambda povm=povm, starts=starts, s=s: optimize.informational_power_lower_bound(
                        povm, starts=starts, seed=s
                    ),
                    lambda rep, effects=effects, value=value: ref.check_power_report(
                        rep, effects, value
                    ),
                )
            )
        for name, starts in MINENT_STARTS.items():
            povm, s = ctx[name], next(seeds)
            effects = np.array(povm.effects)
            out.append(
                Op(
                    f"minent-{name}",
                    lambda povm=povm, starts=starts, s=s: optimize.min_output_entropy(
                        povm, starts=starts, seed=s
                    ),
                    lambda rep, effects=effects, d=povm.dim: ref.check_minent_report(
                        rep, effects, d
                    ),
                )
            )
        for i in range(SCROOGE_CALLS):
            out.append(
                Op(
                    f"scrooge-{i}",
                    lambda s=next(seeds): optimize.scrooge_lower_bound_estimate(
                        SCROOGE_DIM, SCROOGE_SAMPLES, seed=s
                    ),
                    lambda value: ref.check_scrooge(value, SCROOGE_DIM),
                    samples=SCROOGE_SAMPLES,
                    dim=SCROOGE_DIM,
                )
            )
        return out


def _random_pair(rng, d):
    """Raw matrices of a random d^2-state ensemble with a full-rank average
    state and of a random d^2-outcome rank-one POVM."""
    n = d * d
    while True:
        z = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        psis = z / np.linalg.norm(z, axis=1, keepdims=True)
        weights = rng.dirichlet(np.ones(n))
        ens = weights[:, None, None] * np.einsum("xi,xj->xij", psis, psis.conj())
        if np.min(np.linalg.eigvalsh(ens.sum(axis=0))) > 1e-3:
            break
    z = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    vals, vecs = np.linalg.eigh(z.T @ z.conj())
    rotated = z @ ((vecs / np.sqrt(vals)) @ vecs.conj().T).T
    povm = np.einsum("yi,yj->yij", rotated, rotated.conj())
    return ens, povm


class IoCli:
    """In-process CLI calls on seeded JSON files, plus the pretty-good duality
    identity through the library. No optimizer code runs here.

    The CLI writes to stdout, captured in memory: output files rewritten in
    every round made the run wait on the disk, which is shared with the host.
    """

    def generate(self, seed):
        rng = np.random.default_rng(sub_seed(seed, 0))
        pairs = {}
        for d in IO_DIMS:
            ens, povm = _random_pair(rng, d)
            pairs[d] = (ens, povm, ref.mutual_information(ref.born_matrix(ens, povm)))
        fiducials = {}
        for d, f in (
            (2, ref.qubit_sic_fiducial()),
            (3, ref.qutrit_sic_fiducial()),
            (4, load_fiducial_d4()),
        ):
            z = rng.normal(size=d) + 1j * rng.normal(size=d)
            bent = f + PERTURBATION * z / np.linalg.norm(z)
            bent /= np.linalg.norm(bent)
            # expected verdicts, decided from the overlaps alone
            for name, g in ((f"sic{d}", f), (f"bent{d}", bent)):
                dev = ref.fiducial_deviation(g)
                fiducials[name] = (g, 0 if dev <= 1e-9 else 1 if dev > 1e-6 else None)
            if fiducials[f"sic{d}"][1] != 0 or fiducials[f"bent{d}"][1] != 1:
                raise ref.CheckFailed(f"d={d}: fiducial and perturbed copy not told apart")
        return {"pairs": pairs, "fiducials": fiducials}

    def build(self, raw, workdir):
        ctx = {"raw": raw, "pairs": {}, "sic_files": {}}
        for d, (ens, povm, _) in raw["pairs"].items():
            e, p = states.Ensemble(list(ens)), states.Povm(list(povm))
            ens_path = os.path.join(workdir, f"ensemble_d{d}.json")
            povm_path = os.path.join(workdir, f"povm_d{d}.json")
            states.save(e, ens_path)
            states.save(p, povm_path)
            ctx["pairs"][d] = (e, p, ens_path, povm_path)
        for name, (f, _) in raw["fiducials"].items():
            path = os.path.join(workdir, f"{name}.json")
            states.save(sic.wh_covariant_povm(f), path)
            ctx["sic_files"][name] = path
        return ctx

    def ops(self, ctx, seed, r):
        raw = ctx["raw"]
        out = []
        for d, (e, p, ens_path, povm_path) in ctx["pairs"].items():
            reference = raw["pairs"][d][2]
            out.append(
                Op(
                    f"mutinfo-d{d}",
                    lambda a=["mutinfo", ens_path, povm_path, "--format", "json"]: run_cli(a),
                    lambda res, d=d, reference=reference: _check_mutinfo(res, reference, d),
                    read_bytes=os.path.getsize(ens_path) + os.path.getsize(povm_path),
                )
            )
            out.append(
                Op(
                    f"duality-d{d}",
                    lambda e=e, p=p: _duality(e, p),
                    lambda pair, reference=reference: ref.check_duality(*pair, reference),
                )
            )
        for name, path in ctx["sic_files"].items():
            expected = raw["fiducials"][name][1]
            out.append(
                Op(
                    f"verify-{name}",
                    lambda a=["verify-sic", path]: run_cli(a),
                    lambda res, name=name, expected=expected: ref.check_exit_code(
                        f"verify-sic {name}", res.code, expected
                    ),
                    read_bytes=os.path.getsize(path),
                )
            )
        out.append(
            Op(
                "bounds",
                lambda a=["bounds", "--dmax", str(BOUNDS_DMAX), "--format", "json"]: run_cli(a),
                _check_bounds,
            )
        )
        return out


@dataclass
class CliRun:
    code: int
    stdout: str


def run_cli(argv):
    """cli.main in this process, its stdout kept in memory as a caller's pipe would."""
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = cli.main(argv)
    return CliRun(code, buf.getvalue())


def _duality(e, p):
    """I(E, P) and I(pretty-good ensemble of P, pretty-good POVM of E)."""
    rho = states.average_state(e)
    direct = infotheory.mutual_information(infotheory.joint_distribution(e, p))
    dual = infotheory.mutual_information(
        infotheory.joint_distribution(
            states.pretty_good_ensemble(p, rho), states.pretty_good_povm(e)
        )
    )
    return direct, dual


def _check_mutinfo(res, reference, d):
    ref.check_exit_code(f"mutinfo d={d}", res.code, 0)
    ref.check_mutinfo(json.loads(res.stdout), reference, d)


def _check_bounds(res):
    ref.check_exit_code("bounds", res.code, 0)
    ref.check_bounds_rows(json.loads(res.stdout), BOUNDS_DMAX)


WORKLOADS = {"solvers": Solvers(), "io-cli": IoCli()}


def setup(name, seed, workdir):
    """Generate, then build; returns (ctx, seconds spent in build).

    Generation is benchmark-only work and is kept out of the returned time.
    """
    workload = WORKLOADS[name]
    raw = workload.generate(seed)
    t0 = time.perf_counter()
    ctx = workload.build(raw, workdir)
    return ctx, time.perf_counter() - t0

