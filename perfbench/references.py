"""Reference values computed apart from infopower, from closed forms and raw
numpy arrays, and the checks that compare the program's outputs with them.

Nothing here imports infopower: a fault in the program cannot reach the
values it is checked against.
"""

import math

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program disagrees with its reference."""


# ---------------------------------------------------------------------------
# Closed forms (bits)

POWER_QUBIT_SIC = math.log2(4 / 3)  # informational power of the tetrahedral POVM
POWER_QUTRIT_SIC = math.log2(3 / 2)  # informational power of the qutrit SIC POVM
MINENT_QUTRIT_SIC = math.log2(6)  # minimal outcome entropy, qutrit SIC
MINENT_D4_SIC = 3.433  # minimal outcome entropy, d=4 WH SIC (paper value)
MINENT_D4_TOL = 0.005
MINENT_D4_FLOOR = math.log2(10)


def holevo(d):
    return math.log2(d)


def scrooge_floor(d):
    """log2 d - (1/ln 2) sum_{n=2}^d 1/n."""
    return math.log2(d) - math.fsum(1.0 / n for n in range(2, d + 1)) / math.log(2)


def sic_upper(d):
    return math.log2(2 * d / (d + 1))


def rastegin_floor(d):
    """log2(d(d+1)/2), the outcome-entropy floor of a SIC measurement."""
    return math.log2(d * (d + 1) / 2)


def pg_sic(d):
    """I(X;Y) of a SIC ensemble measured by its pretty-good POVM: uniform
    marginals on d^2 letters, joint 1/d^3 on the diagonal and 1/(d^3(d+1))
    off it."""
    n = d * d
    p_diag, p_off = 1.0 / d**3, 1.0 / (d**3 * (d + 1))
    h_joint = -(n * p_diag * math.log2(p_diag) + n * (n - 1) * p_off * math.log2(p_off))
    return 2 * math.log2(n) - h_joint


# ---------------------------------------------------------------------------
# Raw-array computations


def born_matrix(states, effects):
    """probs[x, y] = Tr[rho_x Pi_y] for stacks of density matrices and effects."""
    states = np.asarray(states, dtype=complex)
    effects = np.asarray(effects, dtype=complex)
    # Tr[A B] = sum_ij A_ij B_ji
    return np.tensordot(states, np.swapaxes(effects, 1, 2), axes=([1, 2], [1, 2])).real


def pure_born_matrix(amplitudes, effects):
    """probs[x, y] = <psi_x|Pi_y|psi_x> for rows of state amplitudes."""
    psi = np.asarray(amplitudes, dtype=complex)
    effects = np.asarray(effects, dtype=complex)
    return np.real(np.einsum("xi,yij,xj->xy", psi.conj(), effects, psi))


def mutual_information(joint):
    """I(X;Y) in bits of a joint probability matrix, sum p log2(p / (px py))."""
    p = np.clip(np.asarray(joint, dtype=float), 0.0, None)
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    nz = p > 1e-300
    return float(np.sum(p[nz] * np.log2(p[nz] / (px * py)[nz])))


def entropy(dist):
    q = np.asarray(dist, dtype=float)
    q = q[q > 1e-300]
    return float(-np.sum(q * np.log2(q)))


def wh_displacements(d):
    """The d^2 - 1 non-trivial displacement operators X^j Z^k."""
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return np.stack(
        [
            np.linalg.matrix_power(shift, j) @ np.linalg.matrix_power(clock, k)
            for j in range(d)
            for k in range(d)
            if (j, k) != (0, 0)
        ]
    )


def fiducial_deviation(f):
    """Largest deviation of |<f|X^j Z^k|f>|^2 from 1/(d+1) over (j,k) != 0."""
    f = np.asarray(f, dtype=complex)
    d = len(f)
    ov = np.abs(np.einsum("i,nij,j->n", f.conj(), wh_displacements(d), f)) ** 2
    return float(np.max(np.abs(ov - 1.0 / (d + 1))))


def qubit_sic_fiducial():
    a = math.sqrt((3 + math.sqrt(3)) / 6)
    b = math.sqrt((3 - math.sqrt(3)) / 6)
    return np.array([a, np.exp(1j * np.pi / 4) * b])


def qutrit_sic_fiducial():
    return np.array([0.0, 1.0, -1.0], dtype=complex) / math.sqrt(2)


# ---------------------------------------------------------------------------
# Checks: each raises CheckFailed on a wrong output


def _expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def check_close(name, value, reference, tol):
    _expect(
        abs(value - reference) <= tol,
        f"{name}: {value!r} differs from reference {reference!r} by more than {tol}",
    )


def check_power_report(report, effects, reference):
    """An informational-power report on a SIC POVM whose power is known."""
    check_close("power best_value", report.best_value, reference, 1e-6)
    top = max(report.values_per_start)
    _expect(top <= reference + 1e-9, f"power start value {top!r} exceeds {reference!r}")
    weights = np.array([w for w, _ in report.best_states])
    psis = np.array([v for _, v in report.best_states])
    joint = weights[:, None] * pure_born_matrix(psis, effects)
    check_close("power ensemble I(X;Y)", mutual_information(joint), report.best_value, 1e-9)


def check_minent_report(report, effects, d):
    """A minimal-outcome-entropy report on a SIC POVM in dimension d = 3 or 4."""
    if d == 3:
        check_close("minent d=3 best_value", report.best_value, MINENT_QUTRIT_SIC, 1e-6)
    else:
        check_close("minent d=4 best_value", report.best_value, MINENT_D4_SIC, MINENT_D4_TOL)
        _expect(report.best_value > MINENT_D4_FLOOR, "minent d=4 best_value not above log2 10")
    low = min(report.values_per_start)
    _expect(low >= rastegin_floor(d) - 1e-8, f"minent start value {low!r} below the Rastegin floor")
    (_, psi), = report.best_states
    q = pure_born_matrix(psi[None, :], effects)[0]
    check_close("minent best-state entropy", entropy(q), report.best_value, 1e-9)


def check_scrooge(value, d):
    check_close(f"scrooge estimate d={d}", value, scrooge_floor(d), 0.01)


def check_mutinfo(report, reference, d):
    check_close(f"mutinfo I d={d}", report["I"], reference, 1e-9)
    _expect(0.0 <= report["I"] <= math.log2(d) + 1e-12, f"mutinfo I outside [0, log2 {d}]")


def check_duality(direct, dual, reference):
    check_close("duality I(E,P)", direct, reference, 1e-9)
    check_close("duality identity", dual, direct, 1e-8)


def check_exit_code(name, code, expected):
    _expect(code == expected, f"{name}: exit code {code}, expected {expected}")


def check_bounds_rows(rows, dmax):
    _expect(len(rows) == dmax - 1, f"bounds: {len(rows)} rows, expected {dmax - 1}")
    for d, row in zip(range(2, dmax + 1), rows):
        _expect(row["dim"] == d, f"bounds: row dim {row['dim']} where {d} was due")
        for key, ref in (
            ("holevo", holevo(d)),
            ("sic_upper", sic_upper(d)),
            ("scrooge_lower", scrooge_floor(d)),
            ("rastegin_cond", rastegin_floor(d)),
            ("pg_sic_value", pg_sic(d)),
        ):
            check_close(f"bounds d={d} {key}", row[key], ref, 1e-12)
        _expect(
            row["scrooge_lower"] < row["sic_upper"] < row["holevo"],
            f"bounds d={d}: not scrooge < sic_upper < holevo",
        )
