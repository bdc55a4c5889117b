"""Haar sampling and multi-start optimization over pure states.

The state searches take one kind of step (_sphere_step) on a unit sphere or
a product of them: Euclidean gradient projected onto the tangent spaces,
normalization retraction, backtracking (Armijo) line search. A search does
not restart at length 1: each step first tries the Barzilai-Borwein length
of the block's last move (Barzilai-Borwein 1988; Iannazzo-Porcelli 2018 for
the Riemannian form). The informational-power search alternates a
multiplicative prior reweighting with one such step on all states of each
ensemble, see-saw style. A multi-start search runs all of its starts at
once as one stack of states.
Every routine is deterministic for a fixed seed; each start owns a private
PRNG stream derived from (seed, start index).
"""

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import InvalidDimension, InvalidInput
from .infotheory import _born, _entropy_bits
from .states import Povm

CONV_TOL = 1e-10
GRAD_TOL = 1e-8
MAX_ITER = 200
_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5
_ARMIJO_BATCH = 4  # step lengths tried per line-search evaluation
_ARMIJO_SCALES = _ARMIJO_SHRINK ** np.arange(_ARMIJO_BATCH)
_REWEIGHT_SWEEPS = 60  # prior-reweighting sweeps per see-saw iteration
_DIVERGENCE_RESTARTS = 3  # descents per first-order-optimality check
_AUGMENT_CAP = 20  # most violating states injected into one start
_MIN_STEP = 1e-16
_LOG_FLOOR = 1e-18
_SAMPLE_CHUNK = 8192  # Haar samples drawn and reduced at once

RNG_ALGORITHM = "pcg64"


class HaarSampler:
    """Deterministic stream of Haar-uniform pure states in a fixed dimension."""

    def __init__(self, dim: int, seed: int):
        if dim < 1:
            raise InvalidDimension(f"dimension {dim} < 1")
        self.dim = dim
        self.seed = seed
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def state(self) -> np.ndarray:
        """One normalized vector of independent standard complex Gaussians."""
        return self.states(1)[0]

    def states(self, n: int) -> np.ndarray:
        """n x dim array of independent Haar samples."""
        return _haar_from_rng(self._rng, self.dim, n)


@dataclass
class OptimizationReport:
    """Outcome of a multi-start search, with enough metadata to reproduce it."""

    best_value: float
    best_states: list  # (weight, amplitude vector) pairs
    starts: int
    converged_starts: int
    iterations_per_start: list
    values_per_start: list
    seed: int
    tolerance_used: float
    rng_algorithm: str = RNG_ALGORITHM
    any_zero_weight: bool = False

    def to_json_dict(self) -> dict:
        out = dict(vars(self))
        out["best_states"] = [
            {"weight": w, "amplitudes": [[z.real, z.imag] for z in v]}
            for w, v in self.best_states
        ]
        return out


def _start_rngs(seed: int, starts: int):
    return [
        np.random.Generator(np.random.PCG64(child))
        for child in np.random.SeedSequence(seed).spawn(starts)
    ]


def _check_run(starts: int, seed: int) -> None:
    if starts < 1:
        raise InvalidInput("starts must be >= 1")
    if seed < 0:
        raise InvalidInput(f"seed must be >= 0, got {seed}")


def _haar_from_rng(rng, dim: int, n: int = 1) -> np.ndarray:
    """n x dim Haar states: real then imaginary Gaussian parts, row-normalized."""
    z = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


# Kernels on stacked pure states: every function maps the trailing axis and
# broadcasts over the leading ones, so a call serves one state or all starts.


def _effect_gradient(coef: np.ndarray, effects: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """Euclidean gradient 2 sum_y coef_y E_y psi of sum_y f(q_y), coef = f'(q)."""
    return 2.0 * np.einsum("...y,yij,...j->...i", coef, effects, psis)


def _entropy_coef(q: np.ndarray) -> np.ndarray:
    """Derivative of the outcome entropy in bits with respect to each q_y."""
    return -(np.log2(np.maximum(q, _LOG_FLOOR)) + 1.0 / np.log(2))


def _information_coef(weights: np.ndarray, cond: np.ndarray) -> np.ndarray:
    """Derivative w_x log2(p(y|x) / q(y)) of I(X;Y) in bits with respect to
    each p(y|x): (..., m), (..., m, n) -> (..., m, n)."""
    q = np.maximum(_outcome_marginal(weights, cond), _LOG_FLOOR)
    return weights[..., None] * np.log2(np.maximum(cond, _LOG_FLOOR) / q[..., None, :])


# Row products go through matmul, which runs the same BLAS dot and gemv
# kernels per row as np.vdot, np.linalg.norm and `@` run on a single state,
# so a start in the stack rounds exactly as a start searched on its own
# with those calls. einsum or a ufunc sum differ in the last bit, and that
# is enough to send a few starts of the see-saw to another optimum.


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a_i b_i of every row: (..., d), (..., d) -> (...)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _outcome_marginal(weights: np.ndarray, cond: np.ndarray) -> np.ndarray:
    """Outcome distribution sum_x w_x p(y|x): (..., m), (..., m, n) -> (..., n)."""
    return (weights[..., None, :] @ cond)[..., 0, :]


def _project_tangent(psi: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g - _row_dot(psi.conj(), g).real[..., None] * psi


def _norm(psi: np.ndarray) -> np.ndarray:
    return np.sqrt(_row_dot(psi.real, psi.real) + _row_dot(psi.imag, psi.imag))


def _normalize(psi: np.ndarray) -> np.ndarray:
    return psi / _norm(psi)[..., None]


def output_entropy_gradient(p: Povm, psi) -> np.ndarray:
    """Riemannian gradient of the outcome entropy at a pure state."""
    psi = hilbert.check_state_vector(psi)
    effects = p.stack()
    g = _effect_gradient(_entropy_coef(_born(effects, psi)), effects, psi)
    return _project_tangent(psi, g)


def _armijo(objective, psi, g, gnorm, value, aux, step):
    """Armijo backtracking line search along -g from every block of psi (k, ..., d).

    A block is one state or several (..., d) moved together, each state
    retracted to its sphere. The step of a block starts at its first trial
    length step (k,) and is halved until the trial lowers the value by at
    least _ARMIJO_C * step * gnorm^2, or the step falls to _MIN_STEP; blocks
    whose gnorm is below GRAD_TOL do not search. Every searching block tries
    _ARMIJO_BATCH successive step lengths in one call objective(states
    (t, ..., d), rows (t,)) -> (values (t,), aux (t, ...)), rows naming the
    block of psi each trial belongs to, and takes the first that passes. The
    lengths are the first length times exact powers of two, so a block
    accepts the same step, state and value as a search trying one length per
    call. psi, value and aux are updated in place on the blocks that move.
    Returns the accepted step of every block, 0 where the search failed.
    """
    step = np.array(step, dtype=float)
    accepted = np.zeros(len(psi))
    slope = gnorm**2
    search = np.flatnonzero(~(gnorm < GRAD_TOL))
    block = (1,) * (psi.ndim - 1)
    while search.size:
        s = step[search, None] * _ARMIJO_SCALES
        trial = _normalize(psi[search, None] - s.reshape(s.shape + block) * g[search, None])
        trial = trial.reshape((-1,) + psi.shape[1:])
        trial_value, trial_aux = objective(trial, np.repeat(search, _ARMIJO_BATCH))
        ok = (s > _MIN_STEP) & (
            trial_value.reshape(s.shape) <= value[search, None] - _ARMIJO_C * s * slope[search, None]
        )
        first = np.argmax(ok, axis=1)
        hit = ok[np.arange(len(search)), first]
        pick = np.flatnonzero(hit) * _ARMIJO_BATCH + first[hit]
        row = search[hit]
        accepted[row] = s.ravel()[pick]
        psi[row], value[row], aux[row] = trial[pick], trial_value[pick], trial_aux[pick]
        search = search[~hit]
        step[search] *= _ARMIJO_SHRINK**_ARMIJO_BATCH
        search = search[step[search] > _MIN_STEP]
    return accepted


def _bb_length(s, y):
    """Barzilai-Borwein length <s,s>/<s,y> of every block (k, ..., d), with
    s the block's last move and y the change of its tangent gradient; the
    real inner products run over the whole block. 1 where <s,y> <= 0 or the
    ratio is not finite, as at s = 0."""
    s, y = s.reshape(len(s), -1), y.reshape(len(y), -1)
    ss = _row_dot(s.real, s.real) + _row_dot(s.imag, s.imag)
    sy = _row_dot(s.real, y.real) + _row_dot(s.imag, y.imag)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        length = ss / sy
    return np.where((sy > 0) & np.isfinite(length), length, 1.0)


def _sphere_step(objective, psi, g, value, aux, step):
    """One steepest-descent step from every block of psi (k, ..., d) along its
    tangent gradient g, first trying the length step (k,): _armijo with the
    block's gradient norm. Returns the accepted steps (0: no move)."""
    return _armijo(objective, psi, g, _norm(g.reshape(len(g), -1)), value, aux, step)


def _riemannian_descent(objective, gradient, psi, trace=None):
    """Minimize objective over the unit sphere from every row of psi (R, d).

    objective(states, rows) -> (values (k,), aux (k, ...)) and
    gradient(states, rows, aux) -> (k, d) are evaluated on the states (k, d)
    of the rows listed in rows, so a row may carry its own parameters; aux is
    what the objective computed at those states (e.g. Born probabilities),
    handed to the gradient so it need not compute it again. Each row takes
    its own steps (_sphere_step), first trying the Barzilai-Borwein length
    of its last move (1 on its first step), and stops on its own test.
    Returns (states, values, iterations, converged), one entry per row. If
    trace is a list, the values of all rows are appended to it initially and
    after every step; a stopped row repeats its final value.
    """
    psi = np.array(psi, dtype=complex)
    live = np.arange(len(psi))
    value, aux = objective(psi, live)
    iterations = np.full(len(psi), MAX_ITER)
    converged = np.zeros(len(psi), dtype=bool)
    # each row's previous state and tangent gradient; s = 0 gives length 1
    prev_psi, prev_g = psi.copy(), np.zeros_like(psi)
    if trace is not None:
        trace.append(value.copy())
    for it in range(1, MAX_ITER + 1):
        base, start_value, base_aux = psi[live], value[live], aux[live]
        g = _project_tangent(base, gradient(base, live, base_aux))
        step = _bb_length(base - prev_psi[live], g - prev_g[live])
        prev_psi[live], prev_g[live], new_value = base, g, start_value.copy()
        moved = _sphere_step(
            lambda states, i: objective(states, live[i]), base, g, new_value, base_aux, step
        ) > 0
        psi[live], value[live], aux[live] = base, new_value, base_aux
        if trace is not None:
            trace.append(value.copy())
        # a flat gradient or a failed line search ends a row before this step
        iterations[live[~moved]] = it - 1
        small = moved & (start_value - new_value < CONV_TOL)
        iterations[live[small]] = it
        converged[live[~moved | small]] = True
        live = live[moved & ~small]
        if not live.size:
            break
    return psi, value, iterations, converged


def min_output_entropy(p: Povm, starts: int = 100, seed: int = 0) -> OptimizationReport:
    """Multi-start minimization of the outcome entropy H(Y|X=x) over pure states.

    All starts descend together as one stack, each from a Haar state drawn
    from its own stream.
    """
    _check_run(starts, seed)
    effects = p.stack()

    def objective(psi, rows):
        q = _born(effects, psi)
        return _entropy_bits(q), q

    def gradient(psi, rows, q):
        return _effect_gradient(_entropy_coef(q), effects, psi)

    rngs = _start_rngs(seed, starts)
    psi0 = np.concatenate([_haar_from_rng(rng, p.dim) for rng in rngs])
    psis, values, iterations, converged = _riemannian_descent(objective, gradient, psi0)
    best = int(np.argmin(values))
    return OptimizationReport(
        best_value=float(values[best]),
        best_states=[(1.0, psis[best])],
        starts=starts,
        converged_starts=int(converged.sum()),
        iterations_per_start=iterations.tolist(),
        values_per_start=values.tolist(),
        seed=seed,
        tolerance_used=CONV_TOL,
    )


def _mutual_information_bits(weights: np.ndarray, cond: np.ndarray) -> np.ndarray:
    """I(X;Y) in bits of every stacked prior (..., m) and conditional matrix (..., m, n)."""
    joint = weights[..., None] * cond
    q = joint.sum(axis=-2)
    mask = joint > _LOG_FLOOR
    ratio = np.where(mask, cond / np.maximum(q[..., None, :], _LOG_FLOOR), 1.0)
    return np.sum(np.where(mask, joint * np.log2(ratio), 0.0), axis=(-2, -1))


def _reweight_prior(weights: np.ndarray, cond: np.ndarray) -> np.ndarray:
    """Multiplicative capacity-style update of every row's prior.

    Each sweep multiplies every weight by exp of the divergence of its
    conditional from the current outcome marginal. A row freezes once its
    largest change falls below CONV_TOL; all rows stop at _REWEIGHT_SWEEPS, since
    the surrounding see-saw reinvokes this every outer iteration.
    """
    w = weights.copy()
    logc = np.where(cond > _LOG_FLOOR, np.log(np.maximum(cond, _LOG_FLOOR)), 0.0)
    c_logc = np.einsum("...xy,...xy->...x", cond, logc)
    rows, wr = np.arange(len(w)), w
    for _ in range(_REWEIGHT_SWEEPS):
        log_q = np.log(np.maximum(_outcome_marginal(wr, cond), _LOG_FLOOR))
        kl = c_logc - (cond @ log_q[..., None])[..., 0]
        new = wr * np.exp(kl)
        new /= new.sum(axis=-1, keepdims=True)
        moving = ~(np.max(np.abs(new - wr), axis=-1) < CONV_TOL)
        wr = new
        if not moving.all():
            w[rows[~moving]] = new[~moving]
            rows, wr, cond, c_logc = rows[moving], new[moving], cond[moving], c_logc[moving]
            if not rows.size:
                break
    w[rows] = wr
    return w


def _is_trivial_povm(p: Povm) -> bool:
    return all(
        np.max(np.abs(eff - np.trace(eff).real / p.dim * np.eye(p.dim))) < 1e-12
        for eff in p.effects
    )


def informational_power_lower_bound(
    p: Povm, starts: int = 100, seed: int = 0
) -> OptimizationReport:
    """Certified lower bound on the informational power of a POVM.

    See-saw over ensembles of d^2 pure states, the most an optimal ensemble
    needs: alternate a multiplicative prior reweighting with one Riemannian
    ascent step of the mutual information, taken on all d^2 states of an
    ensemble as one block, multi-started over Haar seeds. All starts advance
    together as one stack; a start leaves it when it converges, when it
    stalls at a violating state with no augmentation left (not converged),
    or at MAX_ITER. The returned best_value is the mutual information of the
    reported ensemble, recomputed from the final states and weights.
    """
    _check_run(starts, seed)
    d = p.dim
    m = d * d
    effects = p.stack()

    if _is_trivial_povm(p):
        # every effect proportional to the identity: no state carries information
        e0 = np.zeros(d, dtype=complex)
        e0[0] = 1.0
        return OptimizationReport(
            best_value=0.0,
            best_states=[(1.0, e0)],
            starts=starts,
            converged_starts=starts,
            iterations_per_start=[0] * starts,
            values_per_start=[0.0] * starts,
            seed=seed,
            tolerance_used=CONV_TOL,
        )

    rngs = _start_rngs(seed, starts)
    # the live starts' states (k, m, d), priors (k, m) and conditionals (k, m, n)
    psis = np.stack([_haar_from_rng(rng, d, m) for rng in rngs])
    weights = np.full((starts, m), 1.0 / m)
    cond = _born(effects, psis)
    value = _mutual_information_bits(weights, cond)
    augmentations = np.zeros(starts, dtype=int)
    live = np.arange(starts)
    # each live start's previous states and tangent gradient; s = 0 gives length 1
    prev_psis, prev_g = psis.copy(), np.zeros_like(psis)

    final_psis, final_weights = psis.copy(), weights.copy()
    values = np.zeros(starts)
    iterations = np.full(starts, MAX_ITER)
    converged = np.zeros(starts, dtype=bool)

    def neg_information(states, rows):
        # the ascent of I descends -I, which accepts exactly the steps an
        # ascent test would; the priors are the live starts' current ones
        q = _born(effects, states)
        return -_mutual_information_bits(weights[rows], q), q

    for outer in range(1, MAX_ITER + 1):
        weights = _reweight_prior(weights, cond)
        neg_value = -_mutual_information_bits(weights, cond)
        grad = _effect_gradient(-_information_coef(weights, cond), effects, psis)
        g = _project_tangent(psis, grad)
        step = _bb_length(psis - prev_psis, g - prev_g)
        prev_psis, prev_g = psis.copy(), g
        _sphere_step(neg_information, psis, g, neg_value, cond, step)
        new_value = -neg_value
        stalled = new_value - value < CONV_TOL
        value = np.where(stalled, np.maximum(new_value, value), new_value)
        # done: the start stops here; optimal: no violating state was found
        done = np.zeros(len(live), dtype=bool)
        optimal = np.zeros(len(live), dtype=bool)
        st = np.flatnonzero(stalled)
        if st.size:
            # first-order optimality: every pure state must satisfy
            # D(q_phi || q_bar) <= I; inject any violating state found
            phi, divergence = _best_divergent_state(
                effects,
                _outcome_marginal(weights[st], cond[st]),
                [rngs[s] for s in live[st]],
                d,
            )
            violated = divergence > value[st] + 10 * CONV_TOL
            inject = violated & (augmentations[st] < _AUGMENT_CAP)
            done[st[~inject]] = True
            optimal[st[~violated]] = True
            inj = st[inject]
            if inj.size:
                augmentations[inj] += 1
                x = np.argmin(weights[inj], axis=1)
                psis[inj, x] = phi[inject]
                weights[inj, x] = np.maximum(weights[inj, x], 0.05)
                weights[inj] /= weights[inj].sum(axis=1, keepdims=True)
                cond[inj] = _born(effects, psis[inj])
                value[inj] = _mutual_information_bits(weights[inj], cond[inj])
                # the ensemble changed under the start: its next step tries 1
                prev_psis[inj] = psis[inj]
        ended = live[done]
        iterations[ended], converged[ended], values[ended] = outer, optimal[done], value[done]
        final_psis[ended], final_weights[ended] = psis[done], weights[done]
        keep = ~done
        live, psis, weights, cond = live[keep], psis[keep], weights[keep], cond[keep]
        value, augmentations = value[keep], augmentations[keep]
        prev_psis, prev_g = prev_psis[keep], prev_g[keep]
        if not live.size:
            break
    final_psis[live], final_weights[live], values[live] = psis, weights, value

    best = int(np.argmax(values))
    best_weights = final_weights[best]
    return OptimizationReport(
        best_value=float(values[best]),
        best_states=list(zip(best_weights.tolist(), final_psis[best])),
        starts=starts,
        converged_starts=int(converged.sum()),
        iterations_per_start=iterations.tolist(),
        values_per_start=values.tolist(),
        seed=seed,
        tolerance_used=CONV_TOL,
        any_zero_weight=bool(np.any(best_weights < _LOG_FLOOR)),
    )


def _best_divergent_state(effects, q_bar, rngs, dim):
    """For every row of the outcome marginals q_bar (k, n), the pure state
    maximizing the divergence of its outcome distribution from that row,
    found by sphere descent from _DIVERGENCE_RESTARTS Haar states drawn from
    the row's stream in rngs. Returns the states (k, d) and divergences (k,)."""
    restarts = _DIVERGENCE_RESTARTS
    q_bar = np.repeat(np.maximum(q_bar, _LOG_FLOOR), restarts, axis=0)

    def objective(phi, rows):
        q = _born(effects, phi)
        mask = q > _LOG_FLOOR
        log_ratio = np.log2(np.maximum(q, _LOG_FLOOR) / q_bar[rows])
        return -np.sum(np.where(mask, q * log_ratio, 0.0), axis=-1), q

    def gradient(phi, rows, q):
        coef = np.log2(np.maximum(q, _LOG_FLOOR) / q_bar[rows])
        return _effect_gradient(-(coef + 1.0 / np.log(2)), effects, phi)

    phi0 = np.concatenate([_haar_from_rng(rng, dim) for rng in rngs for _ in range(restarts)])
    phi, neg_div, _, _ = _riemannian_descent(objective, gradient, phi0)
    divergence = -neg_div.reshape(-1, restarts)
    best = np.argmax(divergence, axis=1)
    rows = np.arange(len(best))
    return phi.reshape(-1, restarts, dim)[rows, best], divergence[rows, best]


def scrooge_lower_bound_estimate(d: int, samples: int, seed: int = 0) -> float:
    """Monte-Carlo estimate of the uniform-measurement information floor.

    Measures an ensemble of `samples` Haar states with the computational
    basis; the mutual information converges to
    log2(d) - (1/ln 2) sum_{n=2}^d 1/n as the sample count grows. Samples
    are drawn and reduced _SAMPLE_CHUNK at a time, so memory stays bounded
    whatever the sample count.
    """
    if d < 2:
        raise InvalidDimension(f"dimension {d} < 2")
    if samples < d * d:
        raise InvalidDimension(f"need at least d^2 = {d * d} samples")
    if seed < 0:
        raise InvalidInput(f"seed must be >= 0, got {seed}")
    # HaarSampler's stream, real then imaginary parts of each chunk; only
    # the squared moduli are needed, so no complex state is built
    rng = np.random.Generator(np.random.PCG64(seed))
    q_sum = np.zeros(d)
    entropy_sum = 0.0
    for done in range(0, samples, _SAMPLE_CHUNK):
        shape = (min(_SAMPLE_CHUNK, samples - done), d)
        q = rng.normal(size=shape) ** 2 + rng.normal(size=shape) ** 2
        q /= q.sum(axis=1, keepdims=True)
        q_sum += q.sum(axis=0)
        entropy_sum += float(_entropy_bits(q).sum())
    value = float(_entropy_bits(q_sum / samples)) - entropy_sum / samples
    return max(value, 0.0)


def uniform_povm_approximant(d: int, n: int, seed: int = 0) -> Povm:
    """Finite n-outcome stand-in for the Haar-uniform continuous POVM.

    Draws n Haar states, forms S = sum |psi><psi|, and returns the effects
    S^{-1/2}|psi><psi|S^{-1/2}; the orbit sums to the identity exactly.
    """
    if n < d:
        raise InvalidDimension(f"need at least d = {d} outcomes")
    sampler = HaarSampler(d, seed)
    psis = sampler.states(n)
    s = psis.T @ psis.conj()
    balance = hilbert.op_inv_sqrt(s)
    rotated = psis @ balance.T
    return Povm([np.outer(v, v.conj()) for v in rotated])
