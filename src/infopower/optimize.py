"""Haar sampling and multi-start optimization over pure states.

Every search is an ascent of D(q || r) or I by one kind of step
(_sphere_step) on a unit sphere or a product of them: Euclidean gradient
projected onto the tangent spaces, normalization retraction, backtracking
(Armijo) line search. A search does not restart at length 1: each step
first tries the Barzilai-Borwein length of the block's last move
(Barzilai-Borwein 1988; Iannazzo-Porcelli 2018 for the Riemannian form).
One search (_divergence_search) maximizes D(Born(psi) || r)
(infotheory._divergence_bits) from Haar starts and keeps each r's best. It
serves the see-saw's first-order check, r its marginal q, and the minimal
outcome entropy, r = 1: H(q) = -D(q || 1), and only the entropy's own
functions (min_output_entropy, output_entropy_gradient) negate. The
see-saw reads I = sum_x w_x D(p(.|x) || q): it alternates a fixed number
of Blahut-Arimoto sweeps on the prior (w_x times 2^D) with one such step
on all states of each ensemble along w_x times the gradient of D. Every
_CHECK_EVERY iterations it checks first-order optimality, in one call, on
every start still running; a start with a violating state takes it and
goes on, up to MAX_ITER, and each start reports the best ensemble it
reached. A multi-start search runs all of its starts at once as one stack
of states: the ascent and the see-saw keep full per-start arrays (states,
values, Barzilai-Borwein memory), and each _sphere_step moves the rows
listed in `live`, the starts that have not stopped, in place on them.
Seeded runs repeat exactly: search starts read SeedSequence(seed).spawn
streams; the approximant and the Monte-Carlo floor read one PCG64(seed).
"""

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import InvalidInput
from .infotheory import _born, _check_count, _check_pure_state, _divergence_bits
from .infotheory import _effect_gradient, _entropy_bits, _nonnegative
from .states import Povm, _complex_to_pairs

CONV_TOL = 1e-10
GRAD_TOL = 1e-8
MAX_ITER = 200
_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5
_ARMIJO_BATCH = 4  # step lengths tried per line-search evaluation
_ARMIJO_SCALES = _ARMIJO_SHRINK ** np.arange(_ARMIJO_BATCH)
_REWEIGHT_SWEEPS = 60  # prior-reweighting sweeps per see-saw iteration
_DIVERGENCE_RESTARTS = 3  # ascents per first-order-optimality check
_CHECK_POOL = 64  # Haar draws screened by D for each check ascent's start
_CHECK_EVERY = 5  # see-saw iterations between first-order-optimality checks
_MIN_STEP = 1e-16
_LOG_FLOOR = 1e-18
_CHUNK_ENTRIES = 1 << 17  # exponential draws per Monte-Carlo chunk buffer: 1 MiB of float64
_MAX_STARTS = 10**5  # starts per search: each gets its own generator and states

RNG_ALGORITHM = "pcg64"


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
    rng_algorithm: str = RNG_ALGORITHM

    def to_json_dict(self) -> dict:
        out = dict(vars(self))
        out["best_states"] = [
            {"weight": w, "amplitudes": _complex_to_pairs(v)} for w, v in self.best_states
        ]
        return out


def _report(seed, values, iterations, converged, weights, states, best) -> OptimizationReport:
    """Report of a multi-start search from its per-start values, iterations
    and converged flags (starts,); weights (m,) and states (m, d) are the
    ensemble of start best. The states are copied: they may be rows of the
    whole start stack, which the report would otherwise keep alive."""
    return OptimizationReport(
        best_value=float(values[best]),
        best_states=list(zip(weights.tolist(), np.array(states))),
        starts=len(values),
        converged_starts=int(converged.sum()),
        iterations_per_start=iterations.tolist(),
        values_per_start=values.tolist(),
        seed=seed,
    )


def _check_starts(starts) -> int:
    """starts as an int from 1 to _MAX_STARTS, InvalidInput otherwise. Each
    search calls it first, before it makes any generator or state stack."""
    starts = _check_count(starts, 1, InvalidInput, "starts")
    if starts > _MAX_STARTS:
        raise InvalidInput(f"starts must be at most {_MAX_STARTS}, got {starts}")
    return starts


def _start_rngs(seed: int, starts: int):
    return [
        np.random.Generator(np.random.PCG64(child))
        for child in np.random.SeedSequence(seed).spawn(starts)
    ]


def _haar_from_rng(rng, dim: int, n: int = 1) -> np.ndarray:
    """n x dim Haar states: real then imaginary Gaussian parts, row-normalized."""
    z = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


# Kernels on stacked pure states: every function maps the trailing axis and
# broadcasts over the leading ones, so a call serves one state or all starts.
# The Born probabilities (infotheory._born) and their gradient
# (infotheory._effect_gradient) read the POVM through its factor K
# (Povm.factor), which the searches pass along: two matmuls of a state with
# K, O(n r d) per state.


def _divergence_coef(q: np.ndarray, r) -> np.ndarray:
    """Derivative log2(q / r) + 1/ln 2 of D(q || r) in bits with respect to
    each q_y, q floored at _LOG_FLOOR. Times w_x, with q = p(.|x) and r the
    outcome marginal, it is dI(X;Y)/dp(y|x) plus w_x/ln 2, whose gradient
    term is radial (the E_y sum to the identity) and projected away."""
    return np.log2(np.maximum(q, _LOG_FLOOR) / r) + 1.0 / np.log(2)


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
    """Riemannian gradient of the outcome entropy -D(q || 1) at a pure state."""
    psi = _check_pure_state(p, psi)
    coef = -_divergence_coef(_born(p.factor, psi), 1.0)
    return _project_tangent(psi, _effect_gradient(coef, p.factor, psi))


def _sphere_step(objective, psi, grad, value, aux, prev_psi, prev_g, rows):
    """One steepest-ascent step, by Armijo backtracking, from every block
    psi[rows] of the stack psi (R, ..., d) along the Euclidean gradient grad.
    Every search maximizes D(q || r) or I; of them only min_output_entropy negates.

    A block is one state or several (..., d) moved together, each state
    retracted to its sphere. grad is projected onto the tangent spaces (g),
    and the first trial length is the Barzilai-Borwein length of the block's
    last move, read from its previous state and tangent gradient in prev_psi
    and prev_g, which the step then sets to this one's (1 where prev_psi is
    the state). The length is halved until the trial raises the value by at
    least _ARMIJO_C * length * |g|^2, or falls to _MIN_STEP; blocks whose |g|
    is below GRAD_TOL do not search. Each searching block tries _ARMIJO_BATCH
    lengths, the first times exact powers of two, in one call
    objective(states (t, ..., d), rows (t,)) -> (values (t,), aux (t, ...)),
    rows naming each trial's stack row, and takes the first that passes: the
    step, state and value of a search trying one length per call. psi, value
    (R,) and aux (R, ...) are updated in place at the rows that move. Returns
    the accepted length per entry of rows, 0 where the search failed.
    """
    base = psi[rows]
    g = _project_tangent(base, grad)
    step = _bb_length(base - prev_psi[rows], prev_g[rows] - g)
    prev_psi[rows], prev_g[rows] = base, g
    accepted = np.zeros(len(psi))
    gnorm = _norm(g.reshape(len(g), -1))
    start, slope = value[rows], gnorm**2
    search = np.flatnonzero(~(gnorm < GRAD_TOL))
    block = (1,) * (base.ndim - 1)
    while search.size:
        s = step[search, None] * _ARMIJO_SCALES
        trial = _normalize(base[search, None] + s.reshape(s.shape + block) * g[search, None])
        trial = trial.reshape((-1,) + base.shape[1:])
        trial_value, trial_aux = objective(trial, np.repeat(rows[search], _ARMIJO_BATCH))
        ok = (s > _MIN_STEP) & (
            trial_value.reshape(s.shape) >= start[search, None] + _ARMIJO_C * s * slope[search, None]
        )
        first = np.argmax(ok, axis=1)
        hit = ok[np.arange(len(search)), first]
        pick = np.flatnonzero(hit) * _ARMIJO_BATCH + first[hit]
        row = rows[search[hit]]
        accepted[row] = s.ravel()[pick]
        psi[row], value[row], aux[row] = trial[pick], trial_value[pick], trial_aux[pick]
        search = search[~hit]
        step[search] *= _ARMIJO_SHRINK**_ARMIJO_BATCH
        search = search[step[search] > _MIN_STEP]
    return accepted[rows]


def _bb_length(s, y):
    """Barzilai-Borwein length <s,s>/<s,y> of every block (k, ..., d), with
    s the block's last move and y the previous tangent gradient minus the
    current one (so <s,y> > 0 on a concave block); the real inner products
    run over the whole block. 1 where <s,y> <= 0 or the ratio is not finite."""
    s, y = s.reshape(len(s), -1), y.reshape(len(y), -1)
    ss = _row_dot(s.real, s.real) + _row_dot(s.imag, s.imag)
    sy = _row_dot(s.real, y.real) + _row_dot(s.imag, y.imag)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        length = ss / sy
    return np.where((sy > 0) & np.isfinite(length), length, 1.0)


def _riemannian_ascent(objective, gradient, psi):
    """Maximize objective, D(q || r) in every search and negated only by
    min_output_entropy, over the unit sphere from every row of psi (R, d).

    objective(states, rows) -> (values (k,), aux (k, ...)) and the Euclidean
    gradient(states, rows, aux) -> (k, d) are evaluated on the states (k, d)
    of the stack rows listed in rows, so a row may carry its own parameters;
    aux is what the objective computed at those states (e.g. Born
    probabilities), handed to the gradient. The stack, its values and aux,
    and each row's previous state and tangent gradient are kept whole; each
    iteration is one _sphere_step on the rows still running (live), and a
    row stops on its own test. Returns (states, values, iterations,
    converged), one entry per row.
    """
    psi = np.array(psi, dtype=complex)
    live = np.arange(len(psi))
    value, aux = objective(psi, live)
    iterations = np.full(len(psi), MAX_ITER)
    converged = np.zeros(len(psi), dtype=bool)
    # each row's previous state and tangent gradient; s = 0 gives length 1
    prev_psi, prev_g = psi.copy(), np.zeros_like(psi)
    for it in range(1, MAX_ITER + 1):
        start_value = value[live]
        grad = gradient(psi[live], live, aux[live])
        moved = _sphere_step(objective, psi, grad, value, aux, prev_psi, prev_g, live) > 0
        # a flat gradient or a failed line search ends a row before this step
        iterations[live[~moved]] = it - 1
        small = moved & (value[live] - start_value < CONV_TOL)
        iterations[live[small]] = it
        converged[live[~moved | small]] = True
        live = live[moved & ~small]
        if not live.size:
            break
    return psi, value, iterations, converged


def _divergence_search(factor, ref, rngs, restarts, pool=1):
    """For every row r of the references ref (k, n) or (k, 1), floored at
    _LOG_FLOOR, the pure state maximizing D(Born(psi) || r) in bits (with
    r = 1, -D is the outcome entropy): D ascends from `restarts` states, all
    as one stack, and the row keeps its best ascent. Each ascent starts from
    the highest-D of `pool` Haar states; a row draws its restarts * pool
    states in one call on its stream in rngs, restart by restart. Returns
    (states (k, d), divergences, iterations, converged), one entry per row.
    factor is the POVM's Povm.factor."""
    ref = np.maximum(ref, _LOG_FLOOR)
    dim = factor.shape[-1]
    draws = np.stack([_haar_from_rng(rng, dim, restarts * pool) for rng in rngs])
    draws = draws.reshape(len(rngs), restarts, pool, dim)
    score = _divergence_bits(_born(factor, draws), ref[:, None, None, :])
    pick = np.argmax(score, axis=2)[..., None, None]
    psi0 = np.take_along_axis(draws, pick, axis=2).reshape(-1, dim)
    ref = np.repeat(ref, restarts, axis=0)

    def objective(psi, rows):
        q = _born(factor, psi)
        return _divergence_bits(q, ref[rows]), q

    def gradient(psi, rows, q):
        return _effect_gradient(_divergence_coef(q, ref[rows]), factor, psi)

    psi, divergence, iterations, converged = _riemannian_ascent(objective, gradient, psi0)
    best = np.argmax(divergence.reshape(-1, restarts), axis=1) + np.arange(0, len(psi), restarts)
    return psi[best], divergence[best], iterations[best], converged[best]


def min_output_entropy(p: Povm, starts: int = 100, seed: int = 0) -> OptimizationReport:
    """Multi-start minimization of the outcome entropy H(Y|X=x) over pure states.

    All starts ascend D(q || 1) = -H(q) together as one stack, each from a
    Haar state drawn from its own stream.
    """
    starts = _check_starts(starts)
    seed = _check_count(seed, 0, InvalidInput, "seed")
    psis, divergence, iterations, converged = _divergence_search(
        p.factor, np.ones((starts, 1)), _start_rngs(seed, starts), 1
    )
    values = _nonnegative(-divergence)
    best = int(np.argmin(values))
    return _report(seed, values, iterations, converged, np.ones(1), psis[best][None], best)


def _mutual_information_bits(weights: np.ndarray, cond: np.ndarray) -> np.ndarray:
    """I(X;Y) = sum_x w_x D(p(.|x) || q) in bits of every stacked prior (..., m)
    and conditional matrix (..., m, n), q the outcome marginal. p(y|x) and q
    are floored at _LOG_FLOOR, not cut at _divergence_bits' 1e-15, which
    costs the see-saw 14 % more iterations on the tetrahedral SIC."""
    q = np.maximum(_outcome_marginal(weights, cond), _LOG_FLOOR)[..., None, :]
    return _row_dot(weights, _row_dot(cond, np.log2(np.maximum(cond, _LOG_FLOOR) / q)))


def _reweight_prior(weights: np.ndarray, cond: np.ndarray) -> np.ndarray:
    """Blahut-Arimoto update of every row's prior (Blahut 1972; Arimoto 1972).

    Each of _REWEIGHT_SWEEPS sweeps multiplies every w_x by 2^D(p(.|x) || q),
    q the current outcome marginal, and renormalizes; D is split as
    sum_y p log2 p - sum_y p log2 q (floored as in _mutual_information_bits)
    and a sweep takes only the second sum, one log. Every row runs every
    sweep, so a row's result does not depend on the rows beside it.
    """
    c_logc = _row_dot(cond, np.log2(np.maximum(cond, _LOG_FLOOR)))
    w = weights
    for _ in range(_REWEIGHT_SWEEPS):
        log_q = np.log2(np.maximum(_outcome_marginal(w, cond), _LOG_FLOOR))
        w = w * np.exp2(c_logc - (cond @ log_q[..., None])[..., 0])
        w /= w.sum(axis=-1, keepdims=True)
    return w


def _is_trivial_povm(p: Povm) -> bool:
    """Whether every effect is proportional to the identity."""
    scaled = np.einsum("yii->y", p.effects).real[:, None, None] / p.dim * np.eye(p.dim)
    return bool(np.max(np.abs(p.effects - scaled)) < 1e-12)


def informational_power_lower_bound(
    p: Povm, starts: int = 100, seed: int = 0
) -> OptimizationReport:
    """Certified lower bound on the informational power of a POVM.

    See-saw over ensembles of d^2 pure states, the most an optimal ensemble
    needs: alternate a multiplicative prior reweighting with one Riemannian
    ascent step of the mutual information, taken on all d^2 states of an
    ensemble as one block, multi-started over Haar seeds. All starts advance
    together as one stack. Every _CHECK_EVERY iterations, every start still
    running is checked for first-order optimality, all in one call: a start
    for which a pure state violates it takes the state and goes on; a start
    that stalled on that step and for which none is found leaves the stack
    as converged. A start still running at MAX_ITER is not converged. Every
    start's value is the mutual information of the best ensemble it reached
    after any step or injection, and that ensemble is the one reported.
    """
    starts = _check_starts(starts)
    seed = _check_count(seed, 0, InvalidInput, "seed")
    d = p.dim
    m = d * d

    if _is_trivial_povm(p):
        # every effect proportional to the identity: no state carries information
        zeros, e0 = np.zeros(starts), np.eye(1, d, dtype=complex)
        return _report(seed, zeros, zeros.astype(int), zeros == 0, np.ones(1), e0, 0)

    factor = p.factor
    rngs = _start_rngs(seed, starts)
    # every start's states (S, m, d), priors (S, m), conditionals (S, m, n)
    # and value I, which its step raises; the loop works on the live rows
    psis = np.stack([_haar_from_rng(rng, d, m) for rng in rngs])
    weights = np.full((starts, m), 1.0 / m)
    cond = _born(factor, psis)
    values = _mutual_information_bits(weights, cond)
    iterations = np.full(starts, MAX_ITER)
    converged = np.zeros(starts, dtype=bool)
    live = np.arange(starts)
    # each start's previous states and tangent gradient; s = 0 gives length 1
    prev_psis, prev_g = psis.copy(), np.zeros_like(psis)
    # each start's best ensemble so far, the one it reports
    best_values, best_psis, best_weights = values.copy(), psis.copy(), weights.copy()

    def keep_best(rows):
        rows = rows[values[rows] > best_values[rows]]
        best_values[rows], best_psis[rows], best_weights[rows] = (
            values[rows], psis[rows], weights[rows]
        )

    def information(states, rows):  # I at the starts' current priors
        q = _born(factor, states)
        return _mutual_information_bits(weights[rows], q), q

    for outer in range(1, MAX_ITER + 1):
        c, before = cond[live], values[live]
        w = weights[live] = _reweight_prior(weights[live], c)
        values[live] = _mutual_information_bits(w, c)
        q_bar = np.maximum(_outcome_marginal(w, c), _LOG_FLOOR)[..., None, :]
        coef = w[..., None] * _divergence_coef(c, q_bar)  # dI/dp(y|x) + w_x/ln 2
        grad = _effect_gradient(coef, factor, psis[live])
        _sphere_step(information, psis, grad, values, cond, prev_psis, prev_g, live)
        c, value = cond[live], values[live]
        stalled = value - before < CONV_TOL
        keep_best(live)
        if outer % _CHECK_EVERY == 0:
            # first-order optimality: every pure state must satisfy
            # D(q_phi || q_bar) <= I; a stalled start with no violating state
            # found has converged, a start with one takes it and goes on
            phi, divergence, _, _ = _divergence_search(
                factor,
                _outcome_marginal(w, c),
                [rngs[s] for s in live],
                _DIVERGENCE_RESTARTS,
                _CHECK_POOL,
            )
            violated = divergence > value + 10 * CONV_TOL
            converged[live[~violated & stalled]] = True
            inj = live[violated]
            x = np.argmin(weights[inj], axis=1)
            psis[inj, x] = phi[violated]
            weights[inj, x] = np.maximum(weights[inj, x], 0.05)
            weights[inj] /= weights[inj].sum(axis=1, keepdims=True)
            cond[inj] = _born(factor, psis[inj])
            values[inj] = _mutual_information_bits(weights[inj], cond[inj])
            keep_best(inj)
            # the ensemble changed under the start: its next step tries 1
            prev_psis[inj] = psis[inj]
        done = converged[live]
        iterations[live[done]] = outer
        live = live[~done]
        if not live.size:
            break

    # a near-trivial POVM's information can round a last bit below zero
    best = int(np.argmax(best_values))
    values = _nonnegative(best_values)
    return _report(seed, values, iterations, converged, best_weights[best], best_psis[best], best)


def scrooge_lower_bound_estimate(d: int, samples: int, seed: int = 0) -> float:
    """Monte-Carlo estimate of the uniform-measurement information floor.

    Measures an ensemble of `samples` Haar states with the computational
    basis; the mutual information converges to
    log2(d) - (1/ln 2) sum_{n=2}^d 1/n as the sample count grows. Only the
    outcome probabilities |psi_i|^2 of each state are needed, and for a Haar
    state they are uniform on the probability simplex: d i.i.d. standard
    exponentials divided by their sum (Wootters 1990). So each sample is
    drawn as such a normalized exponential row, and no state is built.
    Samples are drawn and reduced max(1, _CHUNK_ENTRIES // d) rows at a time
    on the calling thread, in two buffers allocated once: one for the draws
    and one for their log2 pass. Memory stays at two cache-sized buffers (two
    rows when d exceeds _CHUNK_ENTRIES) whatever the sample count and the
    dimension.
    """
    d = _check_count(d, 2)
    samples = _check_count(samples, d * d, what="samples")
    seed = _check_count(seed, 0, InvalidInput, "seed")
    # normalized exponential rows: the law of a Haar state's squared moduli
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = min(max(1, _CHUNK_ENTRIES // d), samples)
    e_buf, log_buf = np.empty((rows, d)), np.empty((rows, d))
    q_sum = np.zeros(d)
    entropy_sum = 0.0
    for done in range(0, samples, rows):
        e = rng.standard_exponential(out=e_buf[: min(rows, samples - done)])
        log_e = log_buf[: len(e)]
        t = e.sum(axis=1)
        # the row e/t has entropy log2 t - sum e log2 e / t; a zero draw
        # gives 0 * log2(_LOG_FLOOR) = 0, the 0 log 0 = 0 convention
        np.log2(np.maximum(e, _LOG_FLOOR, out=log_e), out=log_e)
        q_sum += (1.0 / t) @ e
        entropy_sum += float(np.sum(np.log2(t) - _row_dot(e, log_e) / t))
    value = float(_entropy_bits(q_sum / samples)) - entropy_sum / samples
    return max(value, 0.0)


def uniform_povm_approximant(d: int, n: int, seed: int = 0) -> Povm:
    """Finite n-outcome stand-in for the Haar-uniform continuous POVM.

    Draws n Haar states from PCG64(seed), forms S = sum |psi><psi|, and
    returns the effects S^{-1/2}|psi><psi|S^{-1/2}, which sum to I exactly.
    """
    d = _check_count(d, 1)
    seed = _check_count(seed, 0, InvalidInput, "seed")
    n = _check_count(n, d, what="outcomes")
    psis = _haar_from_rng(np.random.Generator(np.random.PCG64(seed)), d, n)
    s = psis.T @ psis.conj()
    balance = hilbert.op_inv_sqrt(s)
    rotated = psis @ balance.T
    return Povm(hilbert._projectors(rotated))
