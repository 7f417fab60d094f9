"""Independent oracles for the test suite.

Everything here is implemented directly from the one-step dynamics with
deliberately different machinery than the package: the per-state kernel as
an explicit successor list (the package keeps only the transmit coefficient
arrays), python-stdlib Monte Carlo with a two-uniform factorization, a
per-slot numpy-stream loop, dense truncated matrix powers, power iteration
on an explicitly materialized kernel, exact rational elimination on the
folded burst chain, and the periodic baseline's per-slot affine map of
(P(AoII = 0), E[AoII]).  Nothing imports from aoii_harq except the tests
that compare against these results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, islice, repeat
from math import inf, sqrt

import numpy as np


def make_p(p_e, c, r_max=None, combining="soft"):
    def p(r):
        if combining == "none":
            return 1.0 - p_e
        k = r if r_max is None else r % (r_max + 1)
        return 1.0 - p_e * c**k
    return p


def gamma_pair(alpha, mu, p, r):
    q = 1.0 - p(r)
    return alpha * q, 1.0 - alpha - mu * q


WAIT = "wait"
TRANSMIT = "transmit"


@dataclass(frozen=True, order=True)
class State:
    """CMDP state: current AoII and transmission count for the current value.

    r is only meaningful while the monitor is stale, hence delta = 0 forces
    r = 0, and r < delta on every reachable trajectory (each sent packet also
    ages the estimate by one slot); r <= delta is enforced.
    """

    delta: int
    r: int = 0

    def __post_init__(self):
        if self.delta < 0 or self.r < 0:
            raise ValueError(f"state components must be nonnegative, got {(self.delta, self.r)}")
        if self.delta == 0 and self.r != 0:
            raise ValueError("transmission count must be 0 when the AoII is 0")
        if self.r > self.delta:
            raise ValueError(f"transmission count {self.r} cannot exceed the AoII {self.delta}")


def transition_dist(state, action, alpha, mu, p):
    """Exact support and probabilities of the next state, as a list of
    (State, probability) with zero-probability successors left out.

    Wait: the stale estimate is corrected only by the source wandering back
    (probability mu); a fresh estimate goes stale with probability 1 - alpha.
    Transmit from a stale state: the count advances only when the packet fails
    but the source kept the transmitted value (gamma1); a decoded-but-stale or
    failed-and-changed outcome restarts the count (gamma2); the rest resets
    the age.  At delta = 0 both actions induce the same next-state law.
    """
    if action not in (WAIT, TRANSMIT):
        raise ValueError(f"action must be {WAIT!r} or {TRANSMIT!r}, got {action!r}")
    if state.delta == 0:
        return [(State(0, 0), alpha), (State(1, 0), 1.0 - alpha)]
    if action == WAIT:
        return [(State(state.delta + 1, 0), 1.0 - mu), (State(0, 0), mu)]
    g1, g2 = gamma_pair(alpha, mu, p, state.r)
    successors = [
        (State(state.delta + 1, state.r + 1), g1),
        (State(state.delta + 1, 0), g2),
        (State(0, 0), 1.0 - g1 - g2),
    ]
    return [(s, prob) for s, prob in successors if prob > 0.0]


def brute_sim(alpha, mu, p, decide, horizon, seed, f=lambda d: float(d)):
    """Stdlib-random trajectory of the kernel; decide(delta, r, t, rng) -> bool.

    Decode and source-move events are drawn from two separate uniforms, a
    different factorization than the package sampler uses.
    Returns (avg_cost, avg_rate).
    """
    rng = random.Random(seed)
    delta, r = 0, 0
    cost = 0.0
    tx = 0
    for t in range(horizon):
        cost += f(delta)
        transmit = decide(delta, r, t, rng)
        if transmit:
            tx += 1
        if delta == 0:
            delta = 0 if rng.random() < alpha else 1
            r = 0
        elif not transmit:
            if rng.random() < mu:
                delta, r = 0, 0
            else:
                delta, r = delta + 1, 0
        else:
            decoded = rng.random() < p(r)
            u = rng.random()
            if decoded:
                delta, r = (0, 0) if u < alpha else (delta + 1, 0)
            elif u < alpha:
                delta, r = delta + 1, r + 1
            elif u < alpha + mu:
                delta, r = 0, 0
            else:
                delta, r = delta + 1, 0
    return cost / horizon, tx / horizon


def threshold_decide(n0):
    return lambda delta, r, t, rng: delta >= n0


def schedule(policy, rng, horizon):
    """Per-slot thresholds of a simulator policy, read off its fields: slot t
    transmits iff the AoII is at least the t-th one (0 always, inf never).

    Periodic repeats 0 then period - 1 infs; the mixed policy draws n_high
    where rng.random(horizon) < rho_high, else n_low; a fixed threshold
    repeats n0; anything else never transmits."""
    if hasattr(policy, "period"):
        return islice(cycle((0,) + (inf,) * (policy.period - 1)), horizon)
    if hasattr(policy, "rho_high"):
        return np.where(rng.random(horizon) < policy.rho_high, policy.n_low + 1, policy.n_low).tolist()
    if hasattr(policy, "n0"):
        return repeat(policy.n0, horizon)
    return repeat(inf, horizon)


def _batch_stderr(samples):
    n_batches = min(100, samples.size)
    if n_batches < 2:
        return 0.0
    size = samples.size // n_batches
    means = samples[: n_batches * size].reshape(n_batches, size).mean(axis=1)
    return float(means.std(ddof=1) / sqrt(n_batches))


def slot_simulate(policy, source, channel, penalty, horizon, seed, *, keep_trajectory=False):
    """One trajectory from (0, 0), one loop iteration per slot: the reference
    the package's numpy samplers are checked against.

    The kernel's uniforms come first from one PCG64 stream, then whatever the
    policy's schedule draws; one uniform per slot decides the decode outcome
    and the source move jointly.  Returns the report fields as a dict (horizon,
    seed, avg_aoii, avg_rate, aoii_stderr, rate_stderr, max_delta_seen,
    decode_successes); with keep_trajectory=True, (dict, (deltas, rs,
    actions)) with the pre-transition state and the action of every slot.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    rng = np.random.default_rng(seed)
    u_step = rng.random(horizon)

    alpha, mu = source.alpha, source.mu

    # Per-count transmit cells, grown on demand: cumulative cuts of
    # [alpha*p | (1-alpha)*p | alpha*(1-p) | mu*(1-p) | rest] so one uniform
    # decides the decode outcome and the source move jointly.
    c1 = np.empty(0)
    c2 = np.empty(0)
    c3 = np.empty(0)
    c4 = np.empty(0)

    def grow_cells(n: int) -> None:
        nonlocal c1, c2, c3, c4
        size = max(n, 2 * c1.size, 64)
        p = np.array([channel.success_probability(r) for r in range(size)])
        c1 = alpha * p
        c2 = p
        c3 = p + alpha * (1.0 - p)
        c4 = c3 + mu * (1.0 - p)

    grow_cells(64)

    # holds the age of each slot until the loop ends, then its penalty
    costs = np.empty(horizon)
    tx_flags = np.zeros(horizon, dtype=np.uint8)
    if keep_trajectory:
        traj_r = np.empty(horizon, dtype=np.int32)

    delta = 0
    r = 0
    decoded = 0
    for t, (u, threshold) in enumerate(zip(u_step, schedule(policy, rng, horizon))):
        costs[t] = delta
        if keep_trajectory:
            traj_r[t] = r
        if delta >= threshold:
            tx_flags[t] = 1
            if r >= c1.size:
                grow_cells(r + 1)
            if delta == 0:
                # decode outcome cells at r = 0: success iff u < p(0)
                if u < c2[0]:
                    decoded += 1
                    delta = 0 if u < c1[0] else 1
                else:
                    rest = 1.0 - c2[0]
                    delta = 0 if u < c2[0] + alpha * rest else 1
                r = 0
            elif u < c1[r]:
                decoded += 1
                delta, r = 0, 0
            elif u < c2[r]:
                decoded += 1
                delta, r = delta + 1, 0
            elif u < c3[r]:
                delta, r = delta + 1, r + 1
            elif u < c4[r]:
                delta, r = 0, 0
            else:
                delta, r = delta + 1, 0
        else:
            if delta == 0:
                delta = 0 if u < alpha else 1
            else:
                delta, r = (0, 0) if u < mu else (delta + 1, 0)

    max_delta_seen = int(costs.max())
    if keep_trajectory:
        traj_delta = costs.astype(np.int64)
    costs = penalty.evaluate(costs)
    report = dict(
        horizon=horizon,
        seed=seed,
        avg_aoii=float(costs.mean()),
        avg_rate=int(tx_flags.sum()) / horizon,
        aoii_stderr=_batch_stderr(costs),
        rate_stderr=_batch_stderr(tx_flags.astype(float)),
        max_delta_seen=max_delta_seen,
        decode_successes=decoded,
    )
    if keep_trajectory:
        return report, (traj_delta, traj_r, tx_flags)
    return report


def stationary_power_iteration(alpha, mu, p, transmit_prob, dcap, rcap, tol=1e-14, sweeps=200_000):
    """Stationary distribution of the policy 'transmit w.p. transmit_prob(delta)'
    on a (delta <= dcap, r <= rcap) truncation, by forward mass propagation.

    Returns the (dcap+1, rcap+1) stationary array.
    """
    g1 = np.array([gamma_pair(alpha, mu, p, r)[0] for r in range(rcap + 1)])
    g2 = np.array([gamma_pair(alpha, mu, p, r)[1] for r in range(rcap + 1)])
    taus = np.array([transmit_prob(d) for d in range(dcap + 1)])
    q = np.zeros((dcap + 1, rcap + 1))
    q[0, 0] = 1.0
    for _ in range(sweeps):
        new = np.zeros_like(q)
        new[0, 0] += alpha * q[0, 0]
        new[1, 0] += (1 - alpha) * q[0, 0]
        for d in range(1, dcap + 1):
            row = q[d]
            if not row.any():
                continue
            tau = taus[d]
            dn = min(d + 1, dcap)
            mass = row.sum()
            # waiting branch
            new[0, 0] += (1 - tau) * mu * mass
            new[dn, 0] += (1 - tau) * (1 - mu) * mass
            # transmitting branch
            if tau > 0.0:
                new[0, 0] += tau * float(((1 - g1 - g2) * row).sum())
                new[dn, 0] += tau * float((g2 * row).sum())
                shifted = np.minimum(np.arange(rcap + 1) + 1, rcap)
                np.add.at(new[dn], shifted, tau * g1 * row)
        if np.abs(new - q).max() < tol:
            q = new
            break
        q = new
    return q


def dense_sigma(alpha, mu, p, size, depth):
    """sigma_l = sum of row 0 of P**l for the truncated burst matrix; exact
    while l <= size - 2 because row-0 mass cannot reach the cut columns."""
    P = np.zeros((size, size))
    for r in range(size):
        g1, g2 = gamma_pair(alpha, mu, p, r)
        P[r, 0] = g2
        if r + 1 < size:
            P[r, r + 1] = g1
    out = []
    row = np.zeros(size)
    row[0] = 1.0
    for _ in range(depth + 1):
        out.append(float(row.sum()))
        row = row @ P
    return np.array(out)


def enumerate_m(alpha, mu, p, h_max):
    """Brute-force m(h, r): expected stationary weight of (n0+h, r) relative to
    (n0, 0), by enumerating transmit-burst paths of the chain above the
    threshold.  Path weight: each slot at (n0+k, r) moves up-with-count via
    gamma1(r), restarts the count via gamma2(r); m(h, r) accumulates the
    weights of all paths from (n0, 0) reaching height h with count r."""
    table = {(0, 0): 1.0}
    for h in range(h_max):
        for r in range(h + 1):
            w = table.get((h, r), 0.0)
            if w == 0.0:
                continue
            g1, g2 = gamma_pair(alpha, mu, p, r)
            table[(h + 1, r + 1)] = table.get((h + 1, r + 1), 0.0) + w * g1
            table[(h + 1, 0)] = table.get((h + 1, 0), 0.0) + w * g2
    return table


def fraction_solve(a, b):
    """x with a x = b by Gauss-Jordan elimination over Fractions (a is a
    square list of lists, b a list; both are copied)."""
    n = len(b)
    rows = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if rows[i][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for i in range(n):
            if i != col and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[col])]
    return [row[n] for row in rows]


def fraction_burst_sums(alpha, mu, p, k):
    """(S, M) = (sum_l sigma_l, sum_l l sigma_l) as exact rationals for a
    burst whose coefficients repeat with period k (p(r) = p(r mod k)).

    The k-state matrix Q[j, 0] = gamma2(j), Q[j, (j+1) mod k] += gamma1(j) is
    built from Fraction(float) of alpha, mu and p(j); then (I - Q) x = 1 and
    (I - Q) y = x are solved by elimination, S = x_0 and M = y_0 - x_0.
    """
    a, m = Fraction(alpha), Fraction(mu)
    system = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    for j in range(k):
        q = 1 - Fraction(p(j))
        system[j][0] -= 1 - a - m * q
        system[j][(j + 1) % k] -= a * q
    x = fraction_solve(system, [Fraction(1)] * k)
    y = fraction_solve(system, x)
    return x[0], y[0] - x[0]


def fraction_cycle_sums(alpha, mu, sums, n0):
    """Exact (L, T, C) per renewal cycle of the threshold-n0 policy under the
    linear penalty, from the exact burst sums (S, M).

    The waiting head sum_{i<k} q^i (i+1), k = n0 - 1 and q = 1 - mu, is
    taken in closed form, (1 - (k+1) q^k + k q^(k+1)) / (1 - q)^2."""
    a, m = Fraction(alpha), Fraction(mu)
    total, moment = sums
    k = n0 - 1
    pref = (1 - m) ** k
    transmissions = pref * total
    length = 1 / (1 - a) + (1 - pref) / m + transmissions
    head = (1 - (k + 1) * pref + k * pref * (1 - m)) / m**2
    cost = head + pref * (n0 * total + moment)
    return length, transmissions, cost


def tie_price(low, high):
    """Price at which two thresholds with cycle sums (L, T, C) cost the same,
    (C_h + lam T_h)/L_h = (C_l + lam T_l)/L_l, cross-multiplied: exact on
    Fractions, where nothing cancels."""
    (len_l, tx_l, cost_l), (len_h, tx_h, cost_h) = low, high
    return (cost_h * len_l - cost_l * len_h) / (tx_l * len_h - tx_h * len_l)


def fraction_mix(low, high, budget):
    """Exact (rho_high, average AoII) of the budget-meeting mix of two
    thresholds with cycle sums (L, T, C): rho = e_low / (e_low - e_high) with
    e = T - R L, and the AoII is the mixed C over the mixed L."""
    r = Fraction(budget)
    e_low, e_high = low[1] - r * low[0], high[1] - r * high[0]
    rho = e_low / (e_low - e_high)
    length = rho * high[0] + (1 - rho) * low[0]
    cost = rho * high[2] + (1 - rho) * low[2]
    return rho, cost / length


def fraction_mixed_solution(alpha, mu, p, k, budget, n_low):
    """Exact (rho_high, average AoII) of the budget-meeting mix of thresholds
    n_low and n_low + 1 under the linear penalty."""
    sums = fraction_burst_sums(alpha, mu, p, k)
    low, high = (fraction_cycle_sums(alpha, mu, sums, n) for n in (n_low, n_low + 1))
    return fraction_mix(low, high, budget)


def _periodic_resets(alpha, mu, p0, period):
    """Per phase of a period >= 2 policy, the probability that a stale AoII
    resets: alpha p(0) + mu (1 - p(0)) on the transmit slot (every
    transmission goes out with r = 0), mu on the period - 1 wait slots."""
    return [alpha * p0 + mu * (1.0 - p0)] + [mu] * (period - 1)


def _periodic_step(alpha, s):
    """The slot's affine map on (z, e, 1), z = P(AoII = 0) and e = E[AoII]:
    z' = alpha z + s (1 - z), e' = (1 - s)(e + 1 - z) + (1 - alpha) z."""
    return np.array([[alpha - s, 0.0, s], [s - alpha, 1.0 - s, 1.0 - s], [0.0, 0.0, 1.0]])


def periodic_law(alpha, mu, p0, period):
    """Exact stationary (P(AoII = 0), average AoII) of the policy that
    transmits every period >= 2 slots, averaged over the period's phases:
    the fixed point of the composed period map at phase 0, carried through
    the phases."""
    steps = [_periodic_step(alpha, s) for s in _periodic_resets(alpha, mu, p0, period)]
    composed = np.eye(3)
    for step in steps:
        composed = step @ composed
    v = np.append(np.linalg.solve(np.eye(2) - composed[:2, :2], composed[:2, 2]), 1.0)
    total = np.zeros(3)
    for step in steps:
        total += v
        v = step @ v
    return float(total[0] / period), float(total[1] / period)


def periodic_finite_law(alpha, mu, p0, period, horizon):
    """Exact (P(AoII = 0), AoII) averaged over slots 0 .. horizon - 1 of the
    same policy from AoII 0 at slot 0, one scalar step per slot."""
    resets = _periodic_resets(alpha, mu, p0, period)
    z, e = 1.0, 0.0
    z_sum = e_sum = 0.0
    for t in range(horizon):
        z_sum += z
        e_sum += e
        s = resets[t % period]
        z, e = alpha * z + s * (1.0 - z), (1.0 - s) * (e + 1.0 - z) + (1.0 - alpha) * z
    return z_sum / horizon, e_sum / horizon


def boundedness_by_sum(q, f, tol, l_cap, start=1):
    """Sum t_l = f(l+1) q^l from l = ``start`` in blocks of 8192 up to and
    including the first term that is 0, or below ``tol`` and below the term
    before it (t_{start-1} counting as infinite).  True when a term settles
    by l = ``l_cap`` with a finite partial sum; False when no term settles,
    or a term before the settling one is not finite.  Large finite terms are
    summed.  ``f`` maps an array of ages to penalties."""
    total, prev = 0.0, inf
    for i in range(start, l_cap + 1, 8192):
        idx = np.arange(i, min(i + 8192, l_cap + 1), dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = np.asarray(f(idx + 1.0), dtype=float) * q**idx
            before = np.append(prev, terms[:-1])
            settled = np.flatnonzero((terms == 0.0) | ((terms < tol) & (terms < before)))
            used = terms[: settled[0] + 1] if settled.size else terms
            total += float(np.sum(used))
        if not (np.all(np.isfinite(used)) and np.isfinite(total)):
            return False
        if settled.size:
            return True
        prev = terms[-1]
    return False
