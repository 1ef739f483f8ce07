"""Independent reference evaluators used by the test suite.

Everything here is written straight from the closed-form definitions,
deliberately NOT importing the package under test, with different code
shapes (math module, explicit loops, pooled formulations) so a shared bug
cannot hide on both sides of a comparison. The one exception is
``full_chain_delta_solve``: it checks how the ratio solver reuses terms,
not the physics, so it calls the package's validated public chain.
``last_axis_interference`` and ``last_axis_max`` are bit references, not
models: the package's last-axis expressions, which its device-major path
for wide batches must match bit for bit.
"""

import math

import numpy as np

from swiptfl.channel import DELTA_MAX, DELTA_MIN, downlink_budget
from swiptfl.energy import ledger


def rx_power(ptx, dist, alpha, gain_sq):
    return ptx * gain_sq / math.pow(dist, alpha)


def interference(ptx, gains_sq, dists, alpha, excluded):
    total = 0.0
    for j in range(len(gains_sq)):
        if j != excluded:
            total += ptx * gains_sq[j] / dists[j] ** alpha
    return total


def last_axis_interference(prx):
    out = np.zeros(prx.shape)
    out[..., 1:] = prx[..., :-1].cumsum(axis=-1)
    out[..., :-1] += prx[..., ::-1].cumsum(axis=-1)[..., -2::-1]
    return out


def last_axis_max(a):
    return a.max(axis=-1)


def sinr_value(p_signal, p_interference, p_noise):
    return p_signal / (p_interference + p_noise)


def shannon_rate(bandwidth, gamma):
    return bandwidth * math.log(1.0 + gamma, 2.0)


def transmit_time(bits, rate):
    if bits == 0.0:
        return 0.0
    if rate == 0.0:
        return math.inf
    return bits / rate


def e_compute(kappa, cycles_per_bit, data_bits, iters, cpu_hz):
    return kappa * cycles_per_bit * data_bits * iters * cpu_hz * cpu_hz


def e_transmit(duration, power):
    if duration == 0.0 or power == 0.0:
        return 0.0
    return duration * power


def p_harvest(a1, a2, a3, x):
    value = a1 * x * x + a2 * x + a3
    return value if value > 0.0 else 0.0


def t_local(cycles_per_bit, data_bits, iters, cpu_hz):
    return cycles_per_bit * data_bits * iters / cpu_hz


def t_uav(cycles_per_bit, payload_bits, cpu_hz):
    return cycles_per_bit * payload_bits / cpu_hz


def t_round(t_up, t_loc, t_down, t_server):
    first = max(u + l for u, l in zip(t_up, t_loc))
    return first + max(t_down) + t_server


def pooled_loss(w, feature_blocks, target_blocks, task):
    """Global objective computed the other way: weighted mean of per-device
    means rather than pooled sums."""
    total_n = 0
    acc = 0.0
    for x, y in zip(feature_blocks, target_blocks):
        n = len(y)
        z = x @ w
        if task == "logistic":
            per = np.logaddexp(0.0, z) - y * z
        else:
            per = 0.5 * (z - y) ** 2
        acc += n * float(np.mean(per))
        total_n += n
    return acc / total_n


def fd_gradient(loss_fn, w, h=1e-6):
    """Central finite differences of a scalar function of a vector."""
    w = np.asarray(w, dtype=float)
    grad = np.zeros_like(w)
    for k in range(len(w)):
        bump = np.zeros_like(w)
        bump[k] = h
        grad[k] = (loss_fn(w + bump) - loss_fn(w - bump)) / (2.0 * h)
    return grad


def centralized_step(w0, feature_blocks, target_blocks, lr, task):
    """One full-batch gradient step on the pooled dataset."""
    x = np.vstack(feature_blocks)
    y = np.concatenate(target_blocks)
    z = x @ w0
    if task == "logistic":
        residual = 1.0 / (1.0 + np.exp(-z)) - y
    else:
        residual = z - y
    return w0 - lr * (x.T @ residual) / len(y)


def local_gd(w0, x, y, task, lr, iters, batch_indices=None):
    """One device's local gradient descent, sample by sample: ``iters``
    steps from ``w0`` on the mean loss over the rows ``batch_indices[k]``
    of (x, y) at step k, or over every row when ``batch_indices`` is None."""
    w = [float(v) for v in w0]
    for k in range(iters):
        rows = range(len(y)) if batch_indices is None else [int(i) for i in batch_indices[k]]
        grad = [0.0] * len(w)
        for i in rows:
            z = sum(w[j] * float(x[i][j]) for j in range(len(w)))
            if task == "logistic":
                err = 1.0 / (1.0 + math.exp(-z)) - float(y[i])
            else:
                err = z - float(y[i])
            for j in range(len(w)):
                grad[j] += err * float(x[i][j])
        w = [w[j] - lr * grad[j] / len(rows) for j in range(len(w))]
    return np.array(w)


def fsum_aggregate(models, weighted, trial, n):
    """The server's size-weighted average, trial by trial and coordinate by
    coordinate: each trial's rows of ``weighted`` (``n`` times the local
    models, row i belonging to trial ``trial[i]``) summed with math.fsum and
    divided by ``n`` times their count. A trial with no row keeps its model,
    and so does a trial whose sum overflows, adds inf and -inf or is not
    finite after the division; the returned set names those trials."""
    out, overflowed = [], set()
    for k, model in enumerate(models):
        rows = [[float(v) for v in row] for row, t in zip(weighted, trial) if t == k]
        mean = [float(v) for v in model]
        if rows:
            try:
                average = [math.fsum(column) / (n * len(rows)) for column in zip(*rows)]
            except (OverflowError, ValueError):
                average = [math.inf]
            if all(math.isfinite(v) for v in average):
                mean = average
            else:
                overflowed.add(k)
        out.append(mean)
    return np.array(out), overflowed


def make_linear_data(rng, n, w_true, noise_std):
    """One dataset of the linear synthetic problem, drawn alone: Gaussian
    features, then targets from the planted weight vector plus noise.
    Returns (x, y), shapes (n, d) and (n,)."""
    x = rng.standard_normal((n, len(w_true)))
    return x, x @ w_true + noise_std * rng.standard_normal(n)


def make_logistic_data(rng, n, w_true, flip_prob):
    """One dataset of the logistic synthetic problem, drawn alone: Gaussian
    features with linearly separable labels, each flipped with probability
    ``flip_prob``. Returns (x, y), shapes (n, d) and (n,)."""
    x = rng.standard_normal((n, len(w_true)))
    return x, ((x @ w_true > 0) ^ (rng.random(n) < flip_prob)).astype(float)


def lipschitz_sq_loss(features):
    """Largest eigenvalue of X^T X / n: smoothness constant of the squared
    loss, from the Gram spectrum."""
    x = np.asarray(features, dtype=float)
    gram = x.T @ x / len(x)
    return float(np.linalg.eigvalsh(gram)[-1])


def delta_feasibility_grid(
    ptx_dl,
    dist,
    alpha,
    gain_sq,
    interference_w,
    noise_dl,
    bandwidth,
    payload_dl,
    fixed_spend,
    pays_downlink,
    a1,
    a2,
    a3,
    deltas,
):
    """Vectorized energy-feasibility verdicts over a delta grid.

    ``fixed_spend`` is the delta-independent consumption (compute plus
    uplink). Recomputes the whole downlink chain from the raw definitions.
    """
    deltas = np.asarray(deltas, dtype=float)
    prx = ptx_dl * gain_sq / dist**alpha
    gamma = deltas * prx / (interference_w + noise_dl)
    rate = bandwidth * np.log2(1.0 + gamma)
    with np.errstate(divide="ignore"):
        t_dl = np.where(rate > 0.0, payload_dl / np.where(rate > 0.0, rate, 1.0), np.inf)
    if payload_dl == 0.0:
        t_dl = np.zeros_like(deltas)
    ph = np.maximum(0.0, a1 * ((1.0 - deltas) * prx) ** 2 + a2 * (1.0 - deltas) * prx + a3)
    e_h = np.where(ph > 0.0, t_dl * ph, 0.0)
    spend = fixed_spend + (t_dl * ptx_dl if pays_downlink else 0.0)
    return np.isfinite(spend) & (spend <= e_h)


def exponential_mass(holds, g_lo=1e-9, g_hi=50.0, points=2000):
    """P(holds(g)) for g ~ Exp(1), the squared gain of a Rayleigh fade.

    The verdict's changes on a log grid of g from ``g_lo`` to ``g_hi`` are
    each refined by bisection to an edge, and the edges bound the intervals
    where it holds; [a, b] has mass e^-a - e^-b. The verdict is taken as
    constant below ``g_lo`` and above ``g_hi``, whose masses are below
    1e-9 and 2e-22 by default, and between neighbours of the grid."""
    grid = [g_lo * (g_hi / g_lo) ** (k / (points - 1)) for k in range(points)]
    verdicts = [bool(holds(g)) for g in grid]
    edges = []
    for a, b, before, after in zip(grid, grid[1:], verdicts, verdicts[1:]):
        if before != after:
            for _ in range(60):
                mid = 0.5 * (a + b)
                if bool(holds(mid)) == before:
                    a = mid
                else:
                    b = mid
            edges.append(0.5 * (a + b))
    bounds = ([0.0] if verdicts[0] else []) + edges + ([math.inf] if verdicts[-1] else [])
    return sum(math.exp(-a) - math.exp(-b) for a, b in zip(bounds[::2], bounds[1::2]))


def largest_feasible_delta(feasible_mask, deltas):
    """Largest delta whose verdict is feasible, or None."""
    idx = np.flatnonzero(feasible_mask)
    if len(idx) == 0:
        return None
    return float(np.asarray(deltas)[idx[-1]])


def full_chain_delta_solve(
    params, realization, uplink, profile, harvest, payload_dl_bits, device_pays_downlink
):
    """(deltas, feasible, grid) of the ratio solve with one full
    ``downlink_budget`` + ``ledger`` per probe: the same bracket, the same
    bisection stopping rule, and the whole 1e-3 grid scanned in one call
    for devices whose harvest curve can dip."""

    def feasible_at(deltas):
        down = downlink_budget(params, realization, deltas, payload_dl_bits)
        return ledger(
            profile,
            harvest,
            uplink,
            down,
            device_pays_downlink=device_pays_downlink,
        ).feasible

    shape = realization.gains_sq.shape
    prx = downlink_budget(params, realization, DELTA_MIN, payload_dl_bits).prx_w
    dips = (harvest.a2 < 0) | (harvest.a2 + 2.0 * harvest.a1 * prx < 0)
    lo, hi = np.full(shape, DELTA_MIN), np.full(shape, DELTA_MAX)
    ok_lo, ok_hi = feasible_at(lo), feasible_at(hi)
    if (ok_lo & ~ok_hi & ~dips).any():
        for _ in range(60):
            if np.max(hi - lo) <= 1e-6:
                break
            mid = 0.5 * (lo + hi)
            ok = feasible_at(mid)
            lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    deltas = np.where(ok_hi, DELTA_MAX, np.where(ok_lo, lo, DELTA_MIN))
    feasible = ok_lo | ok_hi

    grid = np.append(np.arange(DELTA_MIN, DELTA_MAX, 1e-3), DELTA_MAX)
    grid = grid.reshape((-1,) + (1,) * len(shape))
    best = np.where(feasible_at(grid), grid, 0.0).max(axis=0)
    deltas = np.where(dips, np.where(best > 0, best, DELTA_MIN), deltas)
    feasible = np.where(dips, best > 0, feasible)
    return deltas, feasible, dips
