"""Joint four-parameter decay fitting with bootstrap confidence intervals.

Each overlap experiment produces sequence fidelities ``F(n) = A p^n + B``
that decay quickly (|p| near 1/3 or 0), which on its own cannot separate
``p = 0`` from dead contrast ``A = 0``.  The fit therefore pairs every
overlap decay with a slow reference decay and shares the scale ``A`` and
offset ``B`` across both curves; the figure of merit is the sum of the two
curves' mean squared errors.  Infinite-length rows enter each curve as a
direct observation of ``B``.

The minimizer is a quasi-Newton (BFGS) descent on the closed-form gradient
of the joint objective.  Box constraints (rates in [-1/3, 1], scale and
offset in [0, 1]) are enforced by a logistic reparameterization, so
estimates always lie strictly inside the box.  Fast decays are seeded by a
ratio-of-differences estimate plus a {-1/3, 0, +1/3} multi-start; the best
objective wins.

Everything is vectorized over a batch axis: :func:`joint_fits` runs the
starts of many overlap/reference pairs as one minimizer batch, and the
bootstrap refits of every replication of every dataset of an experiment run
in as few batches as ``_FIT_ROWS`` allows, so Python loops over neither
datasets nor replications.  Batching cannot change a result: every step of
the minimizer (the objective, its gradient, the line search, the search
direction and the rank-two update) acts on each row alone, so a row follows
the same path whichever rows share its batch.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit

from .sampling import DecayDataset, stream_generator
from .sequences import INFINITE

__all__ = [
    "RATE_BOUNDS",
    "AMPLITUDE_BOUNDS",
    "FitResult",
    "prony_seed",
    "joint_fit",
    "joint_fits",
    "bootstrap",
    "decay_to_overlap",
    "resampled_means",
    "curve_arrays",
    "percentile_ci",
]

RATE_BOUNDS = (-1.0 / 3.0, 1.0)
AMPLITUDE_BOUNDS = (0.0, 1.0)

_MAX_ITER = 500
_F_RTOL = 1e-12
_G_TOL = 1e-12
_ARMIJO = 1e-4
# Creep at a box edge: a relative improvement below _CREEP_RTOL with some
# parameter past _EDGE_U on the logit scale, that is within 3.1e-7 of a
# bound as a fraction of its box.
_CREEP_RTOL = 1e-9
_EDGE_U = 15.0
# Elements in one chunk of resample indices (2 MiB as int64).  numpy asks
# the kernel for transparent huge pages for arrays of 4 MiB and more, and
# the resident size of those depends on the host's free huge pages; keeping
# the resample temporaries below that size keeps a bootstrap's peak memory
# the same from run to run.
_RESAMPLE_ELEMENTS = 1 << 18
_RESAMPLE_CHUNK = 64  # replications in one chunk, at most
# Rows in one minimizer batch of several problems, at most.  A batch pays
# the minimizer's per-iteration cost in Python once for all its rows, and up
# to 500 iterations whenever one of its rows fails to converge, so fewer,
# larger batches are faster, while its (rows, 4, 4) inverse-Hessian
# temporaries grow with it.  At this size a paper-scale bootstrap refit
# (2,000 replications of 20 datasets) runs in ten batches, about a quarter
# faster than one batch per dataset, for about 5 MiB more peak memory.
_FIT_ROWS = 1 << 12


@dataclass(frozen=True)
class FitResult:
    """Point estimates for one overlap/reference pair.

    ``ci`` maps parameter names to (2.5%, 97.5%) bootstrap percentiles once
    :func:`bootstrap` has run, and ``nonconverged`` counts the bootstrap
    refits that did not converge (they are kept in the percentiles).
    """

    rate: float
    ref_rate: float
    scale: float
    offset: float
    objective: float
    converged: bool
    degenerate_seed: bool = False
    ci: dict | None = None
    nonconverged: int | None = None


def prony_seed(values, eps: float = 1e-12):
    """Ratio-of-differences rate estimate from fidelities at consecutive
    integer lengths (first differences cancel the offset).

    Returns ``(rate, degenerate)`` where ``degenerate`` flags data too flat
    to form the ratio; the rate is clamped into the admissible box.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 3:
        raise ValueError("need fidelities at three or more consecutive lengths")
    d1 = values[0] - values[1]
    d2 = values[1] - values[2]
    if abs(d1) < eps:
        return 0.0, True
    return float(np.clip(d2 / d1, RATE_BOUNDS[0], RATE_BOUNDS[1])), False


def decay_to_overlap(p):
    """Overlap implied by a decay rate: ``a = 1 + (d**2 - 1) p = 1 + 3 p``,
    elementwise for an array of rates."""
    return 1.0 + 3.0 * p


# ---------------------------------------------------------------------------
# Box transform


def _to_params(u: np.ndarray):
    z = expit(np.clip(u, -40.0, 40.0))
    span = RATE_BOUNDS[1] - RATE_BOUNDS[0]
    p_j = RATE_BOUNDS[0] + span * z[:, 0]
    p_ref = RATE_BOUNDS[0] + span * z[:, 1]
    scale = z[:, 2]
    offset = z[:, 3]
    return p_j, p_ref, scale, offset


def _to_u(p_j, p_ref, scale, offset) -> np.ndarray:
    cols = []
    for value, lo, hi in (
        (p_j, *RATE_BOUNDS),
        (p_ref, *RATE_BOUNDS),
        (scale, *AMPLITUDE_BOUNDS),
        (offset, *AMPLITUDE_BOUNDS),
    ):
        frac = (np.asarray(value, dtype=float) - lo) / (hi - lo)
        cols.append(logit(np.clip(frac, 1e-9, 1.0 - 1e-9)))
    return np.stack(cols, axis=-1)


# ---------------------------------------------------------------------------
# Vectorized objective and quasi-Newton minimizer


def _objective_factory(n_o, y_o, inf_o, n_r, y_r, inf_r):
    """The joint objective of a batch of parameter rows and its closed-form
    gradient, both called as ``f(u, rows)``: parameter row b is fit against
    data row ``rows[b]``, so the minimizer can compact its active set."""
    n_o = np.asarray(n_o, dtype=np.int64)
    n_r = np.asarray(n_r, dtype=np.int64)
    k_o = n_o.size + (inf_o is not None)
    k_r = n_r.size + (inf_r is not None)

    def curves(u, rows):
        """(rate, lengths, data, infinite-length data, weight) of both curves,
        plus the shared scale and offset."""
        io = None if inf_o is None else inf_o[rows]
        ir = None if inf_r is None else inf_r[rows]
        p_j, p_ref, scale, offset = _to_params(u)
        return (
            ((p_j, n_o, y_o[rows], io, k_o), (p_ref, n_r, y_r[rows], ir, k_r)),
            scale,
            offset,
        )

    def objective(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
        pair, scale, offset = curves(u, rows)
        total = 0.0
        for p, n, y, inf, k in pair:
            model = scale[:, None] * p[:, None] ** n + offset[:, None]
            sq = ((y - model) ** 2).sum(axis=1)
            if inf is not None:
                sq = sq + (inf - offset) ** 2
            total = total + sq / k
        return total

    def gradient(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
        pair, scale, offset = curves(u, rows)
        # Derivatives with respect to (rate, reference rate, scale, offset):
        # each curve's residual r_n = A p^n + B - y_n contributes
        # 2/k * sum r_n * (A n p^(n-1), p^n, 1), and an infinite-length row
        # 2/k * (B - y_inf) to the offset.
        grad = np.zeros_like(u)
        for col, (p, n, y, inf, k) in enumerate(pair):
            power = p[:, None] ** (n - 1)
            resid = scale[:, None] * power * p[:, None] + offset[:, None] - y
            grad[:, col] = scale * (resid * (n * power)).sum(axis=1) / k
            grad[:, 2] += (resid * power * p[:, None]).sum(axis=1) / k
            grad[:, 3] += resid.sum(axis=1) / k
            if inf is not None:
                grad[:, 3] += (offset - inf) / k
        # Chain through the logistic box transform; beyond the clip the
        # objective is flat, so those components are exactly zero.
        z = expit(np.clip(u, -40.0, 40.0))
        jac = z * (1.0 - z)
        jac[:, :2] *= RATE_BOUNDS[1] - RATE_BOUNDS[0]
        jac[np.abs(u) > 40.0] = 0.0
        return 2.0 * grad * jac

    return objective, gradient


def _bfgs_box(fun, grad, u0: np.ndarray):
    """Batched BFGS with backtracking line search on the unconstrained
    (logit-transformed) parameters; ``grad`` is the gradient of ``fun``.

    Stops a batch row when the relative objective change drops below 1e-12,
    the gradient vanishes, or no improving step exists; rows still open after
    500 iterations are flagged as non-converged.
    """
    total, dim = u0.shape
    u_out = u0.copy()
    idx = np.arange(total)
    f_out = fun(u_out, idx)
    conv_out = np.zeros(total, dtype=bool)

    u = u_out.copy()
    f = f_out.copy()
    g = grad(u, idx)
    h = np.tile(np.eye(dim), (total, 1, 1))
    # Rows whose curvature estimate was just discarded; a stall is terminal
    # only if steepest descent cannot improve either.
    fresh = np.ones(idx.size, dtype=bool)

    for _ in range(_MAX_ITER):
        if idx.size == 0:
            break
        direction = -(h @ g[:, :, None])[:, :, 0]
        slope = np.einsum("bi,bi->b", g, direction)
        bad = slope >= 0
        if bad.any():
            direction[bad] = -g[bad]
            h[bad] = np.eye(dim)
            fresh[bad] = True
            slope[bad] = -(g[bad] ** 2).sum(axis=1)

        step = np.ones(idx.size)
        trial_u = u + step[:, None] * direction
        trial_f = fun(trial_u, idx)
        for _ls in range(40):
            need = (trial_f > f + _ARMIJO * step * slope) & (step > 1e-18)
            if not need.any():
                break
            step[need] *= 0.5
            trial_u[need] = u[need] + step[need, None] * direction[need]
            trial_f[need] = fun(trial_u[need], idx[need])

        improved = trial_f <= f
        stalled = ~improved
        trial_u[stalled] = u[stalled]
        trial_f[stalled] = f[stalled]

        new_g = grad(trial_u, idx)
        s = trial_u - u
        y = new_g - g
        sy = np.einsum("bi,bi->b", s, y)
        update = improved & (sy > 1e-18)
        if update.any():
            # Scale a fresh inverse-Hessian guess to the observed curvature
            # before the first update; a bare identity makes the first steps
            # gradient-sized, which is far too timid for warm starts.
            rescale = update & fresh
            if rescale.any():
                yy = np.einsum("bi,bi->b", y, y)
                gamma = np.where(rescale & (yy > 0), sy / np.maximum(yy, 1e-300), 1.0)
                h[rescale] *= gamma[rescale, None, None]
            # (I - rho s y^T) H (I - rho y s^T) + rho s s^T as a rank-two update.
            hu, su = h[update], s[update]
            rho = 1.0 / sy[update]
            hy = (hu @ y[update][:, :, None])[:, :, 0]
            yhy = np.einsum("bi,bi->b", y[update], hy)
            coef = rho * (1.0 + rho * yhy)
            hu -= rho[:, None, None] * (
                su[:, :, None] * hy[:, None, :] + hy[:, :, None] * su[:, None, :]
            )
            hu += coef[:, None, None] * su[:, :, None] * su[:, None, :]
            h[update] = hu
            fresh[update] = False

        delta = np.abs(f - trial_f)
        done = stalled & fresh
        # Relative objective change; the floor only matters when the data are
        # noiseless and the objective reaches an exact zero.
        done |= improved & (delta <= _F_RTOL * np.abs(trial_f) + 1e-30)
        done |= np.abs(new_g).max(axis=1) < _G_TOL
        retry = stalled & ~fresh & ~done
        # A row creeping toward a box edge (deep in the logistic tail) gains
        # almost nothing per step and would run out of iterations before
        # either tolerance is met; a steepest-descent restart takes a step
        # small enough for the objective test to end it.
        retry |= (
            improved
            & ~done
            & (delta < _CREEP_RTOL * np.abs(trial_f))
            & (np.abs(trial_u).max(axis=1) > _EDGE_U)
        )
        if retry.any():
            h[retry] = np.eye(dim)
            fresh[retry] = True

        u, f, g = trial_u, trial_f, new_g
        if done.any():
            sel = idx[done]
            u_out[sel] = u[done]
            f_out[sel] = f[done]
            conv_out[sel] = True
            keep = ~done
            idx, u, f, g, h, fresh = (
                idx[keep],
                u[keep],
                f[keep],
                g[keep],
                h[keep],
                fresh[keep],
            )

    if idx.size:
        u_out[idx] = u
        f_out[idx] = f
    return u_out, f_out, conv_out


def _fit_many(n_o, y_o, inf_o, n_r, y_r, inf_r, u0):
    """Solve one fit per row of ``u0`` against per-row data arrays."""
    fun, grad = _objective_factory(n_o, y_o, inf_o, n_r, y_r, inf_r)
    u, f, converged = _bfgs_box(fun, grad, u0)
    p_j, p_ref, scale, offset = _to_params(u)
    return {
        "rate": p_j,
        "ref_rate": p_ref,
        "scale": scale,
        "offset": offset,
        "objective": f,
        "converged": converged,
    }


def _fit_batches(problems: list) -> list:
    """:func:`_fit_many` of every problem, with problems batched together.

    A problem is ``(n_o, y_o, inf_o, n_r, y_r, inf_r, u0)`` as
    :func:`_fit_many` takes it.  Problems with the same signature (both
    curves' finite lengths, and whether each has an infinite-length row;
    every dataset of an experiment shares one) are stacked row-wise into
    one call, in order, until the next would take it past ``_FIT_ROWS``
    rows; a problem is never split.  Returns one result dict per problem.
    """
    batches, rows = {}, {}
    for k, (n_o, _, inf_o, n_r, _, inf_r, u0) in enumerate(problems):
        key = (tuple(n_o), tuple(n_r), inf_o is None, inf_r is None)
        if key not in batches or rows[key] + u0.shape[0] > _FIT_ROWS:
            batches.setdefault(key, []).append([])
            rows[key] = 0
        batches[key][-1].append(k)
        rows[key] += u0.shape[0]
    out = [None] * len(problems)
    for members in (batch for group in batches.values() for batch in group):
        first = problems[members[0]]

        def stacked(col):
            # A batch of one problem takes its arrays uncopied.
            if first[col] is None or len(members) == 1:
                return first[col]
            return np.concatenate([problems[k][col] for k in members])

        y_o, inf_o, y_r, inf_r, u0 = map(stacked, (1, 2, 4, 5, 6))
        res = _fit_many(first[0], y_o, inf_o, first[3], y_r, inf_r, u0)
        bounds = np.cumsum([0] + [problems[k][6].shape[0] for k in members])
        for k, start, stop in zip(members, bounds[:-1], bounds[1:]):
            out[k] = {name: value[start:stop] for name, value in res.items()}
    return out


# ---------------------------------------------------------------------------
# Public fitting API on datasets


def curve_arrays(ds: DecayDataset):
    """(finite lengths, finite per-length means, infinite-length mean) of a
    dataset; the surrogate is pooled into a single pseudo-observation."""
    fins = ds.finite_lengths()
    n = np.array(fins, dtype=np.int64)
    y = np.array([ds.groups[l].bins.mean() for l in fins])
    inf_y = float(ds.groups[INFINITE].bins.mean()) if INFINITE in ds.groups else None
    return n, y, inf_y


def _starts(n_o, y_o, inf_o, n_r, y_r, inf_r):
    # Seeds are pulled well inside the box: at its edges the logistic
    # reparameterization flattens the gradient and a start there can stall.
    degenerate = False
    if n_r.size >= 3:
        ref_seed, _ = prony_seed(y_r[:3])
    else:
        ref_seed = 0.9
    ref_seed = float(np.clip(ref_seed, 0.05, 0.99))

    if inf_o is not None or inf_r is not None:
        offs = [v for v in (inf_o, inf_r) if v is not None]
        b0 = float(np.mean(offs))
    else:
        b0 = float(np.concatenate([y_o, y_r]).mean())
    b0 = float(np.clip(b0, 1e-3, 1.0 - 1e-3))
    a0 = float(np.clip((y_r[0] - b0) / max(ref_seed, 0.1), 5e-3, 1.0 - 1e-3))

    seeds = []
    if n_o.size >= 3:
        over_seed, degenerate = prony_seed(y_o[:3])
        seeds.append(float(np.clip(over_seed, RATE_BOUNDS[0] + 0.02, 0.99)))
    # Fast decays need more care than the slow reference; bracket the seed.
    seeds.extend([RATE_BOUNDS[0] + 0.02, 0.0, 1.0 / 3.0])
    rows = np.array(
        [[p, ref_seed, a0, b0] for p in dict.fromkeys(np.round(seeds, 12))]
    )
    return _to_u(rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]), degenerate


def joint_fit(overlap: DecayDataset, reference: DecayDataset) -> FitResult:
    """Best-objective multi-start joint fit of an overlap decay and the
    shared slow reference decay."""
    return joint_fits([(overlap, reference)])[0]


def joint_fits(pairs) -> list:
    """:func:`joint_fit` of every ``(overlap, reference)`` pair, with the
    starts of all pairs batched together by :func:`_fit_batches`.

    Each pair's best start is picked over its own starts alone, so every
    result equals the pair's own :func:`joint_fit`.
    """
    refs = {}
    problems, degenerate = [], []
    for overlap, reference in pairs:
        n_o, y_o, inf_o = curve_arrays(overlap)
        if id(reference) not in refs:
            refs[id(reference)] = curve_arrays(reference)
        n_r, y_r, inf_r = refs[id(reference)]
        u0, flat = _starts(n_o, y_o, inf_o, n_r, y_r, inf_r)
        starts = u0.shape[0]
        problems.append((
            n_o,
            np.tile(y_o, (starts, 1)),
            None if inf_o is None else np.full(starts, inf_o),
            n_r,
            np.tile(y_r, (starts, 1)),
            None if inf_r is None else np.full(starts, inf_r),
            u0,
        ))
        degenerate.append(flat)
    out = []
    for res, flat in zip(_fit_batches(problems), degenerate):
        best = int(np.argmin(res["objective"]))
        out.append(FitResult(
            rate=float(res["rate"][best]),
            ref_rate=float(res["ref_rate"][best]),
            scale=float(res["scale"][best]),
            offset=float(res["offset"][best]),
            objective=float(res["objective"][best]),
            converged=bool(res["converged"][best]),
            degenerate_seed=flat,
        ))
    return out


def _resample_bins(bins: np.ndarray, replications: int, rng, reduce, draws=None):
    """One ``(replications,)`` array of ``reduce`` over bin resamples.

    Each replication draws ``draws`` bins (default: as many as a row has)
    with replacement from every row of ``bins``; ``reduce`` maps a
    ``(k, rows, draws)`` chunk of draws to its ``k`` values.  A chunk holds
    at most ``_RESAMPLE_CHUNK`` replications and ``_RESAMPLE_ELEMENTS``
    index elements; the result does not depend on the chunking.
    """
    rows, nb = bins.shape
    draws = draws or nb
    step = max(1, min(_RESAMPLE_CHUNK, _RESAMPLE_ELEMENTS // (rows * draws)))
    out = np.empty(replications)
    for start in range(0, replications, step):
        stop = min(start + step, replications)
        idx = rng.integers(0, nb, size=(stop - start, rows, draws))
        out[start:stop] = reduce(bins[np.arange(rows)[None, :, None], idx])
    return out


def _pooled_mean(drawn: np.ndarray) -> np.ndarray:
    # One mean over rows and draws: a mean of per-row means rounds differently.
    return drawn.mean(axis=(1, 2))


def resampled_means(
    ds: DecayDataset,
    replications: int,
    seed: int,
    samples_per_config: int | None = None,
    stream_label: str = "bootstrap",
):
    """Per-length means of ``replications`` bin resamples of a dataset.

    For every replication each configuration (sequence row) contributes
    ``samples_per_config`` bins drawn with replacement from its own bins
    (default: as many as it has); the per-length mean pools all draws.
    Returns a dict mapping length to a ``(replications,)`` array.
    """
    out = {}
    for n, grp in ds.groups.items():
        rng = stream_generator(seed, stream_label, ds.label, str(n))
        out[n] = _resample_bins(grp.bins, replications, rng, _pooled_mean, samples_per_config)
    return out


def _split_inf(means_by_length):
    fins = sorted(n for n in means_by_length if not math.isinf(n))
    n = np.array(fins, dtype=np.int64)
    y = np.stack([means_by_length[l] for l in fins], axis=1)
    inf_y = means_by_length.get(INFINITE)
    return n, y, inf_y


def _refits(means: list, means_r: dict, points: list) -> list:
    """Joint refits of every replication of several overlaps' resampled
    means against one reference's (each as returned by
    :func:`resampled_means`), each overlap warm-started from its point
    estimate, all in one minimizer batch; one result dict per overlap."""
    n_r, y_r, inf_r = _split_inf(means_r)
    problems = []
    for means_o, point in zip(means, points):
        n_o, y_o, inf_o = _split_inf(means_o)
        u0 = np.tile(
            _to_u(point.rate, point.ref_rate, point.scale, point.offset)[None, :],
            (y_o.shape[0], 1),
        )
        problems.append((n_o, y_o, inf_o, n_r, y_r, inf_r, u0))
    return _fit_batches(problems)


def percentile_ci(samples: np.ndarray, axis: int = 0):
    """The (2.5%, 97.5%) percentile interval of ``samples`` along ``axis``."""
    lo, hi = np.percentile(samples, [2.5, 97.5], axis=axis)
    return lo, hi


def bootstrap(
    overlap: DecayDataset,
    reference: DecayDataset,
    replications: int = 2000,
    samples_per_config: int | None = None,
    seed: int = 0,
    point: FitResult | None = None,
) -> FitResult:
    """Non-parametric bootstrap percentiles for a joint fit.

    Bins are resampled with replacement per experimental configuration, the
    joint fit is repeated on every replication (warm-started from the point
    estimate), and 2.5%/97.5% percentiles are attached to the result together
    with the count of refits that did not converge.
    """
    if point is None:
        point = joint_fit(overlap, reference)
    means_o = resampled_means(
        overlap, replications, seed, samples_per_config, "bootstrap-overlap"
    )
    means_r = resampled_means(
        reference, replications, seed, samples_per_config, "bootstrap-reference"
    )
    res = _refits([means_o], means_r, [point])[0]
    ci = {
        name: percentile_ci(res[name])
        for name in ("rate", "ref_rate", "scale", "offset")
    }
    return dataclasses.replace(
        point, ci=ci, nonconverged=int(np.count_nonzero(~res["converged"]))
    )
