import tracemalloc

import numpy as np
import pytest
from scipy.special import expit, logit

from rbtlab import fitting
from rbtlab.channels import NoiseModel, SpamModel
from rbtlab.fitting import (
    AMPLITUDE_BOUNDS,
    RATE_BOUNDS,
    bootstrap,
    curve_arrays,
    decay_to_overlap,
    joint_fit,
    joint_fits,
    prony_seed,
    resampled_means,
)
from rbtlab.pipeline import experiment_bootstrap, fit_overlaps, simulate_experiment
from rbtlab.sampling import DecayDataset, LengthGroup, stream_generator
from rbtlab.sequences import INFINITE
from rbtlab.witness import split_halves

TRUE_SCALE, TRUE_OFFSET, TRUE_REF = 0.45, 0.50, 0.98


def synth_dataset(
    rate,
    scale=TRUE_SCALE,
    offset=TRUE_OFFSET,
    shots=10_000,
    bin_size=100,
    seed=0,
    label="synth",
    noiseless=False,
    lengths=(1, 2, 3),
    with_inf=True,
):
    """Decay-model data with binomial bin noise, shaped like a real dataset."""
    n_bins = shots // bin_size
    groups = {}
    for n in lengths:
        value = scale * rate**n + offset
        if noiseless:
            bins = np.full((1, n_bins), value)
        else:
            gen = stream_generator(seed, label, n)
            bins = gen.binomial(bin_size, value, size=(1, n_bins)) / bin_size
        groups[n] = LengthGroup(("0",), bins)
    if with_inf:
        if noiseless:
            bins = np.full((1, n_bins), offset)
        else:
            gen = stream_generator(seed, label, "inf")
            bins = gen.binomial(bin_size, offset, size=(1, n_bins)) / bin_size
        groups[INFINITE] = LengthGroup(("0",), bins)
    return DecayDataset(None, label, shots, bin_size, seed, groups)


def means_dataset(means, inf_mean, label):
    """A one-row, one-bin dataset holding the given per-length means at
    lengths 1, 2, 3 and the infinite-length mean."""
    groups = {
        n: LengthGroup(("0",), np.full((1, 1), value))
        for n, value in zip((1, 2, 3), means)
    }
    groups[INFINITE] = LengthGroup(("0",), np.full((1, 1), inf_mean))
    return DecayDataset(None, label, 100, 100, 0, groups)


# Noiseless means of a null-operation overlap whose rate sits on the box edge
# -1/3 (null overlap 4 at paper scale, configuration seed 1) and of its
# reference.
EDGE_OVERLAP_MEANS = ([0.35365625, 0.55218403, 0.48624375], 0.5027659722222222)
EDGE_REFERENCE_MEANS = ([0.94804931, 0.94610069, 0.94391661], 0.5030319444444444)


def looped_joint_fit(overlap, reference):
    """Reference point fit: one pair's starts as their own minimizer batch."""
    n_o, y_o, inf_o = curve_arrays(overlap)
    n_r, y_r, inf_r = curve_arrays(reference)
    u0, degenerate = fitting._starts(n_o, y_o, inf_o, n_r, y_r, inf_r)
    starts = u0.shape[0]
    res = fitting._fit_many(
        n_o,
        np.tile(y_o, (starts, 1)),
        None if inf_o is None else np.full(starts, inf_o),
        n_r,
        np.tile(y_r, (starts, 1)),
        None if inf_r is None else np.full(starts, inf_r),
        u0,
    )
    best = int(np.argmin(res["objective"]))
    return fitting.FitResult(
        rate=float(res["rate"][best]),
        ref_rate=float(res["ref_rate"][best]),
        scale=float(res["scale"][best]),
        offset=float(res["offset"][best]),
        objective=float(res["objective"][best]),
        converged=bool(res["converged"][best]),
        degenerate_seed=degenerate,
    )


def looped_experiment_bootstrap(exp, replications, seed):
    """Reference experiment bootstrap: a point fit and a
    ``replications``-row refit per dataset, one dataset at a time."""
    ref_means = resampled_means(exp.reference, replications, seed, None, "bootstrap")
    n_r, y_r, inf_r = fitting._split_inf(ref_means)
    out = []
    for datasets in (exp.datasets, exp.null_datasets):
        fits = []
        rates = np.empty((replications, len(datasets)))
        ref_rates = np.empty((replications, len(datasets)))
        nonconverged = np.empty(len(datasets), dtype=np.int64)
        for col, j in enumerate(sorted(datasets)):
            fit = looped_joint_fit(datasets[j], exp.reference)
            means = resampled_means(datasets[j], replications, seed, None, "bootstrap")
            n_o, y_o, inf_o = fitting._split_inf(means)
            u0 = np.tile(
                fitting._to_u(fit.rate, fit.ref_rate, fit.scale, fit.offset)[None, :],
                (replications, 1),
            )
            res = fitting._fit_many(n_o, y_o, inf_o, n_r, y_r, inf_r, u0)
            fits.append(fit)
            rates[:, col] = res["rate"]
            ref_rates[:, col] = res["ref_rate"]
            nonconverged[col] = np.count_nonzero(~res["converged"])
        out.append((fits, rates, ref_rates, nonconverged))
    return out


# The minimizer kernel as it was before its column-wise rewrite, kept
# verbatim as an oracle but for its logistic, which it takes from the kernel:
# the rewrite changes the order of array passes but no arithmetic, so it
# must match this bit for bit.


def frozen_to_params(u):
    z = fitting._box_z(u)
    span = RATE_BOUNDS[1] - RATE_BOUNDS[0]
    p_j = RATE_BOUNDS[0] + span * z[:, 0]
    p_ref = RATE_BOUNDS[0] + span * z[:, 1]
    scale = z[:, 2]
    offset = z[:, 3]
    return p_j, p_ref, scale, offset


def frozen_objective_factory(n_o, y_o, inf_o, n_r, y_r, inf_r):
    n_o = np.asarray(n_o, dtype=np.int64)
    n_r = np.asarray(n_r, dtype=np.int64)
    k_o = n_o.size + (inf_o is not None)
    k_r = n_r.size + (inf_r is not None)

    def curves(u, rows):
        io = None if inf_o is None else inf_o[rows]
        ir = None if inf_r is None else inf_r[rows]
        p_j, p_ref, scale, offset = frozen_to_params(u)
        return (
            ((p_j, n_o, y_o[rows], io, k_o), (p_ref, n_r, y_r[rows], ir, k_r)),
            scale,
            offset,
        )

    def objective(u, rows):
        pair, scale, offset = curves(u, rows)
        total = 0.0
        for p, n, y, inf, k in pair:
            model = scale[:, None] * p[:, None] ** n + offset[:, None]
            sq = ((y - model) ** 2).sum(axis=1)
            if inf is not None:
                sq = sq + (inf - offset) ** 2
            total = total + sq / k
        return total

    def gradient(u, rows):
        pair, scale, offset = curves(u, rows)
        grad = np.zeros_like(u)
        for col, (p, n, y, inf, k) in enumerate(pair):
            power = p[:, None] ** (n - 1)
            resid = scale[:, None] * power * p[:, None] + offset[:, None] - y
            grad[:, col] = scale * (resid * (n * power)).sum(axis=1) / k
            grad[:, 2] += (resid * power * p[:, None]).sum(axis=1) / k
            grad[:, 3] += resid.sum(axis=1) / k
            if inf is not None:
                grad[:, 3] += (offset - inf) / k
        z = fitting._box_z(u)
        jac = z * (1.0 - z)
        jac[:, :2] *= RATE_BOUNDS[1] - RATE_BOUNDS[0]
        jac[np.abs(u) > 40.0] = 0.0
        return 2.0 * grad * jac

    return objective, gradient


def frozen_bfgs_box(fun, grad, u0):
    total, dim = u0.shape
    u_out = u0.copy()
    idx = np.arange(total)
    f_out = fun(u_out, idx)
    conv_out = np.zeros(total, dtype=bool)

    u = u_out.copy()
    f = f_out.copy()
    g = grad(u, idx)
    h = np.tile(np.eye(dim), (total, 1, 1))
    fresh = np.ones(idx.size, dtype=bool)

    for _ in range(fitting._MAX_ITER):
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
            need = (trial_f > f + fitting._ARMIJO * step * slope) & (step > 1e-18)
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
            rescale = update & fresh
            if rescale.any():
                yy = np.einsum("bi,bi->b", y, y)
                gamma = np.where(rescale & (yy > 0), sy / np.maximum(yy, 1e-300), 1.0)
                h[rescale] *= gamma[rescale, None, None]
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
        done |= improved & (delta <= fitting._F_RTOL * np.abs(trial_f) + 1e-30)
        done |= np.abs(new_g).max(axis=1) < fitting._G_TOL
        retry = stalled & ~fresh & ~done
        retry |= (
            improved
            & ~done
            & (delta < fitting._CREEP_RTOL * np.abs(trial_f))
            & (np.abs(trial_u).max(axis=1) > fitting._EDGE_U)
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


class TestPronySeed:
    def test_exact_fast_decay(self):
        values = [0.4 * (1 / 3) ** n + 0.5 for n in (1, 2, 3)]
        rate, degenerate = prony_seed(values)
        assert rate == pytest.approx(1 / 3, abs=1e-12)
        assert not degenerate

    def test_exact_oscillatory_decay(self):
        values = [0.4 * (-1 / 3) ** n + 0.5 for n in (1, 2, 3)]
        rate, degenerate = prony_seed(values)
        assert rate == pytest.approx(-1 / 3, abs=1e-12)
        assert not degenerate

    def test_flat_data_degenerate(self):
        rate, degenerate = prony_seed([0.5, 0.5, 0.5])
        assert rate == 0.0
        assert degenerate

    def test_clamped_into_box(self):
        rate, _ = prony_seed([0.9, 0.5, 0.1])  # ratio 1.0 exactly
        assert RATE_BOUNDS[0] <= rate <= RATE_BOUNDS[1]

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            prony_seed([0.6, 0.5])


class TestDecayToOverlap:
    @pytest.mark.parametrize("rate,overlap", [(1.0, 4.0), (-1 / 3, 0.0), (0.0, 1.0)])
    def test_values(self, rate, overlap):
        assert decay_to_overlap(rate) == pytest.approx(overlap)


class TestJointFit:
    def test_noiseless_exact_recovery(self):
        over = synth_dataset(1 / 3, noiseless=True, label="o")
        ref = synth_dataset(TRUE_REF, noiseless=True, label="r")
        fit = joint_fit(over, ref)
        assert fit.converged
        assert fit.rate == pytest.approx(1 / 3, abs=1e-8)
        assert fit.ref_rate == pytest.approx(TRUE_REF, abs=1e-8)
        assert fit.scale == pytest.approx(TRUE_SCALE, abs=1e-8)
        assert fit.offset == pytest.approx(TRUE_OFFSET, abs=1e-8)

    @pytest.mark.parametrize("rate", [-1 / 3, 0.0, 1 / 3])
    def test_noisy_recovery_within_tolerance(self, rate):
        over = synth_dataset(rate, seed=101, label=f"o{rate}")
        ref = synth_dataset(TRUE_REF, seed=102, label=f"r{rate}")
        fit = joint_fit(over, ref)
        assert abs(fit.rate - rate) <= 0.02

    def test_zero_rate_with_healthy_reference(self):
        # the degenerate direction (rate 0 versus dead contrast) is broken by
        # the shared scale: the reference pins the scale and the CI covers 0
        over = synth_dataset(0.0, seed=7, label="deg-o")
        ref = synth_dataset(TRUE_REF, seed=8, label="deg-r")
        fit = bootstrap(over, ref, replications=500, seed=3)
        assert abs(fit.scale - TRUE_SCALE) < 0.05
        lo, hi = fit.ci["rate"]
        assert lo <= 0.0 <= hi

    def test_estimates_respect_boxes(self, rng):
        for trial in range(10):
            rate = float(rng.uniform(-1 / 3, 1 / 3))
            over = synth_dataset(rate, seed=200 + trial, label=f"box-o{trial}")
            ref = synth_dataset(TRUE_REF, seed=300 + trial, label=f"box-r{trial}")
            fit = joint_fit(over, ref)
            assert RATE_BOUNDS[0] <= fit.rate <= RATE_BOUNDS[1]
            assert RATE_BOUNDS[0] <= fit.ref_rate <= RATE_BOUNDS[1]
            assert AMPLITUDE_BOUNDS[0] <= fit.scale <= AMPLITUDE_BOUNDS[1]
            assert AMPLITUDE_BOUNDS[0] <= fit.offset <= AMPLITUDE_BOUNDS[1]

    def test_objective_symmetric_under_curve_swap(self):
        over = synth_dataset(1 / 3, seed=11, label="swap-o")
        ref = synth_dataset(TRUE_REF, seed=12, label="swap-r")
        forward = joint_fit(over, ref)
        swapped = joint_fit(ref, over)
        assert forward.objective == pytest.approx(swapped.objective, abs=1e-9)
        assert forward.rate == pytest.approx(swapped.ref_rate, abs=1e-4)
        assert forward.ref_rate == pytest.approx(swapped.rate, abs=1e-4)

    def test_offset_tracks_surrogate_mean(self):
        over = synth_dataset(1 / 3, seed=21, label="b-o")
        ref = synth_dataset(TRUE_REF, seed=22, label="b-r")
        fit = joint_fit(over, ref)
        inf_means = [
            over.groups[INFINITE].bins.mean(),
            ref.groups[INFINITE].bins.mean(),
        ]
        pooled = float(np.mean(inf_means))
        standard_error = 0.5 / np.sqrt(2 * 10_000)
        assert abs(fit.offset - pooled) <= 2 * standard_error + 1e-3

    def test_identifiability_improves_with_length_three(self):
        errs = {}
        for lengths in [(1, 2), (1, 2, 3)]:
            errors = []
            for trial in range(20):
                over = synth_dataset(
                    1 / 3, seed=500 + trial, label=f"len-o{lengths}{trial}", lengths=lengths
                )
                ref = synth_dataset(
                    TRUE_REF, seed=600 + trial, label=f"len-r{lengths}{trial}", lengths=lengths
                )
                errors.append(abs(joint_fit(over, ref).rate - 1 / 3))
            errs[lengths] = float(np.mean(errors))
        assert errs[(1, 2, 3)] < errs[(1, 2)]

    def test_rate_on_box_edge_converges(self):
        # Noiseless means of a null-operation overlap whose rate sits on the
        # box edge -1/3 (paper-scale data, configuration seed 1).  The fit
        # ends within about 1e-8 of the edge, where each step gains almost
        # nothing, and used to run out of iterations there.
        over = means_dataset(*EDGE_OVERLAP_MEANS, "edge-o")
        ref = means_dataset(*EDGE_REFERENCE_MEANS, "edge-r")
        fit = joint_fit(over, ref)
        assert fit.converged
        assert fit.rate == pytest.approx(RATE_BOUNDS[0], abs=1e-6)

    def test_curve_arrays_shapes(self):
        ds = synth_dataset(0.5, noiseless=True)
        n, y, inf_y = curve_arrays(ds)
        assert list(n) == [1, 2, 3]
        assert y.shape == (3,)
        assert inf_y == pytest.approx(TRUE_OFFSET)


class TestGradient:
    LENGTHS = np.array([1, 2, 3])

    def factory(self, rng, data_rows, with_inf):
        y_o = rng.uniform(0.3, 0.9, size=(data_rows, 3))
        y_r = rng.uniform(0.3, 0.9, size=(data_rows, 3))
        inf_o = rng.uniform(0.4, 0.6, size=data_rows) if with_inf else None
        inf_r = rng.uniform(0.4, 0.6, size=data_rows) if with_inf else None
        return fitting._objective_factory(
            self.LENGTHS, y_o, inf_o, self.LENGTHS, y_r, inf_r
        )

    @pytest.mark.parametrize("with_inf", [False, True], ids=["finite", "with-inf"])
    @pytest.mark.parametrize("data_rows", [12], ids=["per-row"])
    def test_matches_central_difference(self, rng, data_rows, with_inf):
        # Data are fit on a subset of their rows, as the minimizer does once
        # some rows have converged.
        fun, grad = self.factory(rng, data_rows, with_inf)
        rows = np.array([0, 3, 4, 7, 11])
        u = rng.normal(0.0, 3.0, size=(rows.size, 4))
        numeric = np.empty_like(u)
        for d in range(4):
            shift = np.zeros_like(u)
            shift[:, d] = 1e-6
            numeric[:, d] = (fun(u + shift, rows) - fun(u - shift, rows)) / 2e-6
        np.testing.assert_allclose(grad(u, rows), numeric, rtol=0, atol=1e-8)

    def test_zero_beyond_clip(self, rng):
        fun, grad = self.factory(rng, 6, True)
        u = rng.normal(0.0, 2.0, size=(6, 4))
        u[0, 0], u[1, 1], u[2, 2], u[3, 3] = 41.0, -45.0, 60.0, -40.5
        u[4, :] = [-50.0, 50.0, 41.0, -41.0]
        g = grad(u, np.arange(6))
        beyond = np.abs(u) > 40.0
        assert np.all(g[beyond] == 0.0)
        assert np.all(g[~beyond] != 0.0)


class TestBootstrap:
    def test_zero_noise_ci_collapses(self):
        over = synth_dataset(1 / 3, noiseless=True, label="z-o")
        ref = synth_dataset(TRUE_REF, noiseless=True, label="z-r")
        fit = bootstrap(over, ref, replications=200, seed=1)
        lo, hi = fit.ci["rate"]
        assert hi - lo < 1e-6

    def test_same_seed_identical_cis(self):
        over = synth_dataset(1 / 3, seed=31, label="d-o")
        ref = synth_dataset(TRUE_REF, seed=32, label="d-r")
        a = bootstrap(over, ref, replications=300, seed=5)
        b = bootstrap(over, ref, replications=300, seed=5)
        assert a.ci == b.ci

    def test_ci_brackets_point_estimate(self):
        over = synth_dataset(1 / 3, seed=41, label="p-o")
        ref = synth_dataset(TRUE_REF, seed=42, label="p-r")
        fit = bootstrap(over, ref, replications=500, seed=2)
        for name, value in [
            ("rate", fit.rate),
            ("ref_rate", fit.ref_rate),
            ("scale", fit.scale),
            ("offset", fit.offset),
        ]:
            lo, hi = fit.ci[name]
            assert lo - 1e-3 <= value <= hi + 1e-3

    def test_ci_width_shrinks_with_shots(self):
        # 100x the shots at a fixed bin count: the CI width drops like the
        # square root of the shot count
        widths = {}
        for shots, bin_size in ((100, 1), (10_000, 100)):
            over = synth_dataset(
                1 / 3, shots=shots, bin_size=bin_size, seed=51, label=f"w-o{shots}"
            )
            ref = synth_dataset(
                TRUE_REF, shots=shots, bin_size=bin_size, seed=52, label=f"w-r{shots}"
            )
            fit = bootstrap(over, ref, replications=400, seed=4)
            lo, hi = fit.ci["rate"]
            widths[shots] = hi - lo
        ratio = widths[100] / widths[10_000]
        assert 4.0 < ratio < 25.0

    def test_resampled_means_deterministic_across_chunking(self, monkeypatch):
        ds = synth_dataset(1 / 3, seed=61, label="chunk")
        a = resampled_means(ds, 150, seed=9)
        monkeypatch.setattr(fitting, "_RESAMPLE_CHUNK", 7)
        b = resampled_means(ds, 150, seed=9)
        # An element budget below one replication's index: one per chunk.
        monkeypatch.setattr(fitting, "_RESAMPLE_ELEMENTS", 1)
        c = resampled_means(ds, 150, seed=9)
        for n in a:
            assert np.array_equal(a[n], b[n])
            assert np.array_equal(a[n], c[n])

    def test_split_half_resample_working_set(self):
        # A paper-scale length group's split half resamples one replication
        # per chunk: its index and gathered bins take about 1.3 MiB.
        bins = np.random.default_rng(3).random((1728, 100))
        ds = DecayDataset(None, "half", 10_000, 100, 0, {3: LengthGroup(("0",) * 1728, bins)})
        half, _ = split_halves(ds)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            resampled_means(half, 6, seed=1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20, peak

    def test_counts_nonconverged_refits(self, monkeypatch):
        over = synth_dataset(1 / 3, seed=71, label="nc-o")
        ref = synth_dataset(TRUE_REF, seed=72, label="nc-r")
        point = joint_fit(over, ref)
        fit = bootstrap(over, ref, replications=40, seed=6, point=point)
        assert fit.nonconverged == 0
        monkeypatch.setattr(fitting, "_MAX_ITER", 1)
        capped = bootstrap(over, ref, replications=40, seed=6, point=point)
        assert capped.nonconverged == 40
        # The replications are kept: the percentiles are still reported.
        assert np.all(np.isfinite(capped.ci["rate"]))

    def test_experiment_bootstrap_counts_nonconverged_refits(self, monkeypatch):
        noise = NoiseModel.depolarizing_model(0.99)
        spam = SpamModel.with_assignment_error(0.95)
        exp = simulate_experiment(
            "hadamard", noise, spam, shots=400, bin_size=100, seed=8,
            repeats={1: 1, INFINITE: 1},
        )
        fits = fit_overlaps(exp.datasets, exp.reference)
        null_fits = fit_overlaps(exp.null_datasets, exp.reference)
        monkeypatch.setattr(fitting, "_MAX_ITER", 1)
        boot = experiment_bootstrap(
            exp.datasets, exp.reference, replications=12, seed=2,
            null_datasets=exp.null_datasets, fits=fits, null_fits=null_fits,
        )
        assert boot.nonconverged.tolist() == [12] * 10
        assert boot.null_nonconverged.tolist() == [12] * 10


class TestBatchInvariance:
    """A fit's result does not depend on the rows it shares a minimizer
    batch with, so batching fits over datasets leaves every bit unchanged."""

    LENGTHS = np.array([1, 2, 3])

    def problem(self, rng, rows):
        return (
            rng.uniform(0.3, 0.9, size=(rows, 3)),
            rng.uniform(0.4, 0.6, size=rows),
            rng.uniform(0.3, 0.9, size=(rows, 3)),
            rng.uniform(0.4, 0.6, size=rows),
            rng.normal(0.0, 1.5, size=(rows, 4)),
        )

    def solve(self, y_o, inf_o, y_r, inf_r, u0):
        fun, grad = fitting._objective_factory(
            self.LENGTHS, y_o, inf_o, self.LENGTHS, y_r, inf_r
        )
        return fitting._bfgs_box(fun, grad, u0)

    @pytest.mark.parametrize("batch", ["single", "permuted", "padded"])
    def test_bfgs_row_independent_of_batch(self, rng, batch):
        rows = 16
        data = self.problem(rng, rows)
        alone = self.solve(*data)
        if batch == "single":
            each = [self.solve(*(a[r : r + 1] for a in data)) for r in range(rows)]
            got = [np.concatenate(parts) for parts in zip(*each)]
        else:
            if batch == "padded":
                extra = self.problem(rng, 24)
                data = tuple(np.concatenate([a, b]) for a, b in zip(data, extra))
            order = rng.permutation(data[0].shape[0])
            mixed = self.solve(*(a[order] for a in data))
            where = np.argsort(order)[:rows]
            got = [out[where] for out in mixed]
        for name, g, want in zip(("u", "f", "converged"), got, alone):
            assert g.tobytes() == want.tobytes(), name

    def test_fit_batches_independent_of_batch_size(self, rng, monkeypatch):
        problems = []
        for rows in (3, 7, 2, 11, 4):
            y_o, inf_o, y_r, inf_r, u0 = self.problem(rng, rows)
            problems.append((self.LENGTHS, y_o, inf_o, self.LENGTHS, y_r, inf_r, u0))
        each = [fitting._fit_many(*p) for p in problems]
        for limit in (1, 8, 1000):
            monkeypatch.setattr(fitting, "_FIT_ROWS", limit)
            for got, want in zip(fitting._fit_batches(problems), each):
                for name, value in want.items():
                    assert got[name].tobytes() == value.tobytes(), (limit, name)

    def test_joint_fits_equal_per_pair_fits(self):
        edge_ref = means_dataset(*EDGE_REFERENCE_MEANS, "edge-r")
        ref = synth_dataset(TRUE_REF, seed=82, label="b-r")
        short_ref = synth_dataset(TRUE_REF, seed=84, label="b-r12", lengths=(1, 2))
        pairs = [
            (means_dataset(*EDGE_OVERLAP_MEANS, "edge-o"), edge_ref),
            (synth_dataset(1 / 3, seed=81, label="b-o"), ref),
            (synth_dataset(0.0, seed=83, label="b-o0"), ref),
            (synth_dataset(-0.2, seed=85, label="b-o12", lengths=(1, 2)), short_ref),
            (
                synth_dataset(1 / 3, seed=86, label="b-fin", with_inf=False),
                synth_dataset(TRUE_REF, seed=87, label="b-rfin", with_inf=False),
            ),
            (synth_dataset(0.1, seed=88, label="b-o-edge"), edge_ref),
        ]
        batched = joint_fits(pairs)
        assert batched == [joint_fit(o, r) for o, r in pairs]
        assert batched == [looped_joint_fit(o, r) for o, r in pairs]
        assert batched[0].converged
        assert batched[0].rate == pytest.approx(RATE_BOUNDS[0], abs=1e-6)

    @pytest.mark.parametrize("replications", [1, 7, 20])
    def test_experiment_bootstrap_equals_per_dataset_loop(self, replications):
        noise = NoiseModel.depolarizing_model(0.99)
        spam = SpamModel.with_assignment_error(0.95)
        exp = simulate_experiment(
            "w", noise, spam, shots=400, bin_size=100, seed=9,
            repeats={1: 1, INFINITE: 1},
        )
        boot = experiment_bootstrap(
            exp.datasets, exp.reference, replications=replications, seed=3,
            null_datasets=exp.null_datasets,
        )
        target, null = looped_experiment_bootstrap(exp, replications, seed=3)
        assert boot.fits == target[0]
        assert boot.null_fits == null[0]
        for got, want in [
            (boot.rates, target[1]),
            (boot.ref_rates, target[2]),
            (boot.nonconverged, target[3]),
            (boot.null_rates, null[1]),
            (boot.null_nonconverged, null[3]),
        ]:
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestKernelOracle:
    """The minimizer kernel equals the frozen oracle above bit for bit: the
    objective, its gradient, and ``(u, f, converged)`` of a whole batch."""

    ROWS = 24

    def problem(self, rng, lengths, with_inf, noiseless):
        n = np.arange(1, lengths + 1)
        u_true = rng.normal(0.0, 1.5, size=(self.ROWS, 4))
        if noiseless:
            # Data on the model as the gradient evaluates it, at even
            # lengths: the gradient's residuals at u_true are exact zeros,
            # so for a negative rate every product with an odd power is
            # -0.0 and a row sum of them must come out +0.0.
            n = 2 * n
            p_j, p_ref, scale, offset = frozen_to_params(u_true)
            y_o, y_r = (
                scale[:, None] * p[:, None] ** (n - 1) * p[:, None] + offset[:, None]
                for p in (p_j, p_ref)
            )
            inf_o, inf_r = offset.copy(), offset.copy()
        else:
            y_o = rng.uniform(0.3, 0.9, size=(self.ROWS, lengths))
            y_r = rng.uniform(0.3, 0.9, size=(self.ROWS, lengths))
            inf_o = rng.uniform(0.4, 0.6, size=self.ROWS)
            inf_r = rng.uniform(0.4, 0.6, size=self.ROWS)
        if not with_inf:
            inf_o = inf_r = None
        data = (n, y_o, inf_o, n, y_r, inf_r)
        u0 = u_true + rng.normal(0.0, 0.5, size=u_true.shape)
        # Starts beyond the +-40 clip, where the objective is flat.
        u0[0, 0], u0[1, 3], u0[2, 2], u0[3, 1] = 45.0, -50.0, 40.5, -41.0
        return data, u_true, u0

    CASES = pytest.mark.parametrize(
        "lengths,with_inf,noiseless",
        [
            (lengths, with_inf, noiseless)
            for lengths in range(1, 10)
            for with_inf in (False, True)
            for noiseless in (False, True)
        ],
    )

    @CASES
    def test_objective_and_gradient(self, rng, lengths, with_inf, noiseless):
        data, u_true, u0 = self.problem(rng, lengths, with_inf, noiseless)
        fun, grad = fitting._objective_factory(*data)
        old_fun, old_grad = frozen_objective_factory(*data)
        every = np.arange(self.ROWS)
        compacted = np.sort(rng.choice(self.ROWS, size=9, replace=False))
        shuffled = rng.permutation(self.ROWS)[:11]
        for u in (u_true, u0):
            for rows in (every, compacted, shuffled):
                for new, old in ((fun, old_fun), (grad, old_grad)):
                    assert new(u[rows], rows).tobytes() == old(u[rows], rows).tobytes()
            for new, old in ((fun, old_fun), (grad, old_grad)):
                assert new(u, slice(None)).tobytes() == old(u, every).tobytes()

    @CASES
    def test_bfgs(self, rng, lengths, with_inf, noiseless):
        data, _, u0 = self.problem(rng, lengths, with_inf, noiseless)
        got = fitting._bfgs_box(*fitting._objective_factory(*data), u0)
        want = frozen_bfgs_box(*frozen_objective_factory(*data), u0)
        for name, g, w in zip(("u", "f", "converged"), got, want):
            assert g.tobytes() == w.tobytes(), name

    def test_einsum_adds_as_matmul(self, rng):
        # The kernel's inverse-Hessian products use einsum in place of the
        # oracle's matmul; both must add the four products in one order.
        rows = 20_000
        h = rng.normal(size=(rows, 4, 4)) * 10.0 ** rng.integers(-12, 12, size=(rows, 4, 4))
        g = rng.normal(size=(rows, 4)) * 10.0 ** rng.integers(-12, 12, size=(rows, 4))
        zeros = rng.integers(0, 6, size=h.shape)
        h[zeros == 0], h[zeros == 1] = -0.0, 0.0
        want = (h @ g[:, :, None])[:, :, 0]
        assert np.einsum("bij,bj->bi", h, g).tobytes() == want.tobytes()


def ulps(got, want) -> np.ndarray:
    """Units in the last place between two float64 arrays, elementwise;
    +0.0 and -0.0 are 0 apart."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    i, j = (x.view(np.int64) for x in (got, want))
    i, j = (np.where(k < 0, np.int64(-(2**63)) - k, k) for k in (i, j))
    return np.abs(i - j)


def logistic_ulps(u) -> np.ndarray:
    """The ulp distance of ``_box_z(u)`` from ``expit(clip(u, -40, 40))``,
    halved below u = -36.7.  There ``exp(-u)`` reaches 2**53 (at
    u = -53 ln 2), so scipy's own ``1 + exp(-u)`` rounds to a multiple of 2
    and a one-ulp difference in the exponential grows to three or four ulp
    of the logistic; elsewhere numpy is within 2 ulp of scipy."""
    clipped = np.clip(u, -40.0, 40.0)
    apart = ulps(fitting._box_z(u), expit(clipped))
    return np.where(clipped < -36.7, (apart + 1) // 2, apart)


def box_logit(p):
    """The logit that ``_to_u`` takes of a fraction of its box, which for
    the scale column (box [0, 1]) is the clipped value itself."""
    return fitting._to_u(p, p, p, p)[..., 2]


class TestLogistic:
    """The box transform's logistic (``_box_z``) and logit (the columns of
    ``_to_u``) are plain numpy, within 2 ulp of scipy's ``expit`` and
    ``logit`` in every shape the fits use (4 ulp in the logistic's far
    negative tail; see :func:`logistic_ulps`)."""

    def test_expit_matches_scipy(self):
        x = np.random.default_rng(1).normal(0.0, 5.0, size=10**6)
        assert logistic_ulps(x).max() <= 2

    def test_logit_matches_scipy(self):
        rng = np.random.default_rng(2)
        # Fractions from both tails, from both branches of scipy's formula,
        # and next to 1/2, where a difference of two logarithms cancels.
        x = np.concatenate([
            rng.random(10**6),
            expit(rng.normal(0.0, 5.0, size=10**6)),
            0.5 + rng.normal(0.0, 1e-6, size=10**5),
        ])
        assert ulps(box_logit(x), logit(np.clip(x, 1e-9, 1.0 - 1e-9))).max() <= 2

    @pytest.mark.parametrize(
        "shape",
        [(), *[(k,) for k in range(1, 10)], *[(k, w) for k in (1, 2, 3, 7, 64) for w in (4, 1)]],
    )
    def test_every_shape(self, shape):
        rng = np.random.default_rng(len(shape) * 100 + sum(shape))
        for _ in range(200):
            u = rng.normal(0.0, 20.0, size=shape)
            assert logistic_ulps(u).max() <= 2
            p = rng.random(size=shape)
            assert ulps(box_logit(p), logit(np.clip(p, 1e-9, 1.0 - 1e-9))).max() <= 2

    def test_clip_ends(self):
        u = np.array([[-40.0, 40.0, -41.0, 41.0], [-1e300, 1e300, -0.0, 0.0]])
        z = fitting._box_z(u)
        assert logistic_ulps(u).max() <= 2
        assert np.array_equal(z[0, :2], z[0, 2:]) and np.array_equal(z[1, :2], z[0, :2])

    def test_logit_at_the_branch_ends_and_box_ends(self):
        x = [1e-9, 1.0 - 1e-9, 0.3, 0.65, 0.5]
        x += [np.nextafter(0.3, 0.0), np.nextafter(0.3, 1.0)]
        x += [np.nextafter(0.65, 0.0), np.nextafter(0.65, 1.0)]
        x += [np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)]
        for value in x:
            assert ulps(box_logit(value), logit(value)) <= 2, value
        assert ulps(box_logit(np.array(x)), logit(np.array(x))).max() <= 2
