"""Pre-training tests: mask schemes against counting/structure oracles,
losses against closed forms and independent numpy implementations, optimizer
against a hand-stepped oracle, and the step/loop machinery for determinism
and resume-exactness."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grad_oracle import grad_check
from grid_oracle import grid_mask_loss, unpatchify
from routing_replay import recorded, replayed
from misac import tensor as tt
from misac.downstream import PILOT_SPACING, estimation_mask, prediction_mask
from misac.encoder import EncoderConfig, PoolStats
from misac.pretrain import (
    Adam,
    MaskScheme,
    MaskSpec,
    PretrainError,
    PretrainModel,
    PretrainSettings,
    choose_csi_scheme,
    contrastive_loss,
    cosine_lr,
    decode_masked,
    encode_visible,
    load_balance_loss,
    mask_loss,
    pool_usage,
    prepare_step_inputs,
    pretrain_step,
    run_pretrain,
    sample_mask,
    sample_scheme,
    step_objective,
    total_loss,
)
from misac.synth import SynthConfig, synth_dataset
from misac.tensor import Tensor
from misac.tokenizer import Modality, ModalitySpec, TokenizerConfig, patchify, preprocess


# ---------------------------------------------------------------------------
# mask schemes


def token_grid(grid: tuple[int, int], patch_w: int = 1) -> ModalitySpec:
    """A layout whose token grid is grid, cut by 1 x patch_w patches."""
    return ModalitySpec(grid[0], grid[1] * patch_w, (1, patch_w))


class TestMaskSchemes:
    def test_scheme_validation(self):
        with pytest.raises(PretrainError):
            MaskScheme("random")
        with pytest.raises(PretrainError):
            MaskScheme("frequency", ratio=1.0)
        with pytest.raises(PretrainError):
            MaskScheme("comb", spacing=1)
        with pytest.raises(PretrainError):
            MaskScheme("stripes", ratio=0.2)

    def test_sample_scheme_parameter_ranges(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = sample_scheme("random", rng)
            assert 0.1 <= s.ratio <= 0.5
            c = sample_scheme("comb", rng)
            assert 4 <= c.spacing <= 16
        kinds = {choose_csi_scheme(rng).kind for _ in range(60)}
        assert kinds == {"random", "frequency", "comb"}

    def test_random_mask_count_and_partition(self):
        rng = np.random.default_rng(3)
        spec = sample_mask(MaskScheme("random", ratio=0.25), token_grid((4, 8)), rng)
        assert spec.masked.size == round(0.25 * 32) == 8
        assert spec.visible.size == 24
        together = np.sort(np.concatenate([spec.visible, spec.masked]))
        assert np.array_equal(together, np.arange(32))
        assert np.array_equal(np.nonzero(spec.omega.reshape(-1))[0], spec.masked)

    def test_random_mask_determinism(self):
        a = sample_mask(MaskScheme("random", ratio=0.3), token_grid((4, 8)), np.random.default_rng(7))
        b = sample_mask(MaskScheme("random", ratio=0.3), token_grid((4, 8)), np.random.default_rng(7))
        assert np.array_equal(a.masked, b.masked)

    def test_frequency_stripe_is_contiguous_columns(self):
        rng = np.random.default_rng(11)
        spec = sample_mask(MaskScheme("frequency", ratio=0.3), token_grid((2, 10)), rng)
        cols = np.nonzero(spec.omega.all(axis=0))[0]
        assert cols.size == round(0.3 * 10) == 3
        assert np.array_equal(np.diff(cols), np.ones(2, dtype=cols.dtype))
        # masked columns are fully masked, others fully visible
        assert spec.omega[:, cols].all()
        assert not spec.omega[:, np.setdiff1d(np.arange(10), cols)].any()

    def test_comb_exact_patch_division(self):
        # spacing 4 subcarriers over patch width 2 -> every 2nd token column visible
        spec = sample_mask(MaskScheme("comb", spacing=4), token_grid((2, 8), 2), np.random.default_rng(0))
        visible_cols = np.nonzero(~spec.omega.any(axis=0))[0]
        assert np.array_equal(visible_cols, [0, 2, 4, 6])

    def test_comb_rounds_to_nearest_token_spacing(self):
        # 5 / 2 = 2.5 rounds to 2 (ties to even); 7 / 2 = 3.5 rounds to 4
        s5 = sample_mask(MaskScheme("comb", spacing=5), token_grid((2, 8), 2), np.random.default_rng(0))
        assert np.array_equal(np.nonzero(~s5.omega.any(axis=0))[0], [0, 2, 4, 6])
        s7 = sample_mask(MaskScheme("comb", spacing=7), token_grid((2, 8), 2), np.random.default_rng(0))
        assert np.array_equal(np.nonzero(~s7.omega.any(axis=0))[0], [0, 4])

    def test_comb_step_floors_at_two(self):
        # spacing 4 with patch width 8 would be a step of 1: everything visible
        spec = sample_mask(MaskScheme("comb", spacing=4), token_grid((2, 8), 8), np.random.default_rng(0))
        assert np.array_equal(np.nonzero(~spec.omega.any(axis=0))[0], [0, 2, 4, 6])

    def test_degenerate_counts_are_clamped(self):
        # round(ratio * n) of 0 or n would leave one side empty
        for ratio, grid, n_masked in [(0.1, (1, 4), 1), (0.9, (1, 2), 1), (0.11, (2, 2), 1), (0.9, (2, 2), 3)]:
            spec = sample_mask(MaskScheme("random", ratio=ratio), token_grid(grid), np.random.default_rng(0))
            assert spec.masked.size == n_masked and spec.visible.size == grid[0] * grid[1] - n_masked
        for ratio, width in [(0.11, 1), (0.9, 3)]:
            spec = sample_mask(MaskScheme("frequency", ratio=ratio), token_grid((2, 4)), np.random.default_rng(0))
            assert spec.omega.all(axis=0).sum() == width and spec.omega.any(axis=0).sum() == width

    def test_grid_too_small_for_a_mask_rejected(self):
        with pytest.raises(PretrainError):
            sample_mask(MaskScheme("random", ratio=0.5), token_grid((1, 1)), np.random.default_rng(0))
        with pytest.raises(PretrainError):
            sample_mask(MaskScheme("frequency", ratio=0.5), token_grid((4, 1)), np.random.default_rng(0))
        with pytest.raises(PretrainError):
            sample_mask(MaskScheme("comb", spacing=4), token_grid((4, 1)), np.random.default_rng(0))

    def test_paper_csi_grid_takes_every_scheme(self):
        # the paper preset's 4x8 CSI token grid with patch width 4 turns comb
        # spacings 4 and 5 into one token column; each draw must still mask
        from misac.config import paper_config

        spec = paper_config().model.tokenizer_config().spec(Modality.CSI)
        rng = np.random.default_rng(0)
        for _ in range(200):
            mask = sample_mask(choose_csi_scheme(rng), spec, rng)
            assert mask.masked.size and mask.visible.size


# ---------------------------------------------------------------------------
# losses


CSI_LAYOUT = ModalitySpec(4, 8, (2, 2))  # a 2 x 4 token grid of 8-wide patch vectors


class TestMaskLoss:
    """mask_loss on token matrices; each case is written on the [H, W, C]
    grid and patchified, so pixels name the elements they move."""

    def setup_method(self):
        rng = np.random.default_rng(5)
        self.grid = rng.normal(size=(4, 8, 2))
        self.target = patchify(self.grid, CSI_LAYOUT)
        omega = np.zeros((2, 4), dtype=bool)
        omega[0, 1] = omega[1, 3] = omega[1, 0] = True  # 3 masked tokens of 8
        self.spec = MaskSpec.from_omega(omega)

    def loss_of(self, grid):
        return mask_loss(
            {Modality.CSI: Tensor(patchify(grid, CSI_LAYOUT))},
            {Modality.CSI: self.target},
            {Modality.CSI: self.spec},
        )

    def test_zero_when_reconstruction_matches(self):
        sse, count = self.loss_of(self.grid.copy())
        assert sse.item() == 0.0
        assert count == 3 * 2 * 2 * 2

    def test_visible_errors_do_not_count(self):
        recon = self.grid.copy()
        recon[0:2, 0:2, :] += 9.0  # token (0, 0) is visible
        sse, _ = self.loss_of(recon)
        assert sse.item() == 0.0

    def test_single_masked_pixel_delta(self):
        recon = self.grid.copy()
        recon[0, 2, 0] += 0.5  # inside masked token (0, 1)
        sse, count = self.loss_of(recon)
        assert count == 24
        assert abs(sse.item() - 0.25) < 1e-12

    def test_two_modalities_pool_counts(self):
        map_layout = ModalitySpec(8, 8, (4, 4))
        t2 = np.zeros((8, 8, 4))
        omega2 = np.zeros((2, 2), dtype=bool)
        omega2[0, 0] = True
        spec2 = MaskSpec.from_omega(omega2)
        r2 = t2.copy()
        r2[0, 0, 0] = 1.0  # masked map pixel, squared error 1
        recon1 = self.grid.copy()
        recon1[0, 2, 0] += 1.0  # masked csi pixel, squared error 1
        sse, count = mask_loss(
            {Modality.CSI: Tensor(patchify(recon1, CSI_LAYOUT)), Modality.MAP: Tensor(patchify(r2, map_layout))},
            {Modality.CSI: self.target, Modality.MAP: patchify(t2, map_layout)},
            {Modality.CSI: self.spec, Modality.MAP: spec2},
        )
        assert count == 24 + 1 * 4 * 4 * 4
        assert abs(sse.item() - 2.0) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(PretrainError):
            mask_loss(
                {Modality.CSI: Tensor(np.zeros((8, 4)))},
                {Modality.CSI: self.target},
                {Modality.CSI: self.spec},
            )
        # a mask over another token grid than the target's
        other = MaskSpec.from_omega(np.zeros((4, 8), dtype=bool))
        with pytest.raises(PretrainError, match="mask over 32 tokens != target's 8"):
            mask_loss({Modality.CSI: Tensor(self.target.copy())}, {Modality.CSI: self.target}, {Modality.CSI: other})

    def test_nothing_masked_rejected(self):
        with pytest.raises(PretrainError):
            mask_loss({}, {}, {})


@st.composite
def layouts_and_masks(draw):
    """A layout with a patch of any shape, a channel count of 1, 2 or 4, and
    a mask of one of the kinds the pipeline builds: a scheme's draw or a
    reconstruction task's mask."""
    ph, pw = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    gr, gc = draw(st.integers(1, 4)), draw(st.integers(2, 9))
    layout = ModalitySpec(gr * ph, gc * pw, (ph, pw))
    channels = draw(st.sampled_from([1, 2, 4]))
    kind = draw(st.sampled_from(["random", "frequency", "comb", "prediction", "estimation"]))
    if kind == "prediction":
        mask = prediction_mask(layout)
    elif kind == "estimation":
        assume(gc > PILOT_SPACING)
        mask = estimation_mask(layout)
    else:
        if kind == "comb":
            scheme = MaskScheme("comb", spacing=draw(st.integers(2, 16)))
        else:
            scheme = MaskScheme(kind, ratio=draw(st.floats(0.05, 0.95)))
        mask = sample_mask(scheme, layout, np.random.default_rng(draw(st.integers(0, 2**16))))
    return layout, channels, mask


class TestTokenSpaceOracle:
    """mask_loss on token rows against the grid path it replaced
    (grid_oracle): the reconstruction folded to [H, W, C] by a
    differentiable unpatchify, scored over the whole grid under the
    np.kron pixel mask."""

    @settings(max_examples=300, deadline=None)
    @given(layouts_and_masks(), st.integers(0, 2**16))
    def test_token_loss_matches_the_grid_oracle(self, drawn, seed):
        layout, channels, mask = drawn
        rng = np.random.default_rng(seed)
        grid_target = rng.normal(size=(layout.height, layout.width, channels))
        recon_tokens = rng.normal(size=(layout.n_tokens, layout.patch[0] * layout.patch[1] * channels))
        m = Modality.CSI

        token = Tensor(recon_tokens.copy(), requires_grad=True)
        with tt.Tape() as tape:
            sse, count = mask_loss({m: token}, {m: patchify(grid_target, layout)}, {m: mask})
        tt.backward(sse, tape)

        folded = Tensor(recon_tokens.copy(), requires_grad=True)
        with tt.Tape() as tape:
            want, want_count = grid_mask_loss(
                {m: unpatchify(folded, layout, channels)}, {m: grid_target}, {m: mask}, {m: layout.patch}
            )
        tt.backward(want, tape)

        assert count == want_count == mask.masked.size * layout.patch[0] * layout.patch[1] * channels
        assert sse.item() == pytest.approx(want.item(), rel=1e-12, abs=0)
        assert np.array_equal(token.grad, folded.grad)

    def test_oracle_fold_inverts_patchify(self):
        layout = ModalitySpec(6, 8, (3, 2))
        grid = np.random.default_rng(0).normal(size=(6, 8, 4))
        np.testing.assert_array_equal(unpatchify(Tensor(patchify(grid, layout)), layout, 4).data, grid)


def infonce_oracle(zc: np.ndarray, zm: np.ndarray, tau: float) -> float:
    s = zc @ zm.T / tau
    mx = s.max(axis=1, keepdims=True)
    lse = np.log(np.exp(s - mx).sum(axis=1, keepdims=True)) + mx
    return float(np.mean(lse[:, 0] - np.diag(s)))


class TestContrastiveLoss:
    def test_identical_embeddings_give_log_batch(self):
        z = [Tensor(np.full((1, 6), 0.3)) for _ in range(4)]
        loss = contrastive_loss(z, {Modality.RADAR: list(z), Modality.MAP: list(z)})
        assert abs(loss.item() - 2.0 * math.log(4)) < 1e-9

    def test_orthogonal_pairs_drive_loss_to_zero(self):
        zs = [Tensor(20.0 * np.eye(8)[i : i + 1]) for i in range(4)]
        loss = contrastive_loss(zs, {Modality.RADAR: list(zs)})
        assert loss.item() < 1e-6

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(9)
        zc = rng.normal(size=(5, 7))
        zr = rng.normal(size=(5, 7))
        zm = rng.normal(size=(5, 7))
        loss = contrastive_loss(
            [Tensor(z[None]) for z in zc],
            {
                Modality.RADAR: [Tensor(z[None]) for z in zr],
                Modality.MAP: [Tensor(z[None]) for z in zm],
            },
            tau=0.07,
        )
        want = infonce_oracle(zc, zr, 0.07) + infonce_oracle(zc, zm, 0.07)
        assert abs(loss.item() - want) < 1e-9

    def test_small_batches_contribute_nothing(self):
        assert contrastive_loss([], {}).item() == 0.0
        one = [Tensor(np.ones((1, 4)))]
        assert contrastive_loss(one, {Modality.RADAR: list(one)}).item() == 0.0

    def test_ragged_batch_rejected(self):
        zs = [Tensor(np.ones((1, 4))) for _ in range(3)]
        with pytest.raises(PretrainError):
            contrastive_loss(zs, {Modality.RADAR: zs[:2]})

    def test_gradient_reaches_anchors(self):
        rng = np.random.default_rng(1)
        zs = [Tensor(rng.normal(size=(1, 4)), requires_grad=True) for _ in range(3)]
        ys = [Tensor(rng.normal(size=(1, 4)), requires_grad=True) for _ in range(3)]
        with tt.Tape() as tape:
            loss = contrastive_loss(zs, {Modality.MAP: ys})
        tt.backward(loss, tape)
        assert all(z.grad is not None and np.abs(z.grad).max() > 0 for z in zs + ys)


def one_pool_stats(layer: int, pool: str, w, sel: np.ndarray) -> PoolStats:
    """The stats of a dispatch that routed every row in the one pool."""
    w = w if isinstance(w, Tensor) else Tensor(np.asarray(w, dtype=float))
    return PoolStats(layer, (pool,), np.zeros(len(sel), dtype=np.int64), w, sel)


def rotating_stats(layer: int, pool: str, n: int, n_experts: int, k: int) -> PoolStats:
    sel = np.stack([np.arange(i, i + k) % n_experts for i in range(n)])
    return one_pool_stats(layer, pool, np.full((n, k), 1.0 / k), sel)


def collapsed_stats(layer: int, pool: str, n: int, k: int) -> PoolStats:
    """Every row puts its whole weight on expert 0 (and selects 1 .. k - 1 at
    zero weight)."""
    w = np.zeros((n, k))
    w[:, 0] = 1.0
    return one_pool_stats(layer, pool, w, np.tile(np.arange(k), (n, 1)))


class TestLoadBalanceLoss:
    def test_uniform_routing_value(self):
        # Imp = 1/K, Load = k/K for every expert -> loss = k / K^2
        loss = load_balance_loss([rotating_stats(0, "shared", 16, 8, 4)], 8)
        assert abs(loss.item() - 4 / 64) < 1e-12

    @pytest.mark.parametrize("k", [1, 4])
    def test_collapsed_routing_value(self, k):
        # Imp = Load = 1 at expert 0 -> loss = 1 / K
        loss = load_balance_loss([collapsed_stats(0, "csi", 10, k)], 8)
        assert abs(loss.item() - 1 / 8) < 1e-12

    def test_groups_average(self):
        collapsed = collapsed_stats(0, "csi", 10, 4)
        loss = load_balance_loss([rotating_stats(0, "shared", 16, 8, 4), collapsed], 8)
        assert abs(loss.item() - 0.5 * (0.0625 + 0.125)) < 1e-12

    def test_batch_members_aggregate_before_the_product(self):
        a = one_pool_stats(0, "shared", [[1.0]], np.array([[0]]))
        b = one_pool_stats(0, "shared", np.ones((3, 1)), np.ones((3, 1), dtype=int))
        # pooled: Imp = Load = [0.25, 0.75] -> (1/2)(0.0625 + 0.5625)
        loss = load_balance_loss([a, b], 2)
        assert abs(loss.item() - 0.3125) < 1e-12
        # averaging per-member losses instead would give 0.5
        assert abs(loss.item() - 0.5) > 0.1

    def test_a_merged_dispatch_groups_its_rows_by_pool(self):
        """One specific dispatch routes rows of several pools: each pool's
        rows join the same pool's rows of the other dispatches."""
        rng = np.random.default_rng(1)
        n, k = 9, 2
        part = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1])
        w = rng.random((n, k))
        sel = np.stack([rng.choice(4, size=k, replace=False) for _ in range(n)])
        merged = PoolStats(0, ("csi", "map"), part, Tensor(w), sel)
        alone = [
            one_pool_stats(0, pool, w[part == p], sel[part == p]) for p, pool in enumerate(("csi", "map"))
        ]
        assert load_balance_loss([merged], 4).item() == pytest.approx(load_balance_loss(alone, 4).item(), rel=1e-15)
        got = list(pool_usage([merged], 4))
        want = list(pool_usage(alone, 4))
        assert [(u.layer, u.pool) for u in got] == [(0, "csi"), (0, "map")]
        for u, v in zip(got, want):
            np.testing.assert_array_equal(u.importance, v.importance)
            np.testing.assert_array_equal(u.load, v.load)

    def test_matches_numpy_oracle(self):
        """Against the mean over (layer, pool) groups of (1/K) sum_e Imp(e)
        Load(e), with Imp(e) the token mean of the dense [n, K] weights that
        place each row's k weights at its selected experts."""
        rng = np.random.default_rng(2)
        stats, rows = [], {}
        for layer, pools in [(0, ("shared",)), (0, ("csi", "map")), (1, ("shared",)), (1, ("map",))]:
            n = int(rng.integers(4, 12))
            part = rng.integers(0, len(pools), size=n)
            w = np.abs(rng.normal(size=(n, 4)))
            sel = np.stack([rng.choice(8, size=4, replace=False) for _ in range(n)])
            stats.append(PoolStats(layer, pools, part, Tensor(w), sel))
            for p, pool in enumerate(pools):
                dense = np.zeros((n, 8))
                np.put_along_axis(dense, sel, w, axis=1)
                rows.setdefault((layer, pool), []).append((dense[part == p], sel[part == p]))
        want_terms = []
        for members in rows.values():
            dense = np.concatenate([d for d, _ in members])
            counts = np.bincount(np.concatenate([s for _, s in members]).reshape(-1), minlength=8)
            want_terms.append((dense.mean(axis=0) * (counts / len(dense))).sum() / 8)
        loss = load_balance_loss(stats, 8)
        assert abs(loss.item() - float(np.mean(want_terms))) < 1e-12

    def test_importance_carries_gradient(self):
        w = Tensor(np.full((4, 2), 0.5), requires_grad=True)
        stats = one_pool_stats(0, "shared", w, np.tile([0, 1], (4, 1)))
        with tt.Tape() as tape:
            loss = load_balance_loss([stats], 2)
        tt.backward(loss, tape)
        # d/dw_ij of (1/K) sum_e mean_i(w)_e load_e = load_j / (K n)
        assert np.allclose(w.grad, np.full((4, 2), 1.0 / (2 * 4)))

    def test_no_stats_rejected(self):
        with pytest.raises(PretrainError):
            load_balance_loss([], 8)


class TestTotalLoss:
    def test_pinned_combination(self):
        total = total_loss(Tensor(1.0), Tensor(2.0), Tensor(0.5))
        assert total.item() == 1.026

    def test_custom_weights(self):
        total = total_loss(Tensor(1.0), Tensor(1.0), Tensor(1.0), lambda_cl=0.1, lambda_lb=0.2)
        assert abs(total.item() - 1.3) < 1e-12


# ---------------------------------------------------------------------------
# optimizer and schedule


class TestSchedule:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 1e-5, 3e-3) == pytest.approx(3e-3)
        assert cosine_lr(100, 100, 1e-5, 3e-3) == pytest.approx(1e-5)
        assert cosine_lr(50, 100, 1e-5, 3e-3) == pytest.approx((3e-3 + 1e-5) / 2)

    def test_monotone_decay_and_clamping(self):
        lrs = [cosine_lr(t, 40, 1e-4, 1e-2) for t in range(41)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))
        assert cosine_lr(-3, 40, 1e-4, 1e-2) == pytest.approx(1e-2)
        assert cosine_lr(99, 40, 1e-4, 1e-2) == pytest.approx(1e-4)

    def test_bad_horizon(self):
        with pytest.raises(PretrainError):
            cosine_lr(0, 0, 1e-5, 1e-3)


class TestAdam:
    def test_two_steps_match_hand_computation(self):
        w = Tensor(np.array([0.5]), requires_grad=True)
        opt = Adam({"w": w})
        m = v = 0.0
        x = 0.5
        for t, g in enumerate([0.3, -0.2], start=1):
            w.grad = np.array([g])
            opt.step(0.1)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x -= 0.1 * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert abs(w.data[0] - x) < 1e-15

    def test_minimizes_quadratic(self):
        w = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam({"w": w})
        for _ in range(400):
            opt.zero_grad()
            with tt.Tape() as tape:
                loss = tt.tsum(tt.squared_error(w, np.array([3.0])))
            tt.backward(loss, tape)
            opt.step(0.05)
        assert abs(w.data[0] - 3.0) < 1e-2

    def test_params_without_grad_are_skipped(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([2.0]), requires_grad=True)
        opt = Adam({"a": a, "b": b})
        a.grad = np.array([1.0])
        opt.step(0.1)
        assert b.data[0] == 2.0 and a.data[0] != 1.0

    def test_state_roundtrip_resumes_exactly(self):
        rng = np.random.default_rng(0)
        grads = [rng.normal(size=3) for _ in range(5)]
        pa = Tensor(np.ones(3), requires_grad=True)
        pb = Tensor(np.ones(3), requires_grad=True)
        oa = Adam({"p": pa})
        for g in grads[:3]:
            pa.grad = g.copy()
            oa.step(0.01)
        snap = {k: v.copy() for k, v in oa.state_arrays().items()}
        ob = Adam({"p": pb})
        pb.data = pa.data.copy()
        ob.load_state_arrays(snap, t=oa.t)
        for g in grads[3:]:
            pa.grad = g.copy()
            oa.step(0.01)
            pb.grad = g.copy()
            ob.step(0.01)
        assert np.array_equal(pa.data, pb.data)

    def test_in_place_moments_match_the_out_of_place_formula(self):
        from misac.checkpoint import snapshot

        rng = np.random.default_rng(6)
        params = {k: Tensor(rng.normal(size=s), requires_grad=True) for k, s in
                  (("a", (3, 4)), ("b", (5,)), ("idle", (2,)))}
        opt = Adam(params)

        class Holder:
            def named_params(self):
                return params

        ref = {k: (p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)) for k, p in params.items()}
        before = snapshot(Holder(), "fp", 0, opt)
        frozen = {k: a.copy() for k, a in before.opt_moments.items()}
        b1, b2, eps = 0.9, 0.999, 1e-8
        for t, lr in enumerate((0.1, 0.05, 0.02), start=1):
            for k, p in params.items():
                p.grad = None if k == "idle" else rng.normal(size=p.data.shape)
            opt.step(lr)
            for k, p in params.items():
                if p.grad is None:
                    continue
                x, m, v = ref[k]
                m = b1 * m + (1 - b1) * p.grad
                v = b2 * v + (1 - b2) * p.grad * p.grad
                x = x - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
                ref[k] = (x, m, v)
        for k, p in params.items():
            x, m, v = ref[k]
            np.testing.assert_array_equal(p.data, x)
            np.testing.assert_array_equal(opt.m[k], m)
            np.testing.assert_array_equal(opt.v[k], v)
        assert not np.any(opt.m["idle"]) and not np.any(opt.v["idle"])
        for k, a in before.opt_moments.items():
            np.testing.assert_array_equal(a, frozen[k])


# ---------------------------------------------------------------------------
# encode / decode on a small model


TINY_ENC = EncoderConfig(d=16, n_layers=1, n_heads=2, n_experts=4, top_k=2)


def tiny_tok() -> TokenizerConfig:
    return TokenizerConfig(
        d=16,
        specs={
            Modality.CSI: ModalitySpec(4, 8, (2, 2)),
            Modality.MAP: ModalitySpec(8, 8, (4, 4)),
            Modality.RADAR: ModalitySpec(8, 8, (4, 4)),
        },
    )


def tiny_model(seed: int = 0) -> PretrainModel:
    return PretrainModel(TINY_ENC, tiny_tok(), np.random.default_rng(seed), decoder_blocks=1)


def tiny_prepped(seed: int = 1) -> dict[Modality, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        Modality.CSI: rng.normal(size=(4, 8, 2)),
        Modality.MAP: rng.normal(size=(8, 8, 4)),
        Modality.RADAR: rng.normal(size=(8, 8, 4)),
    }


def tiny_masks(seed: int = 2) -> dict[Modality, MaskSpec]:
    rng = np.random.default_rng(seed)
    return {
        m: sample_mask(MaskScheme("random", ratio=0.5), tiny_tok().spec(m), rng)
        for m in (Modality.CSI, Modality.MAP, Modality.RADAR)
    }


class TestEncodeDecode:
    def test_visible_row_counts(self):
        model, prepped, masks = tiny_model(), tiny_prepped(), tiny_masks()
        res = encode_visible(model, prepped, masks)
        want = sum(spec.visible.size for spec in masks.values())
        assert res.h.shape == (want, 16)
        for m, spec in masks.items():
            seg = res.segment(m)
            assert seg.stop - seg.start == spec.visible.size

    def test_no_mask_means_fully_visible(self):
        model, prepped = tiny_model(), tiny_prepped()
        res = encode_visible(model, prepped, {})
        assert res.h.shape == (8 + 4 + 4, 16)

    def test_decode_shapes(self):
        model, prepped, masks = tiny_model(), tiny_prepped(), tiny_masks()
        recons = decode_masked(model, encode_visible(model, prepped, masks), masks)
        # one row per token, in patchify's layout: [n_tokens, ph * pw * C]
        assert recons[Modality.CSI].shape == (8, 2 * 2 * 2)
        assert recons[Modality.MAP].shape == (4, 4 * 4 * 4)
        assert recons[Modality.RADAR].shape == (4, 4 * 4 * 4)

    def test_masked_pixels_cannot_leak_into_reconstruction(self):
        # changing the input only under masked csi patches must not move any output
        model, masks = tiny_model(), tiny_masks()
        prepped_a = tiny_prepped()
        arr = prepped_a[Modality.CSI].copy()
        omega = masks[Modality.CSI].omega
        pix = np.kron(omega, np.ones((2, 2))).astype(bool)
        arr[pix] += 37.0
        prepped_b = dict(prepped_a)
        prepped_b[Modality.CSI] = arr
        rec_a = decode_masked(model, encode_visible(model, prepped_a, masks), masks)
        rec_b = decode_masked(model, encode_visible(model, prepped_b, masks), masks)
        for m in rec_a:
            assert np.array_equal(rec_a[m].data, rec_b[m].data)

    def test_visible_pixels_do_reach_reconstruction(self):
        model, masks = tiny_model(), tiny_masks()
        prepped_a = tiny_prepped()
        arr = prepped_a[Modality.CSI].copy()
        vis_token = masks[Modality.CSI].visible[0]
        r, c = divmod(int(vis_token), 4)
        arr[2 * r, 2 * c, 0] += 1.0
        prepped_b = dict(prepped_a)
        prepped_b[Modality.CSI] = arr
        rec_a = decode_masked(model, encode_visible(model, prepped_a, masks), masks)
        rec_b = decode_masked(model, encode_visible(model, prepped_b, masks), masks)
        assert not np.array_equal(rec_a[Modality.CSI].data, rec_b[Modality.CSI].data)

    def test_empty_mask_reconstructs_from_all_tokens(self):
        model, prepped = tiny_model(), tiny_prepped()
        omega = np.zeros((2, 4), dtype=bool)
        spec = MaskSpec.from_omega(omega)
        res = encode_visible(model, prepped, {Modality.CSI: spec})
        recons = decode_masked(model, res, {Modality.CSI: spec})
        assert recons[Modality.CSI].shape == (8, 8)

    def test_mismatched_mask_rejected_at_decode(self):
        model, prepped, masks = tiny_model(), tiny_prepped(), tiny_masks()
        res = encode_visible(model, prepped, masks)
        omega = np.ones((2, 4), dtype=bool)
        omega[0, 0] = False  # one visible token; encoder saw more
        other = dict(masks)
        other[Modality.CSI] = MaskSpec.from_omega(omega)
        with pytest.raises(PretrainError):
            decode_masked(model, res, other)

    def test_objective_gradients_match_central_differences(self):
        """Whole-objective gradient check on the tiny model. Parameters are
        bumped to a generic point first: at the 0.02-std init the expert
        branch rms sits near the rmsnorm epsilon, where finite differences
        cannot resolve tight tolerances (see the encoder test of the same
        name)."""
        model = tiny_model()
        params = model.named_params()
        cfg = PretrainSettings(tau=0.07)
        rng = np.random.default_rng(4)
        inputs_prepped = [tiny_prepped(seed=10), tiny_prepped(seed=11)]
        masks = [tiny_masks(seed=20), tiny_masks(seed=21)]
        from misac.pretrain import StepInputs

        inputs = StepInputs(prepped=inputs_prepped, masks=masks)
        saved = {k: p.data.copy() for k, p in params.items()}
        try:
            for p in params.values():
                p.data = p.data + rng.normal(0.0, 0.1, size=p.data.shape)
            with recorded() as sels:
                step_objective(model, inputs, cfg)

            def f():
                with replayed(sels):
                    return step_objective(model, inputs, cfg).total

            err = grad_check(f, list(params.values()), h=1e-5, coords_per_param=2,
                             rng=np.random.default_rng(0))
            assert err < 1e-7, f"max rel grad error {err:.3e}"
        finally:
            for k, p in params.items():
                p.data = saved[k]

    def test_named_params_cover_decoders_and_projections(self):
        names = set(tiny_model().named_params())
        assert "decoder.csi.mask_token" in names
        assert "decoder.radar.block0.ffn.fc1.w" in names
        assert "decoder.map.out.w" in names
        assert "proj.csi.w" in names and "proj.csi.b" in names
        assert "proj.map.w" in names and "proj.map.b" not in names  # only the anchor's has a bias
        assert "block0.shared.gate.w" in names  # encoder params included


# ---------------------------------------------------------------------------
# step preparation and training loop


@pytest.fixture(scope="module")
def small_samples():
    cfg = SynthConfig()
    samples, _ = synth_dataset(cfg, 4, seed=123)
    return samples


@pytest.fixture(scope="module")
def traced_desk_step() -> tuple[int, int]:
    """The bytes tracemalloc holds at the end of the fixed desk step's
    forward, and its peak during the backward."""
    import tracemalloc

    from misac.config import desk_config

    desk = desk_config()
    model = PretrainModel(
        desk.model.encoder_config(),
        desk.model.tokenizer_config(),
        np.random.default_rng(0),
        decoder_blocks=desk.model.decoder_blocks,
    )
    samples, _ = synth_dataset(desk.data.synth_config(desk.model), 8, seed=5)
    cfg = desk.pretrain.settings()
    inputs = prepare_step_inputs(samples, model, cfg, np.random.default_rng(1))
    tracemalloc.start()
    try:
        with tt.Tape() as tape:
            loss = step_objective(model, inputs, cfg)
        forward, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        tt.backward(loss.total, tape)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return forward, peak


def small_model(seed: int = 0) -> PretrainModel:
    tok = TokenizerConfig(
        d=16,
        specs={
            Modality.CSI: ModalitySpec(16, 32, (2, 2)),
            Modality.MAP: ModalitySpec(64, 64, (8, 8)),
            Modality.RADAR: ModalitySpec(64, 64, (8, 8)),
        },
    )
    enc = EncoderConfig(d=16, n_layers=1, n_heads=2, n_experts=4, top_k=2)
    return PretrainModel(enc, tok, np.random.default_rng(seed), decoder_blocks=1)


class TestStepPreparation:
    def test_deterministic_given_rng(self, small_samples):
        model = small_model()
        cfg = PretrainSettings()
        a = prepare_step_inputs(small_samples[:2], model, cfg, np.random.default_rng(8))
        b = prepare_step_inputs(small_samples[:2], model, cfg, np.random.default_rng(8))
        for ma, mb in zip(a.masks, b.masks):
            assert set(ma) == set(mb)
            for m in ma:
                assert np.array_equal(ma[m].masked, mb[m].masked)
        for pa, pb in zip(a.prepped, b.prepped):
            for m in pa:
                assert np.array_equal(pa[m], pb[m])

    def test_full_dropout_leaves_csi_only(self, small_samples):
        model = small_model()
        cfg = PretrainSettings(modality_dropout=1.0)
        inputs = prepare_step_inputs(small_samples[:3], model, cfg, np.random.default_rng(0))
        for prepped, masks in zip(inputs.prepped, inputs.masks):
            assert set(prepped) == {Modality.CSI}
            assert set(masks) == {Modality.CSI}
        loss = step_objective(model, inputs, cfg)
        assert loss.n_complete == 0
        assert loss.contrastive.item() == 0.0

    def test_no_dropout_keeps_everything(self, small_samples):
        model = small_model()
        cfg = PretrainSettings(modality_dropout=0.0)
        inputs = prepare_step_inputs(small_samples[:3], model, cfg, np.random.default_rng(0))
        for prepped in inputs.prepped:
            assert set(prepped) == {Modality.CSI, Modality.MAP, Modality.RADAR}
        loss = step_objective(model, inputs, cfg)
        assert loss.n_complete == 3
        assert loss.contrastive.item() != 0.0

    def test_snr_injection_perturbs_csi(self, small_samples):
        model = small_model()
        clean = preprocess(small_samples[0], Modality.CSI, model.tok_cfg)
        noisy_cfg = PretrainSettings(modality_dropout=0.0, snr_range=(10.0, 25.0))
        inputs = prepare_step_inputs(small_samples[:1], model, noisy_cfg, np.random.default_rng(0))
        assert not np.array_equal(inputs.prepped[0][Modality.CSI], clean)
        off_cfg = PretrainSettings(modality_dropout=0.0, snr_range=None)
        inputs2 = prepare_step_inputs(small_samples[:1], model, off_cfg, np.random.default_rng(0))
        assert np.array_equal(inputs2.prepped[0][Modality.CSI], clean)


class TestTrainingLoop:
    def test_step_updates_parameters(self, small_samples):
        model = small_model()
        opt = Adam(model.named_params())
        cfg = PretrainSettings(batch_size=2)
        before = {k: p.data.copy() for k, p in model.named_params().items()}
        loss = pretrain_step(model, small_samples[:2], opt, cfg, np.random.default_rng(0), 1e-3)
        assert np.isfinite(loss.total.item())
        assert loss.masked_count > 0
        moved = [k for k, p in model.named_params().items() if not np.array_equal(p.data, before[k])]
        assert len(moved) > len(before) // 2
        assert opt.t == 1

    def test_run_is_deterministic(self, small_samples):
        cfg = PretrainSettings(steps=2, batch_size=2)
        h1, _, _ = run_pretrain(small_model(7), small_samples, cfg, seed=42)
        h2, _, _ = run_pretrain(small_model(7), small_samples, cfg, seed=42)
        assert h1 == h2

    def test_resume_matches_uninterrupted_run(self, small_samples):
        cfg = PretrainSettings(steps=3, batch_size=2)
        model_a = small_model(3)
        run_pretrain(model_a, small_samples, cfg, seed=9)
        model_b = small_model(3)
        _, opt, rng = run_pretrain(model_b, small_samples, cfg, seed=9, until=1)
        run_pretrain(model_b, small_samples, cfg, seed=9, start_step=1, opt=opt, rng=rng)
        pa, pb = model_a.named_params(), model_b.named_params()
        assert all(np.array_equal(pa[k].data, pb[k].data) for k in pa)

    def test_history_records_the_schedule(self, small_samples):
        cfg = PretrainSettings(steps=2, batch_size=2, lr_min=1e-5, lr_max=1e-3)
        history, _, _ = run_pretrain(small_model(), small_samples, cfg, seed=0)
        assert [h["step"] for h in history] == [0, 1]
        assert history[0]["lr"] == pytest.approx(1e-3)
        for h in history:
            assert {"loss", "mask", "contrastive", "load_balance", "mask_unnormalized"} <= set(h)

    def test_empty_dataset_rejected(self):
        with pytest.raises(PretrainError):
            run_pretrain(small_model(), [], PretrainSettings(), seed=0)

    def test_fixed_seed_desk_step_is_pinned(self):
        # Loss and global gradient norm of one desk step on fixed inputs, as
        # measured once the radar cube was built from separable phasors; the
        # relative bound leaves room for the last digits that the BLAS thread
        # count moves.
        from misac.config import desk_config

        desk = desk_config()
        model = PretrainModel(
            desk.model.encoder_config(),
            desk.model.tokenizer_config(),
            np.random.default_rng(0),
            decoder_blocks=desk.model.decoder_blocks,
        )
        samples, _ = synth_dataset(desk.data.synth_config(desk.model), 8, seed=5)
        cfg = desk.pretrain.settings()
        inputs = prepare_step_inputs(samples, model, cfg, np.random.default_rng(1))
        with tt.Tape() as tape:
            loss = step_objective(model, inputs, cfg)
        tt.backward(loss.total, tape)
        grads = [p.grad for p in model.named_params().values() if p.grad is not None]
        grad_norm = math.sqrt(sum(float((g * g).sum()) for g in grads))
        assert loss.total.item() == pytest.approx(0.4374481507513358, rel=1e-12, abs=0)
        assert grad_norm == pytest.approx(33.147462091350626, rel=1e-12, abs=0)

    def test_fixed_seed_desk_step_tape_is_pinned(self):
        # The node count of the same desk step, and its nodes per op, read
        # from each vjp's __qualname__ as test_every_vjp_names_its_primitive
        # reads it, so a change that moves nodes between ops shows which op
        # moved. Five nodes per attention call (the q, k, v and o projections
        # and one attention core), down from 17 when the core was a
        # reshape/transpose/matmul/scale/softmax chain; three per masked
        # modality's loss (gather_rows, squared_error, sum over its token
        # rows), down from seven when each decode was folded back to its grid
        # and scored under a pixel mask, and four when squared_error was sub
        # then square; one per contrastive cross_entropy, down from eight;
        # one moe_ffn per dispatch, down from four (dispatch_rows,
        # grouped_linear, gelu, grouped_linear); and one residual_rmsnorm
        # per RMSNorm-gained residual branch, down from two (rmsnorm, add).
        from misac.config import desk_config

        desk = desk_config()
        model = PretrainModel(
            desk.model.encoder_config(),
            desk.model.tokenizer_config(),
            np.random.default_rng(0),
            decoder_blocks=desk.model.decoder_blocks,
        )
        samples, _ = synth_dataset(desk.data.synth_config(desk.model), 8, seed=5)
        cfg = desk.pretrain.settings()
        inputs = prepare_step_inputs(samples, model, cfg, np.random.default_rng(1))
        with tt.Tape() as tape:
            step_objective(model, inputs, cfg)
        ops = Counter(node.vjps[0][1].__qualname__.partition(".<locals>.")[0] for node in tape.nodes)
        assert dict(ops) == {
            "add": 59, "combine_rows": 32, "concat": 27, "cross_entropy": 2,
            "gather_rows": 79, "gelu": 19, "grouped_linear": 16, "index_add": 38,
            "matmul": 246, "moe_ffn": 32, "mul": 6, "residual_rmsnorm": 86,
            "scaled_dot_product_attention": 35, "softmax": 32, "squared_error": 19,
            "take_along_last": 32, "tile_rows": 29, "tmean": 22, "transpose": 2, "tsum": 20,
        }
        assert len(tape.nodes) == 833

    def test_idle_experts_and_an_absent_pool_stay_untouched(self):
        # No cross-modal interference, at desk scale: with radar absent from
        # every sample and each step's routing frozen away from the last
        # expert of every specific pool, the step leaves the radar pools and
        # those experts with grad None, and Adam, which skips such a tensor,
        # leaves it and its moments byte-identical over three steps.
        from misac.config import desk_config

        desk = desk_config()
        model = PretrainModel(
            desk.model.encoder_config(),
            desk.model.tokenizer_config(),
            np.random.default_rng(0),
            decoder_blocks=desk.model.decoder_blocks,
        )
        samples, _ = synth_dataset(desk.data.synth_config(desk.model), 8, seed=5)
        samples = [dataclasses.replace(s, radar=None) for s in samples]
        cfg = desk.pretrain.settings()
        last = desk.model.n_experts - 1
        params = model.named_params()
        untouched = [
            k for k in params
            if k.startswith("block") and (".radar." in k or (f".expert{last}." in k and ".shared." not in k))
        ]
        # per layer: the radar gate's weight and bias, its experts' four
        # tensors each, and the csi and map pools' last experts
        assert len(untouched) == desk.model.n_layers * (2 + 4 * desk.model.n_experts + 2 * 4)
        before = {k: params[k].data.tobytes() for k in untouched + ["block0.csi.expert0.fc1.w"]}

        def avoid_last(sel):
            sel = sel.copy()
            for row in sel:
                if last in row:
                    row[row.tolist().index(last)] = min(set(range(last)) - set(row.tolist()))
            return sel

        opt = Adam(params)
        rng = np.random.default_rng(1)
        for _ in range(3):
            inputs = prepare_step_inputs(samples, model, cfg, rng)
            with recorded() as sels:
                step_objective(model, inputs, cfg)
            sels[1::2] = [avoid_last(sel) for sel in sels[1::2]]  # per sample and layer: shared, then specific
            opt.zero_grad()
            with tt.Tape() as tape, replayed(sels):
                loss = step_objective(model, inputs, cfg)
            tt.backward(loss.total, tape)
            assert all(params[k].grad is None for k in untouched)
            assert all(params[f"block{i}.{m}.gate.w"].grad is not None for i in range(2) for m in ("csi", "map"))
            opt.step(1e-3)
        zeros = np.zeros(1).tobytes()
        for k in untouched:
            assert params[k].data.tobytes() == before[k], k
            assert opt.m[k].tobytes() == opt.v[k].tobytes() == zeros * opt.m[k].size, k
        assert params["block0.csi.expert0.fc1.w"].data.tobytes() != before["block0.csi.expert0.fc1.w"]

    def test_fixed_seed_desk_step_backward_adds_no_memory(self, traced_desk_step):
        # backward frees each node once its vjps have run, so the step's
        # traced peak is its forward (+0.3%). Keeping every node and every
        # intermediate gradient until the tape is dropped peaks 68% above
        # the memory the forward left. tracemalloc counts allocations, so
        # this does not depend on timing.
        forward, peak = traced_desk_step
        assert peak < 1.05 * forward, (forward, peak)

    def test_fixed_seed_desk_step_forward_keeps_at_most_95_mib(self, traced_desk_step):
        # The forward retains 90.5 MiB: each moe_ffn keeps only the
        # pre-activation and its CDF, and each residual_rmsnorm its branch
        # and rms. The four-node expert chain and rmsnorm + add kept 123.0,
        # so keeping the GELU output or the normalized branch again fails.
        forward, _ = traced_desk_step
        assert forward <= 95 * 2**20, forward / 2**20

    def test_every_desk_parameter_gets_a_live_gradient(self):
        # A parameter the loss cannot see (a softmax-cancelled key bias, a
        # bias that shifts every InfoNCE logit of a row alike) gets only
        # roundoff, ~1e-20 of the largest gradient, which Adam then scales
        # up to full steps. The smallest real one is ~6e-8 of the largest.
        from misac.config import desk_config

        desk = desk_config()
        model = PretrainModel(
            desk.model.encoder_config(),
            desk.model.tokenizer_config(),
            np.random.default_rng(0),
            decoder_blocks=desk.model.decoder_blocks,
        )
        samples, _ = synth_dataset(desk.data.synth_config(desk.model), 8, seed=5)
        cfg = desk.pretrain.settings()
        inputs = prepare_step_inputs(samples, model, cfg, np.random.default_rng(1))
        with tt.Tape() as tape:
            loss = step_objective(model, inputs, cfg)
        tt.backward(loss.total, tape)
        peaks = {k: float(np.abs(p.grad).max()) for k, p in model.named_params().items() if p.grad is not None}
        top = max(peaks.values())
        dead = sorted(k for k, g in peaks.items() if g < 1e-10 * top)
        assert not dead, f"parameters with only roundoff gradients: {dead}"
