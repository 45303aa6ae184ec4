"""Encoder: frozen routing values, a dense O(N*K) dispatch oracle, a numpy
attention oracle, context asymmetry, segment isolation, and gradient checks
through full blocks with frozen expert selection."""

import math

import numpy as np
import pytest

from misac import encoder as enc, synth, tensor as tt, tokenizer as tok
from misac.encoder import EncoderConfig, MultimodalEncoder
from misac.tensor import Tensor
from misac.tokenizer import Modality


@pytest.fixture(scope="module")
def small():
    """Tiny encoder plus one fully-populated prepped sample."""
    tok_cfg = tok.TokenizerConfig(
        d=16,
        specs={
            Modality.CSI: tok.ModalitySpec(8, 8, (2, 2)),  # 16 tokens
            Modality.MAP: tok.ModalitySpec(64, 64, (16, 16)),  # 16 tokens
            Modality.RADAR: tok.ModalitySpec(64, 64, (16, 16)),  # 16 tokens
        },
    )
    cfg = EncoderConfig(d=16, n_layers=2, n_heads=4, n_experts=8, top_k=4)
    model = MultimodalEncoder(cfg, tok_cfg, np.random.default_rng(0))
    scfg = synth.SynthConfig(n_t=8, n_sc=8)
    sample, _ = synth.synth_sample(scfg, 0, 13)
    prepped = {m: tok.preprocess(sample, m, tok_cfg) for m in tok_cfg.modalities}
    return model, prepped


def embed_all(model, prepped):
    return [(m, model.embed(prepped[m])) for m in model.tok_cfg.modalities]


def topk_oracle(row: np.ndarray, k: int) -> tuple[list[int], np.ndarray]:
    """One logit row routed by hand: the k largest logits, ties to the lower
    expert index, renormalized by a softmax over those k."""
    idx = sorted(range(row.size), key=lambda e: (-row[e], e))[:k]
    e = np.exp(row[idx] - row[idx].max())
    return idx, e / e.sum()


def route(logits: Tensor, k: int) -> enc.PoolStats:
    """The routing that _dispatch applies to the rows of logits."""
    n, K = logits.shape
    pool = enc.ExpertPool(np.random.default_rng(0), EncoderConfig(d=4, n_heads=1, n_experts=K, top_k=k), "csi")
    return enc._dispatch(pool, Tensor(np.zeros((n, 4))), logits, k, 0, None)[1]


class TestTopkSoftmax:
    def test_frozen_example(self):
        stats = route(Tensor([[2.0, 1.0, 0.0, -1.0]]), k=2)
        np.testing.assert_array_equal(stats.selected, [[0, 1]])
        np.testing.assert_allclose(stats.weights.data, [[0.7311, 0.2689, 0.0, 0.0]], atol=1e-4)
        assert stats.weights.data.sum() == pytest.approx(1.0)

    def test_uniform_logits_tie_to_lowest_indices(self):
        stats = route(Tensor([[1.0, 1.0, 1.0, 1.0]]), k=2)
        np.testing.assert_array_equal(stats.selected, [[0, 1]])
        np.testing.assert_allclose(stats.weights.data, [[0.5, 0.5, 0.0, 0.0]])

    def test_k_equals_K_is_plain_softmax(self):
        logits = Tensor(np.array([[0.3, -1.2, 2.0, 0.0]]))
        stats = route(logits, k=4)
        full = tt.softmax(logits).data
        np.testing.assert_allclose(stats.weights.data, full, atol=1e-12)

    def test_k_out_of_range_rejected(self):
        with pytest.raises(enc.EncoderError):
            EncoderConfig(n_experts=2, top_k=3)
        with pytest.raises(enc.EncoderError):
            EncoderConfig(n_experts=2, top_k=0)

    def test_gradient_only_through_selected(self):
        logits = Tensor([[2.0, 1.0, 0.0, -1.0]], requires_grad=True)
        with tt.Tape() as tape:
            stats = route(logits, k=2)
            loss = tt.tsum(tt.square(stats.weights))
        tt.backward(loss, tape)
        assert logits.grad is not None
        np.testing.assert_array_equal(logits.grad[0, 2:], [0.0, 0.0])
        assert np.any(logits.grad[0, :2] != 0)

    def test_batched_routing_matches_per_row(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(10, 8))
        logits[4, [1, 6]] = logits[4].max()  # a tie for the top slot
        batched = route(Tensor(logits), 4)
        for i in range(10):
            single = route(Tensor(logits[i : i + 1]), 4)
            np.testing.assert_array_equal(batched.selected[i], single.selected[0])
            np.testing.assert_array_equal(batched.weights.data[i], single.weights.data[0])
            idx, w = topk_oracle(logits[i], 4)
            np.testing.assert_array_equal(batched.selected[i], idx)
            np.testing.assert_allclose(batched.weights.data[i, idx], w, atol=1e-15)


class TestDispatch:
    def test_matches_dense_loop_oracle(self):
        rng = np.random.default_rng(7)
        cfg = EncoderConfig(d=12, n_heads=4, n_experts=5, top_k=3)
        pool = enc.ExpertPool(rng, cfg, "csi")
        x = Tensor(rng.normal(size=(9, 12)))
        logits = enc.gate_specific(x, pool)
        y, stats = enc._dispatch(pool, x, logits, 3, layer=0, frozen=None)
        want = np.zeros((9, 12))
        for i in range(9):
            idx, w = topk_oracle(logits.data[i], 3)
            np.testing.assert_array_equal(stats.selected[i], idx)
            for slot, e in enumerate(idx):
                row = Tensor(x.data[i : i + 1])
                want[i] += w[slot] * pool.experts[e](row).data[0]
        np.testing.assert_allclose(y.data, want, atol=1e-10)

    def test_dense_weights_rows_sum_to_one_and_load(self):
        rng = np.random.default_rng(8)
        cfg = EncoderConfig(d=8, n_heads=2, n_experts=8, top_k=4)
        pool = enc.ExpertPool(rng, cfg, "radar")
        x = Tensor(rng.normal(size=(20, 8)))
        _, stats = enc._dispatch(pool, x, enc.gate_specific(x, pool), 4, 0, None)
        np.testing.assert_allclose(stats.weights.data.sum(axis=1), 1.0, atol=1e-12)
        counts = np.zeros(8)
        for e in range(8):
            counts[e] = (stats.selected == e).sum()
        assert counts.sum() == 20 * 4  # every token fans out to exactly k experts
        assert ((stats.weights.data != 0).sum(axis=1) == 4).all()

    def test_frozen_selection_reused(self):
        rng = np.random.default_rng(9)
        cfg = EncoderConfig(d=8, n_heads=2, n_experts=4, top_k=2)
        pool = enc.ExpertPool(rng, cfg, "csi")
        x = Tensor(rng.normal(size=(5, 8)))
        logits = enc.gate_specific(x, pool)
        frozen = np.tile([3, 0], (5, 1))
        _, stats = enc._dispatch(pool, x, logits, 2, 0, frozen)
        np.testing.assert_array_equal(stats.selected, frozen)


def _per_expert_dispatch(pool, x, logits, k, layer, frozen):
    """Reference dispatch: one gather, expert MLP, weighting and scatter-add
    per expert, with each weight picked out of the dense routing matrix."""
    n, d = x.shape
    K = len(pool.experts)
    sel = enc._topk_indices(logits.data, k) if frozen is None else frozen
    w = tt.softmax(tt.take_along_last(logits, sel))
    dense = tt.scatter_last(w, sel, K)
    y = Tensor(np.zeros((n, d)))
    for e in range(K):
        rows = np.nonzero((sel == e).any(axis=1))[0]
        if rows.size == 0:
            continue
        xe = tt.gather_rows(x, rows)
        we = tt.take_along_last(tt.gather_rows(dense, rows), np.full((rows.size, 1), e))
        y = tt.index_add(y, rows, tt.mul(pool.experts[e](xe), we))
    stats = enc.PoolStats(layer=layer, pool=pool.kind, weights=dense, selected=sel)
    return y, stats


def _gather_any_rows(a, idx):
    """gather_rows for any 1-D index: the gradient adds repeated rows in
    index order, with np.add.at."""

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return ga

    return tt._emit("gather_rows", a.data[idx], [(a, vjp)])


def _index_add_any_rows(base, idx, vals):
    """index_add for any 1-D index: repeated rows add in index order, with
    np.add.at."""
    out = base.data.copy()
    np.add.at(out, idx, vals.data)
    return tt._emit("index_add", out, [(base, lambda g: g), (vals, lambda g: g[idx])])


def _index_add_dispatch(pool, x, logits, k, layer, frozen):
    """Reference dispatch: the grouped expert layers, with rows gathered by
    token and combined by a gather of the pair weights, mul and an add onto
    zeros, the gather and the add taking the unsorted, repeated token rows."""
    n, d = x.shape
    K = len(pool.experts)
    sel = enc._topk_indices(logits.data, k) if frozen is None else frozen
    w = tt.softmax(tt.take_along_last(logits, sel))
    dense = tt.scatter_last(w, sel, K)
    pairs = np.argsort(sel.reshape(-1), kind="stable")
    tokens = pairs // sel.shape[1]
    offsets = np.concatenate([[0], np.cumsum(np.bincount(sel.reshape(-1), minlength=K))])
    ex = pool.experts
    xs = _gather_any_rows(x, tokens)
    h = tt.gelu(tt.grouped_linear(xs, [e.fc1.w for e in ex], [e.fc1.b for e in ex], offsets))
    out = tt.grouped_linear(h, [e.fc2.w for e in ex], [e.fc2.b for e in ex], offsets)
    pair_w = _gather_any_rows(tt.reshape(w, (-1, 1)), pairs)
    y = _index_add_any_rows(Tensor(np.zeros((n, d))), tokens, tt.mul(out, pair_w))
    stats = enc.PoolStats(layer=layer, pool=pool.kind, weights=dense, selected=sel)
    return y, stats


class TestGroupedDispatch:
    """The grouped dispatch against the per-expert loop it replaced: outputs,
    routing stats, and the gradients of a loss that reads both the output and
    the dense routing weights."""

    N, D, K = 9, 12, 5

    def _run(self, dispatch, pool, top_k, frozen):
        rng = np.random.default_rng(40)
        x = Tensor(rng.normal(size=(self.N, self.D)), requires_grad=True)
        probe_y, probe_w = rng.normal(size=(self.N, self.D)), rng.normal(size=(self.N, self.K))
        params = [p for _, p in pool.named("pool")]
        for p in params:
            p.grad = None
        with tt.Tape() as tape:
            y, stats = dispatch(pool, x, enc.gate_specific(x, pool), top_k, 0, frozen)
            loss = tt.add(
                tt.tsum(tt.mul(y, Tensor(probe_y))), tt.tsum(tt.mul(stats.weights, Tensor(probe_w)))
            )
        tt.backward(loss, tape)
        return y.data, stats, [x.grad] + [p.grad for p in params]

    def _assert_same(self, pool, top_k, frozen=None):
        y_ref, st_ref, g_ref = self._run(_per_expert_dispatch, pool, top_k, frozen)
        y, st, g = self._run(enc._dispatch, pool, top_k, frozen)
        assert np.abs(y - y_ref).max() <= 1e-12 * np.abs(y_ref).max()
        assert (st.layer, st.pool) == (st_ref.layer, st_ref.pool)
        np.testing.assert_array_equal(st.selected, st_ref.selected)
        np.testing.assert_array_equal(st.weights.data, st_ref.weights.data)
        for got, want in zip(g, g_ref):
            assert (got is None) == (want is None)
            if want is not None:
                assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)
        return g

    def _assert_identical(self, pool, top_k, frozen=None):
        y_ref, st_ref, g_ref = self._run(_index_add_dispatch, pool, top_k, frozen)
        y, st, g = self._run(enc._dispatch, pool, top_k, frozen)
        np.testing.assert_array_equal(y, y_ref)
        np.testing.assert_array_equal(st.weights.data, st_ref.weights.data)
        for got, want in zip(g, g_ref):
            assert (got is None) == (want is None)
            if want is not None:
                np.testing.assert_array_equal(got, want)
        return g

    @pytest.mark.parametrize("top_k", [1, 3, 5])
    def test_matches_per_expert_loop(self, top_k):
        cfg = EncoderConfig(d=self.D, n_heads=4, n_experts=self.K, top_k=top_k)
        self._assert_same(enc.ExpertPool(np.random.default_rng(41), cfg, "csi"), top_k)

    def test_frozen_selection_with_idle_expert(self):
        cfg = EncoderConfig(d=self.D, n_heads=4, n_experts=self.K, top_k=3)
        pool = enc.ExpertPool(np.random.default_rng(42), cfg, "map")
        frozen = (np.arange(self.N)[:, None] + np.arange(3)[None, :]) % (self.K - 1)
        grads = self._assert_same(pool, 3, frozen)
        idle = pool.experts[self.K - 1]
        assert all(p.grad is None for p in (idle.fc1.w, idle.fc1.b, idle.fc2.w, idle.fc2.b))
        assert all(g is not None for g in grads[: -4])

    @pytest.mark.parametrize("top_k", [1, 3, 5])
    def test_fused_combine_matches_index_add_bit_for_bit(self, top_k):
        cfg = EncoderConfig(d=self.D, n_heads=4, n_experts=self.K, top_k=top_k)
        self._assert_identical(enc.ExpertPool(np.random.default_rng(43), cfg, "radar"), top_k)

    def test_fused_combine_with_idle_expert_matches_index_add(self):
        cfg = EncoderConfig(d=self.D, n_heads=4, n_experts=self.K, top_k=3)
        pool = enc.ExpertPool(np.random.default_rng(44), cfg, "csi")
        frozen = (np.arange(self.N)[:, None] + np.arange(3)[None, :]) % (self.K - 1)
        grads = self._assert_identical(pool, 3, frozen)
        idle = pool.experts[self.K - 1]
        assert all(p.grad is None for p in (idle.fc1.w, idle.fc1.b, idle.fc2.w, idle.fc2.b))
        assert all(g is not None for g in grads[: -4])


class TestGates:
    def test_shared_gate_zero_context_uses_token_block_only(self):
        rng = np.random.default_rng(11)
        cfg = EncoderConfig(d=8, n_heads=2, n_experts=4, top_k=2)
        pool = enc.ExpertPool(rng, cfg, "shared")
        x = Tensor(rng.normal(size=(6, 8)))
        got = enc.gate_shared(x, Tensor(np.zeros(8)), pool).data
        want = x.data @ pool.gate.w.data[:8] + pool.gate.b.data
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_shared_gate_conditions_on_context(self):
        rng = np.random.default_rng(12)
        cfg = EncoderConfig(d=8, n_heads=2, n_experts=4, top_k=2)
        pool = enc.ExpertPool(rng, cfg, "shared")
        x = Tensor(rng.normal(size=(6, 8)))
        a = enc.gate_shared(x, Tensor(np.zeros(8)), pool).data
        b = enc.gate_shared(x, Tensor(np.ones(8)), pool).data
        assert np.abs(a - b).max() > 0

    def test_gate_input_widths_are_asymmetric(self):
        rng = np.random.default_rng(13)
        cfg = EncoderConfig(d=8, n_heads=2)
        shared = enc.ExpertPool(rng, cfg, "shared")
        spec = enc.ExpertPool(rng, cfg, "map")
        assert shared.gate.w.shape[0] == 16
        assert spec.gate.w.shape[0] == 8

    def test_kind_mismatch_rejected(self):
        rng = np.random.default_rng(14)
        cfg = EncoderConfig(d=8, n_heads=2)
        shared = enc.ExpertPool(rng, cfg, "shared")
        spec = enc.ExpertPool(rng, cfg, "csi")
        x = Tensor(np.zeros((2, 8)))
        ctx = Tensor(np.zeros(8))
        with pytest.raises(enc.EncoderError):
            enc.gate_shared(x, ctx, spec)
        with pytest.raises(enc.EncoderError):
            enc.gate_specific(x, shared)


class TestAttention:
    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(15)
        cfg = EncoderConfig(d=12, n_heads=3)
        block = enc.EncoderBlock(rng, cfg, tok.MODALITY_ORDER)
        h = rng.normal(size=(7, 12))
        attn = block.attn
        got = enc.attention(Tensor(h), attn, 3).data

        q = h @ attn.q.w.data + attn.q.b.data
        assert attn.k.b is None  # a key bias would only shift each query's scores
        k = h @ attn.k.w.data
        v = h @ attn.v.w.data + attn.v.b.data
        outs = []
        for hd in range(3):
            sl = slice(hd * 4, (hd + 1) * 4)
            s = q[:, sl] @ k[:, sl].T / math.sqrt(4)
            e = np.exp(s - s.max(axis=1, keepdims=True))
            a = e / e.sum(axis=1, keepdims=True)
            outs.append(a @ v[:, sl])
        want = np.concatenate(outs, axis=1) @ attn.o.w.data + attn.o.b.data
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_one_call_tapes_five_nodes(self):
        rng = np.random.default_rng(15)
        block = enc.EncoderBlock(rng, EncoderConfig(d=12, n_heads=3), tok.MODALITY_ORDER)
        with tt.Tape() as tape:
            enc.attention(Tensor(rng.normal(size=(7, 12)), requires_grad=True), block.attn, 3)
        ops = [node.vjps[0][1].__qualname__.split(".<locals>.")[0] for node in tape.nodes]
        assert ops == ["matmul", "matmul", "matmul", "scaled_dot_product_attention", "matmul"]


class TestEncode:
    def test_segment_order_and_bounds(self, small):
        model, prepped = small
        res = model.encode(embed_all(model, prepped))
        mods = [s.modality for s in res.segments]
        assert mods == [Modality.CSI, Modality.MAP, Modality.RADAR]
        bounds = [(s.start, s.stop) for s in res.segments]
        assert bounds == [(0, 16), (16, 32), (32, 48)]
        assert res.h.shape == (48, 16)

    def test_input_order_does_not_matter(self, small):
        model, prepped = small
        parts = embed_all(model, prepped)
        a = model.encode(parts).h.data
        b = model.encode(list(reversed(parts))).h.data
        np.testing.assert_array_equal(a, b)

    def test_duplicate_and_empty_rejected(self, small):
        model, prepped = small
        parts = embed_all(model, prepped)
        with pytest.raises(enc.EncoderError):
            model.encode([])
        with pytest.raises(enc.EncoderError):
            model.encode([parts[0], parts[0]])

    def test_stats_cover_layers_and_pools(self, small):
        model, prepped = small
        res = model.encode(embed_all(model, prepped))
        keys = {(s.layer, s.pool) for s in res.stats}
        assert keys == {
            (li, p) for li in range(2) for p in ("shared", "csi", "map", "radar")
        }
        for s in res.stats:
            expect = 48 if s.pool == "shared" else 16
            assert s.selected.shape[0] == expect

    def test_missing_modality_drops_its_pool_and_context(self, small):
        model, prepped = small
        parts = [(m, t) for m, t in embed_all(model, prepped) if m != Modality.MAP]
        res = model.encode(parts)
        pools = {s.pool for s in res.stats}
        assert pools == {"shared", "csi", "radar"}
        with pytest.raises(enc.EncoderError):
            res.segment(Modality.MAP)

    def test_specific_pools_are_segment_isolated(self, small):
        """Without attention mixing, perturbing radar rows must not move csi
        rows through the specific pools."""
        model, prepped = small
        cfg, block = model.cfg, model.blocks[0]
        rng = np.random.default_rng(4)
        x = rng.normal(size=(48, 16))
        segments = [
            enc.Segment(Modality.CSI, 0, 16),
            enc.Segment(Modality.MAP, 16, 32),
            enc.Segment(Modality.RADAR, 32, 48),
        ]
        ctx = Tensor(np.zeros(16))
        base, _ = enc.ss_dmoe_forward(Tensor(x), segments, ctx, block, cfg, 0)
        x2 = x.copy()
        x2[40] += 1.0
        out, _ = enc.ss_dmoe_forward(Tensor(x2), segments, ctx, block, cfg, 0)
        np.testing.assert_array_equal(base.data[:32], out.data[:32])
        assert np.abs(base.data[40] - out.data[40]).max() > 0

    def test_zero_gains_make_block_identity(self, small):
        model, prepped = small
        block = model.blocks[0]
        saved = [t.data.copy() for t in (block.g_attn, block.g_shared, block.g_specific)]
        try:
            for t in (block.g_attn, block.g_shared, block.g_specific):
                t.data[:] = 0.0
            h = Tensor(np.random.default_rng(5).normal(size=(48, 16)))
            segments = [enc.Segment(Modality.CSI, 0, 48)]
            out, _ = enc.encoder_block(h, segments, block, model.cfg, 0)
            np.testing.assert_allclose(out.data, h.data, atol=1e-12)
        finally:
            for t, s in zip((block.g_attn, block.g_shared, block.g_specific), saved):
                t.data[:] = s

    def test_pool_context_is_map_mean(self, small):
        model, prepped = small
        h = Tensor(np.random.default_rng(6).normal(size=(48, 16)))
        segments = [
            enc.Segment(Modality.CSI, 0, 16),
            enc.Segment(Modality.MAP, 16, 32),
            enc.Segment(Modality.RADAR, 32, 48),
        ]
        ctx = enc.pool_context(h, segments)
        np.testing.assert_allclose(ctx.data, h.data[16:32].mean(axis=0), atol=1e-12)
        ctx2 = enc.pool_context(h, [segments[0]])
        np.testing.assert_array_equal(ctx2.data, np.zeros(16))

    def test_deterministic_init(self, small):
        model, _ = small
        twin = MultimodalEncoder(model.cfg, model.tok_cfg, np.random.default_rng(0))
        for name, p in model.named_params().items():
            np.testing.assert_array_equal(p.data, twin.named_params()[name].data)

    def test_init_distribution(self, small):
        model, _ = small
        params = model.named_params()
        w = params["block0.attn.q.w"].data
        assert np.abs(w).max() <= 0.04 + 1e-12  # 2 sigma truncation
        assert w.std() == pytest.approx(0.02, rel=0.25)
        np.testing.assert_array_equal(params["block0.attn.q.b"].data, 0.0)
        np.testing.assert_array_equal(params["id.csi"].data, 0.0)
        np.testing.assert_array_equal(params["block0.g_attn"].data, 1.0)

    def test_grad_check_through_encoder_with_frozen_routing(self, small):
        """Checked at a generic parameter point: the sigma=0.02 init sits at
        an rmsnorm curvature crossover (branch rms ~ eps) where central
        differences cannot resolve 1e-7 even though the analytic gradient is
        exact (error scales as h^2 there; verified during development)."""
        model, prepped = small
        saved = {n: p.data.copy() for n, p in model.named_params().items()}
        bump = np.random.default_rng(123)
        try:
            for p in model.named_params().values():
                p.data = p.data + bump.normal(0.0, 0.1, size=p.data.shape)
            base = model.encode(embed_all(model, prepped))
            frozen = base.frozen_routing()

            def f():
                res = model.encode(embed_all(model, prepped), frozen=frozen)
                return tt.tmean(tt.square(res.h))

            rng = np.random.default_rng(77)
            params = list(model.named_params().values())
            err = tt.grad_check(f, params, coords_per_param=1, rng=rng)
            assert err < 1e-7
        finally:
            for n, p in model.named_params().items():
                p.data = saved[n]
