"""Autodiff core: primitive gradients against central differences and
hand-derived oracles, frozen activation values, serialization roundtrips."""

import ast
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

from grad_oracle import grad_check
from grid_oracle import reshape
import loss_oracle
from loss_oracle import exp, log, square, sub
import moe_oracle
from moe_oracle import dispatch_rows, rmsnorm
from misac import tensor as T


def rng():
    return np.random.default_rng(1234)


# Division and square root, needed only by the rmsnorm oracle below, so they
# live here rather than in misac.tensor; test_each_primitive grad-checks them,
# and the oracles' reshape from grid_oracle and sub, square, exp and log from
# loss_oracle with them.
def div(a, b):
    return T._emit(
        "div",
        a.data / b.data,
        [(a, lambda g: T._unbroadcast(g / b.data, a.data.shape)),
         (b, lambda g: T._unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))],
    )


def sqrt(a):
    out = np.sqrt(a.data)
    return T._emit("sqrt", out, [(a, lambda g: g * 0.5 / out)])


# The composites that rmsnorm and a biased linear layer were before they
# became one-node primitives: the oracles for their forward values and
# gradients (moe_oracle keeps the rmsnorm primitive, and residual_rmsnorm
# fuses it with the residual add).
def rmsnorm_composite(x, gain, eps=1e-6):
    ms = T.tmean(square(x), axis=-1, keepdims=True)
    return T.mul(div(x, sqrt(T.add(ms, T.Tensor(eps)))), gain)


def linear_composite(x, w, b):
    return T.add(T.matmul(x, w), b)


def attention_chain(q, k, v, n_heads):
    """The reshape/transpose, matmul, scale, softmax, matmul chain that
    scaled_dot_product_attention replaced: the oracle for its values and
    gradients."""
    n, d = q.shape
    dh = d // n_heads

    def split(t):
        return T.transpose(reshape(t, (n, n_heads, dh)), (1, 0, 2))

    qh, kh, vh = split(q), split(k), split(v)
    scores = T.mul(T.matmul(qh, T.transpose(kh, (0, 2, 1))), T.Tensor(1.0 / math.sqrt(dh)))
    mix = T.matmul(T.softmax(scores), vh)
    return reshape(T.transpose(mix, (1, 0, 2)), (n, d))


def primitive_cases():
    """The parameters and the scalar losses that test_each_primitive checks
    by central differences: every differentiable primitive appears."""
    r = rng()
    a = T.Tensor(r.normal(size=(4, 3)) + 3.0, requires_grad=True)  # >0 for log/sqrt
    b = T.Tensor(r.normal(size=(4, 3)) + 3.0, requires_grad=True)
    v = T.Tensor(r.normal(size=(3, 5)), requires_grad=True)
    # a's four rows fan out to k = 3 places each; pairs[place] is the flat
    # (row * 3 + slot) index into the [4, 3] weight b, so row t's places are
    # [[0, 5, 9], [1, 2, 10], [3, 6, 7], [4, 8, 11]][t]
    pairs = np.array([0, 3, 4, 6, 9, 1, 7, 8, 10, 2, 5, 11])
    last = np.array([[0, 2], [1, 0], [2, 1], [0, 1]])  # distinct columns within each row
    target = r.normal(size=(4, 3))

    def experts():
        # three experts over the 12 places, the middle one idle: fc1 is
        # 3 -> 5 and fc2 5 -> 3, each tensor built from the parameters
        w1s = [v, T.mul(v, T.Tensor(0.5)), T.mul(v, v)]
        b1s = [T.tsum(v, axis=0), T.tmean(v, axis=0), T.tsum(square(v), axis=0)]
        w2s = [T.transpose(w, (1, 0)) for w in w1s]
        return w1s, b1s, w2s, [T.tsum(a, axis=0), T.tmean(b, axis=0), T.tsum(b, axis=0)]

    cases = {
        "add": lambda: T.tsum(T.add(a, b)),
        "sub": lambda: T.tsum(square(sub(a, b))),
        "mul": lambda: T.tsum(T.mul(a, b)),
        "div": lambda: T.tsum(div(a, b)),
        "matmul": lambda: T.tsum(square(T.matmul(a, v))),
        "transpose": lambda: T.tsum(T.mul(T.transpose(a, (1, 0)), T.transpose(b, (1, 0)))),
        "reshape": lambda: T.tsum(square(reshape(a, (2, 6)))),
        "concat": lambda: T.tsum(square(T.concat([a, b], axis=1))),
        "gather_rows": lambda: T.tsum(square(T.gather_rows(a, np.array([0, 1, 3])))),
        "index_add": lambda: T.tsum(square(T.index_add(T.concat([a, b], axis=0), np.array([1, 2, 5, 7]), b))),
        "take_along_last": lambda: T.tsum(square(T.take_along_last(a, last))),
        "tile_rows": lambda: T.tsum(T.mul(T.tile_rows(T.tsum(a, axis=0), 4), b)),
        "exp": lambda: T.tsum(exp(T.mul(a, T.Tensor(0.3)))),
        "log": lambda: T.tsum(log(a)),
        "sqrt": lambda: T.tsum(sqrt(a)),
        "square": lambda: T.tsum(square(a)),
        "gelu": lambda: T.tsum(T.gelu(sub(a, b))),
        "softmax": lambda: T.tsum(square(T.softmax(a))),
        "scaled_dot_product_attention": lambda: T.tsum(square(
            T.scaled_dot_product_attention(a, b, sub(a, b), 3)
        )),
        "mean_axis": lambda: T.tsum(square(T.tmean(a, axis=0, keepdims=True))),
        "sum_axis": lambda: T.tsum(square(T.tsum(a, axis=1))),
        "rmsnorm": lambda: T.tsum(square(rmsnorm(sub(a, b), T.mul(a, b)))),
        "rmsnorm_1d": lambda: T.tsum(square(rmsnorm(reshape(a, (12,)), reshape(b, (12,))))),
        "residual_rmsnorm": lambda: T.tsum(square(T.residual_rmsnorm(T.mul(a, b), sub(a, b), T.tsum(a, axis=0)))),
        "residual_rmsnorm_1d": lambda: T.tsum(square(T.residual_rmsnorm(
            reshape(b, (12,)), reshape(a, (12,)), reshape(T.mul(a, b), (12,))
        ))),
        "matmul_bias": lambda: T.tsum(square(T.matmul(a, v, bias=reshape(T.tsum(v, axis=0), (5,))))),
        "matmul_bias_3d": lambda: T.tsum(square(T.matmul(reshape(a, (2, 2, 3)), v, bias=T.Tensor(np.ones(5))))),
        "grouped_linear": lambda: T.tsum(square(T.grouped_linear(  # group 1 is empty
            a, [v, v, v], [T.tsum(v, axis=0), T.tmean(v, axis=0), T.tsum(square(v), axis=0)], [0, 1, 1, 4]
        ))),
        "dispatch_rows": lambda: T.tsum(T.mul(dispatch_rows(a, pairs), T.concat([b, a, b], axis=0))),
        "moe_ffn": lambda: T.tsum(square(T.moe_ffn(a, pairs, *experts(), [0, 5, 5, 12]))),
        "combine_rows": lambda: T.tsum(square(T.combine_rows(T.concat([a, b, a], axis=0), b, pairs))),
        "squared_error": lambda: T.tsum(T.squared_error(T.mul(a, b), target)),
        "squared_error_broadcast": lambda: T.tsum(T.squared_error(T.tsum(a, axis=0, keepdims=True), target)),
        "cross_entropy": lambda: T.cross_entropy(T.mul(a, b), last[:, :1]),
        "cross_entropy_two_labels": lambda: T.cross_entropy(T.mul(a, b), last),
    }
    return [a, b, v], cases


def tape_grads(f, params):
    for p in params:
        p.grad = None
    with T.Tape() as tape:
        loss = f()
    nodes = len(tape.nodes)  # read before backward spends the tape
    T.backward(loss, tape)
    return [p.grad for p in params], nodes


class TestForwardValues:
    def test_gelu_matches_stdlib_erf_oracle(self):
        xs = np.linspace(-4.0, 4.0, 41)
        got = T.gelu(T.Tensor(xs)).data
        want = np.array([x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) for x in xs])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_gelu_frozen_point(self):
        assert abs(T.gelu(T.Tensor(3.0)).item() - 2.99595) < 1e-4

    def test_gelu_rejects_nan(self):
        with pytest.raises(FloatingPointError):
            T.gelu(T.Tensor(np.array([0.0, np.nan])))

    @pytest.mark.parametrize("x", [np.inf, -np.inf, np.nan])
    def test_gelu_non_finite_input_follows_the_finite_check_switch(self, x):
        # gelu scans only its output: inf -> inf, -inf -> nan, nan -> nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(FloatingPointError, match="gelu"):
                T.gelu(T.Tensor(np.array([x])))
            prev = T.set_finite_checks(False)
            try:
                out = T.gelu(T.Tensor(np.array([x])))
            finally:
                T.set_finite_checks(prev)
        assert not np.isfinite(out.data).any()

    # residual_rmsnorm onto a zero residual is the RMSNorm of its branch
    def test_rmsnorm_frozen_pair(self):
        out = T.residual_rmsnorm(T.Tensor(np.zeros(2)), T.Tensor([3.0, 4.0]), T.Tensor(np.ones(2)), eps=0.0).data
        np.testing.assert_allclose(out, [0.8485, 1.1314], atol=1e-4)

    def test_rmsnorm_unit_rms(self):
        x = rng().normal(size=(5, 8))
        out = T.residual_rmsnorm(T.Tensor(np.zeros((5, 8))), T.Tensor(x), T.Tensor(np.ones(8)), eps=0.0).data
        np.testing.assert_allclose(np.sqrt((out**2).mean(axis=-1)), 1.0, atol=1e-12)

    @given(st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=20, deadline=None)
    def test_rmsnorm_scale_invariant(self, alpha):
        x = rng().normal(size=6)
        h, g = T.Tensor(np.zeros(6)), T.Tensor(np.ones(6))
        a = T.residual_rmsnorm(h, T.Tensor(x), g, eps=0.0).data
        b = T.residual_rmsnorm(h, T.Tensor(alpha * x), g, eps=0.0).data
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_softmax_rows_sum_to_one(self):
        x = rng().normal(size=(4, 7)) * 5
        out = T.softmax(T.Tensor(x)).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        np.testing.assert_allclose(out, e / e.sum(axis=-1, keepdims=True), atol=1e-12)

    def test_finite_check_toggles(self):
        big = T.Tensor(np.array([1e200, 1e300]))
        with pytest.raises(FloatingPointError, match="mul"), pytest.warns(RuntimeWarning, match="overflow"):
            T.mul(big, big)
        prev = T.set_finite_checks(False)
        try:
            with pytest.warns(RuntimeWarning, match="overflow"):
                out = T.mul(big, big)
            assert np.isinf(out.data).any()
        finally:
            T.set_finite_checks(prev)


# row indices for gather_rows and index_add, and whether they are rising
ROW_INDICES = {
    "empty": ([], True),
    "increasing": ([0, 2, 5], True),
    "unsorted_unique": ([4, 0, 3, 1], False),
    "duplicates": ([1, 1, 4, 1, 0, 4, 1], False),
    "long_run": ([5, 3, 3, 3, 3, 3, 3, 3, 3, 3, 0], False),
    "negative": ([-1, 5, 2, -6], False),
}


class TestScatterAddRows:
    """gather_rows and index_add take only a rising row index, which one
    fancy-index add places as np.add.at does; they refuse every other index,
    whose repeats np.add.at would sum in index order."""

    @pytest.mark.parametrize("idx, rising", list(ROW_INDICES.values()), ids=list(ROW_INDICES))
    @pytest.mark.parametrize("width", [None, 3])
    def test_matches_np_add_at(self, idx, rising, width):
        r = rng()
        idx = np.array(idx, dtype=np.int64)
        tail = () if width is None else (width,)
        vals = r.normal(size=(idx.size,) + tail) * 10.0 ** r.integers(-6, 6, size=(idx.size,) + tail)
        for base in (np.zeros((6,) + tail), r.normal(size=(6,) + tail)):
            x = T.Tensor(base, requires_grad=True)
            if not rising:
                for op, call in (("gather_rows", lambda: T.gather_rows(x, idx)),
                                 ("index_add", lambda: T.index_add(x, idx, T.Tensor(vals)))):
                    with pytest.raises(ValueError, match=f"{op}: row index must start at 0 or above and strictly"):
                        call()
                continue
            want = base.copy()
            np.add.at(want, idx, vals)
            got = T.index_add(x, idx, T.Tensor(vals)).data
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            with T.Tape() as tape:
                T.gather_rows(x, idx)
            want = np.zeros_like(base)
            np.add.at(want, idx, vals)
            got = tape.nodes[0].vjps[0][1](vals)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("idx", [[0, 6], [5, 6, 7], [6]])
    def test_rows_out_of_range_raise(self, idx):
        x = T.Tensor(np.zeros((6, 2)))
        with pytest.raises(IndexError):
            T.gather_rows(x, idx)
        with pytest.raises(IndexError):
            T.index_add(x, idx, T.Tensor(np.ones((len(idx), 2))))

    def test_row_index_must_be_1d(self):
        x = T.Tensor(np.zeros((4, 2)), requires_grad=True)
        idx = np.array([[0, 0], [1, 1]])  # repeats within a row would be dropped by a fancy add
        with pytest.raises(ValueError, match="1-D"):
            T.gather_rows(x, idx)
        with pytest.raises(ValueError, match="1-D"):
            T.index_add(x, idx, T.Tensor(np.ones((2, 2, 2))))
        with pytest.raises(ValueError, match="1-D"):
            T.gather_rows(x, 1)


class TestFusedKernels:
    def test_rmsnorm_is_one_node_equal_to_the_composite(self):
        r = rng()
        for shape in [(8,), (5, 8)]:
            h = T.Tensor(r.normal(size=shape), requires_grad=True)
            x = T.Tensor(r.normal(size=shape), requires_grad=True)
            g = T.Tensor(r.normal(size=8), requires_grad=True)
            up = T.Tensor(r.normal(size=shape))
            np.testing.assert_array_equal(rmsnorm(x, g).data, rmsnorm_composite(x, g).data)
            np.testing.assert_array_equal(
                T.residual_rmsnorm(h, x, g).data, T.add(h, rmsnorm_composite(x, g)).data
            )
            got, nodes = tape_grads(lambda: T.tsum(T.mul(T.residual_rmsnorm(h, x, g), up)), [h, x, g])
            want, _ = tape_grads(lambda: T.tsum(T.mul(T.add(h, rmsnorm_composite(x, g)), up)), [h, x, g])
            assert nodes == 3  # residual_rmsnorm, mul, sum
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_linear_is_one_node_equal_to_the_composite(self):
        r = rng()
        w = T.Tensor(r.normal(size=(4, 3)), requires_grad=True)
        b = T.Tensor(r.normal(size=3), requires_grad=True)
        for shape in [(5, 4), (2, 5, 4)]:
            x = T.Tensor(r.normal(size=shape), requires_grad=True)
            np.testing.assert_array_equal(T.matmul(x, w, bias=b).data, linear_composite(x, w, b).data)
            up = T.Tensor(r.normal(size=shape[:-1] + (3,)))
            got, nodes = tape_grads(lambda: T.tsum(T.mul(T.matmul(x, w, bias=b), up)), [x, w, b])
            want, _ = tape_grads(lambda: T.tsum(T.mul(linear_composite(x, w, b), up)), [x, w, b])
            assert nodes == 3  # matmul with its bias, mul, sum
            for a, c in zip(got, want):
                np.testing.assert_array_equal(a, c)

    def test_in_place_kernels_keep_the_out_of_place_arithmetic(self):
        r = rng()
        x = r.normal(size=(3, 6, 6)) * 4
        g = r.normal(size=x.shape)
        g_before = g.copy()
        with T.Tape() as tape:
            sm = T.softmax(T.Tensor(x, requires_grad=True))
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        np.testing.assert_array_equal(sm.data, want)
        np.testing.assert_array_equal(
            tape.nodes[0].vjps[0][1](g), want * (g - (g * want).sum(axis=-1, keepdims=True))
        )
        with T.Tape() as tape:
            ge = T.gelu(T.Tensor(x, requires_grad=True))
        cdf = 0.5 * (1.0 + special.erf(x * (1.0 / math.sqrt(2.0))))
        np.testing.assert_array_equal(ge.data, x * cdf)
        pdf = (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * x * x)
        np.testing.assert_array_equal(tape.nodes[0].vjps[0][1](g), g * (cdf + x * pdf))
        xs = T.Tensor(x.reshape(-1, 6), requires_grad=True)
        ws = [T.Tensor(r.normal(size=(6, 4))) for _ in range(2)]
        bs = [T.Tensor(r.normal(size=4)) for _ in range(2)]
        with T.Tape() as tape:
            out = T.grouped_linear(xs, ws, bs, [0, 7, 18])
        want = np.concatenate([xs.data[:7] @ ws[0].data + bs[0].data, xs.data[7:] @ ws[1].data + bs[1].data])
        np.testing.assert_array_equal(out.data, want)
        gy = g.reshape(-1, 6)[:, :4]
        np.testing.assert_array_equal(
            tape.nodes[0].vjps[0][1](gy), np.concatenate([gy[:7] @ ws[0].data.T, gy[7:] @ ws[1].data.T])
        )
        np.testing.assert_array_equal(g, g_before)  # no vjp writes into its upstream gradient


class TestAttention:
    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("n_heads", [1, 4])
    def test_one_node_equal_to_the_chain(self, n, n_heads):
        r = rng()
        q, k, v = (T.Tensor(r.normal(size=(n, 16)) * 2, requires_grad=True) for _ in range(3))
        up = T.Tensor(r.normal(size=(n, 16)))
        np.testing.assert_array_equal(
            T.scaled_dot_product_attention(q, k, v, n_heads).data, attention_chain(q, k, v, n_heads).data
        )
        got, nodes = tape_grads(lambda: T.tsum(T.mul(T.scaled_dot_product_attention(q, k, v, n_heads), up)), [q, k, v])
        want, _ = tape_grads(lambda: T.tsum(T.mul(attention_chain(q, k, v, n_heads), up)), [q, k, v])
        assert nodes == 3  # attention, mul, sum
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_overflowing_scores_raise_instead_of_zero_weights(self):
        # q . k overflows to -inf for key 0 and stays finite for key 1, so an
        # unchecked softmax would give key 0 an exact zero weight
        q = T.Tensor(np.array([[1e200, 1e200], [1.0, 1.0]]))
        k = T.Tensor(np.array([[-1e200, -1e200], [1.0, 1.0]]))
        v = T.Tensor(np.ones((2, 2)))
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="scaled_dot_product_attention"):
            T.scaled_dot_product_attention(q, k, v, 1)

    def test_rejects_mismatched_shapes_and_heads(self):
        x = T.Tensor(np.ones((3, 4)))
        with pytest.raises(ValueError):
            T.scaled_dot_product_attention(x, T.Tensor(np.ones((2, 4))), x, 2)
        with pytest.raises(ValueError):
            T.scaled_dot_product_attention(x, x, x, 3)


class TestFusedLosses:
    """cross_entropy and squared_error against the chains they replaced, kept
    in loss_oracle: the loss and every input gradient agree bit for bit."""

    @staticmethod
    def assert_same(fused, chain, params) -> int:
        """Compare fused() with chain(); returns fused()'s tape node count."""
        assert same_array(fused().data, chain().data)
        got, nodes = tape_grads(fused, params)
        want, _ = tape_grads(chain, params)
        for a, b in zip(got, want):
            assert same_array(a, b)
        return nodes

    @pytest.mark.parametrize("n, c, k", [(1, 1, 1), (1, 16, 1), (7, 5, 1), (32, 3, 1), (6, 9, 2), (4, 4, 4)])
    def test_cross_entropy_matches_the_chain(self, n, c, k):
        r = rng()
        x = T.Tensor(r.normal(size=(n, c)) * 10.0, requires_grad=True)
        labels = np.stack([r.permutation(c)[:k] for _ in range(n)])
        nodes = self.assert_same(lambda: T.cross_entropy(x, labels), lambda: loss_oracle.cross_entropy(x, labels), [x])
        assert nodes == 1  # the chain's 8: sub, exp, sum, log, add, take_along_last, sub, mean

    @pytest.mark.parametrize("b", [2, 3, 8])
    def test_contrastive_cross_entropy_matches_the_chain(self, b):
        # the pipeline's InfoNCE: b x b dot products over tau against the
        # diagonal, two terms summed and weighted as lambda_cl weights them
        r = rng()
        za, z1, z2 = (T.Tensor(r.normal(size=(b, 6)), requires_grad=True) for _ in range(3))
        diag = np.arange(b)[:, None]

        def loss(ce):
            terms = [ce(T.mul(T.matmul(za, T.transpose(z, (1, 0))), T.Tensor(1.0 / 0.07)), diag) for z in (z1, z2)]
            return T.mul(T.add(*terms), T.Tensor(5e-4))

        self.assert_same(lambda: loss(T.cross_entropy), lambda: loss(loss_oracle.cross_entropy), [za, z1, z2])

    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (5, 7)])
    def test_mse_matches_the_chain(self, shape):
        r = rng()
        pred = T.Tensor(r.normal(size=shape) * 10.0, requires_grad=True)
        target = r.normal(size=shape) * 10.0
        nodes = self.assert_same(lambda: T.mse(pred, target), lambda: loss_oracle.mse(pred, target), [pred])
        assert nodes == 2  # squared_error, mean

    @pytest.mark.parametrize("pred_shape, target_shape", [((1, 4), (5, 4)), ((5, 4), (1, 4)), ((5, 1), (4,))])
    def test_squared_error_broadcasts_as_the_chain_did(self, pred_shape, target_shape):
        r = rng()
        pred = T.Tensor(r.normal(size=pred_shape), requires_grad=True)
        target = r.normal(size=target_shape)
        up = T.Tensor(r.normal(size=np.broadcast_shapes(pred_shape, target_shape)))
        self.assert_same(
            lambda: T.tsum(T.mul(T.squared_error(pred, target), up)),
            lambda: T.tsum(T.mul(square(sub(pred, T.Tensor(target))), up)),
            [pred],
        )

    def test_mask_loss_term_matches_the_chain(self):
        # pretrain.mask_loss's term: the masked token rows of a reconstruction
        r = rng()
        recon = T.Tensor(r.normal(size=(12, 10)), requires_grad=True)
        target = r.normal(size=(12, 10))
        rows = np.array([0, 3, 4, 7, 11])
        nodes = self.assert_same(
            lambda: T.tsum(T.squared_error(T.gather_rows(recon, rows), target[rows])),
            lambda: T.tsum(square(sub(T.gather_rows(recon, rows), T.Tensor(target[rows])))),
            [recon],
        )
        assert nodes == 3  # gather_rows, squared_error, sum

    def test_cross_entropy_refuses_bad_labels(self):
        x = T.Tensor(rng().normal(size=(3, 5)), requires_grad=True)
        bad_labels = {
            r"index must be \[3, k\]": ([[0], [1]], [0, 1, 2], [[[0]], [[1]], [[2]]]),  # too few rows, 1-D, 3-D
            r"index outside \[0, 5\)": ([[5], [0], [1]], [[-1], [0], [1]]),  # past the end, negative
            "repeated index within a row": ([[1, 1], [0, 2], [3, 4]],),
        }
        for says, labels in bad_labels.items():
            for bad in labels:
                with pytest.raises(ValueError, match=f"cross_entropy: {says}"):
                    T.cross_entropy(x, bad)
        with pytest.raises(ValueError, match="cross_entropy: expected a 2D tensor"):
            T.cross_entropy(T.Tensor(np.zeros(5)), [[0]])


def expert_table(r, n, k):
    """The encoder's pair table for n tokens at k places each over k + 3
    experts: place 0 of token 0 is expert 0's one row, expert 1 is idle, and
    every other place picks among experts 2 .. k + 2, k distinct per token.
    Returns pairs and the k + 4 offsets."""
    n_experts = k + 3
    sel = np.stack([2 + r.permutation(k + 1)[:k] for _ in range(n)])
    sel[0, 0] = 0
    ids = sel.reshape(-1)
    return np.argsort(ids, kind="stable"), np.concatenate([[0], np.cumsum(np.bincount(ids, minlength=n_experts))])


class TestFusedExpertLayer:
    """moe_ffn and residual_rmsnorm against the chains they replaced, kept in
    moe_oracle: the output and every input gradient agree bit for bit."""

    @staticmethod
    def experts(r, n_experts, d, hidden):
        def t(*shape):
            return T.Tensor(r.normal(size=shape), requires_grad=True)

        return ([t(d, hidden) for _ in range(n_experts)], [t(hidden) for _ in range(n_experts)],
                [t(hidden, d) for _ in range(n_experts)], [t(d) for _ in range(n_experts)])

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n, k", [(1, 1), (5, 1), (6, 2), (3, 3), (9, 4)])
    def test_moe_ffn_matches_the_chain(self, n, k, seed):
        r = np.random.default_rng([n, k, seed])
        d, hidden = int(r.integers(1, 9)), int(r.integers(1, 17))
        x = T.Tensor(r.normal(size=(n, d)) * 2.0, requires_grad=True)
        pairs, offsets = expert_table(r, n, k)
        assert offsets[1] == 1 and offsets[2] == 1  # a one-row group, then an empty one
        ffn = self.experts(r, k + 3, d, hidden)
        params = [x] + [p for group in ffn for p in group]
        up = T.Tensor(r.normal(size=(n * k, d)))

        def loss(layer):
            return T.tsum(T.mul(layer(x, pairs, *ffn, offsets), up))

        assert same_array(T.moe_ffn(x, pairs, *ffn, offsets).data, moe_oracle.expert_chain(x, pairs, *ffn, offsets).data)
        got, nodes = tape_grads(lambda: loss(T.moe_ffn), params)
        want, _ = tape_grads(lambda: loss(moe_oracle.expert_chain), params)
        assert nodes == 3  # moe_ffn, mul, sum; the chain's 6 have 4 for the layer
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            assert a is None or same_array(a, b)
        assert all(w[1].grad is None for w in ffn)  # the idle expert records no vjp

    def test_moe_ffn_rejects_bad_offsets(self):
        x = T.Tensor(np.zeros((2, 3)))
        ffn = self.experts(rng(), 2, 3, 4)
        pairs = np.array([0, 2, 1, 3])
        for offsets in ([0, 4], [1, 2, 4], [0, 3, 2], [0, 2, 5]):
            with pytest.raises(ValueError, match="moe_ffn: "):
                T.moe_ffn(x, pairs, *ffn, offsets)
        with pytest.raises(ValueError, match="moe_ffn: need one tensor of each kind per group"):
            T.moe_ffn(x, pairs, ffn[0], ffn[1], ffn[2], ffn[3][:1], [0, 2, 4])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_moe_ffn_finite_check_sees_a_bad_fc1_weight(self, bad):
        # moe_ffn scans only its output: a non-finite pre-activation reaches
        # it through the GELU (-inf * Phi(-inf) is nan) and fc2 (inf * w)
        r = rng()
        x = T.Tensor(r.normal(size=(4, 3)), requires_grad=True)
        pairs, offsets = expert_table(r, 4, 2)
        ffn = self.experts(r, 5, 3, 6)
        ffn[0][0].data[1, 2] = bad  # expert 0 has a row in every table
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(FloatingPointError, match="moe_ffn"):
                T.moe_ffn(x, pairs, *ffn, offsets)
            prev = T.set_finite_checks(False)
            try:
                out = T.moe_ffn(x, pairs, *ffn, offsets)
            finally:
                T.set_finite_checks(prev)
        assert not np.isfinite(out.data).all()

    @pytest.mark.parametrize("shape", [(1,), (8,), (1, 1), (5, 8), (3, 4, 6)])
    def test_residual_rmsnorm_matches_the_chain(self, shape):
        r = np.random.default_rng(len(shape) * 100 + shape[-1])
        h, y = (T.Tensor(r.normal(size=shape) * 10.0 ** r.integers(-3, 3, size=shape), requires_grad=True)
                for _ in range(2))
        gain = T.Tensor(r.normal(size=shape[-1]), requires_grad=True)
        up = T.Tensor(r.normal(size=shape))

        def loss(branch):
            return T.tsum(T.mul(branch(h, y, gain, 1e-6), up))

        assert same_array(T.residual_rmsnorm(h, y, gain).data, moe_oracle.residual_branch(h, y, gain).data)
        got, nodes = tape_grads(lambda: loss(T.residual_rmsnorm), [h, y, gain])
        want, _ = tape_grads(lambda: loss(moe_oracle.residual_branch), [h, y, gain])
        assert nodes == 3  # residual_rmsnorm, mul, sum
        for a, b in zip(got, want):
            assert same_array(a, b)

    def test_residual_rmsnorm_refuses_a_broadcast_residual(self):
        with pytest.raises(ValueError, match=r"residual_rmsnorm: h has shape \(1, 4\) but y has \(3, 4\)"):
            T.residual_rmsnorm(T.Tensor(np.zeros((1, 4))), T.Tensor(np.ones((3, 4))), T.Tensor(np.ones(4)))


class TestBackward:
    def test_linear_regression_hand_gradient(self):
        # loss = mean((Xw - y)^2); d/dw = 2 X^T (Xw - y) / n
        r = rng()
        X = r.normal(size=(12, 5))
        y = r.normal(size=(12, 1))
        w = T.Tensor(r.normal(size=(5, 1)), requires_grad=True)
        with T.Tape() as tape:
            loss = T.mse(T.matmul(T.Tensor(X), w), y)
        T.backward(loss, tape)
        want = 2.0 * X.T @ (X @ w.data - y) / 12.0
        np.testing.assert_allclose(w.grad, want, atol=1e-12)

    def test_grad_accumulates_over_reuse(self):
        w = T.Tensor([2.0], requires_grad=True)
        with T.Tape() as tape:
            loss = T.tsum(T.add(T.mul(w, w), w))  # w^2 + w -> 2w + 1 = 5
        T.backward(loss, tape)
        np.testing.assert_allclose(w.grad, [5.0])

    def test_in_place_accumulation_matches_out_of_place(self):
        # b's first grad is the buffer that add(y, b) passes through, shared
        # with y and s; then b takes three more terms, two from mul(b, b)
        data = [rng().normal(size=(2, 3)) for _ in range(3)]

        def graph():
            x, b, c = (T.Tensor(d, requires_grad=True) for d in data)
            with T.Tape() as tape:
                u = T.mul(b, c)
                sq = T.mul(b, b)
                y = T.mul(x, T.Tensor(2.0))
                s = T.add(y, b)
                v = T.add(s, s)
                loss = T.tsum(T.add(T.add(T.mul(v, v), u), sq))
            return loss, tape, [x, b, c, u, sq, y, s, v]

        def backward_out_of_place(loss, tape):
            loss.grad = np.ones_like(loss.data)
            for node in reversed(tape.nodes):
                if node.out.grad is not None:
                    for t, vjp in node.vjps:
                        gi = vjp(node.out.grad)
                        t.grad = gi if t.grad is None else t.grad + gi

        loss, tape, got = graph()
        T.backward(loss, tape)
        loss, tape, want = graph()
        backward_out_of_place(loss, tape)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.grad, w.grad)

    def test_spent_tape_refused(self):
        w = T.Tensor([2.0], requires_grad=True)
        with T.Tape() as tape:
            loss = T.tsum(T.mul(w, w))
        T.backward(loss, tape)
        np.testing.assert_array_equal(w.grad, [4.0])
        with pytest.raises(ValueError, match="already spent by backward"):
            T.backward(loss, tape)
        np.testing.assert_array_equal(w.grad, [4.0])

    def test_tape_without_nodes_still_runs(self):
        with T.Tape() as tape:
            loss = T.tsum(T.Tensor([1.0, 2.0]))  # nothing tracked, nothing taped
        assert len(tape.nodes) == 0
        T.backward(loss, tape)
        np.testing.assert_array_equal(loss.grad, 1.0)

    def test_backward_frees_every_intermediate(self):
        # The cases' lambdas hold only the leaves, so once backward has
        # popped the nodes, no tensor a node made may be alive, although the
        # tape still is; refcounting alone must free them.
        params, cases = primitive_cases()
        for name, f in cases.items():
            with T.Tape() as tape:
                loss = f()
            refs = [weakref.ref(node.out) for node in tape.nodes if node.out is not loss]
            assert refs, name
            T.backward(loss, tape)
            assert not tape.nodes and all(ref() is None for ref in refs), name
            assert any(p.grad is not None for p in params), name
            for p in params:
                p.grad = None

    def test_no_vjp_creates_a_tensor(self, monkeypatch):
        # backward's in-place accumulation keys on ids that may outlive their
        # tensors; this is what keeps a dead tensor's id from being reused
        # by a tensor that backward looks up.
        _, cases = primitive_cases()
        made = []
        real_init = T.Tensor.__init__

        def counting_init(self, *args, **kwargs):
            made.append(self)
            real_init(self, *args, **kwargs)

        for name, f in cases.items():
            with T.Tape() as tape:
                loss = f()
            monkeypatch.setattr(T.Tensor, "__init__", counting_init)
            T.backward(loss, tape)
            monkeypatch.undo()
            assert not made, name

    def test_non_scalar_loss_rejected(self):
        w = T.Tensor([1.0, 2.0], requires_grad=True)
        with T.Tape() as tape:
            out = T.mul(w, w)
        with pytest.raises(ValueError):
            T.backward(out, tape)

    def test_no_tape_records_nothing(self):
        w = T.Tensor([1.0], requires_grad=True)
        out = T.mul(w, w)
        assert out.requires_grad is False

    def test_broadcast_bias_gradient_sums(self):
        b = T.Tensor(np.zeros(3), requires_grad=True)
        x = T.Tensor(rng().normal(size=(5, 3)))
        with T.Tape() as tape:
            loss = T.tsum(T.add(x, b))
        T.backward(loss, tape)
        np.testing.assert_allclose(b.grad, np.full(3, 5.0))

    def test_grouped_linear_matches_per_group_linear(self):
        r = rng()
        x = T.Tensor(r.normal(size=(5, 3)), requires_grad=True)
        ws = [T.Tensor(r.normal(size=(3, 2)), requires_grad=True) for _ in range(3)]
        bs = [T.Tensor(r.normal(size=2), requires_grad=True) for _ in range(3)]
        with T.Tape() as tape:
            out = T.grouped_linear(x, ws, bs, [0, 4, 4, 5])  # group 1 is empty
            loss = T.tsum(square(out))
        nodes = len(tape.nodes)  # read before backward spends the tape
        T.backward(loss, tape)
        assert nodes == 3  # one node for every group
        want = np.concatenate([x.data[:4] @ ws[0].data + bs[0].data, x.data[4:] @ ws[2].data + bs[2].data])
        np.testing.assert_array_equal(out.data, want)
        assert ws[1].grad is None and bs[1].grad is None
        np.testing.assert_allclose(ws[2].grad, 2.0 * np.outer(x.data[4], want[4]), atol=1e-12)
        np.testing.assert_allclose(bs[0].grad, 2.0 * want[:4].sum(axis=0), atol=1e-12)

    def test_grouped_linear_rejects_bad_offsets(self):
        x = T.Tensor(np.zeros((4, 3)))
        ws, bs = [T.Tensor(np.zeros((3, 2)))] * 2, [T.Tensor(np.zeros(2))] * 2
        for offsets in ([0, 2], [1, 2, 4], [0, 3, 2], [0, 2, 5]):
            with pytest.raises(ValueError):
                T.grouped_linear(x, ws, bs, offsets)

    def test_pair_primitives_reject_bad_tables(self):
        x, w = T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 2)))
        out = T.Tensor(np.zeros((4, 3)))
        good_pairs = np.array([0, 2, 1, 3])
        ffn = ([T.Tensor(np.zeros((3, 5)))], [T.Tensor(np.zeros(5))], [T.Tensor(np.zeros((5, 3)))], [T.Tensor(np.zeros(3))])

        def moe_ffn(pairs):
            return T.moe_ffn(x, pairs, *ffn, [0, 4])

        moe_ffn(good_pairs)
        T.combine_rows(out, w, good_pairs)
        for pairs in ([0, 2, 1], [0, 2, 2, 3], [0, 2, 1, 4], [0, -1, 2, 3], []):  # short, repeated, past the end, negative, none
            with pytest.raises(ValueError, match="moe_ffn: pairs"):
                moe_ffn(pairs)
            with pytest.raises(ValueError, match="combine_rows: pairs"):
                T.combine_rows(out, w, pairs)
        for op, call in (("moe_ffn", lambda: moe_ffn([[0, 2], [1, 3]])),
                         ("combine_rows", lambda: T.combine_rows(out, w, [[0, 2], [1, 3]]))):
            with pytest.raises(ValueError, match=f"{op}: row index must be 1-D"):
                call()
        with pytest.raises(ValueError, match="one out row per place"):
            T.combine_rows(T.Tensor(np.zeros((3, 3))), w, good_pairs)
        with pytest.raises(ValueError, match="w must be"):
            T.combine_rows(T.Tensor(np.zeros((6, 3))), w, np.arange(6))  # three places per token

    def test_take_along_last_assigns_like_add_at_and_rejects_repeats(self):
        r = rng()
        x = T.Tensor(r.normal(size=(3, 5)), requires_grad=True)
        sel = np.array([[4, 0], [1, 3], [2, 1]])
        g = r.normal(size=(3, 2))
        want = np.zeros((3, 5))
        np.add.at(want, (np.arange(3)[:, None], sel), g)
        with T.Tape() as tape:
            T.take_along_last(x, sel)
        np.testing.assert_array_equal(tape.nodes[0].vjps[0][1](g), want)
        for bad in ([[4, 4], [1, 3], [2, 1]], [[0, 1]], [0, 1, 2]):  # a repeat, too few rows, 1-D
            with pytest.raises(ValueError):
                T.take_along_last(x, bad)
        # a negative index would wrap to the last columns, so it is refused
        for bad in ([[-1, 0], [1, 3], [2, 1]], [[5, 0], [1, 3], [2, 1]]):
            with pytest.raises(ValueError, match=r"take_along_last: index outside \[0, 5\)"):
                T.take_along_last(x, bad)

    @pytest.mark.parametrize("n", [1, 3, 37, 130, 257])
    def test_tile_rows_matches_add_onto_zeros(self, n):
        r = rng()
        v = T.Tensor(r.normal(size=8) * 10.0 ** r.integers(-6, 6, size=8), requires_grad=True)
        up = T.Tensor(r.normal(size=(n, 8)))
        got, nodes = tape_grads(lambda: T.tsum(T.mul(T.tile_rows(v, n), up)), [v])
        want, _ = tape_grads(lambda: T.tsum(T.mul(T.add(T.Tensor(np.zeros((n, 8))), v), up)), [v])
        assert nodes == 3  # tile_rows, mul, sum
        np.testing.assert_array_equal(T.tile_rows(v, n).data, np.zeros((n, 8)) + v.data)
        np.testing.assert_array_equal(got[0], want[0])


class TestGradCheck:
    def test_exp_sum_below_1e7(self):
        w = T.Tensor(rng().normal(size=7), requires_grad=True)
        err = grad_check(lambda: T.tsum(exp(w)), [w])
        assert err < 1e-7
        # the analytic path itself must be exp(w)
        np.testing.assert_allclose(w.grad, np.exp(w.data), atol=1e-12)

    def test_each_primitive(self):
        params, cases = primitive_cases()
        for name, f in cases.items():
            err = grad_check(f, params)
            assert err < 1e-7, f"{name}: {err}"

    def test_batched_matmul(self):
        r = rng()
        a = T.Tensor(r.normal(size=(2, 3, 4)), requires_grad=True)
        b = T.Tensor(r.normal(size=(2, 4, 3)), requires_grad=True)
        err = grad_check(lambda: T.tsum(square(T.matmul(a, b))), [a, b])
        assert err < 1e-7

    def test_gather_scatter_ops(self):
        r = rng()
        x = T.Tensor(r.normal(size=(6, 4)), requires_grad=True)
        vals = T.Tensor(r.normal(size=(3, 4)), requires_grad=True)
        idx = np.array([1, 2, 4])
        sel = np.array([[0, 2], [3, 1], [2, 0], [1, 0], [0, 3], [2, 1]])

        def f_gather():
            return T.tsum(square(T.gather_rows(x, idx)))

        def f_index_add():
            return T.tsum(square(T.index_add(x, idx, vals)))

        def f_take():
            return T.tsum(square(T.take_along_last(x, sel)))

        for f in (f_gather, f_index_add, f_take):
            assert grad_check(f, [x, vals]) < 1e-7

    def test_rmsnorm_and_composites(self):
        r = rng()
        x = T.Tensor(r.normal(size=(3, 8)), requires_grad=True)
        g = T.Tensor(np.ones(8), requires_grad=True)
        h = T.Tensor(r.normal(size=(3, 8)), requires_grad=True)
        err = grad_check(lambda: T.tsum(square(T.residual_rmsnorm(h, x, g))), [h, x, g])
        assert err < 1e-7
        w = T.Tensor(r.normal(size=(8, 2)), requires_grad=True)
        b = T.Tensor(np.zeros(2), requires_grad=True)
        err = grad_check(lambda: T.tsum(T.gelu(T.matmul(x, w, bias=b))), [x, w, b])
        assert err < 1e-7

    def test_rejects_bad_h(self):
        w = T.Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            grad_check(lambda: T.tsum(w), [w], h=1e-2)

    def test_rejects_nondeterministic_f(self):
        w = T.Tensor([1.0], requires_grad=True)
        r = np.random.default_rng(0)

        def f():
            return T.tsum(T.mul(w, T.Tensor(r.normal())))

        with pytest.raises(ValueError):
            grad_check(f, [w])


class TestSerialization:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128])
    def test_roundtrip(self, tmp_path, dtype):
        r = rng()
        arr = r.normal(size=(3, 5, 2)).astype(dtype)
        if np.issubdtype(dtype, np.complexfloating):
            arr = arr + 1j * r.normal(size=(3, 5, 2))
        p = tmp_path / "t.mstn"
        T.write_mstn(p, arr)
        back = T.read_mstn(p)
        assert back.dtype == np.dtype(dtype).newbyteorder("=")
        assert back.shape == arr.shape
        np.testing.assert_array_equal(back, arr)

    def test_roundtrip_scalar_rank0(self, tmp_path):
        p = tmp_path / "s.mstn"
        T.write_mstn(p, np.float64(4.25))
        back = T.read_mstn(p)
        assert back.shape == ()
        assert back == 4.25

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "t.mstn"
        T.write_mstn(p, np.arange(10, dtype=np.float64))
        blob = p.read_bytes()
        p.write_bytes(blob[:-8])
        with pytest.raises(ValueError):
            T.read_mstn(p)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "t.mstn"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            T.read_mstn(p)

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            T.write_mstn(tmp_path / "t.mstn", np.arange(4, dtype=np.int32))

    @pytest.mark.parametrize(
        "make",
        [
            lambda r: r.normal(size=(3, 4)),
            lambda r: r.normal(size=(3, 4)).T,
            lambda r: r.normal(size=(6, 5))[::2, 1:4],
            lambda r: r.normal(size=(3, 2)).astype(">f8"),
            lambda r: r.normal(size=5).astype(np.float32),
            lambda r: r.normal(size=(2, 3)) + 1j * r.normal(size=(2, 3)),
            lambda r: np.float64(4.25),
        ],
        ids=["c_order", "transposed", "sliced", "big_endian", "float32", "complex128", "rank0"],
    )
    def test_write_matches_dumps(self, tmp_path, make):
        arr = make(rng())
        p = tmp_path / "t.mstn"
        T.write_mstn(p, arr)
        assert p.read_bytes() == T.mstn_dumps(arr)
        back = T.read_mstn(p)
        assert back.shape == np.shape(arr)
        np.testing.assert_array_equal(back, arr)

    def test_read_is_writable(self, tmp_path):
        p = tmp_path / "t.mstn"
        T.write_mstn(p, np.arange(6, dtype=np.float64).reshape(2, 3))
        back = T.read_mstn(p)
        assert back.flags.writeable and back.flags.aligned and back.ctypes.data % 8 == 0
        back[1, 2] = -1.0
        assert back[1, 2] == -1.0

    def test_loads_views_any_bytes_like(self):
        blob = T.mstn_dumps(np.arange(4, dtype=np.float64))
        assert not T.mstn_loads(blob).flags.writeable
        buf = bytearray(b"pad" + blob)
        view = T.mstn_loads(memoryview(buf)[3:])
        assert view.flags.writeable
        view[0] = 7.0  # a view, so the buffer sees the write
        assert T.mstn_loads(memoryview(buf)[3:])[0] == 7.0


def mstn_arrays():
    """Arrays of every MSTN dtype, rank 0 to 3, any values including NaN."""
    return st.sampled_from([np.float64, np.float32, np.complex128]).flatmap(
        lambda dtype: hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=3, max_side=4))
    )


def same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestMstnFuzz:
    """MSTN blobs carry no checksum, so an edited blob may parse to another
    array; what holds is that a bad blob raises ValueError and nothing else."""

    @given(mstn_arrays(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_truncation_raises(self, arr, data):
        blob = T.mstn_dumps(arr)
        assert same_array(T.mstn_loads(blob), arr)
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(ValueError):
            T.mstn_loads(blob[:cut])

    @given(mstn_arrays(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_edit_raises_value_error_or_parses(self, arr, data):
        blob = bytearray(T.mstn_dumps(arr))
        pos = data.draw(st.integers(0, len(blob) - 1))
        blob[pos] ^= data.draw(st.integers(1, 255))
        try:
            T.mstn_loads(blob)
        except ValueError:
            return
        assert pos >= 8  # magic and version edits never parse

    @given(st.binary(max_size=64) | st.binary(max_size=56).map(lambda b: b"MSTN\x01\0\0\0" + b))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes(self, blob):
        try:
            T.mstn_loads(blob)
        except ValueError:
            pass


def emitting_primitives() -> set[str]:
    """The public misac.tensor functions that record tape nodes."""
    return {
        name for name, fn in vars(T).items()
        if callable(fn) and not name.startswith("_") and getattr(fn, "__module__", None) == T.__name__
        and "_emit" in getattr(getattr(fn, "__code__", None), "co_names", ())
    }


def tensor_calls_in_src() -> set[str]:
    """Names of misac.tensor functions that src/misac calls, not counting a
    call from inside the function's own definition."""
    called = set()
    for path in Path(T.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        aliases, direct = set(), {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name == "tensor":
                        aliases.add(alias.asname or alias.name)
                    elif node.module == "tensor":
                        direct[alias.asname or alias.name] = alias.name
        if path.name == "tensor.py":
            direct = {name: name for name in vars(T)}
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in aliases:
                    name = f.attr
                elif isinstance(f, ast.Name) and f.id in direct:
                    name = direct[f.id]
                else:
                    continue
                if not (path.name == "tensor.py" and name == owner):
                    called.add(name)
    return called


class TestPrimitiveCoverage:
    def test_every_primitive_is_used_and_grad_checked(self):
        prims = emitting_primitives()
        assert {"add", "matmul", "tile_rows", "combine_rows"} <= prims
        unused = prims - tensor_calls_in_src()
        assert not unused, f"primitives that src/misac never calls: {sorted(unused)}"
        _, cases = primitive_cases()
        checked = set()
        for f in cases.values():
            with T.Tape() as tape:
                f()
            checked |= {vjp.__qualname__.split(".<locals>.")[0] for node in tape.nodes for _, vjp in node.vjps}
        unchecked = prims - checked
        assert not unchecked, f"primitives missing from test_each_primitive: {sorted(unchecked)}"


# The one place each built-in modality may be named outside misac.tokenizer:
# (module, the top-level constant that may name it).
MODALITY_NAMING = {("downstream.py", "CHANNEL"), ("synth.py", "MODALITY_NAMES")}


def modality_literals(src: Path) -> list[str]:
    """Where src names a built-in modality outside its records: a
    Modality.CSI/MAP/RADAR attribute anywhere but tokenizer.py, or a tuple,
    list or set of two or more of the names "csi", "radar" and "map". The
    constants in MODALITY_NAMING are exempt."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        exempt = {
            id(node)
            for top in tree.body
            if isinstance(top, ast.Assign)
            and any((path.name, getattr(t, "id", None)) in MODALITY_NAMING for t in top.targets)
            for node in ast.walk(top)
        }
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if (
                isinstance(node, ast.Attribute) and node.attr in ("CSI", "MAP", "RADAR")
                and isinstance(node.value, ast.Name) and node.value.id == "Modality"
                and path.name != "tokenizer.py"
            ):
                found.append(f"{path.name}:{node.lineno}: Modality.{node.attr}")
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                names = {e.value for e in node.elts if isinstance(e, ast.Constant)} & {"csi", "radar", "map"}
                if len(names) >= 2:
                    found.append(f"{path.name}:{node.lineno}: modality names {sorted(names)}")
    return found


class TestModalityLiterals:
    def test_only_the_records_name_a_modality(self):
        src = Path(T.__file__).parent
        found = modality_literals(src)
        assert not found, f"modalities named outside their records: {found}"
        constants = {
            (path.name, t.id)
            for path in src.glob("*.py")
            for top in ast.parse(path.read_text()).body if isinstance(top, ast.Assign)
            for t in top.targets if isinstance(t, ast.Name)
        }
        assert MODALITY_NAMING <= constants


class TestErrorClasses:
    def test_every_error_class_derives_from_misac_error(self):
        """The CLI exits 1 on a MisacError, so an error class on another
        base would exit 2."""
        bases = {
            f"{path.name}: {node.name}": [getattr(b, "id", None) for b in node.bases]
            for path in sorted(Path(T.__file__).parent.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef) and node.name.endswith("Error")
        }
        assert bases.pop("__init__.py: MisacError") == ["ValueError"]
        assert len(bases) >= 8
        assert {name: b for name, b in bases.items() if b != ["MisacError"]} == {}


def import_faults(src: Path) -> list[str]:
    """Imports in src that run inside a function, and imports of an
    _-prefixed name from a misac module."""
    found = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {
                    f"{path.name}:{node.lineno}: import inside {fn.name}"
                    for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
                }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("misac")):
                found |= {f"{path.name}:{node.lineno}: {a.name}" for a in node.names if a.name.startswith("_")}
    return sorted(found)


class TestImports:
    def test_no_local_or_private_imports(self):
        found = import_faults(Path(T.__file__).parent)
        assert not found, f"function-local or private imports in src/misac: {found}"


class TestTapeOpNames:
    """Every tape node's vjps are closures defined inside the public
    misac.tensor function that recorded it, so an op histogram can name a
    node's primitive from the closure's __qualname__."""

    def test_every_vjp_names_its_primitive(self, monkeypatch):
        import dataclasses

        from misac.config import desk_config
        from misac.downstream import FinetuneModel, FinetuneSettings, run_finetune
        from misac.pretrain import PretrainModel, run_pretrain
        from misac.synth import synth_dataset

        tapes = []
        real_backward = T.backward

        def recording_backward(loss, tape):
            # the op names, taken before backward spends the tape
            tapes.append([vjp.__qualname__ for node in tape.nodes for _, vjp in node.vjps])
            real_backward(loss, tape)

        monkeypatch.setattr(T, "backward", recording_backward)
        desk = desk_config()
        model = PretrainModel(
            desk.model.encoder_config(), desk.model.tokenizer_config(), np.random.default_rng(0),
            decoder_blocks=desk.model.decoder_blocks,
        )
        synth_cfg = desk.data.synth_config(desk.model)
        samples, _ = synth_dataset(synth_cfg, 8, seed=5)
        run_pretrain(model, samples, dataclasses.replace(desk.pretrain.settings(), steps=1), seed=0)
        head = FinetuneModel(model, "beam_selection", np.random.default_rng(1), n_beams=synth_cfg.n_beams)
        run_finetune(head, samples, FinetuneSettings(steps=1, batch_size=8, freeze_encoder=True), seed=0)
        assert len(tapes) == 2

        ops = []
        for tape in tapes:
            ops.append(set())
            for qualname in tape:
                op, local, _ = qualname.partition(".<locals>.")
                fn = getattr(T, op, None)
                assert local and not op.startswith("_"), qualname
                assert getattr(fn, "__module__", None) == T.__name__, qualname
                ops[-1].add(op)
        encoder_ops = {"moe_ffn", "combine_rows", "grouped_linear", "residual_rmsnorm"}
        assert encoder_ops | {"index_add"} <= ops[0]
        assert not ops[1] & encoder_ops  # frozen encoder
