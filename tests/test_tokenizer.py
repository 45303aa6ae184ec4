"""Tokenization: patch ordering pins, lossless fold/unfold, affine embedding
law, normalization policies, desk token arithmetic."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from map_oracle import scene_map
from misac import synth, tensor as tt, tokenizer as tok
from misac.config import desk_config
from misac.tensor import Tensor
from misac.tokenizer import Modality, ModalitySpec, TokenizerConfig


@pytest.fixture(scope="module")
def sample():
    cfg = synth.SynthConfig()
    return synth.synth_sample(cfg, index=0, base_seed=42)


@pytest.fixture()
def cfg():
    return desk_config().model.tokenizer_config()


def prepare_map_oracle(bev, height, side, height_scale=30.0):
    """The map preparation from before each part was averaged on its own:
    join bev and scaled height at native size, then mean over blocks.
    np.mean starts each block's sum from +0.0; the pipeline's block sums
    start from the block's first cell, so a channel that is -0.0 in all
    factor² cells of a block (after the height scaling, which takes -5e-324
    to -0.0) stays -0.0 there, and the oracle sets it so."""
    native = np.concatenate([bev, height / height_scale], axis=-1)
    f = native.shape[0] // side
    blocks = native.reshape(side, f, side, f, 4)
    out = blocks.mean(axis=(1, 3))
    out[(np.signbit(blocks) & (blocks == 0)).all(axis=(1, 3))] = -0.0
    return out


def assert_same_bits(got, want):
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def map_cfg(side, patch=(8, 8)):
    return TokenizerConfig(d=8, specs={Modality.MAP: ModalitySpec(side, side, patch)})


def unpatchify_np(tokens, grid, patch, channels):
    """Numpy inverse of patchify: the round-trip oracle of patchify."""
    (gr, gc), (ph, pw) = grid, patch
    return tokens.reshape(gr, gc, ph, pw, channels).transpose(0, 2, 1, 3, 4).reshape(gr * ph, gc * pw, channels)


class TestCounts:
    def test_token_count_arithmetic(self):
        for spec, grid, n in ((ModalitySpec(16, 32, (2, 2)), (8, 16), 128), (ModalitySpec(64, 64, (8, 8)), (8, 8), 64)):
            assert (spec.grid, spec.n_tokens) == (grid, n)

    def test_desk_concat_is_256(self, cfg):
        assert [cfg.spec(m).n_tokens for m in cfg.modalities] == [128, 64, 64]

    def test_indivisible_patch_rejected(self):
        with pytest.raises(tok.TokenError, match=r"patch \(2, 4\) does not tile 16x30"):
            ModalitySpec(16, 30, (2, 4))
        with pytest.raises(tok.TokenError, match="patch sides must be >= 1"):
            ModalitySpec(16, 30, (0, 3))
        with pytest.raises(tok.TokenError, match=r"grid \(16, 30\) != spec \(16, 32\)"):
            tok.patchify(np.zeros((16, 30, 1)), ModalitySpec(16, 32, (2, 4)))

    def test_config_validates_patches(self):
        with pytest.raises(tok.TokenError):
            TokenizerConfig(
                d=8,
                specs={
                    Modality.CSI: ModalitySpec(16, 30, (2, 4)),
                    Modality.MAP: ModalitySpec(64, 64, (8, 8)),
                    Modality.RADAR: ModalitySpec(64, 64, (8, 8)),
                },
            )


class TestPatchify:
    def test_frozen_ordering_2x2(self):
        x = np.arange(16, dtype=float).reshape(4, 4, 1)
        patches = tok.patchify(x, ModalitySpec(4, 4, (2, 2)))
        # patch 0 covers rows 0:2, cols 0:2, row-major within the patch
        np.testing.assert_array_equal(patches[0], [0, 1, 4, 5])
        np.testing.assert_array_equal(patches[1], [2, 3, 6, 7])
        np.testing.assert_array_equal(patches[2], [8, 9, 12, 13])

    def test_channel_interleave_ordering(self):
        x = np.zeros((2, 2, 2))
        x[..., 0] = [[1, 2], [3, 4]]
        x[..., 1] = [[10, 20], [30, 40]]
        patches = tok.patchify(x, ModalitySpec(2, 2, (2, 2)))
        np.testing.assert_array_equal(patches[0], [1, 10, 2, 20, 3, 30, 4, 40])

    def test_roundtrip_is_lossless(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(12, 20, 3))
        patches = tok.patchify(x, ModalitySpec(12, 20, (3, 4)))
        back = unpatchify_np(patches, (4, 5), (3, 4), 3)
        np.testing.assert_array_equal(back, x)

    def test_token_locality(self, sample, cfg):
        grid, spec = tok.preprocess(sample, Modality.CSI, cfg), cfg.spec(Modality.CSI)
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(cfg.patch_dim(Modality.CSI), cfg.d)))
        b = Tensor(np.zeros(cfg.d))
        base = tok.patchify_embed(grid, spec, w, b, cfg.d).data
        bumped = grid.copy()
        bumped[0, 0, 0] += 1.0  # inside patch 0 only
        after = tok.patchify_embed(bumped, spec, w, b, cfg.d).data
        changed = np.where(np.any(base != after, axis=1))[0]
        np.testing.assert_array_equal(changed, [0])

    def test_embedding_shape_is_checked_on_both_axes(self, sample, cfg):
        grid, spec = tok.preprocess(sample, Modality.CSI, cfg), cfg.spec(Modality.CSI)
        rows, b = cfg.patch_dim(Modality.CSI), Tensor(np.zeros(cfg.d))
        for shape in ((rows + 1, cfg.d), (rows, cfg.d + 1)):
            with pytest.raises(tok.TokenError, match=rf"embedding matrix \({shape[0]}, {shape[1]}\) != \({rows}, {cfg.d}\)"):
                tok.patchify_embed(grid, spec, Tensor(np.zeros(shape)), b, cfg.d)

    def test_affine_law(self, sample, cfg):
        grid, spec = tok.preprocess(sample, Modality.RADAR, cfg), cfg.spec(Modality.RADAR)
        rng = np.random.default_rng(1)
        w = Tensor(rng.normal(size=(cfg.patch_dim(Modality.RADAR), cfg.d)))
        b = Tensor(rng.normal(size=cfg.d))
        tokens = tok.patchify_embed(grid, spec, w, b, cfg.d)
        patches = tok.patchify(grid, spec)
        k = 17
        np.testing.assert_allclose(tokens.data[k], patches[k] @ w.data + b.data, atol=1e-12)
        assert tokens.shape == (8 * 8, cfg.d)


class TestPreprocess:
    def test_csi_unit_mean_power(self, sample, cfg):
        grid = tok.preprocess(sample, Modality.CSI, cfg)
        assert grid.shape == (16, 32, 2)
        power = np.mean(grid[..., 0] ** 2 + grid[..., 1] ** 2)
        assert power == pytest.approx(1.0, abs=1e-12)
        # the raw channel times one positive factor, the one that gives unit power
        h = sample.csi.h.data
        scaled = h / np.sqrt(np.mean(np.abs(h) ** 2))
        np.testing.assert_allclose(grid[..., 0], scaled.real, atol=1e-12)
        np.testing.assert_allclose(grid[..., 1], scaled.imag, atol=1e-12)

    def test_zero_csi_guard(self, cfg):
        s = synth.MultimodalSample(
            index=0,
            csi=synth.ChannelSample(tt.ComplexTensor(np.zeros((16, 32)))),
            radar=None,
            map=None,
            labels=synth.Labels(0, 0.0, 0.0),
        )
        grid = tok.preprocess(s, Modality.CSI, cfg)
        assert grid.shape == (16, 32, 2)
        assert np.all(grid == 0.0)  # left at zero power, not divided by it

    def test_radar_combined_power(self, sample, cfg):
        grid = tok.preprocess(sample, Modality.RADAR, cfg)
        assert grid.shape == (64, 64, 4)
        ra = grid[..., 0] + 1j * grid[..., 1]
        rv = grid[..., 2] + 1j * grid[..., 3]
        power = np.mean(np.abs(np.stack([ra, rv])) ** 2)
        assert power == pytest.approx(1.0, abs=1e-12)

    def test_map_downsample_and_height_scale(self, sample, cfg):
        grid = tok.preprocess(sample, Modality.MAP, cfg)
        assert grid.shape == (64, 64, 4)
        # block mean of {0,1} masks stays in [0,1]
        assert grid[..., :3].min() >= 0.0
        assert grid[..., :3].max() <= 1.0
        native = np.concatenate([sample.map.bev, sample.map.height / 30.0], axis=-1)
        want = native.reshape(64, 4, 64, 4, 4).mean(axis=(1, 3))
        np.testing.assert_allclose(grid, want, atol=1e-12)

    @pytest.mark.parametrize("factor", [1, 2, 4, 8])
    def test_map_matches_the_joined_grid_oracle_on_dense_data(self, factor):
        r = np.random.default_rng(factor)
        smap = scene_map(np.concatenate([r.random((256, 256, 3)), r.normal(size=(256, 256, 1)) * 20.0], axis=-1))
        side = 256 // factor
        got = tok.preprocess(synth.MultimodalSample(
            index=0, csi=None, radar=None, map=smap, labels=None
        ), Modality.MAP, map_cfg(side))
        assert_same_bits(got, prepare_map_oracle(smap.bev, smap.height, side))

    def test_map_matches_the_joined_grid_oracle_on_a_desk_dataset(self, tmp_path):
        desk = desk_config()
        synth.synth_dataset(desk.data.synth_config(desk.model), 8, seed=5, out_dir=tmp_path)
        loaded, _ = synth.load_dataset(tmp_path)  # each map is its file's cell rows
        cfg = desk.model.tokenizer_config()
        side = cfg.spec(Modality.MAP).height
        for s in loaded:
            assert s.map.bev.shape[0] > side
            got = tok.preprocess(s, Modality.MAP, cfg)
            assert_same_bits(got, prepare_map_oracle(s.map.bev, s.map.height, side))

    @settings(max_examples=300, deadline=None)
    @given(
        factor=st.sampled_from([1, 2, 4]),
        side=st.integers(1, 4),
        cells=st.dictionaries(
            st.integers(0, 16 * 16 * 4 - 1),
            st.one_of(
                st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, np.inf, -np.inf, 1.0, -1.0]),
                st.floats(allow_nan=False, width=64),
            ),
            max_size=40,
        ),
        all_listed=st.booleans(),
    )
    @example(factor=4, side=1, cells={}, all_listed=True)  # one fully listed block, all -0.0
    @example(factor=2, side=2, cells={0: -0.0, 5: 0.0}, all_listed=False)
    @example(factor=1, side=1, cells={3: -5e-324}, all_listed=False)
    def test_map_rows_match_the_joined_grid_oracle_bit_for_bit(self, factor, side, cells, all_listed):
        # sparse grids of +-0.0, subnormals and +-inf; all_listed fills every
        # unset channel with -0.0, so every cell is listed. inf - inf makes a
        # NaN: it stays NaN, but its payload is not promised.
        native = side * factor
        flat = np.full(native * native * 4, -0.0 if all_listed else 0.0)
        for i, v in cells.items():
            flat[i % flat.size] = v
        grid = flat.reshape(native, native, 4)
        sample = synth.MultimodalSample(index=0, csi=None, radar=None, map=scene_map(grid), labels=None)
        # +inf and -inf in one block (invalid), or huge floats whose sum passes the largest float (overflow)
        with np.errstate(invalid="ignore", over="ignore"):
            got = tok.preprocess(sample, Modality.MAP, map_cfg(side, (1, 1)))
            want = prepare_map_oracle(grid[..., :3], grid[..., 3:], side)
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        assert_same_bits(got[~nan], want[~nan])

    def test_map_native_passthrough(self, sample):
        cfg = TokenizerConfig(
            d=32,
            specs={
                Modality.CSI: ModalitySpec(16, 32, (2, 2)),
                Modality.MAP: ModalitySpec(256, 256, (8, 8)),
                Modality.RADAR: ModalitySpec(64, 64, (8, 8)),
            },
        )
        grid = tok.preprocess(sample, Modality.MAP, cfg)
        assert_same_bits(grid, np.concatenate([sample.map.bev, sample.map.height / cfg.height_scale], axis=-1))

    def test_missing_modality_rejected(self, sample, cfg):
        s = synth.MultimodalSample(
            index=1, csi=sample.csi, radar=None, map=sample.map, labels=sample.labels
        )
        with pytest.raises(tok.TokenError):
            tok.preprocess(s, Modality.RADAR, cfg)

    def test_modality_ids_are_stable(self):
        assert [m.id for m in (Modality.CSI, Modality.MAP, Modality.RADAR)] == [0, 1, 2]
