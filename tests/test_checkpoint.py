"""Checkpoint tests: bit-exact roundtrips, byte-identical rewrite, checksum
rejection of corruption, fingerprint gating, rng state restoration, and
model snapshot/restore."""

import json
import struct

import numpy as np
import pytest

from misac.checkpoint import (
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    restore,
    rng_from_json,
    rng_state_to_json,
    save_checkpoint,
    snapshot,
)
from misac.encoder import EncoderConfig
from misac.pretrain import Adam, PretrainModel
from misac.tokenizer import Modality, ModalitySpec, Prepped, TokenizerConfig


def tiny_model(seed: int = 0) -> PretrainModel:
    tok = TokenizerConfig(
        d=16,
        csi=ModalitySpec(4, 8, (2, 2)),
        map=ModalitySpec(8, 8, (4, 4)),
        radar=ModalitySpec(8, 8, (4, 4)),
    )
    enc = EncoderConfig(d=16, n_layers=1, n_heads=2, n_experts=4, top_k=2)
    return PretrainModel(enc, tok, np.random.default_rng(seed))


def sample_ckpt() -> Checkpoint:
    rng = np.random.default_rng(3)
    return Checkpoint(
        fingerprint="f" * 64,
        step=17,
        params={"w": rng.normal(size=(4, 5)), "b": rng.normal(size=7)},
        opt_t=17,
        opt_moments={"m.w": rng.normal(size=(4, 5)), "v.w": np.abs(rng.normal(size=(4, 5)))},
        rng_state=rng_state_to_json(rng),
    )


class TestFileFormat:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        ckpt = sample_ckpt()
        path = tmp_path / "c.msck"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert back.fingerprint == ckpt.fingerprint
        assert back.step == 17 and back.opt_t == 17
        for k in ckpt.params:
            assert np.array_equal(back.params[k], ckpt.params[k])
            assert back.params[k].dtype == ckpt.params[k].dtype
        for k in ckpt.opt_moments:
            assert np.array_equal(back.opt_moments[k], ckpt.opt_moments[k])
        assert back.rng_state == ckpt.rng_state

    def test_save_load_save_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.msck", tmp_path / "b.msck"
        save_checkpoint(a, sample_ckpt())
        save_checkpoint(b, load_checkpoint(a))
        assert a.read_bytes() == b.read_bytes()

    def test_payload_corruption_detected(self, tmp_path):
        path = tmp_path / "c.msck"
        save_checkpoint(path, sample_ckpt())
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "c.msck"
        save_checkpoint(path, sample_ckpt())
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_bad_magic_and_missing_file(self, tmp_path):
        path = tmp_path / "c.msck"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(tmp_path / "absent.msck")

    def test_fingerprint_gate(self, tmp_path):
        path = tmp_path / "c.msck"
        save_checkpoint(path, sample_ckpt())
        load_checkpoint(path, expect_fingerprint="f" * 64)  # match passes
        with pytest.raises(CheckpointError, match="different config"):
            load_checkpoint(path, expect_fingerprint="0" * 64)
        forced = load_checkpoint(path, expect_fingerprint="0" * 64, force=True)
        assert forced.step == 17

    def test_interrupted_save_leaves_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "c.msck"
        save_checkpoint(path, sample_ckpt())
        good = path.read_bytes()
        import misac.checkpoint as cp

        def boom(payload_bytes):
            raise OSError("disk full")

        monkeypatch.setattr(cp.hashlib, "sha256", boom)
        with pytest.raises(OSError):
            save_checkpoint(path, sample_ckpt())
        assert path.read_bytes() == good

    @pytest.mark.parametrize(
        "key", ["fingerprint", "opt_t", "payload_sha256", "rng_state", "step", "tensors"]
    )
    def test_missing_header_key_named(self, tmp_path, key):
        path = tmp_path / "c.msck"
        save_checkpoint(path, sample_ckpt())
        drop_header_key(path, key)
        with pytest.raises(CheckpointError, match=f"header lacks {key}"):
            load_checkpoint(path)


def drop_header_key(path, key: str) -> None:
    """Rewrite a checkpoint file with one key removed from its JSON header."""
    blob = path.read_bytes()
    (head_len,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + head_len])
    del header[key]
    head = json.dumps(header).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(head)) + head + blob[16 + head_len :])


class TestRngState:
    def test_generator_roundtrips_through_json(self):
        rng = np.random.default_rng(99)
        rng.normal(size=10)  # advance
        state = rng_state_to_json(rng)
        twin = rng_from_json(state)
        assert np.array_equal(rng.normal(size=5), twin.normal(size=5))

    def test_state_survives_json_encoding(self, tmp_path):
        import json

        rng = np.random.default_rng(5)
        rng.integers(0, 1000, size=3)
        state = json.loads(json.dumps(rng_state_to_json(rng)))
        twin = rng_from_json(state)
        assert np.array_equal(rng.integers(0, 1000, size=4), twin.integers(0, 1000, size=4))


class TestModelSnapshot:
    def test_forward_is_bit_identical_after_roundtrip(self, tmp_path):
        model = tiny_model(0)
        rng = np.random.default_rng(1)
        prepped = {Modality.CSI: Prepped(Modality.CSI, rng.normal(size=(4, 8, 2)), 1.0)}
        from misac.pretrain import encode_visible

        before = encode_visible(model, prepped, {}).h.data.copy()
        path = tmp_path / "m.msck"
        save_checkpoint(path, snapshot(model, "a" * 64, step=3))
        other = tiny_model(7)  # different init
        assert not np.array_equal(encode_visible(other, prepped, {}).h.data, before)
        restore(load_checkpoint(path), other)
        assert np.array_equal(encode_visible(other, prepped, {}).h.data, before)

    def test_snapshot_carries_optimizer_and_rng(self, tmp_path):
        model = tiny_model(0)
        opt = Adam(model.named_params())
        for p in opt.params.values():
            p.grad = np.ones_like(p.data)
        opt.step(1e-3)
        rng = np.random.default_rng(11)
        rng.normal(size=3)
        path = tmp_path / "m.msck"
        save_checkpoint(path, snapshot(model, "a" * 64, step=1, opt=opt, rng=rng))
        back = load_checkpoint(path)
        model2 = tiny_model(0)
        opt2 = Adam(model2.named_params())
        rng2 = restore(back, model2, opt2)
        assert opt2.t == 1
        assert all(np.array_equal(opt2.m[k], opt.m[k]) for k in opt.m)
        assert all(np.array_equal(opt2.v[k], opt.v[k]) for k in opt.v)
        assert np.array_equal(rng2.normal(size=4), rng.normal(size=4))

    def test_restore_rejects_shape_mismatch(self, tmp_path):
        model = tiny_model(0)
        ckpt = snapshot(model, "a" * 64, step=0)
        ckpt.params["pos.csi"] = np.zeros((3, 3))
        with pytest.raises(CheckpointError, match="shape mismatch"):
            restore(ckpt, tiny_model(1))

    def test_strict_missing_params(self):
        model = tiny_model(0)
        ckpt = snapshot(model, "a" * 64, step=0)
        del ckpt.params["pos.csi"]
        with pytest.raises(CheckpointError, match="lacks parameters"):
            restore(ckpt, tiny_model(1))
        target = tiny_model(1)
        kept = target.named_params()["pos.csi"].data.copy()
        restore(ckpt, target, strict=False)
        assert np.array_equal(target.named_params()["pos.csi"].data, kept)
