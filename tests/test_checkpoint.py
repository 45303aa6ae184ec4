"""Checkpoint tests: bit-exact roundtrips, byte-identical rewrite, checksum
rejection of corruption, fingerprint gating, rng state restoration, and
model snapshot/restore."""

import hashlib
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misac.checkpoint import (
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    restore,
    save_checkpoint,
    snapshot,
)
from misac.encoder import EncoderConfig
from misac.pretrain import Adam, PretrainModel
from misac.tokenizer import Modality, ModalitySpec, TokenizerConfig


def tiny_model(seed: int = 0) -> PretrainModel:
    tok = TokenizerConfig(
        d=16,
        specs={
            Modality.CSI: ModalitySpec(4, 8, (2, 2)),
            Modality.MAP: ModalitySpec(8, 8, (4, 4)),
            Modality.RADAR: ModalitySpec(8, 8, (4, 4)),
        },
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
        rng_state=rng.bit_generator.state,
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
        forced = load_checkpoint(path, expect_fingerprint=None)  # what --force passes
        assert forced.step == 17

    def test_interrupted_save_leaves_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "c.msck"
        save_checkpoint(path, sample_ckpt())
        good = path.read_bytes()
        import misac.checkpoint as cp

        def boom(*_data):
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


def edit_header(path, edit) -> None:
    """Rewrite a checkpoint file with edit(header) applied to its JSON header."""
    blob = path.read_bytes()
    (head_len,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + head_len])
    edit(header)
    head = json.dumps(header).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(head)) + head + blob[16 + head_len :])


def drop_header_key(path, key: str) -> None:
    edit_header(path, lambda header: header.pop(key))


def saved_sample(tmp_path):
    path = tmp_path / "c.msck"
    save_checkpoint(path, sample_ckpt())
    return path


def set_span(i: int, **fields):
    def edit(header):
        header["tensors"][i].update(fields)

    return edit


class TestHeaderValidation:
    """The header is outside the payload checksum, so its fields and tensor
    spans are checked on their own, as CheckpointError naming the tensor."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h: h["tensors"][1].pop("offset"), "tensor p.w: span offset and length must be integers"),
            (lambda h: h.update(tensors=5), "header tensors has type int"),
            (set_span(1, offset="144"), "tensor p.w: span offset and length must be integers"),
            (set_span(0, length=True), "tensor p.b: span offset and length must be integers"),
            (lambda h: h["tensors"][1].pop("name"), "span 1 is not an object with a name"),
            (lambda h: h["tensors"].__setitem__(0, [0, 1]), "span 0 is not an object with a name"),
            (set_span(1, offset=0), "tensor p.w: span at 0 of length"),
            (set_span(0, length=-1), "tensor p.b: span at 0 of length -1"),
            (set_span(1, name="p.b"), "tensor p.b: appears twice"),
            (lambda h: h["tensors"].pop(), "spans end at byte"),
            (lambda h: h["tensors"][-1].update(length=h["tensors"][-1]["length"] + 8), "spans end at byte"),
            (lambda h: h.update(step="17"), "header step has type str"),
            (lambda h: h.update(opt_t=17.0), "header opt_t has type float"),
            (lambda h: h.update(fingerprint=None), "header fingerprint has type NoneType"),
            (lambda h: h.update(rng_state=[]), "header rng_state has type list"),
            (lambda h: h.update(step=-3), "header step is -3; a counter cannot be negative"),
            (lambda h: h.update(opt_t=-4), "header opt_t is -4; a counter cannot be negative"),
        ],
        ids=[
            "no_offset", "tensors_not_list", "str_offset", "bool_length", "no_name", "span_not_object",
            "overlap", "negative_length", "duplicate_name", "short_of_payload", "past_payload",
            "str_step", "float_opt_t", "null_fingerprint", "list_rng_state", "negative_step", "negative_opt_t",
        ],
    )
    def test_malformed_header_raises(self, tmp_path, edit, message):
        path = saved_sample(tmp_path)
        edit_header(path, edit)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_spans_tile_the_payload_in_order(self, tmp_path):
        path = saved_sample(tmp_path)
        blob = path.read_bytes()
        (head_len,) = struct.unpack_from("<Q", blob, 8)
        spans = json.loads(blob[16 : 16 + head_len])["tensors"]
        assert [s["name"] for s in spans] == ["p.b", "p.w", "o.m.w", "o.v.w"]
        assert spans[0]["offset"] == 0
        assert all(a["offset"] + a["length"] == b["offset"] for a, b in zip(spans, spans[1:]))
        assert spans[-1]["offset"] + spans[-1]["length"] == len(blob) - 16 - head_len

    def test_bad_tensor_blob_names_the_tensor(self, tmp_path):
        """A payload whose checksum matches but whose blob is not MSTN."""
        path = saved_sample(tmp_path)
        blob = bytearray(path.read_bytes())
        (head_len,) = struct.unpack_from("<Q", blob, 8)
        header = json.loads(blob[16 : 16 + head_len])
        start = 16 + head_len + header["tensors"][1]["offset"]
        blob[start : start + 4] = b"NOPE"
        payload = bytes(blob[16 + head_len :])
        header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
        head = json.dumps(header).encode()
        path.write_bytes(bytes(blob[:8]) + struct.pack("<Q", len(head)) + head + payload)
        with pytest.raises(CheckpointError, match="tensor p.w: read_mstn: bad magic"):
            load_checkpoint(path)

    def test_header_that_is_not_utf8(self, tmp_path):
        path = saved_sample(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[17] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="corrupt checkpoint header"):
            load_checkpoint(path)


def array_keys(arrays) -> list[tuple]:
    return sorted((a.shape, a.dtype.str, a.tobytes()) for a in arrays)


@pytest.fixture(scope="module")
def saved_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "c.msck"
    ckpt = sample_ckpt()
    save_checkpoint(path, ckpt)
    return path, array_keys([*ckpt.params.values(), *ckpt.opt_moments.values()])


class TestCheckpointFuzz:
    """The payload is checksummed and the header is validated, so a truncated
    or byte-edited file loads the saved arrays exactly or raises
    CheckpointError. A header edit may rename a tensor or change the step,
    which no check can see; the arrays are compared as a multiset."""

    def check(self, path, blob, original):
        edited = path.with_name("edited.msck")
        edited.write_bytes(blob)
        try:
            back = load_checkpoint(edited)
        except CheckpointError:
            return
        assert array_keys([*back.params.values(), *back.opt_moments.values()]) == original

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_byte_edit(self, saved_file, data):
        path, original = saved_file
        blob = bytearray(path.read_bytes())
        pos = data.draw(st.integers(0, len(blob) - 1))
        blob[pos] ^= data.draw(st.integers(1, 255))
        self.check(path, bytes(blob), original)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_truncation(self, saved_file, data):
        path, original = saved_file
        blob = path.read_bytes()
        cut = data.draw(st.integers(0, len(blob) - 1))
        edited = path.with_name("edited.msck")
        edited.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(edited)


class TestRngState:
    def test_generator_roundtrips_through_json(self):
        rng = np.random.default_rng(99)
        rng.normal(size=10)  # advance
        model = tiny_model()
        twin = restore(snapshot(model, "f" * 64, 0, rng=rng), model)
        assert np.array_equal(rng.normal(size=5), twin.normal(size=5))

    def test_state_survives_json_encoding(self, tmp_path):
        rng = np.random.default_rng(5)
        rng.integers(0, 1000, size=3)
        model = tiny_model()
        save_checkpoint(tmp_path / "c.msck", snapshot(model, "f" * 64, 0, rng=rng))  # a JSON header
        twin = restore(load_checkpoint(tmp_path / "c.msck"), model)
        assert np.array_equal(rng.integers(0, 1000, size=4), twin.integers(0, 1000, size=4))

    @pytest.mark.parametrize(
        "edit, raised",
        [
            (lambda s: {"bit_generator": "PCG64"}, "KeyError"),
            (lambda s: {**s, "bit_generator": "MT19937"}, "ValueError"),
            (lambda s: {**s, "state": {"state": "x", "inc": 1}}, "TypeError"),
            (lambda s: {**s, "state": {"state": -1, "inc": 1}}, "OverflowError"),
        ],
        ids=["no_state", "other_generator", "str_state", "negative_state"],
    )
    @pytest.mark.parametrize("with_opt", [False, True])
    def test_state_numpy_rejects_is_refused_before_anything_is_copied(self, tmp_path, edit, raised, with_opt):
        source = tiny_model(1)
        source_opt = Adam(source.named_params())
        ckpt = snapshot(source, "a" * 64, step=1, opt=source_opt, rng=np.random.default_rng(5))
        ckpt.opt_moments = {k: np.ones_like(v) for k, v in ckpt.opt_moments.items()}
        ckpt.rng_state = edit(ckpt.rng_state)
        save_checkpoint(tmp_path / "bad.msck", ckpt)
        model = tiny_model(0)
        opt = Adam(model.named_params())
        params = {k: p.data.copy() for k, p in model.named_params().items()}
        with pytest.raises(CheckpointError, match=f"checkpoint rng_state is not a generator state numpy accepts \\({raised}"):
            restore(load_checkpoint(tmp_path / "bad.msck"), model, opt if with_opt else None)
        assert all(np.array_equal(p.data, params[k]) for k, p in model.named_params().items())
        assert opt.t == 0 and not any(v.any() for v in opt.state_arrays().values())


class TestModelSnapshot:
    def test_forward_is_bit_identical_after_roundtrip(self, tmp_path):
        model = tiny_model(0)
        rng = np.random.default_rng(1)
        prepped = {Modality.CSI: rng.normal(size=(4, 8, 2))}
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

    @pytest.mark.parametrize(
        "held, lacking",
        [((), "no Adam moments and no rng state"), (("opt",), "no rng state"), (("rng",), "no Adam moments")],
        ids=["neither", "moments_only", "rng_only"],
    )
    def test_restore_with_an_optimizer_refuses_a_checkpoint_that_cannot_resume(self, held, lacking):
        model = tiny_model(0)
        opt = Adam(model.named_params())
        for p in opt.params.values():
            p.grad = np.ones_like(p.data)
        opt.step(1e-3)
        opt.step(1e-3)
        state = {k: v.copy() for k, v in opt.state_arrays().items()}
        extra = {"opt": Adam(model.named_params()), "rng": np.random.default_rng(5)}
        ckpt = snapshot(tiny_model(1), "a" * 64, step=5, **{k: extra[k] for k in held})
        before = {k: p.data.copy() for k, p in model.named_params().items()}
        with pytest.raises(CheckpointError, match=f"{lacking}, so it is not a pre-training checkpoint"):
            restore(ckpt, model, opt)
        assert opt.t == 2
        assert all(np.array_equal(v, state[k]) for k, v in opt.state_arrays().items())
        assert all(np.array_equal(p.data, before[k]) for k, p in model.named_params().items())

    def test_loaded_arrays_are_aligned_writable_and_restore_copies(self, tmp_path):
        model = tiny_model(0)
        path = tmp_path / "m.msck"
        save_checkpoint(path, snapshot(model, "a" * 64, step=0, opt=Adam(model.named_params())))
        back = load_checkpoint(path)
        for arr in [*back.params.values(), *back.opt_moments.values()]:
            assert arr.flags.aligned and arr.flags.writeable and arr.ctypes.data % 8 == 0
        target = tiny_model(1)
        restore(back, target)
        kept = {k: p.data.copy() for k, p in target.named_params().items()}
        for arr in back.params.values():
            arr += 1.0
        for k, p in target.named_params().items():
            assert np.array_equal(p.data, kept[k])

    def test_restore_rejects_shape_mismatch(self, tmp_path):
        model = tiny_model(0)
        ckpt = snapshot(model, "a" * 64, step=0)
        ckpt.params["pos.csi"] = np.zeros((3, 3))
        with pytest.raises(CheckpointError, match="shape mismatch"):
            restore(ckpt, tiny_model(1))

    # a tensor of a resumable checkpoint, the fault written in its place
    # (None drops it), and the words of the refusal that follow its name
    TENSOR_FAULTS = {
        "param_float32": ("proj.radar.w", lambda a: a.astype(np.float32), " is float32"),
        "param_complex128": ("proj.radar.w", lambda a: a.astype(np.complex128), " is complex128"),
        "param_shape": ("proj.radar.w", lambda a: a[:1], r": checkpoint \(1, 16\) vs model \(16, 16\)"),
        "moment_float32": ("m.proj.radar.w", lambda a: a.astype(np.float32), " is float32"),
        "moment_complex128": ("v.embed.csi.b", lambda a: a.astype(np.complex128), " is complex128"),
        "moment_missing": ("m.block0.attn.k.w", None, ""),
        "moment_shape": ("v.block0.attn.k.w", lambda a: a[:1], r": checkpoint \(1, 16\) vs model \(16, 16\)"),
    }

    @pytest.mark.parametrize(
        "fault, with_opt",
        # without an optimizer restore reads no moments
        [(f, True) for f in TENSOR_FAULTS] + [(f, False) for f in TENSOR_FAULTS if f.startswith("param")],
    )
    def test_bad_tensor_is_refused_before_anything_is_copied(self, tmp_path, fault, with_opt):
        name, edit, says = self.TENSOR_FAULTS[fault]
        moment = fault.startswith("moment")
        source = tiny_model(1)
        source_opt = Adam(source.named_params())
        for p in source_opt.params.values():
            p.grad = np.ones_like(p.data)
        source_opt.step(1e-3)
        ckpt = snapshot(source, "a" * 64, step=1, opt=source_opt, rng=np.random.default_rng(5))
        held = ckpt.opt_moments if moment else ckpt.params
        if edit is None:
            del held[name]
        else:
            held[name] = edit(held[name])
        save_checkpoint(tmp_path / "bad.msck", ckpt)

        model = tiny_model(0)
        opt = Adam(model.named_params())
        for p in opt.params.values():
            p.grad = np.full_like(p.data, 0.5)
        opt.step(1e-3)
        params = {k: p.data.copy() for k, p in model.named_params().items()}
        state = {k: v.copy() for k, v in opt.state_arrays().items()}
        what = "Adam moment" if moment else "parameter"
        with pytest.raises(CheckpointError, match=f"{what} {re.escape(name)}{says}"):
            restore(load_checkpoint(tmp_path / "bad.msck"), model, opt if with_opt else None)
        assert all(np.array_equal(p.data, params[k]) for k, p in model.named_params().items())
        assert opt.t == 1
        assert all(np.array_equal(v, state[k]) for k, v in opt.state_arrays().items())

    def test_strict_missing_params(self):
        model = tiny_model(0)
        ckpt = snapshot(model, "a" * 64, step=0)
        del ckpt.params["pos.csi"]
        with pytest.raises(CheckpointError, match="lacks parameters"):
            restore(ckpt, tiny_model(1))

    def test_extra_checkpoint_tensors_are_ignored(self):
        # a fine-tune checkpoint restores into its pre-trained model: the head goes unread
        model = tiny_model(0)
        ckpt = snapshot(model, "a" * 64, step=0)
        ckpt.params["head.fc1.w"] = np.ones((2, 2))
        target = tiny_model(1)
        restore(ckpt, target)
        for k, p in target.named_params().items():
            assert np.array_equal(p.data, ckpt.params[k])
