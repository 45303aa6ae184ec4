"""Golden bytes: the sha256 of every file of a desk dataset and of a desk
checkpoint with Adam moments, pinned so that a change to how synthesis or
serialization moves its data cannot move a byte unnoticed. Regeneration
tests elsewhere only compare one run against another of the same code.

A hash is re-pinned only when an oracle test bounds the change that moved it,
and only after the replaced code, swapped back in, has reproduced every pin.
In tests/test_synth.py the per-slice oracle bounds the coherent radar maps
to 1e-12 relative, and the long-double oracle of tests/radar_oracle.py
bounds every radar cube element by the roundings of the separable form.
Each re-pin is recorded in CHANGES.md."""

import hashlib

import numpy as np

from misac import canonical_json, synth
from misac.checkpoint import load_checkpoint, save_checkpoint, snapshot
from misac.config import desk_config, fingerprint
from misac.pretrain import Adam, PretrainModel

# csi and map files
SHARED_SHA256 = {
    "sample_00000_csi.mstn": "bb05e60227e893d9ad26ea96f1fed8d73a299eba6c2bae03fb9f0887abaeccdc",
    "sample_00000_map.mstn": "038318e52f3b54844b7bcc67e25db7aa5ed07f3ae9f6d09b37337c5fd42f8b7e",
    "sample_00001_csi.mstn": "c9a874e1d72ed3239da7f8eb5dad332b34fe7210633916e66e38e066f62988fc",
    "sample_00001_map.mstn": "3a34bc0bcda5009187f6794456518a8bd3a0bb1227bb6a95f00f870bbdedb25e",
    "sample_00002_csi.mstn": "a7c5afa134798a4a36819cfb0ab1edcd6610ca4524c203e9918fa210b5390196",
    "sample_00002_map.mstn": "52d8d3757ec69f0851d0e2582802e2afa0b5f311a971dd8f4c18bc9e7ee8fa4c",
    "sample_00003_csi.mstn": "fe2097a4a454f38e6109458693a3b67d7a377c0127145b7af40ca2c4271837b7",
    "sample_00003_map.mstn": "86068356113016610a19c6669698a2869102d72f15d8e4e8f7bc366e40d3bec4",
}
# the coherent radar maps
RADAR_SHA256 = {
    "sample_00000_radar.mstn": "090ab44725ae1c81762b8665f205d5a54dfaeb6ca12979d805fa39e0928bb9a7",
    "sample_00001_radar.mstn": "644d0801174ad51d5bad519eadfb7633226bf07772e0f16ec4f6ac4c522366ab",
    "sample_00002_radar.mstn": "2320bdedbf0a9946365dd3bb431064cc62f1f9276cc1eb78edb4417ec17fcf19",
    "sample_00003_radar.mstn": "9c8cc82df0ed7caea6cd4b17c4afb385f8fe56ddfd271ce0f2d7720baf730168",
}
# the manifest holds the synthesis config as dataclasses.asdict writes it, so
# it moves whenever a config field is added or removed
MANIFEST_SHA256 = "70d49dd2e52c4be417e806056c0245f5067fba9fd6752d546f8e5314bcd32135"
# the same manifest as written while RadarParams still had magnitude_average,
# which every dataset synthesized then carries as false in config.radar
OLD_MANIFEST_SHA256 = "57791c816173109437d13d5c59140cd1b1d5984b16e1564419dc646e51864622"
CHECKPOINT_SHA256 = "53bcbc8b652b15fe4070d417c050ab00daed141b6378a3920de84fb0342e6032"


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def moved_files(got: dict, pinned: dict) -> list[str]:
    """One line per file whose sha256 differs from its pin, is not pinned,
    or is pinned but missing."""
    return [
        f"{name}: pinned {pinned.get(name, 'nothing')}, got {got.get(name, 'no file')}"
        for name in sorted(got.keys() | pinned.keys())
        if got.get(name) != pinned.get(name)
    ]


def test_desk_dataset_bytes_are_pinned(tmp_path):
    desk = desk_config()
    _, manifest = synth.synth_dataset(desk.data.synth_config(desk.model), 4, seed=5, out_dir=tmp_path)
    got = {f.name: sha256_of(f) for f in sorted(tmp_path.iterdir())}
    moved = moved_files(got, {**SHARED_SHA256, **RADAR_SHA256, "manifest.json": MANIFEST_SHA256})
    assert not moved, "sha256 moved:\n" + "\n".join(moved)
    assert synth.manifest_hash(manifest) == MANIFEST_SHA256


def test_dataset_with_the_old_averaging_key_still_loads(tmp_path):
    desk = desk_config()
    generated, manifest = synth.synth_dataset(desk.data.synth_config(desk.model), 4, seed=5, out_dir=tmp_path)
    # the removed key is the manifest's only difference from the old pin
    manifest["config"]["radar"]["magnitude_average"] = False
    assert synth.manifest_hash(manifest) == OLD_MANIFEST_SHA256
    (tmp_path / "manifest.json").write_text(canonical_json(manifest))
    loaded, read = synth.load_dataset(tmp_path)
    assert synth.manifest_hash(read) == OLD_MANIFEST_SHA256
    assert len(loaded) == len(generated)
    for a, b in zip(generated, loaded):
        assert a.available == b.available and a.labels == b.labels
        if a.csi is not None:
            np.testing.assert_array_equal(a.csi.h.data, b.csi.h.data)
        if a.radar is not None:
            np.testing.assert_array_equal(a.radar.data, b.radar.data)
        if a.map is not None:
            assert a.map.rows.tobytes() == b.map.rows.tobytes()


def test_desk_checkpoint_bytes_are_pinned(tmp_path):
    # Adam moments come from one step on seeded gradients: elementwise
    # arithmetic only, so no BLAS thread count can move a byte
    desk = desk_config()
    model = PretrainModel(
        desk.model.encoder_config(),
        desk.model.tokenizer_config(),
        np.random.default_rng(0),
        decoder_blocks=desk.model.decoder_blocks,
    )
    opt = Adam(model.named_params())
    grads = np.random.default_rng(1)
    for p in model.named_params().values():
        p.grad = grads.normal(size=p.data.shape)
    opt.step(1e-3)
    first, second = tmp_path / "a.msck", tmp_path / "b.msck"
    save_checkpoint(first, snapshot(model, fingerprint(desk), 1, opt=opt, rng=np.random.default_rng(2)))
    assert sha256_of(first) == CHECKPOINT_SHA256
    save_checkpoint(second, load_checkpoint(first))
    assert second.read_bytes() == first.read_bytes()
