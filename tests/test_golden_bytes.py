"""Golden bytes: the sha256 of every file of a desk dataset and of a desk
checkpoint with Adam moments, pinned so that a change to how synthesis or
serialization moves its data cannot move a byte unnoticed. Regeneration
tests elsewhere only compare one run against another of the same code.

A hash is re-pinned only when an oracle test bounds the change that moved it
(as tests/test_synth.py's per-slice oracle bounds the coherent radar maps to
1e-12 relative), and each re-pin is recorded in CHANGES.md."""

import dataclasses
import hashlib

import numpy as np
import pytest

from misac import synth
from misac.checkpoint import load_checkpoint, save_checkpoint, snapshot
from misac.config import desk_config, fingerprint
from misac.pretrain import Adam, PretrainModel

# csi and map files do not depend on the radar averaging
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
# radar files and the manifest, by RadarParams.magnitude_average
VARIANT_SHA256 = {
    False: {
        "manifest.json": "57791c816173109437d13d5c59140cd1b1d5984b16e1564419dc646e51864622",
        "sample_00000_radar.mstn": "498470978e38f30de757c5522900ab914b9cc00f97baaa475404e7861d05fe0b",
        "sample_00001_radar.mstn": "60ffe770fb97baa64a1cedfa42c40ca2032c9b48aa3ceeb4dc2ff227055acc60",
        "sample_00002_radar.mstn": "b27f93845f597d61c1a7eb23bc3e63f082b2d07b49c99ad10461f5601a4c59e2",
        "sample_00003_radar.mstn": "c5c6569941c43d22051956af7c983bcf51b76c688920b969a0605d2634761881",
    },
    True: {
        "manifest.json": "240a4dfcfed8e71174b0b38065bbff42cc5ec10534f84b5003c5bf2c3a0fe9fb",
        "sample_00000_radar.mstn": "71d91c4f6acc3d11e8cb67c25f8f43861983ead33ba59bb1b233e1baa19d731d",
        "sample_00001_radar.mstn": "e89732c1d083d3aadf4694472ed695c6cda7007f4291739594acd07bf567fa55",
        "sample_00002_radar.mstn": "9fbe9da2ff5f7935352d15255a43745efb3527921d28ed4998cb562b12a45d90",
        "sample_00003_radar.mstn": "920d9d8afe93fc47309cf04c8ce556f82dff4e59bcbc9035448dfbd3e5bd4116",
    },
}
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


@pytest.mark.parametrize("magnitude_average", [False, True])
def test_desk_dataset_bytes_are_pinned(tmp_path, magnitude_average):
    desk = desk_config()
    cfg = desk.data.synth_config(desk.model)
    cfg = dataclasses.replace(cfg, radar=dataclasses.replace(cfg.radar, magnitude_average=magnitude_average))
    _, manifest = synth.synth_dataset(cfg, 4, seed=5, out_dir=tmp_path)
    got = {f.name: sha256_of(f) for f in sorted(tmp_path.iterdir())}
    moved = moved_files(got, {**SHARED_SHA256, **VARIANT_SHA256[magnitude_average]})
    assert not moved, "sha256 moved:\n" + "\n".join(moved)
    assert synth.manifest_hash(manifest) == VARIANT_SHA256[magnitude_average]["manifest.json"]


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
