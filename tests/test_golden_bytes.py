"""Golden bytes: the sha256 of every file of a desk dataset and of a desk
checkpoint with Adam moments, pinned so that a change to how synthesis or
serialization moves its data cannot move a byte unnoticed. Regeneration
tests elsewhere only compare one run against another of the same code."""

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
        "sample_00000_radar.mstn": "ae08eb0d4e9a96cc5aac933afa0f2608569efd8fa804d5c09d430d07b026183a",
        "sample_00001_radar.mstn": "9240621f0731e02769e47e887c8aacd13770d47c6ec9abe854ae5a4f1ad79b5c",
        "sample_00002_radar.mstn": "06d9d0f878030877f1ebcb0adf095599f13fe917c21668b0867f0e976c50ee5c",
        "sample_00003_radar.mstn": "556ecc7ec98593d8a801b046e97112faf817d5536ff6d46d97bbd9630aff4da6",
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


@pytest.mark.parametrize("magnitude_average", [False, True])
def test_desk_dataset_bytes_are_pinned(tmp_path, magnitude_average):
    desk = desk_config()
    cfg = desk.data.synth_config(desk.model)
    cfg = dataclasses.replace(cfg, radar=dataclasses.replace(cfg.radar, magnitude_average=magnitude_average))
    _, manifest = synth.synth_dataset(cfg, 4, seed=5, out_dir=tmp_path)
    got = {f.name: sha256_of(f) for f in sorted(tmp_path.iterdir())}
    assert got == {**SHARED_SHA256, **VARIANT_SHA256[magnitude_average]}
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
