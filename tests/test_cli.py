"""CLI tests: every subcommand end to end on a miniature config, exit-code
contract, JSON-line output shape, resume continuation, freeze verification,
and eval/finetune report consistency."""

import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from misac import cli
from misac.checkpoint import load_checkpoint, save_checkpoint, snapshot
from misac.cli import main
from misac.config import fingerprint, load_config
from misac.pretrain import Adam, PretrainSettings, PretrainModel, run_pretrain
from misac.synth import load_dataset
from misac.tensor import read_mstn, write_mstn

MINI = {
    "model": {"d": 16, "n_heads": 2, "n_layers": 1, "n_experts": 4, "top_k": 2},
    "data": {"n_samples": 4, "seed": 11},
    "pretrain": {"steps": 4, "batch_size": 2, "save_every": 2},
    "finetune": {"task": "beam_selection", "steps": 3, "batch_size": 2},
}

# as in test_synth: a sample file's modality and a rewrite of it whose dtype
# or shape contradicts the manifest's config
FILE_FAULTS = {
    "map_complex": ("map", lambda a: a.astype(np.complex128)),
    "radar_three_maps": ("radar", lambda a: np.concatenate([a, a[:1]])),
    "csi_float": ("csi", lambda a: a.real),
    "map_half_resolution": ("map", lambda a: a[::2, ::2]),
}



def write_cfg(path: Path, **overrides) -> Path:
    raw = json.loads(json.dumps(MINI))
    for section, fields in overrides.items():
        raw.setdefault(section, {}).update(fields)
    cfg = path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    return cfg


def lines_of(out: str, kind: str | None = None) -> list[dict]:
    rows = [json.loads(line) for line in out.strip().splitlines() if line]
    return rows if kind is None else [r for r in rows if r["kind"] == kind]


def with_header_edit(src: Path, dst: Path, edit) -> Path:
    """Copy a checkpoint file with edit(header) applied to its JSON header."""
    blob = src.read_bytes()
    (head_len,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + head_len])
    edit(header)
    head = json.dumps(header).encode()
    dst.write_bytes(blob[:8] + struct.pack("<Q", len(head)) + head + blob[16 + head_len :])
    return dst


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth + pretrain + finetune chain shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = write_cfg(root)
    assert main(["synth", "--config", str(cfg), "--out", str(root / "data")]) == 0
    assert (
        main(
            [
                "pretrain",
                "--config",
                str(cfg),
                "--data",
                str(root / "data"),
                "--out",
                str(root / "pre.msck"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "finetune",
                "--config",
                str(cfg),
                "--data",
                str(root / "data"),
                "--checkpoint",
                str(root / "pre.msck"),
                "--out",
                str(root / "ft.msck"),
            ]
        )
        == 0
    )
    return root, cfg


class TestSynth:
    def test_repeat_synthesis_matches_hashes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d1")]) == 0
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d2")]) == 0
        rows = lines_of(capsys.readouterr().out, "dataset")
        assert len(rows) == 2
        assert rows[0]["manifest_hash"] == rows[1]["manifest_hash"]
        # and the on-disk manifest hashes back to the same digest
        from misac.synth import manifest_hash

        _, manifest = load_dataset(tmp_path / "d1")
        assert manifest_hash(manifest) == rows[0]["manifest_hash"]

    def test_availability_fraction_respected(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, data={"availability": {"csi": 1.0, "radar": 0.75, "map": 1.0}}
        )
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
        row = lines_of(capsys.readouterr().out, "dataset")[0]
        assert row["counts"]["radar"] == 3  # round(0.75 * 4)

    def test_negative_availability_is_validation_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, data={"availability": {"csi": -0.2}})
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 1
        assert "error" in capsys.readouterr().err

    def test_map_size_not_dividing_the_map_is_validation_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, model={"map_size": 48})
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 1
        assert "map_size=48" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, fields, named",
        [
            ("finetune", {"freeze": "none"}, "finetune.freeze"),
            ("pretrain", {"tau": 0}, "pretrain.tau"),
            ("model", {"n_heads": 0}, "model.n_heads"),
            ("model", {"csi_patch": [2]}, "model.csi_patch"),
        ],
    )
    def test_bad_field_is_validation_error(self, tmp_path, capsys, section, fields, named):
        cfg = write_cfg(tmp_path, **{section: fields})
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 1
        assert named in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d1")])
        main(["synth", "--config", str(cfg), "--seed", "99", "--out", str(tmp_path / "d2")])
        rows = lines_of(capsys.readouterr().out, "dataset")
        assert rows[0]["manifest_hash"] != rows[1]["manifest_hash"]


class TestPretrain:
    def test_log_line_count_equals_steps(self, workspace, capsys):
        root, cfg = workspace
        capsys.readouterr()
        # rerun into a fresh checkpoint to observe the logs
        code = main(
            ["pretrain", "--config", str(cfg), "--data", str(root / "data"), "--out", str(root / "pre2.msck")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert len(lines_of(out, "pretrain_step")) == 4
        assert lines_of(out, "checkpoint_saved")[-1]["step"] == 4

    def test_resume_is_bit_identical_to_uninterrupted(self, workspace, capsys):
        root, cfg = workspace
        run_cfg = load_config(cfg)
        fp = fingerprint(run_cfg)
        # reproduce the first half out-of-band, then let the CLI finish it
        samples, _ = load_dataset(root / "data")
        model = PretrainModel(
            run_cfg.model.encoder_config(),
            run_cfg.model.tokenizer_config(),
            np.random.default_rng(11),
            decoder_blocks=run_cfg.model.decoder_blocks,
        )
        opt = Adam(model.named_params())
        rng = np.random.default_rng(11)
        run_pretrain(model, samples, run_cfg.pretrain.settings(), 11, until=2, opt=opt, rng=rng)
        half = root / "half.msck"
        save_checkpoint(half, snapshot(model, fp, 2, opt, rng))
        capsys.readouterr()
        assert main(["pretrain", "--config", str(cfg), "--data", str(root / "data"), "--out", str(half)]) == 0
        resumed = lines_of(capsys.readouterr().out, "pretrain_step")
        assert [r["step"] for r in resumed] == [2, 3]
        assert half.read_bytes() == (root / "pre.msck").read_bytes()

    def test_finished_checkpoint_is_a_no_op(self, workspace, capsys):
        root, cfg = workspace
        capsys.readouterr()
        assert main(["pretrain", "--config", str(cfg), "--data", str(root / "data"), "--out", str(root / "pre.msck")]) == 0
        out = capsys.readouterr()
        assert lines_of(out.out, "pretrain_step") == []
        assert "nothing to do" in out.err

    def test_fingerprint_mismatch_blocks_resume(self, workspace, tmp_path, capsys):
        root, _ = workspace
        other_cfg = write_cfg(tmp_path, pretrain={"lambda_cl": 0.001})
        code = main(
            ["pretrain", "--config", str(other_cfg), "--data", str(root / "data"), "--out", str(root / "pre.msck")]
        )
        assert code == 1
        assert "different config" in capsys.readouterr().err

    def test_force_overrides_fingerprint_gate(self, workspace, tmp_path, capsys):
        root, _ = workspace
        other_cfg = write_cfg(tmp_path, pretrain={"lambda_cl": 0.001})
        import shutil

        target = tmp_path / "forced.msck"
        shutil.copy(root / "pre.msck", target)
        code = main(
            [
                "pretrain",
                "--config",
                str(other_cfg),
                "--data",
                str(root / "data"),
                "--out",
                str(target),
                "--force",
            ]
        )
        assert code == 0

    def test_finetune_checkpoint_does_not_resume(self, workspace, tmp_path, capsys):
        # a fine-tune checkpoint holds neither Adam moments nor an rng state,
        # so pre-training from it would restart both silently and overwrite it
        root, cfg = workspace
        target = tmp_path / "ft.msck"
        shutil.copy(root / "ft.msck", target)
        capsys.readouterr()
        code = main(["pretrain", "--config", str(cfg), "--data", str(root / "data"), "--out", str(target)])
        assert code == 1
        err = capsys.readouterr().err
        assert "no Adam moments and no rng state" in err and "not a pre-training checkpoint" in err
        assert target.read_bytes() == (root / "ft.msck").read_bytes()

    def test_missing_dataset_is_runtime_error(self, workspace, capsys):
        root, cfg = workspace
        code = main(
            ["pretrain", "--config", str(cfg), "--data", str(root / "nowhere"), "--out", str(root / "x.msck")]
        )
        assert code == 2


class TestFinetuneAndEval:
    def test_eval_matches_finetune_report(self, workspace, capsys):
        root, cfg = workspace
        capsys.readouterr()
        assert (
            main(
                ["eval", "--config", str(cfg), "--data", str(root / "data"), "--checkpoint", str(root / "ft.msck")]
            )
            == 0
        )
        eval_report = lines_of(capsys.readouterr().out, "report")[0]
        ft_metrics = _finetune_report(root, cfg)
        assert eval_report["metrics"] == ft_metrics["metrics"]
        assert eval_report["dataset"] == ft_metrics["dataset"]

    def test_scratch_and_pretrained_reports_are_comparable(self, workspace, capsys):
        root, cfg = workspace
        capsys.readouterr()
        assert (
            main(["finetune", "--config", str(cfg), "--data", str(root / "data"), "--scratch"]) == 0
        )
        scratch = lines_of(capsys.readouterr().out, "report")[0]
        assert scratch["init"] == "scratch"
        pretrained = _finetune_report(root, cfg)
        assert pretrained["init"] == "pretrained"
        assert set(scratch["metrics"]) == set(pretrained["metrics"])

    def test_freeze_head_keeps_encoder_params(self, workspace, capsys):
        root, cfg = workspace
        out = root / "frozen.msck"
        assert (
            main(
                [
                    "finetune",
                    "--config",
                    str(cfg),
                    "--data",
                    str(root / "data"),
                    "--checkpoint",
                    str(root / "pre.msck"),
                    "--freeze",
                    "head",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        pre = load_checkpoint(root / "pre.msck", force=True)
        post = load_checkpoint(out, force=True)
        encoder_names = [k for k in pre.params if k.startswith(("embed.", "pos.", "id.", "block"))]
        assert encoder_names
        for k in encoder_names:
            assert np.array_equal(pre.params[k], post.params[k]), k
        assert any(
            k.startswith("head.") and not np.allclose(post.params[k], 0) for k in post.params
        )

    def test_scratch_with_checkpoint_rejected(self, workspace, capsys):
        root, cfg = workspace
        code = main(
            [
                "finetune",
                "--config",
                str(cfg),
                "--data",
                str(root / "data"),
                "--checkpoint",
                str(root / "pre.msck"),
                "--scratch",
            ]
        )
        assert code == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_missing_checkpoint_rejected(self, workspace, capsys):
        root, cfg = workspace
        assert main(["finetune", "--config", str(cfg), "--data", str(root / "data")]) == 1

    def test_checkpoint_header_without_checksum_exits_one(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        bad = with_header_edit(root / "ft.msck", tmp_path / "bad.msck", lambda h: h.pop("payload_sha256"))
        args = ["eval", "--config", str(cfg), "--data", str(root / "data"), "--checkpoint", str(bad)]
        assert main(args) == 1
        assert "payload_sha256" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda h: h["tensors"][1].pop("offset"), "offset and length must be integers"),
            (lambda h: h.update(tensors=5), "header tensors has type int"),
            (lambda h: h["tensors"][1].update(offset="0"), "offset and length must be integers"),
            (lambda h: h["tensors"][-1].update(length=h["tensors"][-1]["length"] + 8), "spans end at byte"),
        ],
        ids=["no_offset", "tensors_not_list", "str_offset", "past_payload"],
    )
    def test_malformed_tensor_spans_exit_one(self, workspace, tmp_path, capsys, edit, named):
        root, cfg = workspace
        bad = with_header_edit(root / "ft.msck", tmp_path / "bad.msck", edit)
        args = ["eval", "--config", str(cfg), "--data", str(root / "data"), "--checkpoint", str(bad)]
        assert main(args) == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["finetune", "eval"])
    def test_estimation_on_a_narrow_csi_grid_exits_one_before_any_step(
        self, workspace, tmp_path, capsys, monkeypatch, command
    ):
        root, _ = workspace

        def no_step(*args, **kwargs):
            raise AssertionError("a step ran")

        monkeypatch.setattr(cli, "run_finetune", no_step)
        monkeypatch.setattr(cli, "evaluate", no_step)
        cfg = write_cfg(tmp_path, model={"csi_width": 8})  # an 8 x 4 CSI token grid
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
        capsys.readouterr()
        args = [command, "--config", str(cfg), "--data", str(tmp_path / "data"), "--task", "channel_estimation"]
        args += ["--scratch"] if command == "finetune" else ["--checkpoint", str(root / "ft.msck")]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert not lines_of(out, "finetune_step")
        assert "pilot spacing" in err

    def test_unknown_task_lists_valid_kinds(self, workspace, capsys):
        root, cfg = workspace
        code = main(
            [
                "eval",
                "--config",
                str(cfg),
                "--data",
                str(root / "data"),
                "--checkpoint",
                str(root / "ft.msck"),
                "--task",
                "beam_steering",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "beam_selection" in err and "aoa_estimation" in err

    def test_unknown_task_override_is_the_config_error(self, workspace, capsys):
        root, cfg = workspace
        code = main(["finetune", "--config", str(cfg), "--data", str(root / "data"), "--scratch", "--task", "nope"])
        assert code == 1
        assert "unknown task 'nope'; valid: channel_prediction," in capsys.readouterr().err

    def test_drop_modality_reports_delta(self, workspace, capsys):
        root, cfg = workspace
        capsys.readouterr()
        code = main(
            [
                "eval",
                "--config",
                str(cfg),
                "--data",
                str(root / "data"),
                "--checkpoint",
                str(root / "ft.msck"),
                "--drop-modality",
                "map",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        report = lines_of(out, "report")[0]
        assert report["modalities"] == ["csi", "radar"]
        delta = lines_of(out, "drop_delta")[0]
        assert delta["dropped"] == ["map"]
        assert set(delta["delta"]) == set(report["metrics"])

    def test_dropping_everything_rejected(self, workspace, capsys):
        root, cfg = workspace
        code = main(
            [
                "eval",
                "--config",
                str(cfg),
                "--data",
                str(root / "data"),
                "--checkpoint",
                str(root / "ft.msck"),
                "--drop-modality",
                "csi,radar,map",
            ]
        )
        assert code == 1

    def test_drop_of_absent_modality_changes_nothing(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, data={"availability": {"csi": 1.0, "radar": 0.0, "map": 1.0}}
        )
        data = tmp_path / "data"
        assert main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
        pre = tmp_path / "pre.msck"
        assert main(["pretrain", "--config", str(cfg), "--data", str(data), "--out", str(pre)]) == 0
        ft = tmp_path / "ft.msck"
        assert (
            main(
                ["finetune", "--config", str(cfg), "--data", str(data), "--checkpoint", str(pre), "--out", str(ft)]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--data", str(data), "--checkpoint", str(ft)]) == 0
        plain = lines_of(capsys.readouterr().out, "report")[0]
        assert (
            main(
                ["eval", "--config", str(cfg), "--data", str(data), "--checkpoint", str(ft), "--drop-modality", "radar"]
            )
            == 0
        )
        dropped = lines_of(capsys.readouterr().out, "report")[0]
        assert dropped["metrics"] == plain["metrics"]


class TestStats:
    def test_stats_outputs(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        capsys.readouterr()
        csv_path = tmp_path / "routing.csv"
        code = main(
            [
                "stats",
                "--config",
                str(cfg),
                "--data",
                str(root / "data"),
                "--checkpoint",
                str(root / "pre.msck"),
                "--out",
                str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        params = lines_of(out, "params")[0]
        assert 0 < params["activated"] <= params["total"]
        flops = lines_of(out, "flops")[0]["per_task"]
        assert set(flops) == {
            "channel_prediction",
            "channel_estimation",
            "beam_selection",
            "localization",
            "aoa_estimation",
        }
        rows = lines_of(out, "routing")
        assert len(rows) == 1 * 4 * 4  # layers x pools x experts
        for pool in ("shared", "csi", "map", "radar"):
            imp = sum(r["importance"] for r in rows if r["pool"] == pool)
            assert imp == pytest.approx(1.0, abs=1e-9)
        assert csv_path.read_text().startswith("layer,pool,expert,importance,load\n")

    def test_stats_reads_a_finetune_checkpoint(self, workspace, capsys):
        # the encoder and decoders restore in full; the task head is not read
        root, cfg = workspace
        capsys.readouterr()
        args = ["stats", "--config", str(cfg), "--data", str(root / "data"), "--checkpoint"]
        assert main(args + [str(root / "ft.msck")]) == 0
        from_ft = lines_of(capsys.readouterr().out, "params")
        assert main(args + [str(root / "pre.msck")]) == 0
        assert from_ft == lines_of(capsys.readouterr().out, "params")


class TestCliSurface:
    def test_bad_flag_is_validation_error(self, capsys):
        assert main(["synth", "--nope"]) == 1

    def test_invalid_manifest_is_validation_error(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        (tmp_path / "manifest.json").write_text('{"format": "something-else"}')
        code = main(
            ["pretrain", "--config", str(cfg), "--data", str(tmp_path), "--out", str(tmp_path / "x.msck")]
        )
        assert code == 1
        assert "manifest" in capsys.readouterr().err

    def test_manifest_missing_key_is_validation_error(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        manifest = json.loads((data / "manifest.json").read_text())
        del manifest["samples"][0]["labels"]
        (data / "manifest.json").write_text(json.dumps(manifest))
        code = main(["stats", "--config", str(cfg), "--data", str(data), "--checkpoint", str(root / "pre.msck")])
        assert code == 1
        assert "sample 0 has no 'labels'" in capsys.readouterr().err

    def test_manifest_wrong_type_is_validation_error(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["samples"][0]["files"] = list(manifest["samples"][0]["files"])
        (data / "manifest.json").write_text(json.dumps(manifest))
        code = main(["stats", "--config", str(cfg), "--data", str(data), "--checkpoint", str(root / "pre.msck")])
        assert code == 1
        assert "sample 0 'files' must be dict, got list" in capsys.readouterr().err

    def test_corrupt_sample_file_is_validation_error(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        bad = data / "sample_00001_radar.mstn"
        bad.write_bytes(b"NOPE" + bad.read_bytes()[4:])
        code = main(["stats", "--config", str(cfg), "--data", str(data), "--checkpoint", str(root / "pre.msck")])
        assert code == 1
        err = capsys.readouterr().err
        assert "sample_00001_radar.mstn" in err and "bad magic" in err

    @pytest.mark.parametrize("kind, edit", FILE_FAULTS.values(), ids=FILE_FAULTS.keys())
    def test_sample_file_contradicting_the_manifest_is_validation_error(self, workspace, tmp_path, capsys, kind, edit):
        root, cfg = workspace
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        bad = data / f"sample_00001_{kind}.mstn"
        write_mstn(bad, np.ascontiguousarray(edit(read_mstn(bad))))
        out = tmp_path / "x.msck"
        code = main(["pretrain", "--config", str(cfg), "--data", str(data), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{bad.name} holds" in err and "the manifest's config gives" in err
        assert not out.exists()

    def test_manifest_that_is_not_json_is_validation_error(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        (data / "manifest.json").write_text('{"format": "misac-dataset", "samples": [')
        code = main(["stats", "--config", str(cfg), "--data", str(data), "--checkpoint", str(root / "pre.msck")])
        assert code == 1
        err = capsys.readouterr().err
        assert "manifest.json" in err and "not valid JSON" in err

    def test_missing_subcommand_is_validation_error(self, capsys):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0


def _finetune_report(root: Path, cfg: Path) -> dict:
    """Re-run the workspace finetune into a throwaway path to capture its
    report (the module fixture consumed its own stdout)."""
    import io
    import sys

    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(
            [
                "finetune",
                "--config",
                str(cfg),
                "--data",
                str(root / "data"),
                "--checkpoint",
                str(root / "pre.msck"),
            ]
        )
    finally:
        sys.stdout = old
    assert code == 0
    return lines_of(buf.getvalue(), "report")[0]
