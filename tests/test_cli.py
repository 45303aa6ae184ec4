"""CLI tests: every subcommand end to end on a miniature config, exit-code
contract, JSON-line output shape, resume continuation, freeze verification,
and eval/finetune report consistency."""

import dataclasses
import json
import re
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from misac import MisacError, cli
from misac.checkpoint import load_checkpoint, save_checkpoint, snapshot
from misac.cli import main
from misac.config import fingerprint, load_config
from misac.pretrain import Adam, PretrainSettings, PretrainModel, run_pretrain
from misac.synth import load_dataset, synth_dataset
from misac.tensor import read_mstn, write_mstn

MINI = {
    "model": {"d": 16, "n_heads": 2, "n_layers": 1, "n_experts": 4, "top_k": 2},
    "data": {"n_samples": 4, "seed": 11},
    "pretrain": {"steps": 4, "batch_size": 2, "save_every": 2},
    "finetune": {"task": "beam_selection", "steps": 3, "batch_size": 2},
}


def replaced(a, where, value):
    a = a.copy()
    a[where] = value
    return a


# as in test_synth: a sample file's modality, a rewrite of it (given the map
# resolution) that contradicts the manifest's config or the map file's cell
# layout or holds a non-finite value, and what the error says after the
# file's name
FILE_FAULTS = {
    "map_complex": ("map", lambda a, res: a.astype(np.complex128), " holds .*the manifest's config gives"),
    "radar_three_maps": ("radar", lambda a, res: np.concatenate([a, a[:1]]), " holds .*the manifest's config gives"),
    "csi_float": ("csi", lambda a, res: a.real, " holds .*the manifest's config gives"),
    "map_four_columns": ("map", lambda a, res: a[:, :4], r" holds float64 \(\d+, 4\); .* gives float64 \(k, 5\)"),
    "map_index_past_the_grid": (
        "map", lambda a, res: replaced(a, (-1, 0), res * res), r": map cell row \d+ .* is outside"
    ),
    "map_index_repeated": ("map", lambda a, res: replaced(a, (1, 0), a[0, 0]), ": map cell row 1 .* is not above"),
    "map_index_decreasing": ("map", lambda a, res: a[[1, 0, *range(2, len(a))]], ": map cell row 1 .* is not above"),
    "map_index_not_integral": (
        "map", lambda a, res: replaced(a, (0, 0), a[0, 0] + 0.5), ": map cell row 0 .* is not an integer"
    ),
    "map_all_zero_cell": (
        "map", lambda a, res: replaced(a, (2, slice(1, None)), 0.0), r": map cell row 2 .* all \+0\.0"
    ),
    "csi_nan": ("csi", lambda a, res: replaced(a, (0, 1), complex(np.nan, 0.0)), " holds a non-finite value"),
    "radar_inf": ("radar", lambda a, res: replaced(a, (1, 2, 3), np.inf), " holds a non-finite value"),
    "map_nan_channel": ("map", lambda a, res: replaced(a, (3, 4), np.nan), " holds a non-finite value"),
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

    def test_speed_past_the_unambiguous_speed_is_validation_error(self, tmp_path, capsys):
        # a 100 m/s target would alias in Doppler (the limit is 78.07 m/s at
        # the default radar); the speed bound is refused before any file
        cfg = write_cfg(tmp_path, data={"speed": [-100.0, 100.0]})
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert "data.speed=[-100.0, 100.0]" in err and "unambiguous speed 78.07 m/s" in err
        assert not (tmp_path / "d").exists()

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
        pre = load_checkpoint(root / "pre.msck")
        post = load_checkpoint(out)
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

    @pytest.mark.parametrize("kind, edit, says", FILE_FAULTS.values(), ids=FILE_FAULTS.keys())
    def test_sample_file_contradicting_the_manifest_is_validation_error(
        self, workspace, tmp_path, capsys, kind, edit, says
    ):
        root, cfg = workspace
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        bad = data / f"sample_00001_{kind}.mstn"
        res = json.loads((data / "manifest.json").read_text())["config"]["map_resolution"]
        write_mstn(bad, np.ascontiguousarray(edit(read_mstn(bad), res)))
        out = tmp_path / "x.msck"
        code = main(["pretrain", "--config", str(cfg), "--data", str(data), "--out", str(out)])
        assert code == 1
        assert re.search(f"{bad.name}{says}", capsys.readouterr().err)
        assert not out.exists()

    def test_manifest_of_another_version_is_validation_error(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["version"] = 1
        (data / "manifest.json").write_text(json.dumps(manifest))
        code = main(["stats", "--config", str(cfg), "--data", str(data), "--checkpoint", str(root / "pre.msck")])
        assert code == 1
        err = capsys.readouterr().err
        assert "is version 1," in err and "re-run `misac synth` with the manifest's seed (11) and n (4)" in err

    @pytest.mark.parametrize(
        "edit, says",
        [
            (
                lambda e: e["files"].pop("radar"),
                "sample 1 available 'radar' is true, but its files do not list 'radar'",
            ),
            (lambda e: e["files"].update(lidar="x.mstn"), "sample 1 files name 'lidar', which is not one of"),
        ],
        ids=["file_missing", "unknown_modality"],
    )
    def test_availability_contradicting_the_files_is_validation_error(self, workspace, tmp_path, capsys, edit, says):
        root, cfg = workspace
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        manifest = json.loads((data / "manifest.json").read_text())
        edit(manifest["samples"][1])
        (data / "manifest.json").write_text(json.dumps(manifest))
        code = main(["stats", "--config", str(cfg), "--data", str(data), "--checkpoint", str(root / "pre.msck")])
        assert code == 1
        assert says in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, says",
        [
            ("beam_index", -1, "must be >= 0, got -1"),
            ("beam_index", 99, "must be < 16, got 99"),
            ("distance_m", float("nan"), "must be finite, got nan"),
            ("aoa_rad", float("inf"), "must be finite, got inf"),
        ],
        ids=["beam_negative", "beam_past_the_codebook", "distance_nan", "aoa_inf"],
    )
    def test_label_no_task_can_use_is_validation_error(self, workspace, tmp_path, capsys, key, value, says):
        root, cfg = workspace
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["samples"][0]["labels"][key] = value
        (data / "manifest.json").write_text(json.dumps(manifest))
        task = {"beam_index": "beam_selection", "distance_m": "localization", "aoa_rad": "aoa_estimation"}[key]
        code = main(["finetune", "--config", str(cfg), "--data", str(data), "--scratch", "--task", task])
        assert code == 1
        out, err = capsys.readouterr()
        assert not lines_of(out, "finetune_step")
        assert f"sample 0 labels {key!r} {says}" in err

    @pytest.mark.parametrize("command", ["finetune", "eval"])
    def test_sample_without_csi_fails_a_recon_task_before_any_step(self, workspace, tmp_path, capsys, command):
        root, cfg = workspace
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        manifest = json.loads((data / "manifest.json").read_text())
        entry = manifest["samples"][2]
        (data / entry["files"].pop("csi")).unlink()
        entry["available"]["csi"] = False
        (data / "manifest.json").write_text(json.dumps(manifest))
        args = [command, "--config", str(cfg), "--data", str(data), "--task", "channel_prediction"]
        args += ["--scratch"] if command == "finetune" else ["--checkpoint", str(root / "pre.msck")]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "samples [2] have no csi left after drop [], which channel_prediction needs" in err

    @pytest.mark.parametrize("command", ["finetune", "eval"])
    def test_dataset_of_another_beam_count_is_validation_error(self, workspace, tmp_path, capsys, command):
        # a label inside the dataset's 32 beams but past the run config's 16
        root, cfg = workspace
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["config"]["n_beams"] = 32
        manifest["samples"][0]["labels"]["beam_index"] = 20
        (data / "manifest.json").write_text(json.dumps(manifest))
        load_dataset(data)  # the dataset itself is sound
        args = [command, "--config", str(cfg), "--data", str(data), "--task", "beam_selection"]
        args += ["--scratch"] if command == "finetune" else ["--checkpoint", str(root / "ft.msck")]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"dataset {data} labels beams of n_beams=32, the run config has n_beams=16" in err

    # a synthesis config field the run config's model cannot read, the
    # dataset's value, and what the refusal says after "dataset <path> "
    GRID_MISMATCHES = {
        "n_t*n_r": (lambda c: dataclasses.replace(c, n_t=8), "holds CSI of n_t*n_r=8, the run config has n_t*n_r=16"),
        "n_sc": (lambda c: dataclasses.replace(c, n_sc=64), "holds CSI of n_sc=64, the run config has n_sc=32"),
        "radar.out_size": (
            lambda c: dataclasses.replace(c, radar=dataclasses.replace(c.radar, out_size=32)),
            "holds radar maps of radar.out_size=32, the run config has radar.out_size=64",
        ),
        "map_resolution": (
            lambda c: dataclasses.replace(c, map_resolution=96),
            "holds maps of map_resolution=96, which the run config's map_size=64 does not divide",
        ),
    }

    @pytest.mark.parametrize("command", ["pretrain", "finetune", "eval", "stats"])
    @pytest.mark.parametrize("field", list(GRID_MISMATCHES))
    def test_dataset_of_another_grid_is_validation_error(self, workspace, tmp_path, capsys, field, command):
        root, cfg = workspace
        edit, says = self.GRID_MISMATCHES[field]
        data = tmp_path / "data"
        run = load_config(str(cfg))
        synth_dataset(edit(run.data.synth_config(run.model)), 4, 11, data)
        load_dataset(data)  # the dataset itself is sound
        out_path = tmp_path / "out.msck"
        args = {
            "pretrain": ["--out", str(out_path)],
            "finetune": ["--scratch", "--out", str(out_path)],
            "eval": ["--checkpoint", str(root / "ft.msck")],
            "stats": ["--checkpoint", str(root / "pre.msck")],
        }[command]
        assert main([command, "--config", str(cfg), "--data", str(data), *args]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: dataset {data} {says}\n"
        assert not out_path.exists()

    # a checkpoint tensor, the fault written in its place (None drops it),
    # and what the refusal says
    TENSOR_FAULTS = {
        "param_float32": (
            "block0.attn.k.w", lambda a: a.astype(np.float32),
            "parameter block0.attn.k.w is float32 in the checkpoint; the model needs float64",
        ),
        "param_complex128": (
            "block0.attn.k.w", lambda a: a.astype(np.complex128),
            "parameter block0.attn.k.w is complex128 in the checkpoint; the model needs float64",
        ),
        "moment_float32": (
            "m.block0.attn.k.w", lambda a: a.astype(np.float32),
            "Adam moment m.block0.attn.k.w is float32 in the checkpoint; the model needs float64",
        ),
        "moment_missing": ("m.block0.attn.k.w", None, "checkpoint lacks Adam moment m.block0.attn.k.w"),
        "moment_shape": (
            "v.block0.attn.k.w", lambda a: a[:1],
            "shape mismatch for Adam moment v.block0.attn.k.w: checkpoint (1, 16) vs model (16, 16)",
        ),
    }

    @pytest.mark.parametrize(
        "fault, command",
        # only a resume reads the moments
        [(f, "pretrain") for f in TENSOR_FAULTS]
        + [(f, c) for f in TENSOR_FAULTS if f.startswith("param") for c in ("finetune", "eval", "stats")],
    )
    def test_bad_checkpoint_tensor_exits_one(self, workspace, tmp_path, capsys, fault, command):
        root, cfg = workspace
        name, edit, says = self.TENSOR_FAULTS[fault]
        ckpt = load_checkpoint(root / ("ft.msck" if command == "eval" else "pre.msck"))
        ckpt.step = 2  # a resume would run steps 2 and 3 and rewrite the file
        held = ckpt.opt_moments if fault.startswith("moment") else ckpt.params
        if edit is None:
            del held[name]
        else:
            held[name] = edit(held[name])
        bad, out_path = tmp_path / "bad.msck", tmp_path / "out.msck"
        save_checkpoint(bad, ckpt)
        written = bad.read_bytes()
        args = {
            "pretrain": ["--out", str(bad)],
            "finetune": ["--checkpoint", str(bad), "--out", str(out_path)],
            "eval": ["--checkpoint", str(bad)],
            "stats": ["--checkpoint", str(bad), "--out", str(out_path)],
        }[command]
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--data", str(root / "data"), *args]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {says}\n"
        assert bad.read_bytes() == written
        assert not out_path.exists()

    def test_any_misac_error_exits_one(self, monkeypatch, capsys):
        class LateModuleError(MisacError):  # a module error no list in the CLI names
            pass

        def fail(args):
            raise LateModuleError("named fault")

        monkeypatch.setitem(cli.COMMANDS, "synth", fail)
        assert main(["synth", "--out", "unused"]) == 1
        assert capsys.readouterr().err == "error: named fault\n"

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
