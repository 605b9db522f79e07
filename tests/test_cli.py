"""End-to-end tests of the command-line interface.

Each subcommand is driven through ``main(argv)`` in-process; exit codes
and the one-line machine-parsable stderr format are asserted alongside
the artifacts each command writes.
"""
import dataclasses
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest

from sgs.cli import _TRAIN_KEYS, build_parser, build_train_config, main, read_config_file
from sgs.cycletrain import Checkpoint, ConfigError, NumericalError, TrainConfig, save_generator
from sgs.datagen import generate_corpus
from sgs.layout import MANIFEST_KEYS, read_manifest, read_pnm, write_manifest, write_pnm
from sgs.losses import LossWeights
from sgs.network import Generator
from sgs.numerics import load_checkpoint, save_checkpoint

TRAIN_FLAGS = ["--epochs", "2", "--depth", "4", "--base-channels", "4",
               "--si-hidden", "4", "--val-count", "2", "--image-size", "32",
               "--seed", "3"]


def absolute_rows(rows, root):
    """Manifest rows with every file path made absolute under ``root``, so
    the manifest can be written anywhere."""
    return [{k: v if k == "id" else str(root / v) for k, v in row.items()}
            for row in rows]


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("clicorpus")
    rc = main(["datagen", "--out", str(root), "--n", "8", "--size", "32",
               "--seed", "5"])
    assert rc == 0
    return {"root": root, "manifest": str(root / "manifest.jsonl")}


@pytest.fixture(scope="module")
def trained_run(cli_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("clirun")
    rc = main(["train", "--data", cli_corpus["manifest"], "--out", str(out),
               "--direction", "k"] + TRAIN_FLAGS)
    assert rc == 0
    return {"out": out, "model": str(out / "stage0_k")}


@pytest.fixture(scope="module")
def wide_corpus(cli_corpus, tmp_path_factory):
    """Three samples of ``cli_corpus``, every image laid twice side by side:
    32 px high and 64 px wide."""
    root = tmp_path_factory.mktemp("widecorpus")
    rows = read_manifest(cli_corpus["manifest"])[:3]
    for row in rows:
        for key in MANIFEST_KEYS[1:]:
            arr, maxval = read_pnm(str(cli_corpus["root"] / row[key]))
            write_pnm(str(root / row[key]), np.concatenate([arr, arr], axis=1), maxval)
    write_manifest(str(root / "manifest.jsonl"), rows)
    return str(root / "manifest.jsonl")


class TestParser:
    def test_help_lists_every_flag(self):
        help_text = build_parser().format_help()
        assert "datagen" in help_text and "train-iterative" in help_text
        for sub in ("train", "synthesize", "eval", "graph-dump"):
            assert sub in help_text

    def test_train_help_lists_config_surface(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--epochs", "--lr", "--image-size", "--weight-content",
                     "--weight-cycle", "--ict-taps", "--config", "--variance-mode"):
            assert flag in out

    @pytest.mark.parametrize("command", ["train", "train-iterative"])
    def test_config_surface_matches_train_config(self, capsys, command):
        """Every TrainConfig field but ``weights``, and every LossWeights
        field as ``weight_<name>``, is one config key and one flag; no key
        or flag names anything else."""
        fields = {f.name for f in dataclasses.fields(TrainConfig)} - {"weights"}
        fields |= {f"weight_{f.name}" for f in dataclasses.fields(LossWeights)}
        assert set(_TRAIN_KEYS) == fields
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        flags = re.findall(r"^  (--[a-z0-9-]+)", capsys.readouterr().out, re.MULTILINE)
        assert len(flags) == len(set(flags))
        expected = {"--" + k.replace("_", "-") for k in fields}
        assert set(flags) - {"--data", "--out", "--direction", "--config"} == expected

    def test_stats_flag_is_gone(self, tmp_path, capsys):
        """Deleted options' flags exit 2: ``--stats`` (instance statistics
        are the one mode), ``--gan-mode`` (BCE is the one form) and
        ``--batch-size`` (one sample per optimizer step)."""
        for flag, value in (("--stats", "batch"), ("--gan-mode", "lsgan"),
                            ("--batch-size", "2")):
            with pytest.raises(SystemExit) as exc:
                main(["train", "--data", str(tmp_path / "absent.jsonl"),
                      "--out", str(tmp_path / "r"), flag, value])
            assert exc.value.code == 2

    def test_unknown_flag_fails(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["datagen", "--out", "x", "--n", "1", "--frobnicate"])
        assert exc.value.code == 2

    def test_unknown_subcommand_fails(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    def test_missing_required_flag_fails(self):
        with pytest.raises(SystemExit) as exc:
            main(["datagen", "--n", "1"])
        assert exc.value.code == 2


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# training setup\n"
            "epochs = 6\n"
            "lr = 0.001  # inline comment\n"
            "use_saliency = false\n"
            "variance_mode = masked\n"
            "weight_content = 50\n"
            "ict_taps = enc_bottleneck,dec_block1,dec_block2,dec_block3,dec_block4\n"
            "\n"
        )
        values = read_config_file(str(cfg))
        assert values["epochs"] == 6
        assert values["lr"] == 0.001
        assert values["use_saliency"] is False
        assert values["variance_mode"] == "masked"
        assert values["weight_content"] == 50.0
        assert values["ict_taps"][0] == "enc_bottleneck"

    def test_unknown_key_named(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("momentum = 0.9\n")
        with pytest.raises(ConfigError, match="'momentum'"):
            read_config_file(str(cfg))

    def test_stats_key_is_gone(self, tmp_path, capsys):
        """Deleted options' config-file keys exit 2 with one line naming
        the key: ``stats``, ``gan_mode`` and ``batch_size``."""
        cfg = tmp_path / "run.cfg"
        for key, value in (("stats", "batch"), ("gan_mode", "lsgan"), ("batch_size", 2)):
            cfg.write_text(f"{key} = {value}\n")
            rc = main(["train", "--data", str(tmp_path / "absent.jsonl"),
                       "--out", str(tmp_path / "r"), "--config", str(cfg)])
            assert rc == 2
            assert capsys.readouterr().err == f"error: config: unknown config key '{key}'\n"

    @pytest.mark.parametrize("line", ["epochs = 2.7", "seed = 3.9", "stages = true"])
    def test_int_key_rejects_fraction_and_bool(self, tmp_path, capsys, line):
        """An int key is not truncated from a fraction or a boolean."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        rc = main(["train-iterative", "--data", str(tmp_path / "absent.jsonl"),
                   "--out", str(tmp_path / "r"), "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: {line.split()[0]}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("line", ["lr = true", "weight_cycle = false"])
    def test_float_key_rejects_bool(self, tmp_path, capsys, line):
        """A float key does not load a boolean as 1.0 or 0.0."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        rc = main(["train-iterative", "--data", str(tmp_path / "absent.jsonl"),
                   "--out", str(tmp_path / "r"), "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: {line.split()[0]}: ")
        assert err.count("\n") == 1

    def test_bad_value_names_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = soon\n")
        with pytest.raises(ConfigError, match="epochs"):
            read_config_file(str(cfg))

    def test_missing_equals_names_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 4\njust a sentence\n")
        with pytest.raises(ConfigError, match=":2"):
            read_config_file(str(cfg))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            read_config_file(str(tmp_path / "absent.cfg"))

    def test_non_utf8_file_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"epochs = 2\n# caf\xe9\n")
        rc = main(["train", "--data", str(tmp_path / "absent.jsonl"),
                   "--out", str(tmp_path / "r"), "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: cannot read config file {cfg}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key,text,code", [
        ("epochs", "2.0", 2),
        ("use_saliency", "yes", 3),
        ("epochs", "9" * 5000, 2),
    ], ids=["int-from-fraction-text", "bool-word", "huge-int"])
    def test_file_and_flag_parse_alike(self, tmp_path, capsys, key, text, code):
        """A config line and a flag holding the same text give the same
        exit code and the same one short error line.  The corpus is
        absent, so a value that parses exits 3 before any training."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n")
        train = ["train", "--data", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "r")]
        errs = []
        for extra in (["--config", str(cfg)], ["--" + key.replace("_", "-"), text]):
            assert main(train + extra) == code
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].startswith(f"error: config: {key}: " if code == 2 else "error: data: ")
        assert errs[0].count("\n") == 1 and len(errs[0].replace(str(tmp_path), "")) < 200

    @pytest.mark.parametrize("depth", [20000, 10000])
    def test_huge_depth_is_named(self, tmp_path, capsys, depth):
        """A depth far past the image size exits 2 with one short line
        naming it, from a config file and from a flag."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"depth = {depth}\n")
        train = ["train", "--data", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "r")]
        for extra in (["--config", str(cfg)], ["--depth", str(depth)]):
            assert main(train + extra) == 2
            err = capsys.readouterr().err
            assert err == (f"error: config: image_size 64 must divide by 2**depth, "
                           f"got depth {depth}\n")

    @pytest.mark.parametrize("key", ["base_channels", "si_hidden"])
    def test_huge_width_is_named(self, tmp_path, capsys, key):
        """A width of 10**9 exits 2 with one line naming the key, from a
        config file and from a flag, before any weight is drawn."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {10**9}\n")
        train = ["train", "--data", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "r")]
        for extra in (["--config", str(cfg)], ["--" + key.replace("_", "-"), str(10**9)]):
            assert main(train + extra) == 2
            err = capsys.readouterr().err
            assert err == f"error: config: {key} must be in [1, 1024], got {10**9}\n"

    def test_cli_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 4\nlr = 0.5\n")
        args = build_parser().parse_args(
            ["train", "--data", "d", "--out", "o", "--config", str(cfg),
             "--epochs", "8"])
        built = build_train_config(args)
        assert built.epochs == 8       # flag wins
        assert built.lr == 0.5         # file survives where no flag given

    def test_weight_flags_reach_loss_weights(self):
        args = build_parser().parse_args(
            ["train", "--data", "d", "--out", "o",
             "--weight-content", "42", "--weight-cycle", "2.5"])
        built = build_train_config(args)
        assert built.weights.content == 42.0
        assert built.weights.cycle == 2.5


class TestDatagenCommand:
    def test_writes_corpus(self, cli_corpus, capsys):
        rows = read_manifest(cli_corpus["manifest"])
        assert len(rows) == 8
        for row in rows:
            for key, name in row.items():
                if key != "id":
                    assert (cli_corpus["root"] / name).exists()

    def test_bad_size_is_data_error(self, tmp_path, capsys):
        rc = main(["datagen", "--out", str(tmp_path / "x"), "--n", "2",
                   "--size", "48"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: ")
        assert err.count("\n") == 1

    def test_bad_count_is_data_error(self, tmp_path, capsys):
        assert main(["datagen", "--out", str(tmp_path / "x"), "--n", "0"]) == 3

    @pytest.mark.parametrize("frac", ["inf", "nan", "2", "-0.5"])
    def test_bad_glasses_frac_is_data_error(self, tmp_path, capsys, frac):
        rc = main(["datagen", "--out", str(tmp_path / "x"), "--n", "2",
                   "--size", "32", "--glasses-frac", frac])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and "glasses" in err
        assert err.count("\n") == 1

    def test_negative_seed_is_data_error(self, tmp_path, capsys):
        rc = main(["datagen", "--out", str(tmp_path / "x"), "--n", "2",
                   "--size", "32", "--seed", "-1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and "seed" in err and "-1" in err
        assert err.count("\n") == 1

    def test_unwritable_out_is_data_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        rc = main(["datagen", "--out", str(blocker / "sub"), "--n", "1",
                   "--size", "32"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: data: ")


class TestTrainCommand:
    def test_artifacts(self, trained_run):
        model = trained_run["model"]
        for name in ("model.bin", "model.json", "losses.csv", "val_metrics.json"):
            assert os.path.exists(os.path.join(model, name))
        lines = open(os.path.join(model, "losses.csv")).read().splitlines()
        assert len(lines) == 1 + 2 * 6  # header + epochs * train samples
        manifest = json.load(open(os.path.join(trained_run["out"], "manifest.json")))
        assert manifest["config"]["epochs"] == 2
        assert manifest["checkpoints"]["k"][0]["direction"] == "k"

    def test_depth_below_default_taps_trains_stage0(self, cli_corpus, tmp_path):
        """Stage 0 has no cycle term, so the cycle taps do not bound depth."""
        flags = TRAIN_FLAGS + ["--depth", "3"]  # the later flag wins
        rc = main(["train", "--data", cli_corpus["manifest"], "--out",
                   str(tmp_path / "r")] + flags)
        assert rc == 0
        assert (tmp_path / "r" / "stage0_k" / "model.bin").exists()

    def test_iterative_rejects_taps_beyond_depth_before_training(
            self, cli_corpus, tmp_path, capsys):
        rc = main(["train-iterative", "--data", cli_corpus["manifest"], "--out",
                   str(tmp_path / "r")] + TRAIN_FLAGS + ["--depth", "3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: config: tap 'dec_block4' exceeds decoder depth 3\n"
        assert not (tmp_path / "r" / "stage0_k").exists()

    def test_flipped_teacher_byte_is_data_error(self, cli_corpus, tmp_path, capsys,
                                                flipped_teacher):
        """A stage-0 checkpoint changed after it was recorded exits 3 when
        stage 1 reads it back as its teacher."""
        rc = main(["train-iterative", "--data", cli_corpus["manifest"], "--out",
                   str(tmp_path / "r"), "--stages", "1"] + TRAIN_FLAGS)
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and err.count("\n") == 1
        assert "stage0_o" in err and "sha256 differs" in err

    def test_stdout_reports_val(self, cli_corpus, tmp_path, capsys):
        rc = main(["train", "--data", cli_corpus["manifest"], "--out",
                   str(tmp_path / "r"), "--direction", "o"] + TRAIN_FLAGS)
        assert rc == 0
        assert "stage0_o" in capsys.readouterr().out

    def test_invalid_epochs_is_config_error(self, cli_corpus, tmp_path, capsys):
        rc = main(["train", "--data", cli_corpus["manifest"], "--out",
                   str(tmp_path / "r"), "--epochs", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and "epochs" in err

    def test_zero_base_channels_is_config_error(self, cli_corpus, tmp_path, capsys):
        rc = main(["train", "--data", cli_corpus["manifest"], "--out",
                   str(tmp_path / "r")] + TRAIN_FLAGS + ["--base-channels", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and "base_channels" in err
        assert err.count("\n") == 1

    def test_val_count_too_large_is_config_error(self, cli_corpus, tmp_path, capsys):
        rc = main(["train", "--data", cli_corpus["manifest"], "--out",
                   str(tmp_path / "r"), "--epochs", "2", "--depth", "4",
                   "--base-channels", "4", "--si-hidden", "4",
                   "--image-size", "32", "--val-count", "8"])
        assert rc == 2
        assert "val_count" in capsys.readouterr().err

    def test_missing_manifest_is_data_error(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "absent.jsonl"),
                   "--out", str(tmp_path / "r")] + TRAIN_FLAGS)
        assert rc == 3

    def test_corpus_size_mismatch_is_config_error(self, cli_corpus, tmp_path,
                                                  capsys):
        rc = main(["train", "--data", cli_corpus["manifest"], "--out",
                   str(tmp_path / "r"), "--epochs", "2", "--depth", "4",
                   "--base-channels", "4", "--si-hidden", "4",
                   "--val-count", "2", "--image-size", "64"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "image_size" in err and "32px" in err

    def test_duplicate_ids_is_data_error(self, cli_corpus, tmp_path, capsys):
        """Two different samples named alike exit 3 before training."""
        rows = read_manifest(cli_corpus["manifest"])
        rows[1]["id"] = rows[0]["id"]
        manifest = tmp_path / "dup.jsonl"
        write_manifest(str(manifest), absolute_rows(rows, cli_corpus["root"]))
        rc = main(["train", "--data", str(manifest), "--out", str(tmp_path / "r")]
                  + TRAIN_FLAGS)
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and err.count("\n") == 1
        assert f":2: sample id '{rows[0]['id']}' repeats line 1" in err
        assert not (tmp_path / "r").exists()

    def test_mixed_size_corpus_is_data_error(self, tmp_path, capsys):
        """A corpus of 64 px and 32 px samples exits 3 naming the first
        32 px one, rather than training on both sizes."""
        rows = []
        for prefix, n, size in (("a", 4, 64), ("b", 2, 32)):
            root = tmp_path / prefix
            for row in absolute_rows(read_manifest(
                    generate_corpus(str(root), n, size, seed=5)), root):
                rows.append(dict(row, id=prefix + row["id"]))
        manifest = tmp_path / "mixed.jsonl"
        write_manifest(str(manifest), rows)
        rc = main(["train", "--data", str(manifest), "--out", str(tmp_path / "r"),
                   "--image-size", "64", "--val-count", "2"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and err.count("\n") == 1
        assert "sample 'b0000' is 32x32px but sample 'a0000' is 64x64px" in err

    def test_numerical_blowup_is_exit_4(self, cli_corpus, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = main(["train", "--data", cli_corpus["manifest"], "--out",
                       str(tmp_path / "r"), "--lr", "1e300"] + TRAIN_FLAGS)
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: numerical: ")
        assert "non-finite" in err


class TestSynthesizeCommand:
    def test_output_dimensions_match_input(self, cli_corpus, trained_run, tmp_path):
        out = tmp_path / "synth"
        rc = main(["synthesize", "--model", trained_run["model"],
                   "--data", cli_corpus["manifest"], "--out", str(out)])
        assert rc == 0
        img, maxval = read_pnm(str(out / "0000_fake.pgm"))
        assert img.shape == (32, 32) and maxval == 255
        sheet, _ = read_pnm(str(out / "contact_sheet.ppm"))
        assert sheet.shape == (32, 8 * 32, 3)  # 8 tiles in one row

    def test_ids_filter(self, cli_corpus, trained_run, tmp_path):
        out = tmp_path / "synth"
        rc = main(["synthesize", "--model", trained_run["model"],
                   "--data", cli_corpus["manifest"], "--out", str(out),
                   "--ids", "0002,0005"])
        assert rc == 0
        fakes = sorted(p for p in os.listdir(out) if p.endswith("_fake.pgm"))
        assert fakes == ["0002_fake.pgm", "0005_fake.pgm"]

    def test_unknown_id_is_data_error(self, cli_corpus, trained_run, tmp_path, capsys):
        rc = main(["synthesize", "--model", trained_run["model"],
                   "--data", cli_corpus["manifest"], "--out",
                   str(tmp_path / "s"), "--ids", "9999"])
        assert rc == 3
        assert "9999" in capsys.readouterr().err

    def test_corpus_size_differs_from_model_is_data_error(self, trained_run, tmp_path,
                                                          capsys):
        manifest = generate_corpus(str(tmp_path / "c64"), 2, 64, seed=5)
        rc = main(["synthesize", "--model", trained_run["model"], "--data", manifest,
                   "--out", str(tmp_path / "synth")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: data: corpus images are 64px but the model was trained at 32px\n")

    @pytest.mark.parametrize("command", ["synthesize", "eval"])
    def test_corpus_not_square_is_data_error(self, trained_run, wide_corpus, tmp_path,
                                             capsys, command):
        """Both sides of the image are compared with the model's size."""
        rc = main([command, "--model", trained_run["model"], "--data", wide_corpus,
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: data: corpus images are 32x64px but the model was trained at 32px\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["synthesize", "eval"])
    @pytest.mark.parametrize("channels", [(3, 3), (1, 1), (2, 1)],
                             ids=["3-to-3", "1-to-1", "2-to-1"])
    def test_checkpoint_of_no_direction_is_data_error(self, cli_corpus, tmp_path,
                                                      capsys, command, channels):
        """A consistent checkpoint whose channel counts are neither 3 -> 1
        (photo to sketch) nor 1 -> 3 is refused before anything is written:
        the input channels could not tell its direction."""
        gen = Generator(*channels, depth=4, base_channels=4, si_hidden=4, image_size=32,
                        seed=3)
        save_generator(gen, str(tmp_path / "model"))
        rc = main([command, "--model", str(tmp_path / "model"),
                   "--data", cli_corpus["manifest"], "--out", str(tmp_path / "o")])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: data: {tmp_path / 'model' / 'model.json'}: in_channels {channels[0]} "
            f"and out_channels {channels[1]} map neither photo (3) to sketch (1) nor back\n")
        assert not (tmp_path / "o").exists()

    def test_missing_checkpoint_is_data_error(self, cli_corpus, tmp_path, capsys):
        rc = main(["synthesize", "--model", str(tmp_path / "nope"),
                   "--data", cli_corpus["manifest"], "--out", str(tmp_path / "s")])
        assert rc == 3
        assert "model.json" in capsys.readouterr().err


class TestEvalCommand:
    def test_metrics_written_and_finite(self, cli_corpus, trained_run, tmp_path):
        out = tmp_path / "eval"
        rc = main(["eval", "--model", trained_run["model"],
                   "--data", cli_corpus["manifest"], "--out", str(out)])
        assert rc == 0
        summary = json.load(open(out / "val_metrics.json"))
        assert set(summary) == {"ssim_mean", "fsim_mean", "frechet_proxy", "n"}
        assert summary["n"] == 8
        for key in ("ssim_mean", "fsim_mean", "frechet_proxy"):
            assert np.isfinite(summary[key])
        rows = open(out / "per_sample.csv").read().splitlines()
        assert rows[0] == "id,ssim,fsim"
        assert len(rows) == 9

    def test_direction_flag_is_unknown(self, tmp_path, capsys):
        """A model's input channel count fixes its direction, so eval takes
        no ``--direction``."""
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--model", str(tmp_path / "m"), "--data", str(tmp_path / "d"),
                  "--out", str(tmp_path / "e"), "--direction", "k"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --direction k" in capsys.readouterr().err

    def test_one_sample_writes_null_proxy(self, cli_corpus, trained_run, tmp_path):
        """Below two pairs there is no Frechet proxy: val_metrics.json says
        null, and stays JSON a strict parser accepts."""
        with open(cli_corpus["manifest"]) as f:
            first = f.readline()
        one = cli_corpus["root"] / "one_manifest.jsonl"
        one.write_text(first)
        out = tmp_path / "eval"
        assert main(["eval", "--model", trained_run["model"],
                     "--data", str(one), "--out", str(out)]) == 0

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        summary = json.loads((out / "val_metrics.json").read_text(), parse_constant=reject)
        assert summary["n"] == 1
        assert summary["frechet_proxy"] is None

    def test_val_split_reproduces_training_metrics(self, cli_corpus, trained_run,
                                                   tmp_path):
        """Scoring the training run's val split gives its val_metrics.json,
        byte for byte."""
        with open(cli_corpus["manifest"]) as f:
            rows = f.read().splitlines()
        val_manifest = cli_corpus["root"] / "val_manifest.jsonl"
        val_manifest.write_text("\n".join(rows[-2:]) + "\n")  # --val-count 2
        out = tmp_path / "eval"
        assert main(["eval", "--model", trained_run["model"],
                     "--data", str(val_manifest), "--out", str(out)]) == 0
        trained = os.path.join(trained_run["model"], "val_metrics.json")
        assert (out / "val_metrics.json").read_bytes() == open(trained, "rb").read()

    @pytest.mark.parametrize("size", [6, 2000])
    def test_truncated_checkpoint_is_data_error(self, cli_corpus, trained_run,
                                                tmp_path, capsys, size):
        model = tmp_path / "model"
        shutil.copytree(trained_run["model"], model)
        blob = (model / "model.bin").read_bytes()
        (model / "model.bin").write_bytes(blob[:size])
        rc = main(["eval", "--model", str(model), "--data", cli_corpus["manifest"],
                   "--out", str(tmp_path / "e")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text,key,value", [
        ('{"depth": 5,', None, None),
        ("[1, 2]", None, None),
        (None, "depth", "x"),
        (None, "image_size", 32.0),
        (None, "use_saliency", "no"),
        (None, "seed", "x"),
        (None, "seed", []),
        (None, "si_hidden", None),
    ], ids=["invalid-json", "not-an-object", "depth-str", "size-float",
            "saliency-str", "seed-str", "seed-empty-list", "missing-key"])
    def test_malformed_model_json_is_data_error(self, cli_corpus, trained_run,
                                                tmp_path, capsys, text, key, value):
        model = tmp_path / "model"
        shutil.copytree(trained_run["model"], model)
        if text is None:
            cfg = json.loads((model / "model.json").read_text())
            if value is None:  # the key a checkpoint from an older version lacks
                del cfg[key]
            else:
                cfg[key] = value
            text = json.dumps(cfg)
        (model / "model.json").write_text(text)
        rc = main(["eval", "--model", str(model), "--data", cli_corpus["manifest"],
                   "--out", str(tmp_path / "e")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and err.count("\n") == 1

    @pytest.mark.parametrize("key", ["base_channels", "si_hidden", "in_channels"])
    def test_absurd_width_is_data_error(self, cli_corpus, trained_run, tmp_path,
                                        capsys, key):
        """A width model.bin does not hold is refused before the generator
        is built, not allocated."""
        model = tmp_path / "model"
        shutil.copytree(trained_run["model"], model)
        cfg = json.loads((model / "model.json").read_text())
        cfg[key] = 10**9
        (model / "model.json").write_text(json.dumps(cfg))
        rc = main(["eval", "--model", str(model), "--data", cli_corpus["manifest"],
                   "--out", str(tmp_path / "e")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and err.count("\n") == 1
        assert f"model.json: widths differ from model.bin: {key} 1000000000" in err

    def test_non_finite_weight_is_data_error(self, cli_corpus, trained_run,
                                             tmp_path, capsys):
        model = tmp_path / "model"
        shutil.copytree(trained_run["model"], model)
        blob = load_checkpoint(str(model / "model.bin"))
        blob["out.w"].flat[0] = np.nan
        save_checkpoint(str(model / "model.bin"), list(blob.items()))
        rc = main(["eval", "--model", str(model), "--data", cli_corpus["manifest"],
                   "--out", str(tmp_path / "e")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and "non-finite" in err
        assert err.count("\n") == 1

    def test_adam_moment_entry_is_data_error(self, cli_corpus, trained_run,
                                             tmp_path, capsys):
        """A checkpoint holds weights only; an Adam moment entry, as older
        versions saved one beside each parameter, is not loaded."""
        model = tmp_path / "model"
        shutil.copytree(trained_run["model"], model)
        blob = load_checkpoint(str(model / "model.bin"))
        blob["out.w.m1"] = np.zeros_like(blob["out.w"])
        save_checkpoint(str(model / "model.bin"), list(blob.items()))
        rc = main(["eval", "--model", str(model), "--data", cli_corpus["manifest"],
                   "--out", str(tmp_path / "e")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and err.count("\n") == 1
        assert "checkpoint entry 'out.w.m1' names no parameter" in err

    def test_missing_parameter_message_is_not_quoted(self, cli_corpus, trained_run,
                                                     tmp_path, capsys):
        model = tmp_path / "model"
        shutil.copytree(trained_run["model"], model)
        blob = load_checkpoint(str(model / "model.bin"))
        del blob["enc.0.w"]
        save_checkpoint(str(model / "model.bin"), list(blob.items()))
        rc = main(["eval", "--model", str(model), "--data", cli_corpus["manifest"],
                   "--out", str(tmp_path / "e")])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: data: corrupt checkpoint in {model}: {model}/model.bin: "
            "checkpoint missing parameter 'enc.0.w'\n")

    def test_entry_naming_no_parameter_is_data_error(self, cli_corpus, trained_run,
                                                     tmp_path, capsys):
        """A checkpoint with an entry the model does not have, such as the
        ``conv1.b`` an older version saved, is not loaded."""
        model = tmp_path / "model"
        shutil.copytree(trained_run["model"], model)
        blob = load_checkpoint(str(model / "model.bin"))
        blob["blocks.0.conv1.b"] = np.zeros(blob["blocks.0.conv1.w"].shape[0])
        save_checkpoint(str(model / "model.bin"), list(blob.items()))
        rc = main(["eval", "--model", str(model), "--data", cli_corpus["manifest"],
                   "--out", str(tmp_path / "e")])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: data: corrupt checkpoint in {model}: {model}/model.bin: "
            "checkpoint entry 'blocks.0.conv1.b' names no parameter\n")

    def test_old_parameter_names_are_data_error(self, cli_corpus, trained_run,
                                                tmp_path, capsys):
        """A checkpoint saved under the names used before each conv was one
        layer (``enc_ws.0``, ``shared_w``, separate ``gamma_w``/``beta_w``
        halves of ``heads.w``, ``out_w``) is not loaded."""
        model = tmp_path / "model"
        shutil.copytree(trained_run["model"], model)
        old = []
        for name, arr in load_checkpoint(str(model / "model.bin")).items():
            layer, wb = re.fullmatch(r"(.*)\.([wb])", name).groups()
            enc = re.fullmatch(r"enc\.(\d+)", layer)
            if enc:
                old.append((f"enc_{wb}s.{enc[1]}", arr))
            elif layer.endswith(".heads"):
                gamma, beta = np.split(arr, 2)
                old.append((f"{layer[:-5]}gamma_{wb}", gamma))
                old.append((f"{layer[:-5]}beta_{wb}", beta))
            else:
                old.append((f"{layer}_{wb}", arr))
        save_checkpoint(str(model / "model.bin"), old)
        rc = main(["eval", "--model", str(model), "--data", cli_corpus["manifest"],
                   "--out", str(tmp_path / "e")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and err.count("\n") == 1
        assert "missing parameter 'enc.0.w'" in err

    def test_thread_pool_matches_serial(self, cli_corpus, trained_run, tmp_path,
                                        monkeypatch):
        serial = tmp_path / "serial"
        pooled = tmp_path / "pooled"
        monkeypatch.delenv("SGS_THREADS", raising=False)
        assert main(["eval", "--model", trained_run["model"],
                     "--data", cli_corpus["manifest"], "--out", str(serial)]) == 0
        monkeypatch.setenv("SGS_THREADS", "3")
        assert main(["eval", "--model", trained_run["model"],
                     "--data", cli_corpus["manifest"], "--out", str(pooled)]) == 0
        assert (serial / "val_metrics.json").read_bytes() == \
            (pooled / "val_metrics.json").read_bytes()
        assert (serial / "per_sample.csv").read_bytes() == \
            (pooled / "per_sample.csv").read_bytes()

    def test_bad_thread_env_is_config_error(self, cli_corpus, trained_run,
                                            tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SGS_THREADS", "many")
        rc = main(["eval", "--model", trained_run["model"],
                   "--data", cli_corpus["manifest"], "--out", str(tmp_path / "e")])
        assert rc == 2
        assert "SGS_THREADS" in capsys.readouterr().err


class TestGraphDumpCommand:
    def test_emits_json_with_zero_diagonal(self, cli_corpus, capsys):
        rc = main(["graph-dump", "--data", cli_corpus["manifest"],
                   "--id", "0000", "--side", "photo"])
        assert rc == 0
        dump = json.loads(capsys.readouterr().out)
        assert set(dump) == {"mu", "nu", "c1", "c2", "e1", "e2", "present"}
        e1 = np.asarray(dump["e1"])
        e2 = np.asarray(dump["e2"])
        assert e1.shape == (12, 12)
        assert np.all(np.diag(e1) == 0.0)
        assert np.all(np.diag(e2) == 0.0)

    def test_out_flag_writes_file(self, cli_corpus, tmp_path):
        path = tmp_path / "dump.json"
        rc = main(["graph-dump", "--data", cli_corpus["manifest"],
                   "--id", "0001", "--side", "sketch", "--out", str(path)])
        assert rc == 0
        dump = json.loads(path.read_text())
        assert len(dump["present"]) == 12

    def test_failed_write_keeps_previous_file(self, cli_corpus, tmp_path, monkeypatch,
                                              capsys):
        """A write that fails partway (here the flush to disk) leaves the
        previous file byte for byte and no temp file behind."""
        path = tmp_path / "dump.json"
        path.write_text('{"old": 1}\n', encoding="utf-8")
        before = path.read_bytes()

        def full_disk(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", full_disk)
        rc = main(["graph-dump", "--data", cli_corpus["manifest"],
                   "--id", "0001", "--side", "sketch", "--out", str(path)])
        assert rc == 3
        assert "No space left" in capsys.readouterr().err
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["dump.json"]

    def test_unknown_id_is_data_error(self, cli_corpus, capsys):
        rc = main(["graph-dump", "--data", cli_corpus["manifest"], "--id", "zz"])
        assert rc == 3
        assert "'zz'" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["7", "[1]", "null", json.dumps(" ".join(MANIFEST_KEYS))],
                             ids=["number", "array", "null", "string_of_every_key"])
    def test_non_object_row_is_data_error(self, tmp_path, capsys, row):
        """A row that is valid JSON but not an object names its line; a
        string holding every key name is not taken for a row."""
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(row + "\n", encoding="utf-8")
        rc = main(["graph-dump", "--data", str(manifest), "--id", "0"])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: data: {manifest}:1: manifest row is not a JSON object\n")

    def test_non_utf8_manifest_is_data_error(self, cli_corpus, tmp_path, capsys):
        """A manifest that is not UTF-8 is one data error naming the file."""
        blob = bytearray(open(cli_corpus["manifest"], "rb").read())
        blob[10] = 0xD8
        manifest = tmp_path / "m.jsonl"
        manifest.write_bytes(bytes(blob))
        rc = main(["graph-dump", "--data", str(manifest), "--id", "0000"])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: data: cannot read manifest {manifest}: ")
        assert "can't decode byte 0xd8" in err[0]

    @pytest.mark.parametrize("value", [5, None, ["a.ppm"], ""],
                             ids=["number", "null", "list", "empty"])
    def test_file_key_not_a_name_is_data_error(self, tmp_path, capsys, value):
        """A file key must hold a non-empty string before any path is built."""
        row = {k: f"0_{k}.pgm" for k in MANIFEST_KEYS}
        row["id"] = "0"
        row["photo"] = value
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps(row) + "\n", encoding="utf-8")
        rc = main(["graph-dump", "--data", str(manifest), "--id", "0"])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: data: {manifest}:1: manifest key 'photo' is not a file name\n")

    @pytest.mark.parametrize("header", [b"P5\n#c", b"P5\n0 0\n11\n"],
                             ids=["unended_comment", "zero_size"])
    def test_bad_layout_header_is_data_error(self, cli_corpus, tmp_path, capsys, header):
        """A layout whose header ends inside a comment, or declares a 0x0
        image, is one data error that names the file."""
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(header)
        row = absolute_rows(read_manifest(cli_corpus["manifest"])[:1], cli_corpus["root"])[0]
        row["layout_photo"] = str(bad)
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps(row) + "\n", encoding="utf-8")
        rc = main(["graph-dump", "--data", str(manifest), "--id", row["id"]])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: data: {bad}: ")


def load_desk_script():
    path = os.path.join(os.path.dirname(__file__), "..", "scripts",
                        "run_desk_experiment.py")
    spec = importlib.util.spec_from_file_location("run_desk_experiment", path)
    desk = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(desk)
    return desk


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "sgs.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "datagen" in proc.stdout

    def test_module_error_path(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "sgs.cli", "datagen", "--out",
             str(tmp_path / "c"), "--n", "2", "--size", "48"],
            capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: data: ")

    def test_desk_experiment_script(self, tmp_path):
        """The README's end-to-end script, at the smallest size it takes."""
        script = os.path.join(os.path.dirname(__file__), "..", "scripts",
                              "run_desk_experiment.py")
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, script, "--out", str(out), "--samples", "4", "--image-size", "32",
             "--stages", "1", "--epochs", "2", "--depth", "4", "--base-channels", "4",
             "--si-hidden", "4"],
            capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert sorted(report) == ["k", "o"]
        for direction in ("k", "o"):
            assert report[direction]["stage"] in (0, 1)
            assert os.path.isfile(os.path.join(report[direction]["path"], "model.bin"))

    def test_desk_experiment_config_layers(self, tmp_path):
        """The script's config: TrainConfig < DESK_DEFAULTS < --config file
        < flags, built without training."""
        desk = load_desk_script()
        cfg_file = tmp_path / "desk.cfg"
        cfg_file.write_text("epochs = 3\ndepth = 3\nweight_cycle = 2.5\n")
        args = desk.parse_args(["--config", str(cfg_file), "--epochs", "5",
                                "--lr", "0.001"])
        cfg = build_train_config(args, desk.DESK_DEFAULTS)
        assert cfg.epochs == 5            # flag over file
        assert cfg.lr == 0.001            # flag over TrainConfig
        assert cfg.depth == 3             # file over DESK_DEFAULTS
        assert cfg.weights.cycle == 2.5   # file over LossWeights
        assert cfg.base_channels == 8     # DESK_DEFAULTS over TrainConfig
        assert cfg.seed == TrainConfig().seed
        plain = build_train_config(desk.parse_args([]), desk.DESK_DEFAULTS)
        assert {k: getattr(plain, k) for k in desk.DESK_DEFAULTS} == desk.DESK_DEFAULTS

    def test_desk_experiment_script_unwritable_out(self, tmp_path):
        """An output path under a regular file exits 3 with one line."""
        script = os.path.join(os.path.dirname(__file__), "..", "scripts",
                              "run_desk_experiment.py")
        (tmp_path / "afile").write_text("")
        proc = subprocess.run(
            [sys.executable, script, "--out", str(tmp_path / "afile" / "run")],
            capture_output=True, text=True, timeout=600)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: data: "), proc.stderr

    def test_desk_experiment_script_numerical_error(self, tmp_path, monkeypatch, capsys):
        """A non-finite loss in training exits 4 with one line."""
        desk = load_desk_script()

        def diverge(*args):
            raise NumericalError("non-finite generator loss at stage 0 direction k step 1")

        monkeypatch.setattr(desk, "run_iterative", diverge)
        rc = desk.main(["--out", str(tmp_path / "run"), "--samples", "4",
                        "--image-size", "32"])
        assert rc == 4
        assert capsys.readouterr().err == (
            "error: numerical: non-finite generator loss at stage 0 direction k step 1\n")

    def test_desk_experiment_failed_report_keeps_previous_file(self, tmp_path,
                                                               monkeypatch, capsys):
        """``report.json`` is written atomically: a failed flush to disk
        leaves the previous report byte for byte and no temp file."""
        desk = load_desk_script()
        ckpt = Checkpoint(stage=0, direction="k", path="p", digest="d",
                          val={"ssim_mean": 0.5, "fsim_mean": 0.5, "frechet_proxy": 1.0})
        stage = {d: types.SimpleNamespace(epoch_ict=[0.0]) for d in ("k", "o")}
        monkeypatch.setattr(desk, "run_iterative", lambda *args: {
            "checkpoints": {"k": [ckpt], "o": [ckpt]}, "stages": [stage]})
        monkeypatch.setattr(desk, "cli_main", lambda argv: 0)
        out = tmp_path / "run"
        out.mkdir()
        (out / "report.json").write_text('{"old": 1}\n', encoding="utf-8")

        def full_disk(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", full_disk)
        rc = desk.main(["--out", str(out), "--samples", "4", "--image-size", "32"])
        assert rc == 3
        assert "No space left" in capsys.readouterr().err
        assert (out / "report.json").read_text(encoding="utf-8") == '{"old": 1}\n'
        assert not [p for p in os.listdir(out) if p.endswith(".tmp")]

    @pytest.mark.parametrize("flags,message", [
        (["--samples", "2", "--val-count", "2"],
         "val_count 2 leaves no training data (corpus has 2)"),
        (["--val-count", "0"], "val_count must be >= 2, got 0"),
    ], ids=["all-held-out", "val-count-0"])
    def test_desk_experiment_script_empty_training_set(self, tmp_path, flags, message):
        """A split that leaves nothing to train on exits 2 with one line."""
        script = os.path.join(os.path.dirname(__file__), "..", "scripts",
                              "run_desk_experiment.py")
        proc = subprocess.run(
            [sys.executable, script, "--out", str(tmp_path / "run"), "--image-size", "32",
             "--epochs", "2", "--depth", "4", "--base-channels", "4",
             "--si-hidden", "4"] + flags,
            capture_output=True, text=True, timeout=600)
        assert proc.returncode == 2
        assert proc.stderr == f"error: config: {message}\n"
