import inspect
import itertools
import json
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import save_with_oversized_dims, two_layer_model
from reviewnet import cli, inference, tensor
from reviewnet.cli import _primitive_cases, main
from reviewnet.errors import ConfigError, DataError
from reviewnet.dataset import (FEATURES_MAGIC, RESERVED_TOKENS, Vocabulary, build_vocab,
                              load_dataset, save_dataset, synth_dataset, tokenize)
from reviewnet.model import CHECKPOINT_MAGIC, ModelConfig, load_checkpoint, save_checkpoint
from reviewnet.trainer import TrainConfig


TRAIN_FLAGS = ["--embed-dim", "16", "--hidden-dim", "16", "--shared-dim", "8",
               "--specific-dim", "8", "--batch-size", "8"]


def run(*argv):
    return main([str(a) for a in argv])


def build_pipeline(root: Path, seed=11, epochs=2, variant="model2"):
    data = root / "data"
    ckpt = root / f"{variant}.ckpt"
    report = root / "report.json"
    assert run("synth-data", "--seed", seed, "--n-images", 20, "--out", data) == 0
    assert run("build-vocab", "--data", data) == 0
    assert run("train", "--data", data, "--variant", variant, "--epochs", epochs,
               "--seed", 5, "--out", ckpt, *TRAIN_FLAGS) == 0
    assert run("evaluate", "--data", data, "--ckpt", ckpt, "--beam", 3,
               "--report", report, "--split", "test") == 0
    return data, ckpt, report


def test_full_pipeline_and_report_schema(tmp_path, capsys):
    data, ckpt, report = build_pipeline(tmp_path)
    payload = json.loads(report.read_text())
    for key in ("schema", "overall_accuracy", "bleu_1", "bleu_2", "bleu_3", "bleu_4",
                "rouge_l", "cider", "meteor_lite"):
        assert key in payload
    assert payload["schema"] == 1
    assert (tmp_path / "model2.ckpt.metrics.csv").exists()
    out = capsys.readouterr().out
    assert "model2" in out and "accuracy" in out


def test_identical_seeds_are_byte_identical(tmp_path):
    outputs = []
    for sub in ("run1", "run2"):
        root = tmp_path / sub
        root.mkdir()
        data, ckpt, report = build_pipeline(root)
        outputs.append({
            "manifest": (data / "manifest.jsonl").read_bytes(),
            "features": (data / "features.bin").read_bytes(),
            "vocab": (data / "vocab.txt").read_bytes(),
            "ckpt": ckpt.read_bytes(),
            "csv": Path(str(ckpt) + ".metrics.csv").read_bytes(),
            "report": report.read_bytes(),
        })
    assert outputs[0] == outputs[1]


def test_evaluate_is_read_only(tmp_path):
    data, ckpt, report = build_pipeline(tmp_path)
    before = {p.name: p.read_bytes() for p in sorted(data.iterdir())}
    before["ckpt"] = ckpt.read_bytes()
    assert run("evaluate", "--data", data, "--ckpt", ckpt, "--beam", 2,
               "--report", tmp_path / "second.json") == 0
    after = {p.name: p.read_bytes() for p in sorted(data.iterdir())}
    after["ckpt"] = ckpt.read_bytes()
    assert before == after


def test_evaluate_beam_one_matches_greedy_generation_bytes(tmp_path):
    data, ckpt, _ = build_pipeline(tmp_path)
    gen_eval = tmp_path / "eval_generations.txt"
    gen_direct = tmp_path / "generate_out.txt"
    assert run("evaluate", "--data", data, "--ckpt", ckpt, "--beam", 1, "--split", "all",
               "--report", tmp_path / "r.json", "--generations", gen_eval) == 0
    assert run("generate", "--ckpt", ckpt, "--features", data / "features.bin",
               "--vocab", data / "vocab.txt", "--beam", 1, "--out", gen_direct) == 0
    assert gen_eval.read_bytes() == gen_direct.read_bytes()


def test_generate_to_stdout(tmp_path, capsys):
    data, ckpt, _ = build_pipeline(tmp_path)
    capsys.readouterr()  # drop the pipeline's own output
    assert run("generate", "--ckpt", ckpt, "--features", data / "features.bin",
               "--vocab", data / "vocab.txt", "--beam", 2) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 20


def test_vocab_size_mismatch_exits_3(tmp_path, capsys):
    data, ckpt, _ = build_pipeline(tmp_path)
    (data / "vocab.txt").write_text("\n".join(RESERVED_TOKENS) + "\n")
    assert run("generate", "--ckpt", ckpt, "--features", data / "features.bin",
               "--vocab", data / "vocab.txt") == 3
    assert run("evaluate", "--data", data, "--ckpt", ckpt, "--report", tmp_path / "r.json") == 3


def test_generate_rejects_non_finite_features_exits_3(tmp_path, capsys):
    data, ckpt, _ = build_pipeline(tmp_path)
    features = tmp_path / "nan.bin"
    features.write_bytes(FEATURES_MAGIC + np.array([2, 16], "<u4").tobytes()
                         + np.full((2, 16), np.nan).tobytes())
    assert run("generate", "--ckpt", ckpt, "--features", features,
               "--vocab", data / "vocab.txt") == 3


def test_non_finite_checkpoint_exits_3(tmp_path, capsys):
    data, ckpt, _ = build_pipeline(tmp_path, epochs=1, variant="model1")
    model = load_checkpoint(ckpt)
    model.params["out_proj.bias"].data[0] = np.nan
    save_checkpoint(model, ckpt)
    capsys.readouterr()
    assert run("evaluate", "--data", data, "--ckpt", ckpt, "--report", tmp_path / "r.json") == 3
    assert run("generate", "--ckpt", ckpt, "--features", data / "features.bin",
               "--vocab", data / "vocab.txt") == 3
    assert capsys.readouterr().err.count("out_proj.bias") == 2
    assert not (tmp_path / "r.json").exists()


def test_iac_trains_without_vocab(tmp_path):
    data = tmp_path / "data"
    assert run("synth-data", "--seed", 3, "--n-images", 12, "--out", data) == 0
    ckpt = tmp_path / "iac.ckpt"
    assert run("train", "--data", data, "--variant", "iac", "--epochs", 2,
               "--seed", 0, "--out", ckpt, *TRAIN_FLAGS) == 0
    report = tmp_path / "r.json"
    assert run("evaluate", "--data", data, "--ckpt", ckpt, "--report", report) == 0
    payload = json.loads(report.read_text())
    assert payload["bleu_1"] is None and payload["overall_accuracy"] is not None


def test_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run("train", "--data", tmp_path, "--variant", "bogus", "--out", "x.ckpt")
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run("no-such-command")
    assert err.value.code == 2
    data, ckpt = tmp_path / "data", tmp_path / "m.ckpt"
    assert run("synth-data", "--seed", 3, "--n-images", 12, "--out", data) == 0
    assert run("build-vocab", "--data", data) == 0
    # a negative clip norm flips updates, zero stops them, nan turns clipping off;
    # a non-finite learning rate would only fail after the first step
    for flag, value in (("--clip-norm", -1), ("--clip-norm", 0), ("--clip-norm", "nan"),
                        ("--lr", "inf"), ("--lr", "nan"), ("--lr", 0)):
        assert run("train", "--data", data, "--variant", "model1", "--epochs", 1,
                   "--out", ckpt, flag, value, *TRAIN_FLAGS) == 2
        assert not ckpt.exists()
    # a layer width below 1 of a layer the variant has
    for variant, flag, value in (("model1", "--shared-dim", 0), ("model1", "--shared-dim", -3),
                                 ("model2", "--shared-dim", 0), ("model2", "--specific-dim", 0)):
        assert run("train", "--data", data, "--variant", variant, "--epochs", 1,
                   "--out", ckpt, *TRAIN_FLAGS, flag, value) == 2
        assert not ckpt.exists()
    # a width whose parameters cannot be held, refused before any draw
    # (the widths asked for 15.3, 18.6 and 119 GiB before they were bounded)
    for flag, value in (("--hidden-dim", 1000000), ("--embed-dim", 100000000),
                        ("--shared-dim", 1000000000)):
        assert run("train", "--data", data, "--variant", "model1", "--epochs", 1,
                   "--out", ckpt, *TRAIN_FLAGS, flag, value) == 2
        assert not ckpt.exists()
    # while the width of a layer the variant does not have is ignored
    for variant, flag in (("model1", "--specific-dim"), ("iac", "--shared-dim")):
        assert run("train", "--data", data, "--variant", variant, "--epochs", 0,
                   "--out", tmp_path / f"{variant}.ckpt", *TRAIN_FLAGS, flag, 0) == 0
    # a loss weight that is not finite or is negative, even where the variant
    # ignores it; a seed below 0; a tuning grid that is not numbers or holds a
    # bad weight
    for variant, flag, value in (("model1", "--alpha", "nan"), ("model1", "--alpha", "inf"),
                                 ("model1", "--beta", "nan"), ("model1", "--beta", "inf"),
                                 ("model1", "--alpha", -1), ("iac", "--alpha", "nan"),
                                 ("model1", "--seed", -1), ("model1", "--tune-grid", "a,b"),
                                 ("model1", "--tune-grid", "1,nan")):
        assert run("train", "--data", data, "--variant", variant, "--epochs", 1,
                   "--out", ckpt, *TRAIN_FLAGS, flag, value) == 2
        assert not ckpt.exists()
    for flags in (("--seed", -1), ("--seed", 3, "--feature-dim", 0),
                  ("--seed", 3, "--feature-dim", -2)):
        assert run("synth-data", "--n-images", 12, "--out", tmp_path / "bad", *flags) == 2
        assert not (tmp_path / "bad").exists()
    assert run("grad-check", "--seed", -1) == 2
    assert "primitive" not in capsys.readouterr().out


def test_missing_data_exits_3(tmp_path, capsys):
    assert run("build-vocab", "--data", tmp_path / "nowhere") == 3
    assert run("evaluate", "--data", tmp_path / "nowhere", "--ckpt", tmp_path / "x.ckpt",
               "--report", tmp_path / "r.json") == 3
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "manifest.jsonl").write_text("")
    (empty / "features.bin").write_bytes(FEATURES_MAGIC + struct.pack("<II", 0, 16))
    assert run("train", "--data", empty, "--variant", "iac", "--epochs", 1,
               "--out", tmp_path / "i.ckpt", *TRAIN_FLAGS) == 3


def test_train_on_string_comments_exits_3(tmp_path, capsys):
    data = tmp_path / "data"
    assert run("synth-data", "--seed", 3, "--n-images", 12, "--out", data) == 0
    manifest = data / "manifest.jsonl"
    lines = manifest.read_text().splitlines()
    obj = json.loads(lines[0])
    obj["comments"] = obj["comments"][0]  # one string, not a list of them
    lines[0] = json.dumps(obj)
    manifest.write_text("\n".join(lines) + "\n")
    assert run("train", "--data", data, "--variant", "iac", "--epochs", 1,
               "--out", tmp_path / "i.ckpt", *TRAIN_FLAGS) == 3
    assert "manifest.jsonl:1: comments" in capsys.readouterr().err
    assert not (tmp_path / "i.ckpt").exists()


def test_caption_train_without_vocab_exits_3(tmp_path, capsys):
    data = tmp_path / "data"
    assert run("synth-data", "--seed", 3, "--n-images", 12, "--out", data) == 0
    assert run("train", "--data", data, "--variant", "v2l", "--epochs", 1,
               "--seed", 0, "--out", tmp_path / "v.ckpt", *TRAIN_FLAGS) == 3


def test_modality_mismatch_exits_3(tmp_path, capsys):
    images, features = tmp_path / "imgdata", tmp_path / "featdata"
    assert run("synth-data", "--seed", 3, "--n-images", 8, "--out", images,
               "--modality", "images") == 0
    assert run("synth-data", "--seed", 3, "--n-images", 8, "--out", features) == 0
    assert run("train", "--data", images, "--variant", "model1", "--epochs", 1,
               "--seed", 0, "--out", tmp_path / "m.ckpt", *TRAIN_FLAGS) == 3
    # one vocabulary for both datasets, so only the inputs mismatch
    assert run("build-vocab", "--data", images) == 0
    (features / "vocab.txt").write_bytes((images / "vocab.txt").read_bytes())
    image_ckpt, feature_ckpt = tmp_path / "mt.ckpt", tmp_path / "m1.ckpt"
    assert run("train", "--data", images, "--variant", "mt-baseline", "--epochs", 0,
               "--seed", 0, "--out", image_ckpt, *TRAIN_FLAGS) == 0
    assert run("train", "--data", features, "--variant", "model1", "--epochs", 0,
               "--seed", 0, "--out", feature_ckpt, *TRAIN_FLAGS) == 0
    capsys.readouterr()
    for ckpt, data in ((image_ckpt, features), (feature_ckpt, images)):
        assert run("evaluate", "--data", data, "--ckpt", ckpt,
                   "--report", tmp_path / "r.json") == 3
        assert "shape" in capsys.readouterr().err
    assert run("generate", "--ckpt", image_ckpt, "--features", features / "features.bin",
               "--vocab", images / "vocab.txt") == 3
    assert "shape" in capsys.readouterr().err
    assert run("generate", "--ckpt", feature_ckpt, "--features", images / "images.bin",
               "--vocab", images / "vocab.txt") == 3


def test_tune_grid_on_single_task_exits_2(tmp_path, capsys):
    data = tmp_path / "data"
    assert run("synth-data", "--seed", 3, "--n-images", 12, "--out", data) == 0
    assert run("train", "--data", data, "--variant", "iac", "--epochs", 1, "--seed", 0,
               "--out", tmp_path / "i.ckpt", "--tune-grid", "0.5,1", *TRAIN_FLAGS) == 2


def test_an_empty_tune_grid_exits_2_keeping_outputs(untrained, tmp_path, capsys):
    # "" is a given grid with no points, not a left-out flag
    data, ckpt = untrained
    out, log = tmp_path / "m.ckpt", tmp_path / "m.csv"
    out.write_bytes(ckpt.read_bytes())
    log.write_bytes(b"earlier log\n")
    for grid in ("", " ", ","):
        assert run("train", "--data", data, "--variant", "model1", "--epochs", 0, "--out", out,
                   "--log", log, "--tune-grid", grid, *TRAIN_FLAGS) == 2, repr(grid)
        assert "the alpha/beta grid is empty" in capsys.readouterr().err
        assert out.read_bytes() == ckpt.read_bytes()
        assert log.read_bytes() == b"earlier log\n"


def _case_primitives():
    """The primitives that grad-check's cases difference."""
    return {name.split()[0] for name, _, _ in _primitive_cases(np.random.default_rng(0))}


def test_primitive_cases_cover_every_differentiable_primitive():
    # a primitive added to or removed from the tape cannot drop out of grad-check
    not_differentiable = {"Tensor", "backward", "lstm_cell", "stable_sigmoid", "topo_order"}
    assert _case_primitives() == set(tensor.__all__) - not_differentiable


def test_grad_check_passes(capsys):
    assert run("grad-check", "--seed", 7) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    # every primitive case is differenced
    checked = {line.split()[1] for line in out.splitlines() if line.startswith("primitive ")}
    assert checked == _case_primitives()


def test_tune_grid_via_cli(tmp_path, capsys):
    data = tmp_path / "data"
    assert run("synth-data", "--seed", 4, "--n-images", 12, "--out", data) == 0
    assert run("build-vocab", "--data", data) == 0
    ckpt = tmp_path / "tuned.ckpt"
    assert run("train", "--data", data, "--variant", "model1", "--epochs", 1,
               "--seed", 2, "--out", ckpt, "--tune-grid", "0.5,1",
               "--tune-epochs", 1, "--embed-dim", 12, "--hidden-dim", 12,
               "--shared-dim", 12, "--batch-size", 8) == 0
    out = capsys.readouterr().out
    assert "selected alpha=" in out and "4-point grid" in out
    assert ckpt.exists()


def test_mt_baseline_trains_on_images(tmp_path):
    data = tmp_path / "imgdata"
    assert run("synth-data", "--seed", 9, "--n-images", 10, "--out", data,
               "--modality", "images") == 0
    assert run("build-vocab", "--data", data) == 0
    ckpt = tmp_path / "mtb.ckpt"
    assert run("train", "--data", data, "--variant", "mt-baseline", "--epochs", 1,
               "--seed", 1, "--out", ckpt, "--encoder-dim", 8,
               "--embed-dim", 12, "--hidden-dim", 12, "--batch-size", 6) == 0
    report = tmp_path / "r.json"
    assert run("evaluate", "--data", data, "--ckpt", ckpt, "--beam", 2,
               "--report", report) == 0
    assert json.loads(report.read_text())["overall_accuracy"] is not None


def test_generate_decodes_images_for_mt_baseline(tmp_path, capsys):
    data = tmp_path / "imgdata"
    assert run("synth-data", "--seed", 9, "--n-images", 10, "--out", data,
               "--modality", "images") == 0
    assert run("build-vocab", "--data", data) == 0
    ckpt, generations = tmp_path / "mtb.ckpt", tmp_path / "g.txt"
    assert run("train", "--data", data, "--variant", "mt-baseline", "--epochs", 1,
               "--seed", 1, "--out", ckpt, "--encoder-dim", 8,
               "--embed-dim", 12, "--hidden-dim", 12, "--batch-size", 6) == 0
    assert run("evaluate", "--data", data, "--ckpt", ckpt, "--beam", 3, "--split", "all",
               "--report", tmp_path / "r.json", "--generations", generations) == 0
    capsys.readouterr()
    assert run("generate", "--ckpt", ckpt, "--features", data / "images.bin",
               "--vocab", data / "vocab.txt", "--beam", 3) == 0
    assert capsys.readouterr().out == generations.read_text()


@pytest.fixture(scope="module")
def untrained(tmp_path_factory):
    """A dataset with its vocabulary and an untrained model1 checkpoint."""
    root = tmp_path_factory.mktemp("untrained")
    data, ckpt = root / "data", root / "m1.ckpt"
    assert run("synth-data", "--seed", 3, "--n-images", 12, "--out", data) == 0
    assert run("build-vocab", "--data", data) == 0
    assert run("train", "--data", data, "--variant", "model1", "--epochs", 0,
               "--out", ckpt, *TRAIN_FLAGS) == 0
    return data, ckpt


PATH_FAULTS = {
    "evaluate-ckpt-is-dir": lambda data, ckpt, bad: [
        "evaluate", "--data", data, "--ckpt", bad, "--report", bad.parent / "r.json"],
    "evaluate-report-is-dir": lambda data, ckpt, bad: [
        "evaluate", "--data", data, "--ckpt", ckpt, "--beam", 2, "--report", bad],
    "evaluate-generations-is-dir": lambda data, ckpt, bad: [
        "evaluate", "--data", data, "--ckpt", ckpt, "--beam", 2,
        "--report", bad.parent / "r.json", "--generations", bad],
    "train-log-is-dir": lambda data, ckpt, bad: [
        "train", "--data", data, "--variant", "iac", "--epochs", 0,
        "--out", bad.parent / "i.ckpt", "--log", bad, *TRAIN_FLAGS],
    "generate-out-is-dir": lambda data, ckpt, bad: [
        "generate", "--ckpt", ckpt, "--features", data / "features.bin",
        "--vocab", data / "vocab.txt", "--beam", 2, "--out", bad],
    "train-out-parent-missing": lambda data, ckpt, bad: [
        "train", "--data", data, "--variant", "iac", "--epochs", 0,
        "--out", bad / "x.ckpt", *TRAIN_FLAGS],
}


@pytest.mark.parametrize("fault", PATH_FAULTS)
def test_path_errors_exit_3_and_name_the_path(untrained, tmp_path, capsys, fault):
    # a directory where a file is read or written, or a missing parent
    # directory: a data error naming the path given, no temporary file left,
    # and the command's other outputs left as they were
    bad = tmp_path / "bad"
    if fault == "train-out-parent-missing":
        target = bad / "x.ckpt"
    else:
        bad.mkdir()
        target = bad
    previous = {tmp_path / "i.ckpt": b"previous checkpoint", tmp_path / "r.json": b"{}\n"}
    for path, content in previous.items():
        path.write_bytes(content)
    capsys.readouterr()
    assert run(*PATH_FAULTS[fault](*untrained, bad)) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(target) in err and ".tmp" not in err
    assert not list(tmp_path.rglob("*.tmp"))
    for path, content in previous.items():
        assert path.read_bytes() == content


# ---------------------------------------------------------------------------
# decode sizes: a beam or length below 1, and a beam whose largest round
# cannot be held, are usage errors


DECODE_SIZE_FAULTS = {
    "evaluate-beam-0": ("evaluate", "--beam", 0),
    "evaluate-beam-negative": ("evaluate", "--beam", -3),
    "evaluate-max-len-0": ("evaluate", "--max-len", 0),
    "evaluate-beam-0-max-len-0": ("evaluate", "--beam", 0, "--max-len", 0),
    "generate-beam-0": ("generate", "--beam", 0),
    "generate-max-len-negative": ("generate", "--max-len", -1),
    "evaluate-max-len-1e8": ("evaluate", "--max-len", 100000000),  # was killed after minutes
    "generate-max-len-1e8": ("generate", "--max-len", 100000000),
}


def _decode_argv(command, data, ckpt, out):
    if command == "evaluate":
        return ["evaluate", "--data", data, "--ckpt", ckpt, "--report", out]
    return ["generate", "--ckpt", ckpt, "--features", data / "features.bin",
            "--vocab", data / "vocab.txt", "--out", out]


@pytest.mark.parametrize("fault", DECODE_SIZE_FAULTS)
def test_decode_sizes_below_one_exit_2_before_loading(tmp_path, capsys, fault):
    # nothing exists at the data and checkpoint paths: loading would exit 3
    command, *flags = DECODE_SIZE_FAULTS[fault]
    argv = _decode_argv(command, tmp_path / "nowhere", tmp_path / "none.ckpt", tmp_path / "out")
    assert run(*argv, *flags) == 2
    assert capsys.readouterr().err.startswith("usage error:")
    assert not (tmp_path / "out").exists()


def test_iac_evaluate_rejects_beam_0_and_max_len_0(tmp_path, capsys):
    # iac decodes nothing, so only the argument check can catch these
    data, ckpt = tmp_path / "data", tmp_path / "iac.ckpt"
    assert run("synth-data", "--seed", 3, "--n-images", 12, "--out", data) == 0
    assert run("train", "--data", data, "--variant", "iac", "--epochs", 0,
               "--out", ckpt, *TRAIN_FLAGS) == 0
    assert run("evaluate", "--data", data, "--ckpt", ckpt, "--beam", 0, "--max-len", 0,
               "--report", tmp_path / "r.json") == 2
    assert not (tmp_path / "r.json").exists()


def test_check_beam_bounds_the_last_round_at_its_closed_form(monkeypatch):
    for beam, max_len, vocab in itertools.product((1, 2, 5, 20, 217, 10 ** 8), (1, 2, 3, 7),
                                                  (4, 6, 46)):
        scores = min(beam, vocab ** (max_len - 1)) * vocab
        monkeypatch.setattr(inference, "MAX_ROUND_SCORES", scores)
        inference.check_beam(beam, max_len, vocab)
        monkeypatch.setattr(inference, "MAX_ROUND_SCORES", scores - 1)
        with pytest.raises(ConfigError, match=f"scores {scores} candidates in one round"):
            inference.check_beam(beam, max_len, vocab)
    # the length cap comes first, so 923 ** (10**9 - 1) is never computed
    with pytest.raises(ConfigError, match="max_len must be at most 30, got 1000000000"):
        inference.check_beam(10 ** 100, 10 ** 9, 923)


BEAM_SIZES = {  # (beam, max_len, vocabulary size, fits)
    "default-beam-1k-tokens": (20, 30, 923, True),
    "one-round": (10 ** 8, 1, 46, True),
    "one-row-then-46": (10 ** 8, 2, 46, True),
    "at-the-bound": (2 ** 13, 3, 2 ** 10, True),
    "one-row-over": (2 ** 13 + 1, 3, 2 ** 10, False),
    "desk-beam-1e8": (10 ** 8, 30, 46, False),  # was OOM-killed on a desk checkpoint
    "beam-1e100": (10 ** 100, 30, 923, False),
}


@pytest.mark.parametrize("case", BEAM_SIZES)
def test_check_beam_bounds_the_largest_round(case):
    beam, max_len, vocab, fits = BEAM_SIZES[case]
    assert inference.MAX_ROUND_SCORES == 2 ** 23
    if fits:
        inference.check_beam(beam, max_len, vocab)
    else:
        with pytest.raises(ConfigError, match="in one round"):
            inference.check_beam(beam, max_len, vocab)


def test_check_beam_caps_max_len_at_the_caption_length():
    assert inference.MAX_CAPTION_LEN == 30
    inference.check_beam(20, 30)
    inference.check_beam(20, 30, 923)
    for vocab in (None, 923):
        with pytest.raises(ConfigError, match="max_len must be at most 30, got 31"):
            inference.check_beam(20, 31, vocab)
    # the length cap is checked before the round bound
    with pytest.raises(ConfigError, match="max_len must be at most 30, got 31"):
        inference.check_beam(10 ** 8, 31, 46)


def test_a_beam_over_the_bound_exits_2_with_no_output(untrained, tmp_path, capsys, monkeypatch):
    # the bound lowered so that a small beam crosses it: if the check failed,
    # decoding would run at this harmless size instead of a huge one
    data, ckpt = untrained
    vocab = len((data / "vocab.txt").read_text().splitlines())
    monkeypatch.setattr(inference, "MAX_ROUND_SCORES", 4 * vocab)
    for command in ("evaluate", "generate"):
        out = tmp_path / f"{command}.out"
        assert run(*_decode_argv(command, data, ckpt, out), "--beam", 5) == 2
        assert "in one round" in capsys.readouterr().err
        assert not out.exists()
        assert run(*_decode_argv(command, data, ckpt, out), "--beam", 4) == 0


def test_train_max_caption_len_over_the_bound_exits_2_keeping_outputs(untrained, tmp_path,
                                                                       capsys):
    data, ckpt = untrained
    out, log = tmp_path / "m.ckpt", tmp_path / "m.csv"
    out.write_bytes(ckpt.read_bytes())
    log.write_bytes(b"earlier log\n")
    argv = ["train", "--data", data, "--variant", "model1", "--epochs", 0, "--out", out,
            "--log", log, *TRAIN_FLAGS]
    assert run(*argv, "--max-caption-len", 31) == 2
    assert "max_caption_len must be in [1, 30], got 31" in capsys.readouterr().err
    assert out.read_bytes() == ckpt.read_bytes()
    assert log.read_bytes() == b"earlier log\n"
    assert run(*argv, "--max-caption-len", 30) == 0


def test_build_vocab_negative_min_count_exits_2_keeping_vocab(tmp_path, capsys):
    data = tmp_path / "data"
    assert run("synth-data", "--seed", 3, "--n-images", 12, "--out", data) == 0
    assert run("build-vocab", "--data", data) == 0
    before = (data / "vocab.txt").read_bytes()
    assert run("build-vocab", "--data", data, "--min-count", -1) == 2
    assert capsys.readouterr().err.startswith("usage error:")
    assert (data / "vocab.txt").read_bytes() == before


@pytest.mark.parametrize("variant", ["iac", "v2l", "mt-baseline", "model1", "model2"])
def test_truncated_checkpoints_exit_3(untrained, tmp_path, capsys, variant):
    # cut at the end of the magic, the tag and each parameter record, and one
    # byte past each; every proper prefix is checked against load_checkpoint
    # in test_model.py
    data, _ = untrained
    model = two_layer_model(variant)
    full, ckpt = tmp_path / "full.ckpt", tmp_path / "cut.ckpt"
    save_checkpoint(model, full)
    raw = full.read_bytes()
    ends = [len(CHECKPOINT_MAGIC), len(CHECKPOINT_MAGIC) + 1]
    for name in sorted(model.params):
        array = model.params[name].data
        ends.append(ends[-1] + 4 + len(name.encode()) + 1 + 4 * array.ndim + 8 * array.size)
    assert ends[-1] == len(raw)
    for size in sorted({0, *ends[:-1], *(end + 1 for end in ends[:-1])}):
        ckpt.write_bytes(raw[:size])
        assert run("generate", "--ckpt", ckpt, "--features", data / "features.bin",
                   "--vocab", data / "vocab.txt") == 3
        assert str(ckpt) in capsys.readouterr().err


def test_checkpoint_with_oversized_dims_exits_3(untrained, tmp_path, capsys):
    data, _ = untrained
    ckpt, report = tmp_path / "big.ckpt", tmp_path / "r.json"
    save_with_oversized_dims(two_layer_model("model1"), ckpt)
    assert run("generate", "--ckpt", ckpt, "--features", data / "features.bin",
               "--vocab", data / "vocab.txt") == 3
    assert str(ckpt) in capsys.readouterr().err
    assert run("evaluate", "--data", data, "--ckpt", ckpt, "--report", report) == 3
    assert str(ckpt) in capsys.readouterr().err
    assert not report.exists()


# ---------------------------------------------------------------------------
# reader faults: a malformed byte in any input file is a data error that
# names the file, and the line for the manifest


def _rewrite(edit):
    return lambda path: path.write_bytes(edit(path.read_bytes()))


def _line_2(edit):
    """Rewrites the second line of a text file through ``edit``."""
    def edit_lines(raw):
        lines = raw.split(b"\n")
        lines[1] = edit(lines[1])
        return b"\n".join(lines)
    return _rewrite(edit_lines)


def _resave(arrays):
    """Re-saves a checkpoint with the parameters named in ``arrays`` replaced."""
    def corrupt(path):
        model = load_checkpoint(path)
        for name, value in arrays.items():
            model.params[name].data = value
        save_checkpoint(model, path)
    return corrupt


def _images_with_huge_count(path):
    save_dataset(synth_dataset(3, 12, modality="images"), path.parent)
    _rewrite(lambda raw: raw[:6] + b"\xff" * 4 + raw[10:])(path)


def _images_renamed_to_features(path):
    save_dataset(synth_dataset(3, 12, modality="images"), path.parent)
    (path.parent / "images.bin").rename(path)


READER_FAULTS = {  # fault: (corrupted file, corruption, what the message adds to the path)
    "manifest-nested-lists": ("data/manifest.jsonl", _line_2(lambda line: b"[" * 200_000), ":2: "),
    "manifest-nested-objects": (
        "data/manifest.jsonl",
        _line_2(lambda line: b'{"a": ' * 100_000 + b"1" + b"}" * 100_000), ":2: "),
    "manifest-0xff-in-comment": (
        "data/manifest.jsonl",
        _line_2(lambda line: line.replace(b'"comments": ["', b'"comments": ["\xff')), ":2: "),
    "manifest-line-is-a-list": ("data/manifest.jsonl", _line_2(lambda line: b"[" + line + b"]"),
                                ":2: expected a JSON object"),
    "manifest-line-is-a-number": ("data/manifest.jsonl", _line_2(lambda line: b"7"),
                                  ":2: expected a JSON object"),
    "manifest-score-beyond-a-float": (
        "data/manifest.jsonl",
        _line_2(lambda line: line.replace(b'"score": ', b'"score": 1' + b"0" * 400 + b', "s": ')),
        ":2: "),
    "vocab-0xff-in-token": ("data/vocab.txt",
                            _rewrite(lambda raw: raw.replace(b"<UNK>\n", b"<UNK>\n\xff", 1)), ": "),
    # 8 * 0xFFFFFFFF**2 payload bytes: int64 arithmetic would wrap this count
    "features-oversized-dims": ("data/features.bin",
                                _rewrite(lambda raw: raw[:6] + b"\xff" * 8 + raw[14:]),
                                f": expected {8 * 0xFFFFFFFF ** 2} payload bytes"),
    "images-oversized-count": ("data/images.bin", _images_with_huge_count, ": expected"),
    "images-renamed-to-features": ("data/features.bin", _images_renamed_to_features,
                                   ": holds images, not features"),
    "checkpoint-0xff-in-name": ("m1.ckpt",
                                _rewrite(lambda raw: raw[:14] + b"\xff" + raw[15:]), ": "),
    "checkpoint-rank-1-hidden-weights": ("m1.ckpt",
                                         _resave({"lstm0.w_hidden": np.zeros(16)}), ": "),
    "checkpoint-two-token-vocabulary": ("m1.ckpt",
                                        _resave({"embedding.table": np.zeros((2, 16))}), ": "),
    # no payload, but dims whose layout needs 2^42 hidden weights (32 TiB)
    "checkpoint-hidden-dims-without-payload": (
        "m1.ckpt", _resave({"lstm0.w_hidden": np.zeros((0, 1 << 20))}), ": the widths make"),
}


@pytest.mark.parametrize("fault", READER_FAULTS)
def test_reader_faults_are_data_errors_naming_the_file(untrained, tmp_path, capsys, fault):
    name, corrupt, detail = READER_FAULTS[fault]
    data, ckpt = tmp_path / "data", tmp_path / "m1.ckpt"
    shutil.copytree(untrained[0], data)
    shutil.copyfile(untrained[1], ckpt)
    bad = tmp_path / name
    corrupt(bad)
    expected = f"{bad}{detail}"

    on_checkpoint = bad == ckpt
    with pytest.raises(DataError) as info:
        load_checkpoint(ckpt) if on_checkpoint else load_dataset(data)
    assert expected in str(info.value)

    out, log, report, generations = (tmp_path / n for n in ("o.ckpt", "o.csv", "r.json", "g.txt"))
    previous = {out: b"earlier checkpoint", log: b"earlier log\n", report: b"{}\n",
                generations: b"earlier captions\n"}
    for path, content in previous.items():
        path.write_bytes(content)
    commands = [["evaluate", "--data", data, "--ckpt", ckpt, "--beam", 2, "--report", report,
                 "--generations", generations]]
    if not on_checkpoint:
        commands.append(["train", "--data", data, "--variant", "model1", "--epochs", 1,
                         "--out", out, "--log", log, *TRAIN_FLAGS])
    for argv in commands:
        capsys.readouterr()
        assert run(*argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("data error:") and expected in captured.err
        assert "Traceback" not in captured.out + captured.err
    assert not list(tmp_path.rglob("*.tmp"))
    for path, content in previous.items():
        assert path.read_bytes() == content


# ---------------------------------------------------------------------------
# sizes: a size that a flag or a file names is refused before anything it
# sizes is allocated, which an address-space limit shows


ADDRESS_SPACE = 3 * 10**9  # bytes: numpy runs well inside it, and no size case fits
# runs each command of the JSON argv list in this one process under the
# limit, and prints the exit code, seconds and stderr of each
_LIMITED_RUNS = """
import contextlib, io, json, resource, sys, time
limit, commands = json.loads(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from reviewnet.cli import main
results = []
for argv in commands:
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    results.append((code, time.perf_counter() - start, err.getvalue()))
print(json.dumps(results))
"""


def test_sizes_are_refused_before_they_are_allocated(untrained, tmp_path):
    # the deep stack and the image count are run only here: before they were
    # bounded, each built layers or examples until memory ran out
    data, _ = untrained
    ckpt, out = tmp_path / "v2l.ckpt", tmp_path / "out"
    model = two_layer_model("v2l")
    model.params["lstm0.w_hidden"].data = np.zeros((0, 1 << 20))
    save_checkpoint(model, ckpt)
    train = ["train", "--data", data, "--variant", "model1", "--epochs", 1, "--out", out]
    synth = ["synth-data", "--seed", 3, "--out", out]
    cases = {  # case: (exit code, argv)
        "train-hidden-dim": (2, [*train, "--hidden-dim", 1000000]),
        "train-embed-dim": (2, [*train, "--embed-dim", 100000000]),
        "train-shared-dim": (2, [*train, "--shared-dim", 1000000000]),
        "train-lstm-layers": (2, [*train, "--lstm-layers", 100000000]),
        "synth-data-n-images": (2, [*synth, "--n-images", 1000000000]),
        "synth-data-feature-dim": (2, [*synth, "--n-images", 12, "--feature-dim", 1000000000]),
        "generate-hidden-dims-without-payload": (
            3, ["generate", "--ckpt", ckpt, "--features", data / "features.bin",
                "--vocab", data / "vocab.txt", "--out", out]),
        "evaluate-hidden-dims-without-payload": (
            3, ["evaluate", "--data", data, "--ckpt", ckpt, "--report", out]),
    }
    commands = [[str(a) for a in argv] for _, argv in cases.values()]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _LIMITED_RUNS,
                           json.dumps([ADDRESS_SPACE, commands])],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    for (case, (code, _)), (got, seconds, err) in zip(cases.items(), json.loads(proc.stdout)):
        assert got == code, f"{case}: {err}"
        assert err.startswith("usage error:" if code == 2 else "data error:"), case
        assert "Traceback" not in err and seconds < 1.0, case
    assert [path.name for path in tmp_path.iterdir()] == ["v2l.ckpt"]


# ---------------------------------------------------------------------------
# train flags: each one sets a config field, and one left out keeps the
# config's own default

TRAIN_CONFIG_FLAGS = {  # flag: (config field, a value that is not the field's default)
    "--lr": ("learning_rate", 0.05),
    "--batch-size": ("batch_size", 7),
    "--dropout-keep": ("dropout_keep", 0.5),
    "--epochs": ("epochs", 3),
    "--seed": ("seed", 4),
    "--alpha": ("alpha", 0.25),
    "--beta": ("beta", 2.0),
    "--max-caption-len": ("max_caption_len", 12),
    "--clip-norm": ("clip_norm", 5.0),
    "--embed-dim": ("embed_dim", 24),
    "--hidden-dim": ("hidden_dim", 20),
    "--shared-dim": ("shared_dim", 10),
    "--specific-dim": ("specific_dim", 6),
    "--lstm-layers": ("lstm_layers", 2),
}


def _built_configs(monkeypatch, data, out, *flags):
    """The model config, model seed and train config that ``train`` builds."""
    built = {}

    class Built(Exception):
        pass

    def model(variant, config, seed):
        built.update(config=config, seed=seed)

    def fit(model, ds, tcfg):
        built["tcfg"] = tcfg
        raise Built

    monkeypatch.setattr(cli, "ReviewerModel", model)
    monkeypatch.setattr(cli, "train", fit)
    with pytest.raises(Built):
        run("train", "--data", data, "--variant", "model2", "--out", out, *flags)
    return built


def test_train_flags_reach_their_config_fields(untrained, tmp_path, monkeypatch):
    data, out = untrained[0], tmp_path / "m2.ckpt"
    train_fields = {f.name for f in fields(TrainConfig)}
    assert {name for name, _ in TRAIN_CONFIG_FLAGS.values()} == (
        train_fields | {f.name for f in fields(ModelConfig)}) - {"vocab_size", "feature_dim"}

    defaults = ModelConfig(vocab_size=len(Vocabulary.load(data / "vocab.txt")), feature_dim=16)
    built = _built_configs(monkeypatch, data, out)
    assert built["config"] == defaults
    assert built["tcfg"] == TrainConfig()
    assert built["seed"] == TrainConfig().seed

    flags = [a for flag, (_, value) in TRAIN_CONFIG_FLAGS.items() for a in (flag, value)]
    built = _built_configs(monkeypatch, data, out, *flags)
    for flag, (name, value) in TRAIN_CONFIG_FLAGS.items():
        config = built["tcfg"] if name in train_fields else built["config"]
        default = TrainConfig() if name in train_fields else defaults
        assert getattr(config, name) == value != getattr(default, name), flag
    assert built["seed"] == TRAIN_CONFIG_FLAGS["--seed"][1]


def test_flags_left_out_fall_back_to_the_library_defaults(untrained, tmp_path, monkeypatch):
    # synth-data writes what synth_dataset writes with its own defaults
    given, library = tmp_path / "cli", tmp_path / "api"
    assert run("synth-data", "--seed", 3, "--n-images", 12, "--out", given) == 0
    save_dataset(synth_dataset(3, 12), library)
    names = sorted(path.name for path in library.iterdir())
    assert sorted(path.name for path in given.iterdir()) == names
    for name in names:
        assert (given / name).read_bytes() == (library / name).read_bytes(), name

    # build-vocab keeps what build_vocab keeps, over words seen 1 to 6 times, so
    # that any other min count keeps another set of them
    ds = load_dataset(library)
    ds.split("train")[0].comments.append(" ".join(f"w{n}" for n in range(1, 7) for _ in range(n)))
    save_dataset(ds, given)
    assert run("build-vocab", "--data", given) == 0
    build_vocab([tokenize(c) for ex in ds.split("train") for c in ex.comments]).save(
        library / "vocab.txt")
    assert (given / "vocab.txt").read_bytes() == (library / "vocab.txt").read_bytes()

    # evaluate and generate decode at BEAM_SIZE
    assert inference.BEAM_SIZE == 20
    beams = []

    def search(*args, **kwargs):
        bound = inspect.signature(inference.beam_search).bind(*args, **kwargs)
        bound.apply_defaults()
        beams.append(bound.arguments["beam_size"])
        return inference.beam_search(*args, **kwargs)

    monkeypatch.setattr(cli, "beam_search", search)
    data, ckpt = untrained
    assert run("evaluate", "--data", data, "--ckpt", ckpt, "--report", tmp_path / "r.json") == 0
    evaluated = len(beams)
    assert run("generate", "--ckpt", ckpt, "--features", data / "features.bin",
               "--vocab", data / "vocab.txt", "--out", tmp_path / "g.txt") == 0
    assert 0 < evaluated < len(beams)
    assert set(beams) == {inference.BEAM_SIZE}
