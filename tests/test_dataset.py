import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reviewnet import oracles
from reviewnet.dataset import (END_ID, FEATURES_MAGIC, PAD_ID, RESERVED_TOKENS,
                               START_ID, UNK_ID, Label, Vocabulary,
                               build_vocab, label_from_score, load_dataset,
                               read_payload, save_dataset, synth_dataset, tokenize)
from reviewnet.errors import ConfigError, DataError


# ---------------------------------------------------------------------------
# labeling


def test_reported_low_scores_label_low():
    for score in (3.4, 3.7, 4.2):
        assert label_from_score(score) is Label.LOW


def test_reported_high_scores_label_high():
    for score in (5.5, 5.6, 5.9, 6.08, 6.1):
        assert label_from_score(score) is Label.HIGH


def test_ambiguity_band_is_discarded():
    for score in (4.5, 4.8, 5.0, 5.2, 5.499):
        assert label_from_score(score) is None


def test_score_range_is_enforced():
    with pytest.raises(ValueError):
        label_from_score(0.5)
    with pytest.raises(ValueError):
        label_from_score(10.5)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1.0, max_value=10.0), st.floats(min_value=1.0, max_value=10.0))
def test_labeling_is_monotone(a, b):
    lo, hi = sorted((a, b))
    la, lb = label_from_score(lo), label_from_score(hi)
    if la is not None and lb is not None:
        assert int(la) <= int(lb)


# ---------------------------------------------------------------------------
# tokenization


def test_tokenize_separates_punctuation():
    assert tokenize("Great shot!") == ["great", "shot", "!"]


def test_tokenize_empty_string():
    assert tokenize("") == []


def test_tokenize_collapses_whitespace():
    assert tokenize("Too   noisy.") == ["too", "noisy", "."]


def test_tokenize_quotes_and_parens():
    assert tokenize('a "quoted" (aside)') == ["a", '"', "quoted", '"', "(", "aside", ")"]


# ---------------------------------------------------------------------------
# vocabulary


def test_build_vocab_threshold_at_min_count():
    corpus = [["a"] * 4, ["b"] * 3]
    vocab = build_vocab(corpus, min_count=4)
    assert vocab.id_to_token == list(RESERVED_TOKENS) + ["a"]


def test_build_vocab_empty_corpus_keeps_only_specials():
    vocab = build_vocab([], min_count=4)
    assert len(vocab) == 4
    assert vocab.id_to_token == list(RESERVED_TOKENS)


def test_build_vocab_rejects_a_negative_min_count():
    with pytest.raises(ConfigError, match="min_count must be >= 0, got -1"):
        build_vocab([["a"]], min_count=-1)
    assert build_vocab([["a"]], min_count=0).id_to_token == list(RESERVED_TOKENS) + ["a"]


def test_build_vocab_orders_by_count_then_lexicographic():
    corpus = [["b"] * 5 + ["c"] * 5 + ["a"] * 7]
    vocab = build_vocab(corpus, min_count=4)
    assert vocab.id_to_token[4:] == ["a", "b", "c"]


def test_reserved_ids_are_pinned():
    assert (PAD_ID, START_ID, END_ID, UNK_ID) == (0, 1, 2, 3)


def test_vocab_encode_maps_oov_to_unk():
    vocab = build_vocab([["great", "shot"] * 4], min_count=4)
    assert vocab.encode(["great", "shot"]) == [vocab.token_to_id["great"],
                                               vocab.token_to_id["shot"]]
    assert vocab.encode(["zebra"]) == [UNK_ID]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "c", "dd", "!"]), max_size=12))
def test_encode_decode_roundtrip_with_unk(tokens):
    vocab = build_vocab([["a", "b"] * 4], min_count=4)
    decoded = vocab.decode(vocab.encode(tokens))
    expected = [t if t in ("a", "b") else "<UNK>" for t in tokens]
    assert decoded == expected


def test_vocab_file_roundtrip(tmp_path):
    vocab = build_vocab([["great", "shot", "!"] * 4], min_count=4)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    lines = path.read_text().splitlines()
    assert lines[:4] == list(RESERVED_TOKENS)
    loaded = Vocabulary.load(path)
    assert loaded.id_to_token == vocab.id_to_token


def test_vocab_rejects_bad_header(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("a\nb\nc\nd\n")
    with pytest.raises(DataError):
        Vocabulary.load(path)


# ---------------------------------------------------------------------------
# synthetic generator


def test_synth_is_deterministic(tmp_path):
    for sub in ("one", "two"):
        save_dataset(synth_dataset(7, 10), tmp_path / sub)
    for name in ("manifest.jsonl", "features.bin"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_synth_is_class_balanced():
    ds = synth_dataset(3, 10)
    labels = [ex.label for ex in ds.examples]
    assert labels.count(Label.LOW) == 5 and labels.count(Label.HIGH) == 5


def test_synth_requires_even_count():
    with pytest.raises(ConfigError):
        synth_dataset(0, 7)
    with pytest.raises(ConfigError):
        synth_dataset(0, 0)


def test_synth_splits_are_disjoint_and_cover():
    ds = synth_dataset(5, 40)
    ids = {name: {ex.example_id for ex in ds.split(name)} for name in ("train", "valid", "test")}
    assert ids["train"] | ids["valid"] | ids["test"] == {ex.example_id for ex in ds.examples}
    assert not (ids["train"] & ids["valid"]) and not (ids["train"] & ids["test"])
    assert not (ids["valid"] & ids["test"])


def test_synth_labels_never_fall_in_discard_band():
    ds = synth_dataset(11, 30)
    for ex in ds.examples:
        assert label_from_score(ex.score) is ex.label


def test_synth_features_are_linearly_separable():
    ds = synth_dataset(13, 20)
    train = ds.split("train")
    feats = np.stack([ex.features for ex in train])
    labels = np.array([int(ex.label) for ex in train])
    assert oracles.lda_probe_accuracy(feats, labels) == 1.0


def test_synth_comments_mirror_six_per_image():
    ds = synth_dataset(2, 8)
    for ex in ds.examples:
        assert len(ex.comments) == 6


def test_synth_images_modality():
    ds = synth_dataset(4, 6, modality="images")
    for ex in ds.examples:
        assert ex.image.shape == (3, 32, 32)
        assert ex.image.min() >= 0.0 and ex.image.max() <= 1.0


# ---------------------------------------------------------------------------
# file formats


def test_dataset_roundtrip(tmp_path):
    ds = synth_dataset(21, 12, feature_dim=9)
    save_dataset(ds, tmp_path)
    loaded = load_dataset(tmp_path)
    assert loaded.modality == "features"
    assert loaded.feature_dim == 9
    for a, b in zip(ds.examples, loaded.examples):
        assert a.example_id == b.example_id
        assert a.score == b.score and a.label == b.label and a.split == b.split
        assert a.comments == b.comments
        assert np.array_equal(a.features, b.features)


def test_images_dataset_roundtrip(tmp_path):
    ds = synth_dataset(22, 6, modality="images")
    save_dataset(ds, tmp_path)
    loaded = load_dataset(tmp_path)
    assert loaded.modality == "images"
    for a, b in zip(ds.examples, loaded.examples):
        assert np.array_equal(a.image, b.image)


@pytest.mark.parametrize("failing_write", ["manifest", "payload", "vocab"])
def test_dataset_write_failing_midway_keeps_previous_files(tmp_path, monkeypatch, failing_write):
    import os

    save_dataset(synth_dataset(21, 12, feature_dim=9), tmp_path)
    Vocabulary(list(RESERVED_TOKENS) + ["sky"]).save(tmp_path / "vocab.txt")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    synced = []

    def fsync(fd):  # the manifest is synced first, then the payload
        synced.append(fd)
        if len(synced) == (2 if failing_write == "payload" else 1):
            raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", fsync)
    with pytest.raises(OSError, match="disk full"):
        if failing_write == "vocab":
            Vocabulary(list(RESERVED_TOKENS) + ["sea"]).save(tmp_path / "vocab.txt")
        else:
            save_dataset(synth_dataset(22, 6, modality="images"), tmp_path)
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(after) == sorted(before)
    # a replaced manifest is the one file a failed payload write leaves changed
    replaced = {"manifest.jsonl"} if failing_write == "payload" else set()
    assert {name for name in before if after[name] != before[name]} == replaced


def test_features_bin_magic_and_layout(tmp_path):
    ds = synth_dataset(1, 4, feature_dim=5)
    save_dataset(ds, tmp_path)
    raw = (tmp_path / "features.bin").read_bytes()
    assert raw[:6] == FEATURES_MAGIC == b"NAIRF1"
    count = int.from_bytes(raw[6:10], "little")
    dim = int.from_bytes(raw[10:14], "little")
    assert (count, dim) == (4, 5)
    assert len(raw) == 14 + count * dim * 8


def test_read_features_bin_rejects_garbage(tmp_path):
    path = tmp_path / "features.bin"
    for garbage in (b"NOPE" + b"\x00" * 20, FEATURES_MAGIC + b"\x01"):
        path.write_bytes(garbage)
        with pytest.raises(DataError):
            read_payload(path, FEATURES_MAGIC)


def test_load_rejects_label_score_mismatch(tmp_path):
    ds = synth_dataset(2, 4)
    save_dataset(ds, tmp_path)
    manifest = tmp_path / "manifest.jsonl"
    lines = manifest.read_text().splitlines()
    obj = json.loads(lines[0])
    obj["label"] = "high" if obj["label"] == "low" else "low"
    lines[0] = json.dumps(obj)
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="inconsistent"):
        load_dataset(tmp_path)


def test_load_rejects_duplicate_ids(tmp_path):
    ds = synth_dataset(2, 4)
    ds.examples[2].example_id = ds.examples[0].example_id
    save_dataset(ds, tmp_path)
    with pytest.raises(DataError, match="duplicate example id"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("modality", ["features", "images"])
def test_load_rejects_non_finite_payload(tmp_path, modality):
    ds = synth_dataset(2, 4, modality=modality)
    ds.examples[1].inputs().flat[3] = np.inf
    save_dataset(ds, tmp_path)
    with pytest.raises(DataError, match="non-finite"):
        load_dataset(tmp_path)


def _assert_line_2_rejected(tmp_path, field, value):
    """Saves a small dataset, sets ``field`` of its second manifest line to
    ``value`` and checks that loading names that line."""
    save_dataset(synth_dataset(2, 4), tmp_path)
    manifest = tmp_path / "manifest.jsonl"
    lines = manifest.read_text().splitlines()
    obj = json.loads(lines[1])
    obj[field] = value
    lines[1] = json.dumps(obj)
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=r"manifest\.jsonl:2: "):
        load_dataset(tmp_path)


@pytest.mark.parametrize("comments", ["great colors and sharp focus .", [], 7, [7]],
                         ids=["string", "empty", "number", "number-in-list"])
def test_load_rejects_malformed_comments(tmp_path, comments):
    _assert_line_2_rejected(tmp_path, "comments", comments)


@pytest.mark.parametrize("score", [11.0, "abc", float("nan")],
                         ids=["out-of-range", "text", "nan"])
def test_load_rejects_bad_score(tmp_path, score):
    _assert_line_2_rejected(tmp_path, "score", score)


def test_load_rejects_missing_payload(tmp_path):
    ds = synth_dataset(2, 4)
    save_dataset(ds, tmp_path)
    (tmp_path / "features.bin").unlink()
    with pytest.raises(DataError):
        load_dataset(tmp_path)


def test_load_rejects_empty_manifest(tmp_path):
    (tmp_path / "manifest.jsonl").write_text("\n")
    (tmp_path / "features.bin").write_bytes(FEATURES_MAGIC + struct.pack("<II", 0, 16))
    with pytest.raises(DataError, match="no examples"):
        load_dataset(tmp_path)
