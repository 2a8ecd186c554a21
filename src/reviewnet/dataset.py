"""Dataset construction: tokenization, vocabulary, score labeling, synthetic data.

On-disk layout of a dataset directory:

- ``manifest.jsonl``: one object per example with keys id, score, label
  ("low"/"high"), split ("train"/"valid"/"test"), comments (raw strings).
- ``features.bin``: magic ``NAIRF1``, u32 count, u32 dim, then count*dim
  little-endian float64 values in manifest order. Image datasets carry
  ``images.bin`` instead: magic ``NAIRI1``, u32 count, u32 dims 3, 32, 32,
  float64 payload in [0, 1]. Exactly one of the two files is present.
- ``vocab.txt``: one token per line, the line number is the id, the first
  four lines are the reserved specials.
"""

from __future__ import annotations

import json
import math
import os
import struct
import uuid
from collections import Counter
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

PAD_ID, START_ID, END_ID, UNK_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("<PAD>", "<START>", "<END>", "<UNK>")
MAX_CAPTION_LEN = 30  # tokens per caption in training and decoding, END included when decoding
# scores within LABEL_PIVOT +/- LABEL_DELTA are ambiguous and get discarded
LABEL_PIVOT = 5.0
LABEL_DELTA = 0.5

FEATURES_MAGIC = b"NAIRF1"
IMAGES_MAGIC = b"NAIRI1"
_MAGICS = {"features": FEATURES_MAGIC, "images": IMAGES_MAGIC}  # modality: its payload's magic
IMAGE_SHAPE = (3, 32, 32)

SPLITS = ("train", "valid", "test")

_PUNCT = ".,!?;:'\"()"


def write_atomic(path: str | Path, data: bytes | bytearray) -> None:
    """Replace the file at ``path`` with ``data`` in one step.

    The bytes go to a temporary file in the same directory, which is synced
    to disk and then renamed over ``path``, so a write that fails midway
    leaves the previous file as it was and no temporary file behind.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        fh = open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb")
        try:
            with fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        # the same error class, naming the caller's path instead of the temporary file
        raise type(exc)(f"cannot write {path}: {exc.strerror or exc}") from exc


class Label(IntEnum):
    LOW = 0
    HIGH = 1


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, and detach basic punctuation marks."""
    text = text.lower()
    for ch in _PUNCT:
        text = text.replace(ch, f" {ch} ")
    return text.split()


def label_from_score(score: float) -> Label | None:
    """Low below LABEL_PIVOT - LABEL_DELTA, High at or above LABEL_PIVOT +
    LABEL_DELTA, None (ambiguous, discarded) in between."""
    score = float(score)
    if not 1.0 <= score <= 10.0:
        raise ValueError(f"score {score} outside the valid range [1, 10]")
    if score < LABEL_PIVOT - LABEL_DELTA:
        return Label.LOW
    if score >= LABEL_PIVOT + LABEL_DELTA:
        return Label.HIGH
    return None


class Vocabulary:
    """Token/id bijection with the four reserved specials pinned at ids 0..3.

    Non-reserved ids are assigned by descending corpus count with ties broken
    lexicographically, so the numbering is stable across runs.
    """

    def __init__(self, tokens: list[str]):
        if tuple(tokens[:4]) != RESERVED_TOKENS:
            raise DataError(f"vocabulary must start with the reserved specials {RESERVED_TOKENS}")
        self.id_to_token = list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.token_to_id.get(t, UNK_ID) for t in tokens]

    def decode(self, ids: list[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    def save(self, path: str | Path) -> None:
        write_atomic(path, ("\n".join(self.id_to_token) + "\n").encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        path = Path(path)
        if not path.exists():
            raise DataError(f"vocabulary file not found: {path}")
        try:
            return cls(path.read_text(encoding="utf-8").splitlines())
        except ValueError as exc:  # a byte that is not UTF-8, or a bad header or duplicate
            raise DataError(f"{path}: {exc}") from None


def build_vocab(corpus: list[list[str]], min_count: int = 4) -> Vocabulary:
    """Keep exactly the tokens appearing at least ``min_count`` times; a
    negative count is a ``ConfigError``."""
    if min_count < 0:
        raise ConfigError(f"min_count must be >= 0, got {min_count}")
    counts: Counter[str] = Counter()
    for tokens in corpus:
        counts.update(tokens)
    kept = [t for t, c in counts.items() if c >= min_count and t not in RESERVED_TOKENS]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(list(RESERVED_TOKENS) + kept)


@dataclass
class ReviewExample:
    example_id: str
    score: float
    label: Label
    split: str
    comments: list[str]
    inputs: np.ndarray | None = None  # a feature vector or an image, as the dataset's modality


@dataclass
class ReviewDataset:
    examples: list[ReviewExample]
    modality: str  # "features" or "images"
    vocab: Vocabulary | None = None

    def split(self, name: str) -> list[ReviewExample]:
        if name == "all":
            return list(self.examples)
        if name not in SPLITS:
            raise ConfigError(f"unknown split {name!r}; expected one of {SPLITS} or 'all'")
        return [ex for ex in self.examples if ex.split == name]

    @property
    def feature_dim(self) -> int:
        if self.modality != "features":
            raise ConfigError("feature_dim is only defined for feature datasets")
        return self.examples[0].inputs.shape[0]


# ---------------------------------------------------------------------------
# synthetic generator

HIGH_TEMPLATES = (
    "great colors and sharp focus .",
    "wonderful composition and lovely lighting .",
    "fantastic detail , very sharp capture .",
    "beautiful tones with great depth .",
    "excellent focus and vivid colors .",
    "superb lighting , nicely composed shot .",
)

LOW_TEMPLATES = (
    "too blurry and very noisy .",
    "the focus is too soft here .",
    "dull colors and poor lighting .",
    "the composition is a bit off .",
    "too dark and out of focus .",
    "the image is too small .",
)

COMMENTS_PER_IMAGE = 6
FEATURE_NOISE = 1.0  # standard deviation of the per-image feature noise
# synth_dataset's bounds: 1 GiB of float64 inputs, and 20x AVA-Reviews' 52,118 images
MAX_SYNTH_VALUES, MAX_SYNTH_IMAGES = 1 << 27, 1 << 20


def _split_sizes(per_class: int) -> tuple[int, int, int]:
    if per_class < 3:
        return per_class, 0, 0
    n_valid = max(1, round(0.1 * per_class))
    n_test = max(1, round(0.1 * per_class))
    return per_class - n_valid - n_test, n_valid, n_test


def synth_dataset(seed: int, n_images: int, *, feature_dim: int = 16,
                  modality: str = "features",
                  templates: tuple[tuple[str, ...], tuple[str, ...]] | None = None) -> ReviewDataset:
    """Deterministic class-balanced toy dataset.

    Features are class-conditional Gaussians (means at -1 and +1 per
    dimension); the per-image noise keeps classes linearly separable while
    giving each image a signature the caption decoder can latch onto. Every
    image carries six identical comments drawn round-robin from its class
    template list, and splits are roughly 80/10/10 per class.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if n_images < 2 or n_images % 2:
        raise ConfigError(f"n_images must be an even number >= 2, got {n_images}")
    if feature_dim < 1:
        raise ConfigError(f"feature_dim must be >= 1, got {feature_dim}")
    if modality not in ("features", "images"):
        raise ConfigError(f"modality must be 'features' or 'images', got {modality!r}")
    width = feature_dim if modality == "features" else math.prod(IMAGE_SHAPE)
    if n_images > MAX_SYNTH_IMAGES or n_images * width > MAX_SYNTH_VALUES:
        raise ConfigError(f"{n_images} images of {width} values exceed the bounds of "
                          f"{MAX_SYNTH_IMAGES} images and {MAX_SYNTH_VALUES} values")
    low_templates, high_templates = templates or (LOW_TEMPLATES, HIGH_TEMPLATES)
    rng = np.random.default_rng(seed)
    per_class = n_images // 2

    # the classes alternate: example k is number k // 2 of class k % 2
    examples: list[ReviewExample] = []
    for k in range(n_images):
        label, pos = Label(k % 2), k // 2
        if label is Label.LOW:
            score = float(rng.uniform(2.0, LABEL_PIVOT - LABEL_DELTA - 0.1))
            template = low_templates[pos % len(low_templates)]
        else:
            score = float(rng.uniform(LABEL_PIVOT + LABEL_DELTA + 0.1, 9.0))
            template = high_templates[pos % len(high_templates)]
        sign = -1.0 if label is Label.LOW else 1.0
        ex = ReviewExample(
            example_id=f"img{k:04d}",
            score=round(score, 3),
            label=label,
            split="train",
            comments=[template] * COMMENTS_PER_IMAGE,
        )
        if modality == "features":
            ex.inputs = sign + rng.normal(0.0, FEATURE_NOISE, size=feature_dim)
        else:
            base = 0.3 if label is Label.LOW else 0.7
            ex.inputs = np.clip(base + rng.normal(0.0, 0.08, size=IMAGE_SHAPE), 0.0, 1.0)
        examples.append(ex)

    n_train, n_valid, n_test = _split_sizes(per_class)
    splits = ["train"] * n_train + ["valid"] * n_valid + ["test"] * n_test
    for label in (Label.LOW, Label.HIGH):
        for pos, split in zip(rng.permutation(per_class), splits):
            examples[2 * pos + label].split = split

    return ReviewDataset(examples=examples, modality=modality)


# ---------------------------------------------------------------------------
# file io


def save_dataset(ds: ReviewDataset, out_dir: str | Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for ex in ds.examples:
        lines.append(json.dumps({
            "id": ex.example_id,
            "score": ex.score,
            "label": "low" if ex.label is Label.LOW else "high",
            "split": ex.split,
            "comments": ex.comments,
        }))
    write_atomic(out_dir / "manifest.jsonl", ("\n".join(lines) + "\n").encode("utf-8"))

    payload = np.stack([ex.inputs for ex in ds.examples]).astype("<f8")
    header = _MAGICS[ds.modality] + struct.pack(f"<{payload.ndim}I", *payload.shape)
    write_atomic(out_dir / f"{ds.modality}.bin", header + payload.tobytes())
    # exactly one payload file may exist; the other kind goes only once the new one is in place
    other = "images" if ds.modality == "features" else "features"
    (out_dir / f"{other}.bin").unlink(missing_ok=True)


def read_payload(path: str | Path) -> tuple[str, np.ndarray]:
    """The modality, named by the magic, and the rows of a ``features.bin``
    or ``images.bin`` file; every value must be finite."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"payload file not found: {path}")
    raw = path.read_bytes()
    modality = next((name for name, magic in _MAGICS.items() if raw.startswith(magic)), None)
    if modality is None:
        raise DataError(f"{path} starts with neither {FEATURES_MAGIC!r} nor {IMAGES_MAGIC!r}")
    magic = _MAGICS[modality]
    rank = 2 if modality == "features" else 1 + len(IMAGE_SHAPE)
    offset = len(magic) + 4 * rank
    if len(raw) < offset:
        raise DataError(f"{path}: truncated header")
    shape = struct.unpack_from(f"<{rank}I", raw, len(magic))
    if modality == "images" and shape[1:] != IMAGE_SHAPE:
        raise DataError(f"{path}: unexpected image dims {shape[1:]}")
    if modality == "features" and shape[1] == 0:
        raise DataError(f"{path}: feature rows have zero width")
    expected = 8 * math.prod(shape)  # Python ints: 0xFFFFFFFF dims cannot wrap
    if len(raw) - offset != expected:
        raise DataError(f"{path}: expected {expected} payload bytes, found {len(raw) - offset}")
    payload = np.frombuffer(raw, dtype="<f8", offset=offset).reshape(shape).copy()
    if not np.isfinite(payload).all():
        raise DataError(f"{path}: payload contains non-finite values")
    return modality, payload


def load_dataset(data_dir: str | Path) -> ReviewDataset:
    data_dir = Path(data_dir)
    manifest = data_dir / "manifest.jsonl"
    if not manifest.exists():
        raise DataError(f"manifest not found: {manifest}")

    features_path = data_dir / "features.bin"
    images_path = data_dir / "images.bin"
    if features_path.exists() == images_path.exists():
        raise DataError(f"{data_dir} must contain exactly one of features.bin or images.bin")
    payload_path = features_path if features_path.exists() else images_path
    modality, payload = read_payload(payload_path)
    if payload_path.stem != modality:
        raise DataError(f"{payload_path}: holds {modality}, not {payload_path.stem}")

    raw = manifest.read_bytes()
    try:
        # JSON Lines ends a record only at "\n", where str.splitlines() also
        # breaks at U+2028, U+2029, U+0085 and others that a JSON string may hold
        lines = raw.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{manifest}:{line}: {exc}") from None
    examples: list[ReviewExample] = []
    seen_ids: set[str] = set()
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
            if obj["label"] not in ("low", "high"):
                raise ValueError(f"unknown label {obj['label']!r}")
            ex = ReviewExample(
                example_id=str(obj["id"]),
                score=float(obj["score"]),
                label=Label.LOW if obj["label"] == "low" else Label.HIGH,
                split=str(obj["split"]),
                comments=obj["comments"],
            )
            if not (isinstance(ex.comments, list) and ex.comments
                    and all(isinstance(c, str) for c in ex.comments)):
                raise ValueError(f"comments must be a non-empty list of strings, "
                                 f"got {ex.comments!r}")
            if ex.example_id in seen_ids:
                raise ValueError(f"duplicate example id {ex.example_id!r}")
            if ex.split not in SPLITS:
                raise ValueError(f"unknown split {ex.split!r}")
            if label_from_score(ex.score) is not ex.label:
                raise ValueError(f"label {ex.label.name} inconsistent with score {ex.score}")
        except KeyError as exc:
            raise DataError(f"{manifest}:{lineno}: missing {exc} field") from None
        except (TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise DataError(f"{manifest}:{lineno}: {exc}") from None
        seen_ids.add(ex.example_id)
        examples.append(ex)

    if not examples:
        raise DataError(f"{manifest} lists no examples")
    if len(examples) != payload.shape[0]:
        raise DataError(
            f"{data_dir}: manifest has {len(examples)} examples but the binary payload has "
            f"{payload.shape[0]} rows")
    for ex, row in zip(examples, payload):
        ex.inputs = row

    vocab_path = data_dir / "vocab.txt"
    vocab = Vocabulary.load(vocab_path) if vocab_path.exists() else None
    return ReviewDataset(examples=examples, modality=modality, vocab=vocab)
