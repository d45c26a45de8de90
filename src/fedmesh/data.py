"""Corpus loading and client-shard partitioning.

Corpora are two-column CoNLL text: token, whitespace, tag; a blank line ends
a sentence.  Tags are normalized to {O, B, I} (a tag like ``B-Disease`` keeps
its prefix).  Partitioning shuffles sentence order with a seeded generator
and slices contiguously, either into equal shards or by percentage ratios.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .model import TaggedSentence, decode_entities


class CorpusFormatError(ValueError):
    """A corpus file violates the two-column format; carries the line number."""

    def __init__(self, message: str, path: str, line: int):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


@dataclass
class TaggedCorpus:
    sentences: list[TaggedSentence]

    def __len__(self) -> int:
        return len(self.sentences)


@dataclass(frozen=True)
class PartitionPlan:
    """How to split a corpus into client shards.

    mode "equal-n": n_clients near-equal shards, remainder to the first ones.
    mode "ratio": shard sizes from percentage ratios summing to 100.
    """

    mode: str
    n_clients: int
    seed: int
    ratios: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.mode not in ("equal-n", "ratio"):
            raise ConfigError(f"unknown partition mode {self.mode!r}")
        if self.n_clients < 1:
            raise ConfigError("n_clients must be >= 1")
        if self.mode == "ratio":
            if len(self.ratios) != self.n_clients:
                raise ConfigError("ratio mode needs one ratio per client")
            if any(r <= 0 for r in self.ratios):
                raise ConfigError("ratios must be positive")
            if sum(self.ratios) != 100:
                raise ConfigError(f"ratios must sum to 100, got {sum(self.ratios)}")


def _normalize_tag(tag: str) -> str | None:
    head = tag.split("-", 1)[0].upper()
    if head in ("O", "B", "I"):
        return head
    return None


def load_conll(path: str | Path) -> TaggedCorpus:
    """Parse a two-column CoNLL file; malformed lines raise with their number."""
    path = Path(path)
    sentences: list[TaggedSentence] = []
    tokens: list[str] = []
    tags: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                if tokens:
                    sentences.append(TaggedSentence(tuple(tokens), tuple(tags)))
                    tokens, tags = [], []
                continue
            cols = line.split()
            if len(cols) != 2:
                raise CorpusFormatError(
                    f"expected 2 columns, got {len(cols)}", str(path), lineno
                )
            tag = _normalize_tag(cols[1])
            if tag is None:
                raise CorpusFormatError(f"unknown tag {cols[1]!r}", str(path), lineno)
            tokens.append(cols[0])
            tags.append(tag)
    if tokens:
        sentences.append(TaggedSentence(tuple(tokens), tuple(tags)))
    return TaggedCorpus(sentences)


def save_conll(corpus: TaggedCorpus, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for sentence in corpus.sentences:
            for token, tag in zip(sentence.tokens, sentence.tags):
                fh.write(f"{token} {tag}\n")
            fh.write("\n")


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def shard_sizes(n_sentences: int, plan: PartitionPlan) -> list[int]:
    """Shard sizes implied by a plan; the last ratio shard absorbs residue."""
    if plan.mode == "equal-n":
        base, rem = divmod(n_sentences, plan.n_clients)
        return [base + (1 if i < rem else 0) for i in range(plan.n_clients)]
    sizes = [_round_half_up(r * n_sentences / 100) for r in plan.ratios[:-1]]
    sizes.append(n_sentences - sum(sizes))
    if any(s < 0 for s in sizes):
        raise ConfigError("ratio rounding produced a negative shard size")
    return sizes


def partition(corpus: TaggedCorpus, plan: PartitionPlan) -> list[list[TaggedSentence]]:
    """Seeded shuffle then contiguous slicing into disjoint covering shards."""
    n = len(corpus.sentences)
    if plan.n_clients > n:
        raise ConfigError(f"cannot split {n} sentences into {plan.n_clients} shards")
    order = np.random.Generator(np.random.PCG64(plan.seed)).permutation(n)
    shuffled = [corpus.sentences[i] for i in order]
    shards: list[list[TaggedSentence]] = []
    offset = 0
    for size in shard_sizes(n, plan):
        shards.append(shuffled[offset:offset + size])
        offset += size
    return shards


def corpus_stats(corpus: TaggedCorpus) -> dict[str, int]:
    """Sentence/token/entity counts, e.g. for golden-stats files."""
    entities = sum(len(decode_entities(s.tags)) for s in corpus.sentences)
    return {
        "sentences": len(corpus.sentences),
        "tokens": sum(len(s) for s in corpus.sentences),
        "entities": entities,
    }


# --- bundled synthetic clinical corpus -------------------------------------
#
# The real corpus used in our experiments is not redistributable here, so the
# repo ships a deterministic generator producing clinical-note-like sentences
# with disease mentions.  Morphology (latinate stems + suffixes) gives the
# character n-grams real signal; entity-initial modifiers make the
# previous-token features matter for B-vs-I decisions.

_STEMS = [
    "nephr", "hepat", "cardi", "derm", "neur", "gastr", "arthr", "bronch",
    "cyst", "encephal", "fibr", "gingiv", "kerat", "laryng", "mening",
    "myel", "oste", "pancreat", "pharyng", "rhin", "sinus", "splen",
    "thromb", "vascul", "retin", "colit", "pulmon", "glomerul",
]
_SUFFIXES = ["itis", "oma", "osis", "opathy", "emia", "algia", "ectasia"]
_MODIFIERS = ["acute", "chronic", "recurrent", "congenital", "severe"]
_TAILS = ["syndrome", "disease", "disorder"]

_CONTEXT = (
    "the patient was admitted with reported symptoms of and a history "
    "showing no signs worsening since last visit treatment continued under "
    "observation at discharge stable condition follow up in two weeks lab "
    "values returned within normal limits examination revealed mild "
    "tenderness on palpation medication dose adjusted accordingly family "
    "noted improvement overall vital signs remained unremarkable during "
    "stay clinical course was uneventful imaging confirmed prior findings "
    "biopsy results pending review by team"
).split()

# Untagged terms that share morphology with disease names (suffix n-grams)
# or double as entity modifiers; they keep the task honestly imperfect for
# a linear tagger instead of memorizable to F1 = 1.0.
_CONFUSABLES = (
    "diagnosis prognosis cytology serology pathology urinalysis dialysis "
    "hematocrit creatinine prophylaxis anesthesia paresthesia telemetry "
    "auscultation emesis thrombocytes cannulation acute chronic severe"
).split()


def _disease_mention(rng: random.Random) -> list[str]:
    name = rng.choice(_STEMS) + rng.choice(_SUFFIXES)
    mention = [name]
    if rng.random() < 0.35:
        mention.insert(0, rng.choice(_MODIFIERS))
    if rng.random() < 0.2:
        mention.append(rng.choice(_TAILS))
    return mention


def synthetic_corpus(n_sentences: int, seed: int) -> TaggedCorpus:
    """Generate a deterministic tagged corpus of clinical-style sentences."""
    rng = random.Random(seed)
    sentences = []
    for _ in range(n_sentences):
        tokens: list[str] = []
        tags: list[str] = []
        n_mentions = rng.choices([0, 1, 2, 3], weights=[15, 45, 30, 10])[0]
        n_chunks = n_mentions + rng.randint(1, 3)
        mention_slots = set(rng.sample(range(n_chunks), n_mentions))
        for chunk in range(n_chunks):
            if chunk in mention_slots:
                mention = _disease_mention(rng)
                tokens.extend(mention)
                tags.extend(["B"] + ["I"] * (len(mention) - 1))
            else:
                for _ in range(rng.randint(2, 7)):
                    vocab = _CONFUSABLES if rng.random() < 0.18 else _CONTEXT
                    tokens.append(rng.choice(vocab))
                    tags.append("O")
        sentences.append(TaggedSentence(tuple(tokens), tuple(tags)))
    return TaggedCorpus(sentences)
