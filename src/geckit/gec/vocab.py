"""Token vocabulary with reserved control ids."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ..errors import ConfigError
from ..textcore import AnnotatedPair, Sentence

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
PAD_TOKEN = "<pad>"
BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"
UNK_TOKEN = "<unk>"
SPECIALS = (PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN)


class Vocab:
    """Immutable token table; ids 0..3 are PAD/BOS/EOS/UNK."""

    def __init__(self, tokens: Sequence[str]):
        if tuple(tokens[:4]) != SPECIALS:
            raise ConfigError("vocabulary must start with the reserved control tokens")
        if len(set(tokens)) != len(tokens):
            raise ConfigError("duplicate tokens in vocabulary")
        self.tokens = tuple(tokens)
        self.index = {token: i for i, token in enumerate(self.tokens)}

    @classmethod
    def from_sentences(cls, sentences: Iterable[Sentence]) -> "Vocab":
        seen = {token for sentence in sentences for token in sentence.tokens}
        return cls(SPECIALS + tuple(sorted(seen - set(SPECIALS))))

    @classmethod
    def from_pairs(cls, pairs: Iterable[AnnotatedPair]) -> "Vocab":
        """The training vocabulary: every source and every present target."""
        return cls.from_sentences(
            s for pair in pairs for s in (pair.source, pair.target) if s is not None
        )

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, sentence: Sentence) -> list[int]:
        return [self.index.get(token, UNK_ID) for token in sentence.tokens]

    def decode(self, ids: Iterable[int]) -> Sentence:
        tokens = tuple(self.tokens[i] for i in ids if i not in (PAD_ID, BOS_ID, EOS_ID))
        return Sentence(tokens)
