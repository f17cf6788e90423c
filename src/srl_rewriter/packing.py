"""Sequence builder: turns (triples, context, rewrite) into one packed
self-attention input with segment ids, per-region position ids, and region
indices.

Layout is [linearized triples][context utterances + EOS each][BOS rewrite EOS].
Triple boundaries carry no separator token; the region lengths and each
token's region index hold the structure and the attention mask enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Sequence

from .core import (
    BOS_TOKEN,
    EOS_TOKEN,
    RESERVED_TOKENS,
    ROLE_TOKENS,
    PATriple,
    RewriteExample,
    RewriterError,
    record_path,
    text_lines,
)

PAD_ID, EOS_ID, BOS_ID, UNK_ID = 0, 1, 2, 3


class SegmentType(IntEnum):
    E_A = 0  # rewrite + context turns by the rewriting speaker
    E_B = 1  # context turns by the other speaker
    E_SRL = 2  # linearized triple tokens


class Vocabulary:
    """Token/id bijection with fixed structural ids and role markers first."""

    def __init__(self, tokens: Iterable[str]):
        self._tokens: list[str] = list(RESERVED_TOKENS)
        seen = set(self._tokens)
        for tok in tokens:
            if tok not in seen:
                seen.add(tok)
                self._tokens.append(tok)
        self._ids = {tok: i for i, tok in enumerate(self._tokens)}

    def __len__(self) -> int:
        return len(self._tokens)

    def token_of(self, token_id: int) -> str:
        return self._tokens[token_id]

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self._ids.get(t, UNK_ID) for t in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self._tokens[i] for i in ids]

    def save(self, path: str) -> None:
        record_path(path, written=True)
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self._tokens:
                fh.write(tok + "\n")

    @staticmethod
    def load(path: str) -> "Vocabulary":
        lines = [(n, line.rstrip("\n")) for n, line in text_lines(path) if line.rstrip("\n")]
        for (lineno, token), want in zip(lines, RESERVED_TOKENS):
            if token != want:
                raise RewriterError(
                    "VOCAB_OVERFLOW", f"{path}: line {lineno} is {token!r}, not the reserved {want!r}"
                )
        if len(lines) < len(RESERVED_TOKENS):
            raise RewriterError("VOCAB_OVERFLOW", f"{path} lacks the reserved token prefix")
        first: dict[str, int] = {}
        for lineno, token in lines:  # a repeat would shift every later token's id
            if first.setdefault(token, lineno) != lineno:
                raise RewriterError(
                    "VOCAB_OVERFLOW", f"{path}: line {lineno} repeats line {first[token]}, {token!r}"
                )
        return Vocabulary(token for _, token in lines[len(RESERVED_TOKENS) :])


def build_vocabulary(examples: Iterable[RewriteExample]) -> Vocabulary:
    """Corpus vocabulary with a deterministic (sorted) token order."""
    tokens = set()
    for example in examples:
        for utt in example.session.utterances:
            tokens.update(utt.tokens)
        tokens.update(example.reference or ())
    return Vocabulary(sorted(tokens))


@dataclass(frozen=True)
class PackedSequence:
    token_ids: tuple[int, ...]
    segment_ids: tuple[SegmentType, ...]
    position_ids: tuple[int, ...]
    region_index: tuple[int, ...]  # triple ordinal / utterance position / 0 over the rewrite
    len_z: int
    len_c: int
    len_r: int

    def __len__(self) -> int:
        return len(self.token_ids)


def pack(
    example: RewriteExample,
    triples: Sequence[PATriple],
    vocab: Vocabulary,
    include_reference: bool = True,
) -> PackedSequence:
    """Build the full training/decoding instance.

    Each triple, each context utterance (its EOS included) and the rewrite is
    one region; a triple's index is its ordinal, an utterance's its position
    in the session and the rewrite's 0.  Positions restart at 0 in every
    region, and segments are E_SRL over triples, E_A/E_B over context by
    speaker parity with the rewriting speaker and E_A over the rewrite.

    Triples are packed in the order given.  The model cannot see that order:
    every triple token has segment E_SRL and positions that restart at 0, and
    the triple mask only compares ordinals for equality.  Another order of the
    same triples only permutes whole triple runs, which no context or rewrite
    row can tell apart beyond the rounding of its attention sums.
    """
    session = example.session
    tokens: list[str] = []
    segments: list[SegmentType] = []
    positions: list[int] = []
    indices: list[int] = []

    def region(run: Sequence[str], segment: SegmentType, index: int) -> None:
        tokens.extend(run)
        segments.extend([segment] * len(run))
        positions.extend(range(len(run)))
        indices.extend([index] * len(run))

    for ordinal, triple in enumerate(triples):  # predicate ++ role marker ++ argument
        run = [*triple.predicate.slice(session), ROLE_TOKENS[triple.role]]
        region([*run, *triple.argument.slice(session)], SegmentType.E_SRL, ordinal)
    len_z = len(tokens)

    target_speaker = session.target_speaker
    for turn, utt in enumerate(session.utterances):
        segment = SegmentType.E_A if utt.speaker is target_speaker else SegmentType.E_B
        region([*utt.tokens, EOS_TOKEN], segment, turn)
    len_c = len(tokens) - len_z

    if include_reference:
        if example.reference is None:
            raise RewriterError("NO_REFERENCE", "cannot pack a reference-less example for training")
        region([BOS_TOKEN, *example.reference, EOS_TOKEN], SegmentType.E_A, 0)

    return PackedSequence(
        token_ids=tuple(vocab.encode(tokens)),
        segment_ids=tuple(segments),
        position_ids=tuple(positions),
        region_index=tuple(indices),
        len_z=len_z,
        len_c=len_c,
        len_r=len(tokens) - len_z - len_c,
    )
