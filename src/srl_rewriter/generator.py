"""Synthetic dialogue corpus with mechanically derived gold annotations.

Each session is three turns: A introduces a topic X, B asks whether X relates
to Y, and A answers with a verdict verb whose argument slots may be omitted or
pronominalized.  The reference rewrite restores every mention in place, so the
task is exactly coreference and omission resolution.  Gold triples point at
the realized mention when the slot survives in the last turn and at the
nearest earlier mention otherwise, which keeps the annotation lint clean and
lets the rule extractor recover the last-turn triples exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .core import (
    DialogueSession,
    PATriple,
    RewriteExample,
    RewriterError,
    SemanticRole,
    Span,
    Speaker,
    Utterance,
)
from .seeding import substream


@dataclass(frozen=True)
class Lexicon:
    """Word lists for one token mode; char mode splits every word into
    single-character tokens, word mode keeps words whole."""

    entities: tuple[str, ...]
    verbs: tuple[str, ...]
    relation: str
    negation: str
    intro: tuple[str, ...]
    question: str
    final: str
    pronoun: str
    tmp_words: tuple[str, ...]
    loc_words: tuple[str, ...]
    char_tokens: bool

    def tokens_of(self, word: str) -> tuple[str, ...]:
        return tuple(word) if self.char_tokens else (word,)

    @staticmethod
    def chinese() -> "Lexicon":
        return Lexicon(
            entities=(
                "粤语", "普通话", "咖啡", "绿茶", "苹果", "香蕉", "足球", "篮球", "诗歌",
                "汽车", "单车", "大海", "湖水", "老虎", "猫咪", "电影", "音乐",
            ),
            verbs=("算", "是", "像", "叫"),
            relation="是",
            negation="不",
            intro=("说到", "关于"),
            question="吗",
            final="吧",
            pronoun="它",
            tmp_words=("今天", "昨天"),
            loc_words=("家里", "外面"),
            char_tokens=True,
        )

    @staticmethod
    def words() -> "Lexicon":
        return Lexicon(
            entities=(
                "tea", "coffee", "jazz", "rock", "soccer", "tennis", "cats", "dogs",
                "novels", "poems", "cars", "bikes", "lakes", "rivers", "owls", "crows",
            ),
            verbs=("is", "seems", "counts", "sounds"),
            relation="is",
            negation="not",
            intro=("about", "regarding"),
            question="right",
            final="then",
            pronoun="it",
            tmp_words=("today", "yesterday"),
            loc_words=("indoors", "outdoors"),
            char_tokens=False,
        )


class SlotMode(enum.Enum):
    FULL = "full"
    OMIT = "omit"
    PRONOUN = "pronoun"


TOKEN_MODES = ("char", "word")

# the roles of turn 3's words 1 to 3: tmp, loc and neg, whose triple is written on request
_ADJUNCTS = (SemanticRole.AM_TMP, SemanticRole.AM_LOC, SemanticRole.AM_NEG)


@dataclass(frozen=True)
class GeneratorConfig:
    n_sessions: int = 1000
    seed: int = 0
    token_mode: str = field(default="char", metadata={"choices": TOKEN_MODES})
    cross_turn_rate: float = 0.3
    omission_rate: float = 0.5
    pronoun_rate: float = 0.5
    neg_rate: float = 0.25
    tmp_rate: float = 0.0
    loc_rate: float = 0.0
    include_negation_triples: bool = False

    def __post_init__(self):
        if self.n_sessions < 1:
            raise RewriterError("CONFIG_INVALID", "n_sessions must be >= 1")
        if self.token_mode not in TOKEN_MODES:
            raise RewriterError("CONFIG_INVALID", f"unknown token_mode {self.token_mode!r}")
        for name in ("cross_turn_rate", "omission_rate", "pronoun_rate", "neg_rate",
                     "tmp_rate", "loc_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise RewriterError("CONFIG_INVALID", f"{name} {value} outside [0, 1]")

    @property
    def lexicon(self) -> Lexicon:
        return Lexicon.chinese() if self.token_mode == "char" else Lexicon.words()

    @property
    def effective_alteration_rate(self) -> float:
        """Probability an argument slot of the last turn loses its mention.

        With both the omission and pronoun weights at zero there is nothing to
        alter a slot into, so the rate collapses to zero regardless of
        cross_turn_rate and references equal the last turn verbatim.
        """
        if self.omission_rate + self.pronoun_rate == 0.0:
            return 0.0
        return self.cross_turn_rate

    @property
    def pronoun_share(self) -> float:
        weight = self.omission_rate + self.pronoun_rate
        return self.pronoun_rate / weight if weight > 0 else 0.0


def build_session(
    lex: Lexicon,
    x: str,
    y: str,
    verb: str,
    negated: bool,
    x_mode: SlotMode,
    y_mode: SlotMode,
    intro: Optional[str] = None,
    tmp: Optional[str] = None,
    loc: Optional[str] = None,
    include_negation_triples: bool = False,
) -> RewriteExample:
    """Deterministic single-session constructor; the sampler draws its inputs.

    Turn 1 (A): intro ++ X.  Turn 2 (B): X ++ relation ++ Y ++ question.
    Turn 3 (A): [X][tmp][loc][neg?+verb][Y][final] with the X/Y slots realized,
    omitted, or replaced by the pronoun per the slot modes.
    """
    if x == y:
        raise RewriterError("CONFIG_INVALID", "topic entities must differ")
    intro = intro if intro is not None else lex.intro[0]

    turn1 = lex.tokens_of(intro) + lex.tokens_of(x)
    x_t2 = lex.tokens_of(x)
    y_t2 = lex.tokens_of(y)
    turn2 = x_t2 + lex.tokens_of(lex.relation) + y_t2 + lex.tokens_of(lex.question)
    x_span_t2 = Span(1, 0, len(x_t2))
    y_start = len(x_t2) + len(lex.tokens_of(lex.relation))
    y_span_t2 = Span(1, y_start, y_start + len(y_t2))

    # turn 3's words [X][tmp][loc][neg][verb][Y][final]; the reference realizes every slot
    words = (x, tmp, loc, lex.negation if negated else None, verb, y, lex.final)
    full = [lex.tokens_of(word) if word is not None else () for word in words]
    turn3 = full.copy()
    for i, mode in ((0, x_mode), (5, y_mode)):  # an altered slot is omitted or a pronoun
        if mode is not SlotMode.FULL:
            turn3[i] = lex.tokens_of(lex.pronoun) if mode is SlotMode.PRONOUN else ()
    tokens: tuple[str, ...] = ()
    bounds = [0]  # turn 3's token count before each word and after the last
    for part in turn3:
        tokens += part
        bounds.append(len(tokens))

    pred = Span(2, bounds[3], bounds[5])
    x_arg = Span(2, 0, bounds[1]) if x_mode is SlotMode.FULL else x_span_t2
    y_arg = Span(2, bounds[5], bounds[6]) if y_mode is SlotMode.FULL else y_span_t2
    triples = [PATriple(pred, SemanticRole.ARG0, x_arg), PATriple(pred, SemanticRole.ARG1, y_arg)]
    for i, role in enumerate(_ADJUNCTS[: 2 + include_negation_triples], start=1):
        if words[i] is not None:
            triples.append(PATriple(pred, role, Span(2, bounds[i], bounds[i + 1])))

    session = DialogueSession(
        utterances=(
            Utterance(tokens=turn1, speaker=Speaker.A),
            Utterance(tokens=turn2, speaker=Speaker.B),
            Utterance(tokens=tokens, speaker=Speaker.A),
        )
    )
    return RewriteExample(session=session, triples=tuple(triples), reference=sum(full, ()))


def sample_corpus(config: GeneratorConfig) -> list[RewriteExample]:
    """Draw n_sessions examples; the draw sequence is part of the format, so a
    given (seed, config) pair always yields the same corpus."""
    lex = config.lexicon
    rng = substream(config.seed, "corpus")
    alpha = config.effective_alteration_rate
    examples = []
    for _ in range(config.n_sessions):
        ent_idx = rng.choice(len(lex.entities), size=2, replace=False)
        x, y = lex.entities[int(ent_idx[0])], lex.entities[int(ent_idx[1])]
        intro = lex.intro[int(rng.integers(len(lex.intro)))]
        verb = lex.verbs[int(rng.integers(len(lex.verbs)))]
        negated = bool(rng.random() < config.neg_rate)
        tmp = lex.tmp_words[int(rng.integers(len(lex.tmp_words)))] if rng.random() < config.tmp_rate else None
        loc = lex.loc_words[int(rng.integers(len(lex.loc_words)))] if rng.random() < config.loc_rate else None

        modes = []
        for _slot in range(2):
            if rng.random() < alpha:
                modes.append(
                    SlotMode.PRONOUN if rng.random() < config.pronoun_share else SlotMode.OMIT
                )
            else:
                modes.append(SlotMode.FULL)
        examples.append(
            build_session(
                lex, x, y, verb, negated, modes[0], modes[1],
                intro=intro, tmp=tmp, loc=loc,
                include_negation_triples=config.include_negation_triples,
            )
        )
    return examples


def split_corpus(
    examples: Sequence[RewriteExample],
) -> tuple[list[RewriteExample], list[RewriteExample], list[RewriteExample]]:
    """80/10/10 contiguous split; sessions are i.i.d. so no shuffle is needed."""
    n = len(examples)
    if n < 3:
        raise RewriterError("EMPTY_CORPUS", "need at least 3 examples to split")
    n_eval = max(1, n // 10)
    train = list(examples[: n - 2 * n_eval])
    dev = list(examples[n - 2 * n_eval : n - n_eval])
    test = list(examples[n - n_eval :])
    return train, dev, test
