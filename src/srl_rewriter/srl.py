"""Conversational SRL layer: annotation lint, corpus statistics, the micro-F1
scorer, and triple acquisition with the full/last-utterance scope switch.

The heuristic triple source reads one rule table built from both generator
lexica, so no caller has to say which lexicon a corpus was written in.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Iterable, Sequence

from .core import (
    DialogueSession,
    PATriple,
    RewriteExample,
    RewriterError,
    SemanticRole,
    Span,
)
from .generator import GeneratorConfig, Lexicon

# one-token argument surfaces that lint flags: pronouns (C2), person pronouns (C3)
_PRONOUNS = {(p,) for p in ("它", "这个", "那个", "他", "她", "it", "that", "this", "he", "she")}
_PERSON_PRONOUNS = {(p,) for p in ("我", "你", "i", "me", "you")}


class TripleMode(Enum):
    GOLD = "gold"
    HEURISTIC = "heuristic"
    NONE = "none"


class TripleScope(Enum):
    FULL_CONTEXT = "full"
    LAST_UTTERANCE_ONLY = "last"


@dataclass(frozen=True)
class TripleSource:
    mode: TripleMode
    scope: TripleScope = TripleScope.FULL_CONTEXT


# --- annotation lint --------------------------------------------------------

OK = "ok"


@dataclass(frozen=True)
class TripleLint:
    """Verdicts for one triple under criteria C1..C4; `ok` means clean."""

    c1: str = OK  # argument must not live in a future turn
    c2: str = OK  # pronoun arguments are flagged for human review
    c3: str = OK  # speaker/listener arguments must be the literal A/B token
    c4: str = OK  # among identical candidates, the one nearest the predicate wins


def _global_offsets(session: DialogueSession) -> list[int]:
    offsets = [0]
    for utt in session.utterances:
        offsets.append(offsets[-1] + len(utt.tokens))
    return offsets


def _span_distance(a: Span, b: Span, offsets: Sequence[int]) -> int:
    """Token gap between two spans in flattened session coordinates (0 if they overlap)."""
    a_start, a_end = offsets[a.turn_index] + a.start, offsets[a.turn_index] + a.end
    b_start, b_end = offsets[b.turn_index] + b.start, offsets[b.turn_index] + b.end
    if a_end <= b_start:
        return b_start - a_end
    if b_end <= a_start:
        return a_start - b_end
    return 0


def _same_surface_candidates(session: DialogueSession, surface: tuple[str, ...], max_turn: int):
    for turn in range(max_turn + 1):
        tokens = session.utterances[turn].tokens
        width = len(surface)
        for start in range(len(tokens) - width + 1):
            if tokens[start : start + width] == surface:
                yield Span(turn, start, start + width)


def lint_annotations(session: DialogueSession, triples: Sequence[PATriple]) -> tuple[TripleLint, ...]:
    """Advisory validity check of gold annotations against criteria C1..C4.

    C2 cannot decide reference resolvability without coreference annotation,
    so every pronoun-valued argument is reported as a warning rather than an
    error.  C3 flags person-pronoun arguments that should have been the
    speaker placeholder A/B.
    """
    offsets = _global_offsets(session)
    entries = []
    for triple in triples:
        surface = triple.argument.slice(session)
        c1 = OK if triple.argument.turn_index <= triple.predicate.turn_index else "C1_FUTURE_ARGUMENT"
        c2 = "WARN_PRONOUN" if surface in _PRONOUNS else OK
        c3 = "C3_SPEAKER_NOT_SPECIAL" if surface in _PERSON_PRONOUNS else OK
        c4 = OK
        if c1 == OK:
            own_distance = _span_distance(triple.argument, triple.predicate, offsets)
            for cand in _same_surface_candidates(session, surface, triple.predicate.turn_index):
                if cand == triple.argument:
                    continue
                if _span_distance(cand, triple.predicate, offsets) < own_distance:
                    c4 = "C4_NOT_NEAREST"
                    break
        entries.append(TripleLint(c1, c2, c3, c4))
    return tuple(entries)


# --- corpus statistics ------------------------------------------------------


@dataclass(frozen=True)
class RoleStatistics:
    overall_ratio: dict[str, float]
    cross_turn_ratio: dict[str, float]
    n_triples: int
    n_predicates: int
    n_utterances: int
    n_sessions: int

    def table(self) -> str:
        """Role table shaped like the annotation statistics summary."""
        lines = [f"{'role':>8}  {'overall':>8}  {'cross-turn':>10}"]
        for role in SemanticRole:
            name = role.value
            if name not in self.overall_ratio:
                continue
            lines.append(
                f"{name:>8}  {100 * self.overall_ratio[name]:7.1f}%  "
                f"{100 * self.cross_turn_ratio[name]:9.1f}%"
            )
        lines.append(
            f"totals: {self.n_triples} triples, {self.n_predicates} predicates, "
            f"{self.n_utterances} utterances, {self.n_sessions} sessions"
        )
        return "\n".join(lines)


def compute_statistics(corpus: Sequence[RewriteExample]) -> RoleStatistics:
    if not corpus:
        raise RewriterError("EMPTY_CORPUS", "cannot compute statistics of an empty corpus")
    role_counts: Counter = Counter()
    cross_counts: Counter = Counter()
    predicates = set()
    n_triples = 0
    n_utterances = 0
    for sid, example in enumerate(corpus):
        n_utterances += len(example.session)
        for triple in example.triples:
            n_triples += 1
            role_counts[triple.role.value] += 1
            if triple.argument.turn_index != triple.predicate.turn_index:
                cross_counts[triple.role.value] += 1
            predicates.add((sid, triple.predicate))
    overall = {r: c / n_triples for r, c in role_counts.items()} if n_triples else {}
    cross = {r: cross_counts[r] / role_counts[r] for r in role_counts}
    return RoleStatistics(
        overall_ratio=overall,
        cross_turn_ratio=cross,
        n_triples=n_triples,
        n_predicates=len(predicates),
        n_utterances=n_utterances,
        n_sessions=len(corpus),
    )


def declared_statistics(config: GeneratorConfig) -> RoleStatistics:
    """Analytic expectation of compute_statistics over a sampled corpus."""
    expected = {
        SemanticRole.ARG0.value: 1.0,
        SemanticRole.ARG1.value: 1.0,
    }
    if config.tmp_rate > 0:
        expected[SemanticRole.AM_TMP.value] = config.tmp_rate
    if config.loc_rate > 0:
        expected[SemanticRole.AM_LOC.value] = config.loc_rate
    if config.include_negation_triples and config.neg_rate > 0:
        expected[SemanticRole.AM_NEG.value] = config.neg_rate
    total = sum(expected.values())
    cross = {role: 0.0 for role in expected}
    cross[SemanticRole.ARG0.value] = config.cross_turn_rate
    cross[SemanticRole.ARG1.value] = config.cross_turn_rate
    n = config.n_sessions
    return RoleStatistics(
        overall_ratio={role: e / total for role, e in expected.items()},
        cross_turn_ratio=cross,
        n_triples=round(total * n),
        n_predicates=n,
        n_utterances=3 * n,
        n_sessions=n,
    )


# --- micro-F1 scorer --------------------------------------------------------


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def score_srl(predicted: Iterable[Hashable], gold: Iterable[Hashable]) -> tuple[float, float, float]:
    """Micro P/R/F1 over exact unit matches, no partial credit.

    Empty-set convention: an empty side scores 1.0 against an empty counterpart
    (vacuous correctness) and 0.0 otherwise.
    """
    pred_set = set(predicted)
    gold_set = set(gold)
    hit = len(pred_set & gold_set)
    if pred_set:
        precision = hit / len(pred_set)
    else:
        precision = 1.0 if not gold_set else 0.0
    if gold_set:
        recall = hit / len(gold_set)
    else:
        recall = 1.0 if not pred_set else 0.0
    return precision, recall, f1_score(precision, recall)


def score_srl_corpus(
    predicted: Sequence[Sequence[PATriple]], gold: Sequence[Sequence[PATriple]]
) -> tuple[float, float, float]:
    """Micro-average over per-record triple lists (records paired by position);
    a corpus of no records is refused, as ``score_srl`` would score it 1.0."""
    if len(predicted) != len(gold):
        raise RewriterError(
            "LENGTH_MISMATCH", f"{len(predicted)} predicted records vs {len(gold)} gold records"
        )
    if not gold:
        raise RewriterError("EMPTY_CORPUS", "no records to score")
    # a unit is (record, triple): a match needs the same predicate, argument,
    # role and record
    pred_units = [(i, t) for i, ts in enumerate(predicted) for t in ts]
    gold_units = [(i, t) for i, ts in enumerate(gold) for t in ts]
    return score_srl(pred_units, gold_units)


# --- triple acquisition -----------------------------------------------------


@dataclass(frozen=True)
class HeuristicRules:
    """Deterministic pattern rules over the synthetic corpus templates.

    Stands in for a learned parser so the parsed-vs-gold gap can be exercised:
    verbs anchor predicates, the nearest lexicon entities fill ARG0/ARG1, and a
    leading negation particle becomes AM-NEG.  Patterns are token tuples,
    longest first.
    """

    verbs: tuple[tuple[str, ...], ...]
    entities: tuple[tuple[str, ...], ...]
    negation_prefixes: tuple[str, ...]

    @staticmethod
    def from_lexica(*lexica: Lexicon) -> "HeuristicRules":
        """Each lexicon's verbs, their negated forms, its entities and its
        negation particle, in that lexicon's tokens.  Char tokens are single
        CJK characters and word tokens whole ASCII words, so no pattern of one
        lexicon matches a token of the other: over either corpus the joint
        table finds what that lexicon's own table would."""
        verbs = {
            form
            for lex in lexica
            for verb in lex.verbs
            for form in (lex.tokens_of(verb), lex.tokens_of(lex.negation) + lex.tokens_of(verb))
        }
        entities = {lex.tokens_of(e) for lex in lexica for e in lex.entities}
        return HeuristicRules(
            verbs=tuple(sorted(verbs, key=len, reverse=True)),
            entities=tuple(sorted(entities, key=len, reverse=True)),
            negation_prefixes=tuple(lex.negation for lex in lexica),
        )


HEURISTIC_RULES = HeuristicRules.from_lexica(Lexicon.chinese(), Lexicon.words())


def _greedy_matches(tokens: tuple[str, ...], patterns: Sequence[tuple[str, ...]]) -> list[tuple[int, int]]:
    """Left-to-right longest-match scan; returns non-overlapping (start, end) pairs."""
    spans = []
    i = 0
    while i < len(tokens):
        hit = None
        for pat in patterns:  # patterns sorted longest-first
            if tokens[i : i + len(pat)] == pat:
                hit = (i, i + len(pat))
                break
        if hit:
            spans.append(hit)
            i = hit[1]
        else:
            i += 1
    return spans


def _extract_heuristic(session: DialogueSession, rules: HeuristicRules) -> list[PATriple]:
    offsets = _global_offsets(session)
    entity_spans: list[Span] = []
    for turn, utt in enumerate(session.utterances):
        for start, end in _greedy_matches(utt.tokens, rules.entities):
            entity_spans.append(Span(turn, start, end))

    def global_pos(span: Span) -> int:
        return offsets[span.turn_index] + span.start

    entity_spans.sort(key=global_pos)
    triples: list[PATriple] = []
    for turn, utt in enumerate(session.utterances):
        for start, end in _greedy_matches(utt.tokens, rules.verbs):
            pred = Span(turn, start, end)
            pred_pos = global_pos(pred)
            before = [e for e in entity_spans if global_pos(e) < pred_pos]
            same_after = [e for e in entity_spans if e.turn_index == turn and e.start >= end]
            arg0 = next(
                (e for e in reversed(before) if e.turn_index == turn), None
            )  # subject: nearest entity before the verb in its own utterance
            arg1 = same_after[0] if same_after else None
            remaining = [e for e in reversed(before) if e != arg0]
            if arg1 is None:
                taken = arg0.slice(session) if arg0 else None
                arg1 = next((e for e in remaining if e.slice(session) != taken), None)
                remaining = [e for e in remaining if e != arg1]
            if arg0 is None:
                taken = arg1.slice(session) if arg1 else None
                arg0 = next((e for e in remaining if e.slice(session) != taken), None)
            if arg0 is not None:
                triples.append(PATriple(pred, SemanticRole.ARG0, arg0))
            if arg1 is not None:
                triples.append(PATriple(pred, SemanticRole.ARG1, arg1))
            if utt.tokens[start] in rules.negation_prefixes and end - start > 1:
                triples.append(PATriple(pred, SemanticRole.AM_NEG, Span(turn, start, start + 1)))
    return triples


def acquire_triples(
    example: RewriteExample,
    source: TripleSource,
    *,
    rules: HeuristicRules = HEURISTIC_RULES,
) -> tuple[PATriple, ...]:
    """Produce the triples fed to the rewriter under the configured source.

    Gold passes stored triples through, heuristic runs the rule extractor over
    ``rules``, and none yields an empty list.  Last-utterance scope keeps only
    triples whose predicate sits in the rewrite target.
    """
    if source.mode is TripleMode.NONE:
        return ()
    if source.mode is TripleMode.GOLD:
        if not example.triples:
            raise RewriterError("MISSING_GOLD", "gold triple source but record carries no triples")
        triples = example.triples
    else:
        triples = tuple(_extract_heuristic(example.session, rules))
    if source.scope is TripleScope.LAST_UTTERANCE_ONLY:
        last = len(example.session) - 1
        triples = tuple(t for t in triples if t.predicate.turn_index == last)
    return triples
