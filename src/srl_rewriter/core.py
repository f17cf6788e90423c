"""Core domain types: dialogue sessions, predicate-argument triples, rewrite examples.

All types are immutable after construction and safe to share across workers;
callers pass tuples for their sequence fields.
The line-delimited record format used by every CLI command lives here too.
"""

from __future__ import annotations

import hashlib
import json
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional, TypeVar

PAD_TOKEN = "[PAD]"
EOS_TOKEN = "[EOS]"
BOS_TOKEN = "[BOS]"
UNK_TOKEN = "[UNK]"
STRUCTURAL_TOKENS = (PAD_TOKEN, EOS_TOKEN, BOS_TOKEN, UNK_TOKEN)


class RewriterError(Exception):
    """Operational failure with a machine-readable code (bad input, bad config)."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class Speaker(Enum):
    A = "A"
    B = "B"


class SemanticRole(Enum):
    ARG0 = "ARG0"
    ARG1 = "ARG1"
    ARG2 = "ARG2"
    ARG3 = "ARG3"
    ARG4 = "ARG4"
    AM_TMP = "AM-TMP"
    AM_LOC = "AM-LOC"
    AM_PRP = "AM-PRP"
    AM_NEG = "AM-NEG"


# Role markers sit between predicate and argument tokens so each triple is
# self-delimiting.  After the structural tokens they take the first ids of
# every vocabulary, in this order, and no record's text may hold one.
ROLE_TOKENS = {role: f"<{role.value}>" for role in SemanticRole}
RESERVED_TOKENS = (*STRUCTURAL_TOKENS, *ROLE_TOKENS.values())
_RESERVED = frozenset(RESERVED_TOKENS)


@dataclass(frozen=True)
class Utterance:
    tokens: tuple[str, ...]
    speaker: Speaker


@dataclass(frozen=True)
class DialogueSession:
    """Ordered utterances; the last one is the rewrite target."""

    utterances: tuple[Utterance, ...]

    def __len__(self) -> int:
        return len(self.utterances)

    @property
    def target_speaker(self) -> Speaker:
        return self.utterances[-1].speaker


@dataclass(frozen=True, order=True)
class Span:
    """Token-offset span into one utterance of a session; end is exclusive."""

    turn_index: int
    start: int
    end: int

    def slice(self, session: DialogueSession) -> tuple[str, ...]:
        return session.utterances[self.turn_index].tokens[self.start : self.end]


@dataclass(frozen=True)
class PATriple:
    predicate: Span
    role: SemanticRole
    argument: Span


@dataclass(frozen=True)
class RewriteExample:
    session: DialogueSession
    triples: tuple[PATriple, ...] = ()
    reference: Optional[tuple[str, ...]] = None


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


def _check_span(span: Span, session: DialogueSession, what: str, idx: int) -> list[Violation]:
    out = []
    if not 0 <= span.turn_index < len(session):
        out.append(
            Violation(
                "SPAN_OUT_OF_RANGE",
                f"triple {idx}: {what} turn {span.turn_index} outside session of {len(session)} turns",
            )
        )
        return out
    n = len(session.utterances[span.turn_index].tokens)
    if not (0 <= span.start < span.end <= n):
        out.append(
            Violation(
                "SPAN_OUT_OF_RANGE",
                f"triple {idx}: {what} span [{span.start},{span.end}) outside utterance of {n} tokens",
            )
        )
    return out


def validate_example(example: RewriteExample) -> tuple[Violation, ...]:
    """Check every invariant that a record can break; violations are data,
    never exceptions.  A reference may be absent, as on inference inputs."""
    session = example.session
    if len(session) < 1:
        return (Violation("EMPTY_SESSION", "session has no utterances"),)
    violations: list[Violation] = []
    for pos, utt in enumerate(session.utterances):
        if not utt.tokens:
            violations.append(Violation("EMPTY_UTTERANCE", f"utterance {pos} has no tokens"))
        for tok in utt.tokens:
            if tok in _RESERVED:
                violations.append(
                    Violation("RESERVED_TOKEN", f"utterance {pos} contains reserved token {tok}")
                )
                break
    for idx, triple in enumerate(example.triples):
        violations.extend(_check_span(triple.predicate, session, "predicate", idx))
        violations.extend(_check_span(triple.argument, session, "argument", idx))
    if example.reference is not None and not example.reference:
        violations.append(Violation("EMPTY_REFERENCE", "reference token list is empty"))
    for tok in example.reference or ():
        if tok in _RESERVED:
            violations.append(Violation("RESERVED_TOKEN", f"reference contains {tok}"))
            break
    return tuple(violations)


# ---------------------------------------------------------------------------
# Line-delimited record format (one JSON object per line):
#   {"utterances": [{"speaker": "A", "tokens": [...]}, ...],
#    "triples": [{"predicate": {"turn": t, "start": s, "end": e},
#                 "role": "ARG0",
#                 "argument": {"turn": t, "start": s, "end": e}}, ...],
#    "reference": [...]}
# "triples" and "reference" may be absent.  Rewrite outputs add "hypothesis".
# ---------------------------------------------------------------------------


def _span_to_obj(span: Span) -> dict:
    return {"turn": span.turn_index, "start": span.start, "end": span.end}


def _offset(value) -> int:
    if type(value) is not int:  # a bool passes isinstance(value, int); a float would truncate
        raise TypeError(f"span offset {value!r} is not an integer")
    return value


def _span_from_obj(obj: dict) -> Span:
    return Span(
        turn_index=_offset(obj["turn"]), start=_offset(obj["start"]), end=_offset(obj["end"])
    )


def example_to_record(example: RewriteExample, hypothesis: Optional[Iterable[str]] = None) -> dict:
    record: dict = {
        "utterances": [
            {"speaker": u.speaker.value, "tokens": list(u.tokens)} for u in example.session.utterances
        ]
    }
    if example.triples:
        record["triples"] = [
            {
                "predicate": _span_to_obj(t.predicate),
                "role": t.role.value,
                "argument": _span_to_obj(t.argument),
            }
            for t in example.triples
        ]
    if example.reference is not None:
        record["reference"] = list(example.reference)
    if hypothesis is not None:
        record["hypothesis"] = list(hypothesis)
    return record


# validate_example rules that refuse a record on read; the others stay lints
_REFUSED_ON_READ = ("EMPTY_SESSION", "RESERVED_TOKEN", "SPAN_OUT_OF_RANGE")


def _token_list(value, what: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(tok, str) for tok in value):
        raise RewriterError("BAD_RECORD", f"{what} must be a list of strings")
    return tuple(value)


def record_tokens(record, *keys: str) -> list[str]:
    """The token list under the first of ``keys`` that a record holds."""
    if not isinstance(record, dict):
        raise RewriterError("BAD_RECORD", "record is not a JSON object")
    for key in keys:
        if key in record:
            return list(_token_list(record[key], key))
    raise RewriterError("BAD_RECORD", f"record lacks {' or '.join(keys)} tokens")


def example_from_record(record: dict) -> RewriteExample:
    """Decode one record.  Fields of the wrong type, sessions without
    utterances, reserved tokens in the text and spans that point outside
    their session are refused."""
    try:
        utterances = tuple(
            Utterance(
                tokens=_token_list(u["tokens"], f"utterance {i} tokens"),
                speaker=Speaker(u["speaker"]),
            )
            for i, u in enumerate(record["utterances"])
        )
        triples = tuple(
            PATriple(
                predicate=_span_from_obj(t["predicate"]),
                role=SemanticRole(t["role"]),
                argument=_span_from_obj(t["argument"]),
            )
            for t in record.get("triples", [])
        )
        reference = record.get("reference")
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise RewriterError("BAD_RECORD", f"undecodable record: {exc}") from exc
    example = RewriteExample(
        session=DialogueSession(utterances),
        triples=triples,
        reference=None if reference is None else _token_list(reference, "reference"),
    )
    bad = [v.message for v in validate_example(example) if v.code in _REFUSED_ON_READ]
    if bad:
        raise RewriterError("BAD_RECORD", "; ".join(bad))
    return example


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# the running ``cli.main`` call's reads (path -> digest at first read) and
# written paths; None outside a call
RUN_FILES: ContextVar[Optional[tuple[dict[str, str], set[str]]]] = ContextVar(
    "RUN_FILES", default=None
)


def record_path(path: str, written: bool = False) -> None:
    """Note that the running command read, or wrote, ``path``.  A read is
    digested now, so an output that later overwrites it cannot stand in."""
    files = RUN_FILES.get()
    if files is None:
        return
    read, wrote = files
    if written:
        wrote.add(path)
    elif path not in read:
        read[path] = file_digest(path)


def text_lines(path: str) -> Iterator[tuple[int, str]]:
    """Numbered lines of a UTF-8 text file; other bytes are refused with a
    coded error that names the file."""
    record_path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise RewriterError("BAD_ENCODING", f"{path} is not UTF-8 text: {exc.reason}") from exc


T = TypeVar("T")


def read_decoded(path: str, decode: Callable[[object], T]) -> list[T]:
    """``decode`` of every record of a file, parsed one line at a time; a
    refusal names the file and its line, or the record's index."""
    out: list[T] = []
    for lineno, line in text_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RewriterError("BAD_RECORD", f"{path}:{lineno}: {exc}") from exc
        try:
            out.append(decode(record))
        except RewriterError as err:
            raise RewriterError(err.code, f"{path}: record {len(out)}: {err.message}") from err
    return out


def read_examples(path: str) -> list[RewriteExample]:
    return read_decoded(path, example_from_record)


def write_records(path: str, records: Iterable[dict]) -> None:
    record_path(path, written=True)
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True))
            fh.write("\n")


def write_json(path: str, payload) -> None:
    record_path(path, written=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
