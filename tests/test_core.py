"""Domain types, validation, and the line-delimited record format."""

import json

import pytest
from hypothesis import given, strategies as st

from srl_rewriter.core import (
    BOS_TOKEN,
    EOS_TOKEN,
    PAD_TOKEN,
    RESERVED_TOKENS,
    UNK_TOKEN,
    DialogueSession,
    PATriple,
    RewriteExample,
    RewriterError,
    SemanticRole,
    Span,
    Speaker,
    Utterance,
    example_from_record,
    example_to_record,
    read_examples,
    validate_example,
    write_records,
)
from srl_rewriter.packing import build_vocabulary, pack
from srl_rewriter.srl import TripleLint, lint_annotations


def make_session(*token_lists, speakers=None):
    speakers = speakers or [Speaker.A if i % 2 == 0 else Speaker.B for i in range(len(token_lists))]
    return DialogueSession(
        tuple(
            Utterance(tokens=tuple(toks), speaker=spk)
            for toks, spk in zip(token_lists, speakers)
        )
    )


@pytest.fixture
def session():
    return make_session(["你", "好"], ["吃", "饭", "吗"], ["不", "吃"])


def test_target_is_last_utterance(session):
    assert session.utterances[-1].tokens == ("不", "吃")
    assert session.target_speaker is Speaker.A
    assert len(session) == 3


def test_span_slice(session):
    assert Span(1, 0, 2).slice(session) == ("吃", "饭")


def test_span_ordering_is_positional():
    assert Span(0, 1, 2) < Span(1, 0, 1) < Span(1, 2, 3)


def test_validate_clean_example(session):
    ex = RewriteExample(
        session=session,
        triples=(PATriple(Span(2, 0, 2), SemanticRole.ARG0, Span(1, 0, 1)),),
        reference=("我", "不", "吃", "饭"),
    )
    assert validate_example(ex) == ()


def codes(example):
    return tuple(v.code for v in validate_example(example))


def test_validate_flags_each_violation(session):
    ex = RewriteExample(
        session=session,
        triples=(
            PATriple(Span(1, 0, 1), SemanticRole.ARG0, Span(2, 0, 1)),  # future argument: lint C1
            PATriple(Span(5, 0, 1), SemanticRole.ARG1, Span(0, 0, 9)),  # both spans bad
        ),
        reference=(),
    )
    assert codes(ex) == ("SPAN_OUT_OF_RANGE", "SPAN_OUT_OF_RANGE", "EMPTY_REFERENCE")


def test_validate_reference_optional_for_inference(session):
    ex = RewriteExample(session=session, reference=None)
    assert validate_example(ex) == ()
    assert example_from_record(example_to_record(ex)) == ex
    with pytest.raises(RewriterError) as err:  # only what needs a reference refuses its absence
        pack(ex, (), build_vocabulary([ex]), seed=0)
    assert err.value.code == "NO_REFERENCE"


def test_validate_rejects_structural_tokens(session):
    for bad in RESERVED_TOKENS:  # the structural tokens and the role markers
        ex = RewriteExample(
            session=make_session(["好", bad]), reference=("好",)
        )
        assert "RESERVED_TOKEN" in codes(ex)


def test_validate_empty_session_and_utterance():
    empty = RewriteExample(session=DialogueSession(()), reference=("x",))
    assert codes(empty) == ("EMPTY_SESSION",)
    blank = RewriteExample(session=make_session([]), reference=("x",))
    assert "EMPTY_UTTERANCE" in codes(blank)


def test_record_round_trip(session):
    ex = RewriteExample(
        session=session,
        triples=(PATriple(Span(2, 0, 2), SemanticRole.AM_NEG, Span(2, 0, 1)),),
        reference=("我", "不", "吃"),
    )
    assert example_from_record(example_to_record(ex)) == ex


def test_record_hypothesis_field(session):
    ex = RewriteExample(session=session, reference=("吃",))
    record = example_to_record(ex, hypothesis=["不", "吃"])
    assert record["hypothesis"] == ["不", "吃"]
    # hypothesis is output-only metadata and does not round-trip into the type
    assert example_from_record(record) == ex


def test_bad_record_raises_coded_error(session):
    with pytest.raises(RewriterError) as err:
        example_from_record({"utterances": [{"speaker": "Q", "tokens": ["x"]}]})
    assert err.value.code == "BAD_RECORD"
    good = example_to_record(
        RewriteExample(session, (PATriple(Span(2, 0, 2), SemanticRole.ARG0, Span(0, 0, 1)),))
    )
    assert example_from_record(good).triples
    for field, span, words in (
        ("predicate", {"turn": 5, "start": 0, "end": 1}, "turn 5 outside session of 3"),
        ("argument", {"turn": 0, "start": -1, "end": 1}, "span [-1,1)"),
    ):
        triple = {**good["triples"][0], field: span}
        with pytest.raises(RewriterError) as err:
            example_from_record({**good, "triples": [triple]})
        assert err.value.code == "BAD_RECORD"
        assert f"triple 0: {field} {words}" in err.value.message
    # a bool is an int to Python, so true/false once packed as offsets 1/0
    for span, offset in (({"turn": 2, "start": False, "end": True}, "False"),
                         ({"turn": True, "start": 0, "end": 1}, "True"),
                         ({"turn": 2, "start": 0, "end": 1.0}, "1.0")):
        with pytest.raises(RewriterError) as err:
            example_from_record({**good, "triples": [{**good["triples"][0], "predicate": span}]})
        assert err.value.code == "BAD_RECORD"
        assert f"span offset {offset} is not an integer" in err.value.message


@pytest.mark.parametrize("field,value,words", [
    ("reference", 5, "reference must be a list of strings"),
    ("reference", "abc", "reference must be a list of strings"),
    ("reference", ["x", 1], "reference must be a list of strings"),
    ("tokens", [1, 2], "utterance 0 tokens must be a list of strings"),
    ("tokens", "abc", "utterance 0 tokens must be a list of strings"),
    ("tokens", None, "utterance 0 tokens must be a list of strings"),
])
def test_record_fields_must_be_token_lists(session, field, value, words):
    record = example_to_record(RewriteExample(session, reference=("吃",)))
    if field == "tokens":
        record["utterances"][0]["tokens"] = value
    else:
        record[field] = value
    with pytest.raises(RewriterError) as err:
        example_from_record(record)
    assert err.value.code == "BAD_RECORD"
    assert words in err.value.message


@pytest.mark.parametrize("token", [PAD_TOKEN, EOS_TOKEN, BOS_TOKEN, UNK_TOKEN, "<ARG0>"])
def test_reserved_tokens_are_refused_on_read(session, token):
    record = example_to_record(RewriteExample(session, reference=("吃",)))
    record["utterances"][1]["tokens"].insert(1, token)
    with pytest.raises(RewriterError) as err:
        example_from_record(record)
    assert err.value.code == "BAD_RECORD"
    assert f"utterance 1 contains reserved token {token}" in err.value.message
    record = example_to_record(RewriteExample(session, reference=("吃", token)))
    with pytest.raises(RewriterError) as err:
        example_from_record(record)
    assert f"reference contains {token}" in err.value.message


def test_unreadable_spans_and_empty_sessions_are_refused():
    for record in (
        {"utterances": []},
        {"utterances": [{"speaker": "A", "tokens": ["x"]}],
         "triples": [{"predicate": {"turn": float("inf"), "start": 0, "end": 1},
                      "role": "ARG0", "argument": {"turn": 0, "start": 0, "end": 1}}]},
    ):
        with pytest.raises(RewriterError) as err:
            example_from_record(record)
        assert err.value.code == "BAD_RECORD"


def test_future_argument_stays_a_lint(session):
    ex = RewriteExample(
        session, (PATriple(Span(1, 0, 1), SemanticRole.ARG0, Span(2, 0, 1)),), ("吃",)
    )
    assert validate_example(ex) == ()
    assert lint_annotations(ex.session, ex.triples) == (TripleLint(c1="C1_FUTURE_ARGUMENT"),)
    assert example_from_record(example_to_record(ex)) == ex


def test_file_round_trip(tmp_path, session):
    ex = RewriteExample(session=session, reference=("吃", "饭"))
    path = str(tmp_path / "corpus.jsonl")
    write_records(path, [example_to_record(ex)] * 2)
    assert read_examples(path) == [ex, ex]


@pytest.mark.parametrize("bad, message", [
    ('{"utterances": [', "{path}:6: Expecting value: line 1 column 17 (char 16)"),
    ('{"utterances": []}', "{path}: record 2: session has no utterances"),
])
def test_a_streamed_read_names_the_line_or_record_it_refuses(tmp_path, session, bad, message):
    # blank lines count as lines but not as records
    good = json.dumps(example_to_record(RewriteExample(session, reference=("吃",))))
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(["", good, "   ", good, "", bad, good]) + "\n", encoding="utf-8")
    with pytest.raises(RewriterError) as err:
        read_examples(str(path))
    assert err.value.code == "BAD_RECORD"
    assert err.value.message == message.format(path=path)


token_strategy = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Lo")), min_size=1, max_size=4
)


@given(
    st.lists(
        st.lists(token_strategy, min_size=1, max_size=5), min_size=1, max_size=4
    ),
    st.lists(token_strategy, min_size=1, max_size=6),
)
def test_record_round_trip_property(token_lists, reference):
    ex = RewriteExample(session=make_session(*token_lists), reference=tuple(reference))
    assert example_from_record(example_to_record(ex)) == ex
