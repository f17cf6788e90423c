"""Vocabulary and sequence packing."""

from pathlib import Path

import pytest

from oracles import append_rewrite_token, start_decode
from srl_rewriter.core import (
    BOS_TOKEN,
    EOS_TOKEN,
    PAD_TOKEN,
    ROLE_TOKENS,
    UNK_TOKEN,
    RewriterError,
)
from srl_rewriter.generator import GeneratorConfig, Lexicon, SlotMode, build_session, sample_corpus
from srl_rewriter.packing import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    SegmentType,
    Vocabulary,
    build_vocabulary,
    pack,
)
from srl_rewriter.srl import TripleMode, TripleSource, acquire_triples


@pytest.fixture(scope="module")
def fixture_example():
    """Both argument slots omitted from the last turn; negated verdict."""
    return build_session(
        Lexicon.chinese(), "粤语", "普通话", "算", True, SlotMode.OMIT, SlotMode.OMIT
    )


@pytest.fixture(scope="module")
def fixture_vocab(fixture_example):
    return build_vocabulary([fixture_example])


# -- vocabulary ----------------------------------------------------------------


def test_reserved_ids_are_stable():
    vocab = Vocabulary([])
    ids = vocab.encode([PAD_TOKEN, EOS_TOKEN, BOS_TOKEN, UNK_TOKEN])
    assert ids == [PAD_ID, EOS_ID, BOS_ID, UNK_ID] == [0, 1, 2, 3]


def test_role_markers_precede_corpus_tokens():
    vocab = Vocabulary(["苹果"])
    role_ids = vocab.encode(ROLE_TOKENS.values())
    assert sorted(role_ids) == list(range(4, 4 + len(ROLE_TOKENS)))
    assert vocab.encode(["苹果"]) == [4 + len(ROLE_TOKENS)]


def test_unknown_token_maps_to_unk():
    vocab = Vocabulary(["a"])
    assert vocab.encode(["a", "zzz"]) == [4 + len(ROLE_TOKENS), UNK_ID]


def test_encode_decode_round_trip(fixture_vocab, fixture_example):
    tokens = list(fixture_example.reference)
    assert fixture_vocab.decode(fixture_vocab.encode(tokens)) == tokens


def test_vocab_save_load_round_trip(tmp_path, fixture_vocab):
    path = str(tmp_path / "vocab.txt")
    fixture_vocab.save(path)
    loaded = Vocabulary.load(path)
    assert len(loaded) == len(fixture_vocab)
    assert loaded.encode(["粤"]) == fixture_vocab.encode(["粤"])


def test_vocab_load_rejects_wrong_prefix(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("foo\nbar\n", encoding="utf-8")
    with pytest.raises(RewriterError) as err:
        Vocabulary.load(str(path))
    assert err.value.code == "VOCAB_OVERFLOW"


@pytest.mark.parametrize("fault", ["moved", "swapped", "cut"])
def test_vocab_load_names_the_first_line_that_is_not_a_role_marker(tmp_path, fixture_vocab, fault):
    lines = [fixture_vocab.token_of(i) for i in range(len(fixture_vocab))]
    roles = slice(4, 4 + len(ROLE_TOKENS))
    if fault == "moved":  # loading would skip nine corpus tokens and keep the markers at the end
        lines = lines[: roles.start] + lines[roles.stop :] + lines[roles]
        want = f"line 5 is {lines[4]!r}, not the reserved '<ARG0>'"
    elif fault == "swapped":
        lines[5], lines[6] = lines[6], lines[5]
        want = f"line 6 is {lines[5]!r}, not the reserved {lines[6]!r}"
    else:
        lines = lines[:8]
        want = "lacks the reserved token prefix"
    path = tmp_path / "vocab.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(RewriterError) as err:
        Vocabulary.load(str(path))
    assert err.value.code == "VOCAB_OVERFLOW"
    assert str(path) in err.value.message and want in err.value.message


BENCHMARK_VOCAB = Path(__file__).parent.parent / "perfbench" / "weights" / "gold_triple.ckpt.vocab"


def test_committed_benchmark_vocabulary_still_loads():
    assert len(Vocabulary.load(str(BENCHMARK_VOCAB))) == 58


@pytest.mark.parametrize("fault", ["corpus-token", "reserved-token"])
def test_vocab_load_refuses_a_repeated_line(tmp_path, fault):
    """A repeat would shift the id of every later token by one."""
    lines = BENCHMARK_VOCAB.read_text(encoding="utf-8").splitlines()
    if fault == "corpus-token":  # line 16 again after line 20: 59 lines, 58 distinct
        lines.insert(20, lines[15])
        want = f"line 21 repeats line 16, {lines[15]!r}"
    else:  # line 21 replaced by [UNK]: 58 lines, 57 distinct
        lines[20] = UNK_TOKEN
        want = "line 21 repeats line 4, '[UNK]'"
    path = tmp_path / "vocab.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(RewriterError) as err:
        Vocabulary.load(str(path))
    assert err.value.code == "VOCAB_OVERFLOW"
    assert err.value.message == f"{path}: {want}"


def test_build_vocabulary_is_sorted_and_deduplicated(tiny_corpus):
    vocab = build_vocabulary(tiny_corpus)
    n_reserved = 4 + len(ROLE_TOKENS)
    corpus_tokens = [vocab.token_of(i) for i in range(n_reserved, len(vocab))]
    assert corpus_tokens == sorted(set(corpus_tokens))


# -- packing --------------------------------------------------------------------


def test_linearized_triple_run_shape(fixture_example, fixture_vocab):
    packed = pack(fixture_example, fixture_example.triples[:1], fixture_vocab)
    z = fixture_vocab.decode(packed.token_ids[: packed.len_z])
    assert z == ["不", "算", "<ARG0>", "粤", "语"]  # predicate 不算, role marker, argument 粤语
    assert set(packed.region_index[: packed.len_z]) == {0}


def test_pack_layout(fixture_example, fixture_vocab):
    packed = pack(fixture_example, fixture_example.triples, fixture_vocab)
    session = fixture_example.session
    n_ctx = sum(len(u.tokens) for u in session.utterances) + len(session)
    assert packed.len_z == sum(
        (t.predicate.end - t.predicate.start) + 1 + (t.argument.end - t.argument.start)
        for t in fixture_example.triples
    )
    assert packed.len_c == n_ctx
    assert packed.len_r == len(fixture_example.reference) + 2
    assert len(packed) == packed.len_z + packed.len_c + packed.len_r

    tokens = fixture_vocab.decode(packed.token_ids)
    # context region: every utterance followed by its EOS
    ctx = tokens[packed.len_z : packed.len_z + packed.len_c]
    expected_ctx = []
    for utt in session.utterances:
        expected_ctx.extend(utt.tokens)
        expected_ctx.append(EOS_TOKEN)
    assert ctx == expected_ctx
    # rewrite region: BOS ++ reference ++ EOS
    rewrite = tokens[packed.len_z + packed.len_c :]
    assert rewrite == [BOS_TOKEN, *fixture_example.reference, EOS_TOKEN]


def test_pack_segments(fixture_example, fixture_vocab):
    packed = pack(fixture_example, fixture_example.triples, fixture_vocab)
    z = packed.segment_ids[: packed.len_z]
    assert set(z) == {SegmentType.E_SRL}
    # speakers are A, B, A and the target speaker is A
    ctx_turns = packed.region_index[packed.len_z : packed.len_z + packed.len_c]
    ctx_segs = packed.segment_ids[packed.len_z : packed.len_z + packed.len_c]
    for turn, seg in zip(ctx_turns, ctx_segs):
        assert seg is (SegmentType.E_A if turn in (0, 2) else SegmentType.E_B)
    assert set(packed.segment_ids[packed.len_z + packed.len_c :]) == {SegmentType.E_A}


def test_pack_positions_restart_per_region(fixture_example, fixture_vocab):
    packed = pack(fixture_example, fixture_example.triples, fixture_vocab)
    positions = packed.position_ids
    # (region, index) of every token; the regions lie back to back
    kinds = [0] * packed.len_z + [1] * packed.len_c + [2] * packed.len_r
    tags = list(zip(kinds, packed.region_index))
    expected = []
    counter = 0
    for i, tag in enumerate(tags):
        if i == 0 or tag != tags[i - 1]:
            counter = 0
        expected.append(counter)
        counter += 1
    assert list(positions) == expected
    # context positions restart at each utterance and cover its EOS
    session = fixture_example.session
    ctx_pos = positions[packed.len_z : packed.len_z + packed.len_c]
    lengths = [len(u.tokens) + 1 for u in session.utterances]
    flat = [p for length in lengths for p in range(length)]
    assert list(ctx_pos) == flat
    # rewrite positions count from BOS
    r_pos = positions[packed.len_z + packed.len_c :]
    assert list(r_pos) == list(range(packed.len_r))


def test_pack_without_reference(fixture_example, fixture_vocab):
    packed = pack(fixture_example, fixture_example.triples, fixture_vocab, include_reference=False)
    assert packed.len_r == 0
    assert len(packed) == packed.len_z + packed.len_c


def test_pack_requires_reference_for_training(fixture_example, fixture_vocab):
    stripped = type(fixture_example)(
        session=fixture_example.session, triples=fixture_example.triples, reference=None
    )
    with pytest.raises(RewriterError) as err:
        pack(stripped, stripped.triples, fixture_vocab)
    assert err.value.code == "NO_REFERENCE"


def test_pack_keeps_the_triple_order_given(fixture_example, fixture_vocab):
    triples = fixture_example.triples
    packed = pack(fixture_example, triples, fixture_vocab)
    assert packed == pack(fixture_example, triples, fixture_vocab)
    for order in (triples, triples[::-1]):
        tokens = fixture_vocab.decode(pack(fixture_example, order, fixture_vocab).token_ids)
        markers = [tok for tok in tokens if tok in ROLE_TOKENS.values()]
        assert markers == [ROLE_TOKENS[t.role] for t in order]


def test_removing_triples_leaves_context_and_rewrite_identical(tiny_corpus, tiny_vocab):
    for example in tiny_corpus:
        with_z = pack(example, example.triples, tiny_vocab)
        without_z = pack(example, (), tiny_vocab)
        assert without_z.len_z == 0
        assert with_z.token_ids[with_z.len_z :] == without_z.token_ids
        assert with_z.position_ids[with_z.len_z :] == without_z.position_ids
        assert with_z.segment_ids[with_z.len_z :] == without_z.segment_ids


def test_gold_acquisition_matches_stored_triples(tiny_corpus):
    src = TripleSource(TripleMode.GOLD)
    for example in tiny_corpus:
        assert acquire_triples(example, src) == example.triples


# -- incremental decoding -------------------------------------------------------


def test_oracle_decode_growth_reproduces_the_reference_pack():
    """The oracle's decode helpers, fed BOS, the reference and EOS, rebuild
    what ``pack`` makes with the reference, on the criterion-8 corpus."""
    corpus = sample_corpus(GeneratorConfig(n_sessions=2000, seed=0, cross_turn_rate=0.3))
    vocab = build_vocabulary(corpus)
    for idx, example in enumerate(corpus):
        packed = pack(example, example.triples, vocab, include_reference=False)
        grown = start_decode(packed)
        for token_id in vocab.encode([*example.reference, EOS_TOKEN]):
            grown = append_rewrite_token(grown, token_id)
        assert grown == pack(example, example.triples, vocab), idx
