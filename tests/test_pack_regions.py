"""`pack` builds one run per region; `oracle_pack` tags token by token."""

from dataclasses import replace

import pytest

from oracles import oracle_pack

from srl_rewriter.core import Utterance
from srl_rewriter.generator import GeneratorConfig, sample_corpus
from srl_rewriter.packing import SegmentType, build_vocabulary, pack
from srl_rewriter.srl import TripleMode, TripleSource, acquire_triples


@pytest.fixture(scope="module")
def criterion_8_corpus():
    corpus = sample_corpus(GeneratorConfig(n_sessions=2000, seed=0, cross_turn_rate=0.3))
    return corpus, build_vocabulary(corpus)


@pytest.mark.parametrize("mode", list(TripleMode))
def test_pack_equals_the_per_token_oracle_on_the_criterion_8_corpus(criterion_8_corpus, mode):
    corpus, vocab = criterion_8_corpus
    source = TripleSource(mode)
    for idx, example in enumerate(corpus):
        triples = acquire_triples(example, source)
        for include_reference in (True, False):
            got = pack(example, triples, vocab, idx, include_reference=include_reference)
            assert got == oracle_pack(example, triples, vocab, idx, include_reference), idx


@pytest.mark.parametrize("turns", [(0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 0, 2), (2, 2, 0)])
def test_pack_keeps_positions_and_segments_of_off_order_turn_indices(criterion_8_corpus, turns):
    """A library session whose adjacent utterances repeat a turn index packs
    them as one region: positions count on across the repeat.  Each context
    token's segment follows its own utterance's speaker, whatever the turn
    index says."""
    corpus, vocab = criterion_8_corpus
    example = next(ex for ex in corpus if len(ex.session) == 3)
    utterances = tuple(
        Utterance(utt.tokens, utt.speaker, turn)
        for utt, turn in zip(example.session.utterances, turns)
    )
    odd = replace(example, session=replace(example.session, utterances=utterances))
    triples = acquire_triples(odd, TripleSource(TripleMode.GOLD))
    for include_reference in (True, False):
        got = pack(odd, triples, vocab, 7, include_reference=include_reference)
        assert got == oracle_pack(odd, triples, vocab, 7, include_reference)
        lo = got.len_z
        for utt in utterances:
            own = SegmentType.E_A if utt.speaker is odd.session.target_speaker else SegmentType.E_B
            hi = lo + len(utt.tokens) + 1
            assert set(got.segment_ids[lo:hi]) == {own}
            lo = hi
    if turns[0] == turns[1]:
        first = len(utterances[0].tokens) + 1
        start = got.len_z
        assert got.position_ids[start + first] == first
