"""`pack` builds one run per region; `oracle_pack` tags token by token."""

import pytest

from oracles import oracle_pack

from srl_rewriter.generator import GeneratorConfig, sample_corpus
from srl_rewriter.packing import build_vocabulary, pack
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
