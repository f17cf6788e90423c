"""The model's numerical kernels against their textbook formulas.

The layer norm, GELU and embedding-scatter kernels work in place on arrays
they allocate, or, for the GELU slope, on the two arrays handed to it; here
they are checked against the oracle formulas, against central differences
and against ``np.add.at``, and the whole model is checked for writes into
arrays it does not own: the batch, the parameters and the activations cached
for the backward pass.  The backward pass consumes its cache, releasing each
activation after its last reader, and a training step's peak of traced
memory is pinned.
"""

import copy
import tracemalloc

import numpy as np
import pytest

from oracles import (
    oracle_forward,
    oracle_gelu_backward,
    oracle_gelu_forward,
    oracle_layer_norm_backward,
    oracle_layer_norm_forward,
)

from srl_rewriter.generator import GeneratorConfig, sample_corpus, split_corpus
from srl_rewriter.masks import MaskVariant
from srl_rewriter.model import (
    ModelConfig,
    RewriterModel,
    _gelu_forward,
    _gelu_slope,
    _layer_norm_backward,
    _layer_norm_forward,
    _scatter_rows,
    make_batch,
)
from srl_rewriter.packing import build_vocabulary
from srl_rewriter.srl import TripleMode, TripleSource
from srl_rewriter.training import prepare_instances


def assert_close(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert float(np.abs(got - want).max()) <= rtol * float(np.abs(want).max())


@pytest.fixture
def rng():
    return np.random.default_rng(7)


# -- embedding scatter ----------------------------------------------------------


@pytest.mark.parametrize("case", ["repeated", "one_index", "segments", "unused_rows"])
def test_scatter_rows_matches_add_at(case, rng):
    table_rows, shape = {
        "repeated": (50, (8, 12)),
        "one_index": (5, (6, 9)),
        "segments": (3, (32, 36)),
        "unused_rows": (64, (4, 10)),
    }[case]
    index = {
        "repeated": rng.integers(0, 6, size=shape),
        "one_index": np.full(shape, 3),
        "segments": rng.integers(0, 3, size=shape),
        "unused_rows": rng.integers(10, 20, size=shape),
    }[case]
    rows = rng.normal(size=(*shape, 16))
    start = rng.normal(size=(table_rows, 16))
    want = start.copy()
    np.add.at(want, index, rows)
    got = start.copy()
    _scatter_rows(got, index, rows)
    assert_close(got, want)
    untouched = np.setdiff1d(np.arange(table_rows), index)
    assert np.array_equal(got[untouched], start[untouched])


# -- layer norm and GELU --------------------------------------------------------


def test_layer_norm_matches_oracle(rng):
    x = rng.normal(size=(4, 9, 32)) * 3 + 1
    gamma, beta = rng.normal(size=32), rng.normal(size=32)
    dout = rng.normal(size=x.shape)
    out, cache = _layer_norm_forward(x, gamma, beta)
    want, want_cache = oracle_layer_norm_forward(x, gamma, beta)
    assert_close(out, want)
    for got, expected in zip(_layer_norm_backward(dout, cache),
                             oracle_layer_norm_backward(dout, want_cache)):
        assert_close(got, expected)


def gelu_slope(x):
    """The GELU slope at x; x itself is left as it was."""
    return _gelu_slope(x.copy(), _gelu_forward(x)[1])


def test_gelu_matches_oracle(rng):
    x = rng.normal(size=(4, 9, 32)) * 3
    dout = rng.normal(size=x.shape)
    want, want_cache = oracle_gelu_forward(x)
    assert_close(_gelu_forward(x)[0], want)
    assert_close(gelu_slope(x) * dout, oracle_gelu_backward(dout, want_cache))


def test_gelu_backward_matches_central_differences(rng):
    x = rng.normal(size=(3, 5, 8)) * 3
    dout = rng.normal(size=x.shape)
    h = 1e-6
    numeric = dout * (_gelu_forward(x + h)[0] - _gelu_forward(x - h)[0]) / (2 * h)
    assert_close(gelu_slope(x) * dout, numeric, rtol=1e-7)


def test_layer_norm_backward_matches_central_differences(rng):
    x = rng.normal(size=(2, 3, 8)) * 2 + 0.5
    gamma, beta = rng.normal(size=8), rng.normal(size=8)
    dout = rng.normal(size=x.shape)
    dx, dgamma, dbeta = _layer_norm_backward(dout, _layer_norm_forward(x, gamma, beta)[1])
    h = 1e-6
    for value, grad in ((x, dx), (gamma, dgamma), (beta, dbeta)):
        numeric = np.zeros_like(value)
        for idx in np.ndindex(value.shape):
            saved = value[idx]
            value[idx] = saved + h
            up = float((dout * _layer_norm_forward(x, gamma, beta)[0]).sum())
            value[idx] = saved - h
            down = float((dout * _layer_norm_forward(x, gamma, beta)[0]).sum())
            value[idx] = saved
            numeric[idx] = (up - down) / (2 * h)
        assert_close(grad, numeric, rtol=1e-7)


# -- no aliasing ----------------------------------------------------------------


@pytest.fixture(scope="module")
def batch_and_model():
    corpus = sample_corpus(GeneratorConfig(n_sessions=200, seed=0, cross_turn_rate=0.3))
    vocab = build_vocabulary(corpus)
    packs = prepare_instances(split_corpus(corpus)[0][:16], vocab, TripleSource(TripleMode.GOLD))
    config = ModelConfig(vocab_size=len(vocab), mask_variant=MaskVariant.TRIPLE_MASK)
    return make_batch(packs, MaskVariant.TRIPLE_MASK), RewriterModel(config, seed=3)


def cached_arrays(layer_caches):
    """Every cached activation, by layer and name, with tuples flattened."""
    out = {}
    for i, cache in enumerate(layer_caches):
        for name, value in cache.items():
            values = value if isinstance(value, tuple) else (value,)
            for j, array in enumerate(values):
                if isinstance(array, np.ndarray):
                    out[i, name, j] = array
    return out


def test_kernels_write_no_array_they_do_not_own(batch_and_model):
    batch, model = batch_and_model
    batch_before = copy.deepcopy(batch)
    params_before = copy.deepcopy(model.params)
    runs = []
    for _ in range(2):
        loss, _, grads = model.loss_and_grads(batch, loss_scale=0.01)
        runs.append((loss, grads))
    assert runs[0][0] == runs[1][0]
    for name in model.params:
        assert np.array_equal(runs[0][1][name], runs[1][1][name]), name
    for key, value in batch.items():
        assert np.array_equal(value, batch_before[key]), key
    for name, value in model.params.items():
        assert np.array_equal(value, params_before[name]), name

    logits, cache = model.forward_batch(batch)
    # every activation the forward pass caches, the GELU slope included, is
    # what the oracle computes; the backward pass drops its references to
    # them, but writes none of them
    cached = cached_arrays(cache[3])
    snapshot = copy.deepcopy(cached)
    oracle_caches = oracle_forward(model, batch)[1]
    for c in oracle_caches:
        c["slope"] = oracle_gelu_backward(1.0, c["gelu"])
    oracle = cached_arrays(oracle_caches)
    names = {name for _, name, _ in cached}
    assert names == {"attn", "qh", "kh", "vh", "ln1", "h_act", "slope", "ln2"}
    for key, value in cached.items():
        assert_close(value, oracle[key])
    model._backward(np.ones_like(logits) * 1e-3, cache)
    for key, value in cached.items():
        assert np.array_equal(value, snapshot[key]), key


def test_backward_consumes_its_cache(batch_and_model):
    batch, model = batch_and_model
    logits, cache = model.forward_batch(batch)
    layer_caches = list(cache[3])
    assert all(any(isinstance(v, np.ndarray) for v in c.values()) for c in layer_caches)
    model._backward(np.ones_like(logits) * 1e-3, cache)
    assert cache == [] and all(c == {} for c in layer_caches)


def test_loss_and_grads_peak_memory():
    # the 16 longest training packs of a 400-session corpus: B = 16, L = 44
    corpus = sample_corpus(GeneratorConfig(n_sessions=400, seed=0, cross_turn_rate=0.3))
    vocab = build_vocabulary(corpus)
    packs = prepare_instances(split_corpus(corpus)[0], vocab, TripleSource(TripleMode.GOLD))
    batch = make_batch(sorted(packs, key=len)[-16:], MaskVariant.TRIPLE_MASK)
    assert batch["ids"].shape == (16, 44)
    model = RewriterModel(ModelConfig(vocab_size=len(vocab)), seed=0)
    model.loss_and_grads(batch)  # first-call allocations stay out of the reading
    tracemalloc.start()
    try:
        model.loss_and_grads(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # holding the whole forward cache through the backward pass peaked at
    # 15.5 MB, releasing each activation after its last reader at 8.7 MB;
    # caching the GELU slope for its input and tanh, and rebuilding block
    # inputs, the first layer norm's output and the attention context,
    # peaks at 6.5 MB, in the last block's forward
    assert peak < 7.5e6, f"peak {peak / 1e6:.2f} MB"
