"""The two-shard training step: each batch runs as two halves, the second on
a worker thread against the same read-only model, with BLAS held at one
thread for the whole of ``train``."""

import ctypes
import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from test_training import micro_packs, micro_setup, micro_train_config  # noqa: F401 (fixtures)

from srl_rewriter import training
from srl_rewriter.core import RewriterError
from srl_rewriter.generator import GeneratorConfig, sample_corpus, split_corpus
from srl_rewriter.masks import MaskVariant
from srl_rewriter.model import ModelConfig, RewriterModel, make_batch
from srl_rewriter.packing import build_vocabulary
from srl_rewriter.seeding import substream
from srl_rewriter.srl import TripleMode, TripleSource
from srl_rewriter.training import prepare_instances, train

SOURCES = {
    MaskVariant.NO_SRL: TripleSource(TripleMode.NONE),
    MaskVariant.BI_MASK: TripleSource(TripleMode.GOLD),
    MaskVariant.TRIPLE_MASK: TripleSource(TripleMode.GOLD),
}


def openblas_threads():
    """OpenBLAS's thread-count (getter, setter), looked up as ``train`` does, or None."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for name in training._OPENBLAS:
        if hasattr(lib, name.format("get")):
            return getattr(lib, name.format("get")), getattr(lib, name.format("set"))
    return None


BLAS = openblas_threads()
needs_openblas = pytest.mark.skipif(BLAS is None, reason="numpy's BLAS exports no thread setter")


def six_steps(**overrides):
    return micro_train_config(max_steps=6, **overrides)


@pytest.fixture(scope="module")
def criterion_8():
    examples = sample_corpus(GeneratorConfig(n_sessions=2000, seed=0, cross_turn_rate=0.3))
    return split_corpus(examples)[0], build_vocabulary(examples)


@pytest.mark.parametrize("variant", list(MaskVariant), ids=lambda v: v.value)
def test_sharded_step_matches_one_whole_batch(criterion_8, variant):
    train_set, vocab = criterion_8
    packs = prepare_instances(train_set[:64], vocab, SOURCES[variant], master_seed=0)
    config = ModelConfig(
        vocab_size=len(vocab), d_model=64, n_heads=4, n_layers=2, d_ff=128,
        max_position=64, mask_variant=variant,
    )
    model = RewriterModel(config, seed=5)
    for seqs in (packs[:32], packs[32:63], packs[:1]):
        batch = make_batch(seqs, variant)
        n = int(batch["target_mask"].sum())
        want_loss, want_n, want = model.loss_and_grads(batch, loss_scale=1.0 / n)
        # a key bias adds one constant to a whole row of scores, which the
        # softmax cancels: its exact gradient is 0 and the computed one is
        # rounding noise, so it is bounded by the largest entry of any gradient
        key_biases = {k for k in want if k.endswith("attn.bk")}
        largest = max(float(np.abs(g).max()) for g in want.values())
        with ThreadPoolExecutor(max_workers=1) as pool:
            for runner in (pool, None):
                loss, got_n, got = training._batch_loss_and_grads(model, seqs, runner)
                assert got_n == want_n == n
                assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
                assert list(got) == list(model.params)
                for name, g in want.items():
                    err = float(np.abs(got[name] - g).max())
                    bound = 1e-12 * float(np.abs(g).max() if name not in key_biases else largest)
                    assert err <= bound, f"B={len(seqs)} {name}: {err:.3g} > {bound:.3g}"


def test_a_batch_of_one_pack_starts_no_thread(micro_setup):
    corpus, vocab, config = micro_setup
    packs = prepare_instances(corpus[:1], vocab, TripleSource(TripleMode.GOLD), master_seed=0)
    model = RewriterModel(config, seed=2)

    class NoPool:
        def submit(self, *args):
            raise AssertionError("a one-pack batch went to the worker")

    loss, n, _ = training._batch_loss_and_grads(model, packs, NoPool())
    assert n == packs[0].len_r - 1 and np.isfinite(loss)


def record_threads(monkeypatch):
    """Patch the batch builder to note, per call, whether it ran on the main thread."""
    seen = []

    def spy(*args, **kwargs):
        seen.append(threading.current_thread() is threading.main_thread())
        return make_batch(*args, **kwargs)

    monkeypatch.setattr(training, "make_batch", spy)
    return seen


def test_worker_and_inline_steps_are_bit_identical(micro_setup, micro_packs, monkeypatch):
    _, vocab, config = micro_setup

    def run():
        seen = record_threads(monkeypatch)
        model = RewriterModel(config, seed=2)
        return model, train(model, *micro_packs, vocab, six_steps()), seen

    def no_library(path):
        raise OSError(f"cannot load {path}")

    threaded_model, threaded, threaded_seen = run()
    # no OpenBLAS thread setter to find: BLAS is left alone and both shards run inline
    monkeypatch.setattr(training.ctypes, "CDLL", no_library)
    inline_model, inline, inline_seen = run()
    assert threaded.steps_run == inline.steps_run == 6
    for name, p in threaded_model.params.items():
        assert np.array_equal(p, inline_model.params[name]), name
    assert threaded.history == inline.history
    assert all(inline_seen)
    if BLAS is not None:  # the second shard of every batch ran on the worker
        assert threaded_seen.count(False) == 6


@needs_openblas
def test_blas_is_held_at_one_thread_during_train_and_restored_after(
    micro_setup, micro_packs, monkeypatch
):
    _, vocab, config = micro_setup
    get, set_ = BLAS
    original = get()
    seen = []
    adam = training.adam_update

    def spy(*args):
        seen.append(get())
        adam(*args)

    monkeypatch.setattr(training, "adam_update", spy)
    set_(2)
    try:
        train(RewriterModel(config, seed=2), *micro_packs, vocab, six_steps())
        assert seen == [1] * 6
        assert get() == 2
        model = RewriterModel(config, seed=2)
        model.params["tok_emb"][...] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(RewriterError) as err:
            train(model, *micro_packs, vocab, six_steps())
        assert err.value.code == "DIVERGENCE"
        assert get() == 2
    finally:
        set_(original)


@pytest.mark.parametrize("half", ["first", "second"])
def test_a_shard_error_surfaces_with_its_own_code(micro_setup, micro_packs, half):
    """A token id past the embedding table, in either half of the one batch."""
    _, vocab, config = micro_setup
    packs, dev_packs, dev_refs = micro_packs
    perm = substream(0, "batch-order").permutation(len(packs))
    bad = perm[0] if half == "first" else perm[-1]
    ids = list(packs[bad].token_ids)
    ids[-1] = config.vocab_size
    packs = [*packs[:bad], replace(packs[bad], token_ids=tuple(ids)), *packs[bad + 1 :]]
    with pytest.raises(RewriterError) as err:
        train(RewriterModel(config, seed=2), packs, dev_packs, dev_refs, vocab,
              six_steps(batch_size=len(packs)))
    assert err.value.code == "ID_OUT_OF_RANGE"


def test_the_callers_numpy_error_state_holds_on_the_worker(micro_setup, micro_packs):
    _, vocab, config = micro_setup
    model = RewriterModel(config, seed=2)
    model.params["tok_emb"][...] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(invalid="ignore"), pytest.raises(RewriterError) as err:
            train(model, *micro_packs, vocab, six_steps())
    assert err.value.code == "DIVERGENCE"


_IMPORT_PROBE = """
import ctypes, sys, threading
import numpy as np
lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
get = getattr(lib, sys.argv[1])
before = get()
import srl_rewriter.cli, srl_rewriter.training
print(threading.active_count(), before, get())
"""


@needs_openblas
def test_import_starts_no_thread_and_sets_no_blas_count():
    src = os.path.dirname(os.path.dirname(training.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, BLAS[0].__name__], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    threads, before, after = proc.stdout.split()
    assert threads == "1" and before == after
