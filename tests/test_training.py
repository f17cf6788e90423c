"""Optimizer behavior, training loop control flow, and the ablation grid."""

from dataclasses import replace

import numpy as np
import pytest

from srl_rewriter import training
from srl_rewriter.core import RewriterError
from srl_rewriter.generator import GeneratorConfig, sample_corpus
from srl_rewriter.masks import MaskVariant
from srl_rewriter.metrics import EvalReport
from srl_rewriter.model import ModelConfig, RewriterModel, load_checkpoint, save_checkpoint
from srl_rewriter.packing import build_vocabulary, pack
from srl_rewriter.seeding import derive_seed
from srl_rewriter.srl import TripleMode, TripleSource
from srl_rewriter.training import (
    ADAM_EPS,
    DEFAULT_GRID,
    AblationCell,
    AblationResult,
    AdamState,
    CellRun,
    TrainConfig,
    adam_update,
    clip_gradients,
    prepare_instances,
    references,
    run_ablation_grid,
    train,
)

GOLD = TripleSource(TripleMode.GOLD)


@pytest.fixture(scope="module")
def micro_setup():
    """Eight short sessions and a model small enough to train in milliseconds."""
    corpus = sample_corpus(GeneratorConfig(n_sessions=8, seed=5, tmp_rate=0.0))
    vocab = build_vocabulary(corpus)
    config = ModelConfig(
        vocab_size=len(vocab), d_model=16, n_heads=2, n_layers=1, d_ff=24, max_position=48
    )
    return corpus, vocab, config


@pytest.fixture(scope="module")
def micro_packs(micro_setup):
    """``train``'s data from the first six sessions and the last two."""
    corpus, vocab, _ = micro_setup
    return split_packs(corpus[:6], corpus[6:], vocab)


def split_packs(train_examples, dev_examples, vocab, source=GOLD):
    """``train``'s data as ``cmd_train`` packs it: training packs, reference-less
    dev packs and the dev references."""
    return (
        prepare_instances(train_examples, vocab, source),
        prepare_instances(dev_examples, vocab, source, include_reference=False),
        references(dev_examples),
    )


def micro_train_config(**overrides):
    base = dict(batch_size=4, lr=1e-3, max_steps=4, eval_every=2, seed=0, max_decode_steps=16)
    base.update(overrides)
    return TrainConfig(**base)


# -- config validation ------------------------------------------------------------


def test_train_config_rejects_bad_values():
    for kwargs in (
        dict(batch_size=0),
        dict(lr=-1e-4),
        dict(max_steps=0),
        dict(eval_every=0),
        dict(clip_norm=-1.0),
    ):
        with pytest.raises(RewriterError) as err:
            TrainConfig(**kwargs)
        assert err.value.code == "CONFIG_INVALID"


def test_no_triple_variant_requires_empty_source(micro_setup, micro_packs):
    # the mask refuses the gold packs' triple tokens at the first batch
    corpus, vocab, config = micro_setup
    model = RewriterModel(replace(config, mask_variant=MaskVariant.NO_SRL), seed=1)
    before = {k: v.copy() for k, v in model.params.items()}
    with pytest.raises(RewriterError) as err:
        train(model, *micro_packs, vocab, micro_train_config())
    assert err.value.code == "VARIANT_MISMATCH"
    assert all(np.array_equal(model.params[k], v) for k, v in before.items())
    empty = split_packs(corpus[:6], corpus[6:], vocab, TripleSource(TripleMode.NONE))
    assert train(model, *empty, vocab, micro_train_config()).steps_run == 4


def test_train_rejects_decode_budget_beyond_position_table(micro_setup, micro_packs):
    _, vocab, config = micro_setup
    model = RewriterModel(config, seed=1)
    before = {k: v.copy() for k, v in model.params.items()}
    with pytest.raises(RewriterError) as err:
        train(model, *micro_packs, vocab, micro_train_config(
            max_decode_steps=config.max_position + 1))
    assert err.value.code == "TOO_LONG"
    assert all(np.array_equal(model.params[k], v) for k, v in before.items())


# -- optimizer pieces -------------------------------------------------------------


def test_clip_rescales_to_the_ceiling():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([4.0])}
    norm = clip_gradients(grads, 1.0)
    assert norm == 5.0
    assert np.allclose(grads["a"], [0.6, 0.0])
    assert np.allclose(grads["b"], [0.8])


def test_clip_disabled_or_slack_leaves_gradients_alone():
    grads = {"a": np.array([3.0, 4.0])}
    assert clip_gradients(grads, 0.0) == 5.0
    assert np.array_equal(grads["a"], [3.0, 4.0])
    clip_gradients(grads, 10.0)
    assert np.array_equal(grads["a"], [3.0, 4.0])


def test_adam_first_step_matches_hand_formula(micro_setup):
    _, _, config = micro_setup
    model = RewriterModel(config, seed=1)
    state = AdamState.init(model)
    g = 0.25
    before = {k: p.copy() for k, p in model.params.items()}
    adam_update(model, {k: np.full_like(p, g) for k, p in model.params.items()}, state, lr=0.1)
    # bias correction makes the first step lr * g / (|g| + eps)
    expected_delta = 0.1 * g / (abs(g) + ADAM_EPS)
    for name, p in model.params.items():
        assert np.allclose(before[name] - p, expected_delta, atol=1e-9)
    assert state.step == 1


def test_adam_zero_gradients_leave_parameters_bitwise(micro_setup):
    _, _, config = micro_setup
    model = RewriterModel(config, seed=1)
    state = AdamState.init(model)
    before = {k: p.copy() for k, p in model.params.items()}
    adam_update(model, {k: np.zeros_like(p) for k, p in model.params.items()}, state, lr=0.5)
    for name, p in model.params.items():
        assert np.array_equal(before[name], p)


def test_zero_lr_run_is_a_bitwise_no_op(micro_setup, micro_packs):
    _, vocab, config = micro_setup
    model = RewriterModel(config, seed=2)
    before = {k: p.copy() for k, p in model.params.items()}
    result = train(model, *micro_packs, vocab, micro_train_config(lr=0.0))
    for name, p in model.params.items():
        assert np.array_equal(before[name], p), f"{name} drifted under lr=0"
    assert result.steps_run == 4


# -- training loop ----------------------------------------------------------------


def test_training_is_deterministic(micro_setup, micro_packs):
    _, vocab, config = micro_setup

    def one_run():
        model = RewriterModel(config, seed=2)
        return model, train(model, *micro_packs, vocab, micro_train_config())

    (model_a, a), (model_b, b) = one_run(), one_run()
    for name, p in model_a.params.items():
        assert np.array_equal(p, model_b.params[name])
    assert [pt.train_loss for pt in a.history] == [pt.train_loss for pt in b.history]
    assert a.best == b.best


def test_divergence_is_reported_not_propagated(micro_setup, micro_packs):
    _, vocab, config = micro_setup
    model = RewriterModel(config, seed=2)
    model.params["tok_emb"][...] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(RewriterError) as err:
        train(model, *micro_packs, vocab, micro_train_config())
    assert err.value.code == "DIVERGENCE"


def test_stop_loss_alone_stops_at_first_eval(micro_setup, micro_packs):
    _, vocab, config = micro_setup
    model = RewriterModel(config, seed=2)
    result = train(
        model, *micro_packs, vocab,
        micro_train_config(max_steps=40, eval_every=2, stop_loss=1e9),
    )
    assert result.steps_run == 2


def test_combined_stop_needs_both_conditions(micro_setup, micro_packs):
    _, vocab, config = micro_setup
    model = RewriterModel(config, seed=2)
    # loss threshold trivially true, dev EM threshold unreachable -> no early stop
    result = train(
        model, *micro_packs, vocab,
        micro_train_config(max_steps=6, eval_every=2, stop_loss=1e9, stop_dev_em=2.0),
    )
    assert result.steps_run == 6


def test_dev_em_stop_alone(micro_setup, micro_packs):
    _, vocab, config = micro_setup
    model = RewriterModel(config, seed=2)
    result = train(
        model, *micro_packs, vocab,
        micro_train_config(max_steps=40, eval_every=2, stop_dev_em=0.0),
    )
    assert result.steps_run == 2


def test_best_checkpoint_is_earliest_max(micro_setup, micro_packs):
    _, vocab, config = micro_setup
    model = RewriterModel(config, seed=2)
    result = train(model, *micro_packs, vocab, micro_train_config(max_steps=6))
    ems = [(pt.step, pt.report.em) for pt in result.history]
    top = max(em for _, em in ems)
    assert result.best.report.em == top
    assert result.best.step == min(step for step, em in ems if em == top)
    assert result.best in result.history


def test_best_model_holds_the_weights_its_checkpoint_stores(micro_setup, micro_packs, tmp_path):
    _, vocab, config = micro_setup
    result = train(
        RewriterModel(config, seed=2), *micro_packs, vocab, micro_train_config()
    )
    path = str(tmp_path / "best.ckpt")
    save_checkpoint(result.model, path)
    loaded = load_checkpoint(path)
    for name, value in result.model.params.items():
        assert np.array_equal(value, value.astype(np.float32)), name
        assert np.array_equal(loaded.params[name], value), name


@pytest.mark.parametrize("max_steps, eval_every, steps", [(3, 2, [2, 3]), (1, 100, [1])])
def test_eval_fires_at_final_step_even_off_schedule(micro_setup, micro_packs, max_steps, eval_every, steps):
    # the last step evaluates, also when max_steps is below eval_every
    _, vocab, config = micro_setup
    model = RewriterModel(config, seed=2)
    result = train(
        model, *micro_packs, vocab,
        micro_train_config(max_steps=max_steps, eval_every=eval_every),
    )
    assert [pt.step for pt in result.history] == steps
    assert result.best.step in steps  # with one eval, that eval's step


def test_empty_split_is_rejected(micro_setup, micro_packs):
    _, vocab, config = micro_setup
    model = RewriterModel(config, seed=2)
    with pytest.raises(RewriterError) as err:
        train(model, [], *micro_packs[1:], vocab, micro_train_config())
    assert err.value.code == "EMPTY_CORPUS"


def test_prepare_instances_is_deterministic(micro_setup):
    corpus, vocab, _ = micro_setup
    a = prepare_instances(corpus, vocab, GOLD)
    assert a == prepare_instances(corpus, vocab, GOLD)
    assert a == [pack(example, example.triples, vocab) for example in corpus]


# -- ablation grid ----------------------------------------------------------------


def test_ablation_grid_shapes_and_parameter_parity(micro_setup):
    corpus, _, config = micro_setup
    grid = (
        AblationCell("no-srl", TripleSource(TripleMode.NONE), MaskVariant.NO_SRL),
        AblationCell("gold+triple", GOLD, MaskVariant.TRIPLE_MASK),
        AblationCell("heuristic+bi", TripleSource(TripleMode.HEURISTIC), MaskVariant.BI_MASK),
    )
    result = run_ablation_grid(
        corpus[:5], corpus[5:7], corpus[7:],
        model_config=config,
        train_config=micro_train_config(max_steps=2, eval_every=2),
        grid=grid,
        seeds=(0, 1),
    )
    assert set(result.runs) == {"no-srl", "gold+triple", "heuristic+bi"}
    counts = set()
    for label, runs in result.runs.items():
        assert [r.seed for r in runs] == [0, 1]
        for r in runs:
            counts.add(r.parameter_count)
            if label.startswith("heuristic"):
                assert r.srl is not None
                p, rec, f1 = r.srl
                assert 0.0 <= f1 <= 1.0 and 0.0 <= p <= 1.0 and 0.0 <= rec <= 1.0
            else:
                assert r.srl is None
    assert len(counts) == 1, "every cell must train the same architecture"
    table = result.table()
    assert "gold+triple" in table and "med" in table
    assert 0.0 <= result.median_test_em("no-srl") <= 1.0


def test_ablation_table_prints_each_cells_min_and_max_beside_its_median():
    def run(seed, n_matches):
        report = EvalReport(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, n_matches=n_matches, n_examples=200)
        return CellRun(seed, 4, 4, 100, report, report)

    result = AblationResult({"heuristic+bi": [run(0, 196), run(1, 200), run(2, 83)]})
    lines = result.table().splitlines()
    assert [line.split()[2] for line in lines[1:4]] == ["98.00", "100.00", "41.50"]
    assert lines[4].split() == ["heuristic+bi", "med", "98.00", "min", "41.50", "max", "100.00"]


@pytest.mark.parametrize("cells,seeds,what", [
    (("gold+bi", "gold+bi"), (0, 0), "cell 'gold+bi'"),
    (("no-srl", "gold+bi", "no-srl"), (0,), "cell 'no-srl'"),
    (("gold+bi",), (1, 0, 1), "seed 1"),
])
def test_ablation_grid_refuses_a_repeated_cell_or_seed_before_packing(
    micro_setup, monkeypatch, cells, seeds, what
):
    def no_work(*args, **kwargs):
        raise AssertionError("the grid built, packed or trained before its entries were checked")

    for name in ("build_vocabulary", "prepare_instances", "train"):
        monkeypatch.setattr(training, name, no_work)
    corpus, _, config = micro_setup
    by_label = {cell.label: cell for cell in DEFAULT_GRID}
    with pytest.raises(RewriterError) as err:
        run_ablation_grid(
            corpus[:5], corpus[5:7], corpus[7:], config, micro_train_config(),
            grid=[by_label[label] for label in cells], seeds=seeds,
        )
    assert (err.value.code, err.value.message) == ("CONFIG_INVALID", f"{what} is repeated")


THREE_CELLS = tuple(cell for cell in DEFAULT_GRID if cell.label in ("no-srl", "gold+bi", "gold+triple"))


def micro_grid(micro_setup, grid):
    corpus, _, config = micro_setup
    return run_ablation_grid(
        corpus[:5], corpus[5:7], corpus[7:], config, micro_train_config(max_steps=2, eval_every=2),
        grid=grid, seeds=(0, 1),
    )


def test_ablation_grid_packs_each_source_once(micro_setup, monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return prepare_instances(*args, **kwargs)

    monkeypatch.setattr(training, "prepare_instances", spy)
    micro_grid(micro_setup, THREE_CELLS)
    # two sources x three splits, shared by both seeds
    assert len(calls) == 6


def test_ablation_grid_cells_equal_the_cells_run_alone(micro_setup):
    corpus, vocab, config = micro_setup
    together = micro_grid(micro_setup, THREE_CELLS)
    assert list(together.runs) == [cell.label for cell in THREE_CELLS]
    for cell in THREE_CELLS:
        assert micro_grid(micro_setup, (cell,)).runs[cell.label] == together.runs[cell.label]
        for run in together.runs[cell.label]:  # and its training is `train` on its own packs
            model = RewriterModel(
                replace(config, mask_variant=cell.variant),
                seed=derive_seed(run.seed, f"init:{cell.label}"),
            )
            alone = train(
                model, *split_packs(corpus[:5], corpus[5:7], vocab, cell.source), vocab,
                micro_train_config(max_steps=2, eval_every=2, seed=run.seed),
            )
            assert (alone.steps_run, alone.best.step) == (run.steps_run, run.best_step)
            assert alone.best.report == run.dev
