"""Optimization loop: Adam over the analytic gradients, greedy-decode evals,
best-checkpoint tracking, and the triple-source x mask-variant ablation grid.

Every stochastic choice (batch order, init) is derived from a seed, so a
rerun with the same inputs reproduces the same weights.  Packing draws
nothing: triples keep the order their source gives, which the model cannot
see (see ``pack``).
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import math
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import RewriteExample, RewriterError
from .masks import MaskVariant
from .metrics import EvalReport, evaluate_corpus
from .model import ModelConfig, RewriterModel, decode_corpus, make_batch
from .packing import PackedSequence, Vocabulary, build_vocabulary, pack
from .seeding import derive_seed, substream
from .srl import TripleMode, TripleSource, acquire_triples, score_srl_corpus

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# OpenBLAS's thread-count functions in the builds numpy links: scipy-openblas
# (numpy 2 wheels), then ILP64 and LP64 OpenBLAS
_OPENBLAS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
             "openblas_{}_num_threads")


@dataclass
class TrainConfig:
    """Knobs for one training run.

    ``lr`` may be zero: a zero-rate run must leave parameters bit-identical,
    which is useful as a no-op baseline.  When both ``stop_loss`` and
    ``stop_dev_em`` are set, training stops only once both hold at the same
    eval point.
    """

    batch_size: int = 32
    lr: float = 5e-5
    max_steps: int = 1000
    eval_every: int = 100
    seed: int = 0
    clip_norm: float = field(default=1.0, metadata={"help": "0 disables clipping"})
    stop_loss: Optional[float] = None
    stop_dev_em: Optional[float] = None
    max_decode_steps: int = 32

    def __post_init__(self):
        # a NaN compares false, so it would slip past the checks below and never clip or stop
        for name in ("lr", "clip_norm", "stop_loss", "stop_dev_em"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise RewriterError("CONFIG_INVALID", f"{name} {value} is not finite")
        if self.batch_size < 1:
            raise RewriterError("CONFIG_INVALID", f"batch_size {self.batch_size} < 1")
        if self.lr < 0:
            raise RewriterError("CONFIG_INVALID", f"negative learning rate {self.lr}")
        if self.max_steps < 1:
            raise RewriterError("CONFIG_INVALID", f"max_steps {self.max_steps} < 1")
        if self.eval_every < 1:
            raise RewriterError("CONFIG_INVALID", f"eval_every {self.eval_every} < 1")
        if self.clip_norm < 0:
            raise RewriterError("CONFIG_INVALID", f"negative clip_norm {self.clip_norm}")


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @staticmethod
    def init(model: RewriterModel) -> "AdamState":
        return AdamState(
            m={k: np.zeros_like(p) for k, p in model.params.items()},
            v={k: np.zeros_like(p) for k, p in model.params.items()},
        )


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm, unless
    max_norm is 0; returns the norm before scaling."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if 0.0 < max_norm < total:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def adam_update(model: RewriterModel, grads: dict, state: AdamState, lr: float) -> None:
    state.step += 1
    t = state.step
    bias1 = 1.0 - ADAM_BETA1**t
    bias2 = 1.0 - ADAM_BETA2**t
    for name, p in model.params.items():
        g = grads[name]
        m, v = state.m[name], state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        if lr != 0.0:  # guarantee the zero-rate run never rewrites a float
            p -= lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[bool]:
    """Hold OpenBLAS at one thread, restoring its count on exit; yields whether
    it could.  dlsym on numpy's extension module also searches its libraries."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        name = next(n for n in _OPENBLAS if hasattr(lib, n.format("get")))
    except (AttributeError, OSError, StopIteration):
        name = None
    if name is None:
        yield False
        return
    get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
    get.argtypes, get.restype, set_.argtypes, set_.restype = [], ctypes.c_int, [ctypes.c_int], None
    before = get()
    set_(1)
    try:
        yield True
    finally:
        set_(before)


def _shards(packs: Sequence[PackedSequence]) -> tuple[list, list]:
    """A batch of two or more packs cut in two where the larger shard pads the
    fewest rows: sorted stably by length, cut at the largest k minimising
    max(k * len(sorted[k-1]), (B - k) * len(sorted[-1])).  No other split into
    two shards pads its larger one to fewer rows, and packs of one length cut
    into the first ceil(B/2) and the rest, in batch order."""
    ordered = sorted(packs, key=len)
    longest, n = len(ordered[-1]), len(ordered)
    cut = min(range(n - 1, 0, -1), key=lambda k: max(k * len(ordered[k - 1]), (n - k) * longest))
    return ordered[:cut], ordered[cut:]


def _batch_loss_and_grads(model, packs, pool=None) -> tuple[float, int, dict]:
    """Summed loss, target count and gradients, scaled by 1 / target count, of
    a batch of packs with references.  The batch is cut by ``_shards``: the
    shorter packs run here and the longer on ``pool`` meanwhile, or here after
    them; both shards only read ``model``.  The second shard's gradients are
    added into the first's, so the sums do not depend on which finished first."""
    variant = model.config.mask_variant
    n_targets = sum(p.len_r - 1 for p in packs)  # make_batch's: BOS to last-but-one

    def shard(part) -> tuple[float, int, dict]:
        return model.loss_and_grads(make_batch(part, variant), loss_scale=1.0 / n_targets)

    if len(packs) == 1:
        return shard(packs)
    first, second = _shards(packs)
    if pool is None:
        (loss, _, grads), (rest, _, more) = shard(first), shard(second)
    else:  # a copy of this context carries numpy's error state to the worker
        future = pool.submit(contextvars.copy_context().run, shard, second)
        (loss, _, grads), (rest, _, more) = shard(first), future.result()
    for name, g in grads.items():
        g += more[name]
    return loss + rest, n_targets, grads


def prepare_instances(
    examples: Sequence[RewriteExample],
    vocab: Vocabulary,
    source: TripleSource,
    include_reference: bool = True,
) -> list[PackedSequence]:
    """Acquire every example's triples and pack it."""
    return [
        pack(example, acquire_triples(example, source), vocab, include_reference=include_reference)
        for example in examples
    ]


def references(examples: Sequence[RewriteExample]) -> list[list[str]]:
    """The reference tokens that decoded ``examples`` are scored against."""
    for idx, example in enumerate(examples):
        if example.reference is None:
            raise RewriterError("NO_REFERENCE", f"example {idx} to score carries no reference")
    return [list(example.reference) for example in examples]


def _batch_order(n: int, batch_size: int, seed: int) -> Iterator[np.ndarray]:
    """Batches of indices into ``n`` packs without end: each epoch slices a
    fresh permutation, drawn only once the epoch starts."""
    rng = substream(seed, "batch-order")
    while True:
        perm = rng.permutation(n)
        for lo in range(0, n, batch_size):
            yield perm[lo : lo + batch_size]


def _stops(config: TrainConfig, loss: float, em: float) -> bool:
    """Whether an eval point meets every stop threshold set, if any is."""
    held = [loss < config.stop_loss] if config.stop_loss is not None else []
    if config.stop_dev_em is not None:
        held.append(em >= config.stop_dev_em)
    return bool(held) and all(held)


@dataclass
class EvalPoint:
    step: int
    train_loss: float
    report: EvalReport


@dataclass
class TrainResult:
    model: RewriterModel  # the float32 weights a checkpoint stores, from the best dev-EM step
    best: EvalPoint
    steps_run: int
    history: list[EvalPoint]


def train(
    model: RewriterModel,
    train_packs: Sequence[PackedSequence],
    dev_packs: Sequence[PackedSequence],
    dev_refs: Sequence[Sequence[str]],
    vocab: Vocabulary,
    config: TrainConfig,
) -> TrainResult:
    """Minimize rewrite NLL on packs with references, updating ``model`` in
    place to the last step's weights; the result keeps those with the best dev
    exact match.

    Batches are masked under the model's own variant.  Ties on dev exact match
    keep the earliest step.  Dev quality is measured by greedy decoding the
    reference-less ``dev_packs`` against ``dev_refs``.
    """
    if not train_packs:
        raise RewriterError("EMPTY_CORPUS", "no training examples")
    if not dev_packs:
        raise RewriterError("EMPTY_CORPUS", "no dev examples")
    model.config.check_decode_budget(config.max_decode_steps)

    opt = AdamState.init(model)
    batches = _batch_order(len(train_packs), config.batch_size, config.seed)
    history: list[EvalPoint] = []
    best, best_model = None, model  # the last step always evaluates

    # two single-threaded shards side by side; two 2-thread BLAS calls would contend
    with _one_blas_thread() as held, ThreadPoolExecutor(max_workers=1) as pool:
        for step, idxs in enumerate(batches, start=1):
            loss_sum, n_targets, grads = _batch_loss_and_grads(
                model, [train_packs[i] for i in idxs], pool if held else None
            )
            loss = loss_sum / n_targets
            if not math.isfinite(loss):
                raise RewriterError("DIVERGENCE", f"non-finite loss at step {step}")
            clip_gradients(grads, config.clip_norm)
            adam_update(model, grads, opt, config.lr)
            del grads  # released before the next step's shards allocate theirs
            if step % config.eval_every and step < config.max_steps:
                continue
            # dev is decoded from the float32 weights a checkpoint stores, so a
            # reloaded best model reproduces the best dev exact match
            scored = model.stored_copy()
            hyps = decode_corpus(scored, dev_packs, config.max_decode_steps, vocab=vocab)
            point = EvalPoint(step=step, train_loss=loss, report=evaluate_corpus(hyps, dev_refs))
            history.append(point)
            if best is None or point.report.em > best.report.em:
                best, best_model = point, scored
            if step >= config.max_steps or _stops(config, loss, point.report.em):
                break

    return TrainResult(model=best_model, best=best, steps_run=step, history=history)


# -- ablation grid ------------------------------------------------------------


@dataclass(frozen=True)
class AblationCell:
    label: str
    source: TripleSource
    variant: MaskVariant


DEFAULT_GRID: tuple[AblationCell, ...] = (
    AblationCell("no-srl", TripleSource(TripleMode.NONE), MaskVariant.NO_SRL),
    AblationCell("gold+bi", TripleSource(TripleMode.GOLD), MaskVariant.BI_MASK),
    AblationCell("gold+triple", TripleSource(TripleMode.GOLD), MaskVariant.TRIPLE_MASK),
    AblationCell("heuristic+bi", TripleSource(TripleMode.HEURISTIC), MaskVariant.BI_MASK),
    AblationCell("heuristic+triple", TripleSource(TripleMode.HEURISTIC), MaskVariant.TRIPLE_MASK),
)


@dataclass
class CellRun:
    # cmd_ablate writes a run as its fields, so these names are the JSON keys
    seed: int
    steps_run: int
    best_step: int
    parameter_count: int
    dev: EvalReport
    test: EvalReport
    srl: Optional[tuple[float, float, float]] = None


@dataclass
class AblationResult:
    runs: dict[str, list[CellRun]]

    def median_test_em(self, label: str) -> float:
        return statistics.median(r.test.em for r in self.runs[label])

    def table(self) -> str:
        lines = [
            f"{'cell':<18} {'seed':>4} {'EM':>7} {'BLEU-4':>7} {'ROUGE-L':>8} {'params':>9}"
        ]
        for label, runs in self.runs.items():
            for r in runs:
                rep = r.test
                lines.append(
                    f"{label:<18} {r.seed:>4} {rep.em * 100:>7.2f} {rep.bleu4 * 100:>7.2f}"
                    f" {rep.rougeL * 100:>8.2f} {r.parameter_count:>9}"
                )
            ems = [r.test.em * 100 for r in runs]
            lines.append(
                f"{label:<18} {'med':>4} {self.median_test_em(label) * 100:>7.2f}"
                f"  min {min(ems):.2f} max {max(ems):.2f}"
            )
        return "\n".join(lines)


def check_grid(grid: Sequence[AblationCell], seeds: Sequence[int]) -> None:
    """Refuse a repeated cell label or seed: its runs would be identical and
    would count twice in the median."""
    for name, items in (("cell", [cell.label for cell in grid]), ("seed", list(seeds))):
        repeated = [item for i, item in enumerate(items) if item in items[:i]]
        if repeated:
            raise RewriterError("CONFIG_INVALID", f"{name} {repeated[0]!r} is repeated")


def run_ablation_grid(
    train_examples: Sequence[RewriteExample],
    dev_examples: Sequence[RewriteExample],
    test_examples: Sequence[RewriteExample],
    model_config: ModelConfig,
    train_config: TrainConfig,
    grid: Sequence[AblationCell],
    seeds: Sequence[int],
) -> AblationResult:
    """Train every grid cell across seeds on identical splits.

    All cells share one model architecture, so parameter counts match exactly;
    only the triple source and the visibility rules differ.  Packs draw no
    seed, so the splits are packed once per triple source, for every cell and
    seed that share them.
    Heuristic cells also score their acquired triples against the stored gold
    ones.  The grid is checked before anything is packed.
    """
    check_grid(grid, seeds)
    splits = (("train", train_examples), ("dev", dev_examples), ("test", test_examples))
    for split, examples in splits:
        if not examples:  # refused before any cell trains
            raise RewriterError("EMPTY_CORPUS", f"no {split} examples")
    vocab = build_vocabulary([*train_examples, *dev_examples, *test_examples])
    dev_refs, test_refs = references(dev_examples), references(test_examples)
    runs: dict[str, list[CellRun]] = {cell.label: [] for cell in grid}
    for source in dict.fromkeys(cell.source for cell in grid):
        srl_scores = None
        if source.mode is TripleMode.HEURISTIC:
            predicted = [list(acquire_triples(ex, source)) for ex in test_examples]
            srl_scores = score_srl_corpus(predicted, [list(ex.triples) for ex in test_examples])
        train_packs, dev_packs, test_packs = (
            prepare_instances(examples, vocab, source, include_reference=split == "train")
            for split, examples in splits
        )
        for seed in seeds:
            tcfg = replace(train_config, seed=seed)
            for cell in [c for c in grid if c.source == source]:
                cfg = replace(model_config, vocab_size=len(vocab), mask_variant=cell.variant)
                model = RewriterModel(cfg, seed=derive_seed(seed, f"init:{cell.label}"))
                result = train(model, train_packs, dev_packs, dev_refs, vocab, tcfg)
                hyps = decode_corpus(result.model, test_packs, tcfg.max_decode_steps, vocab=vocab)
                runs[cell.label].append(CellRun(
                    seed=seed,
                    steps_run=result.steps_run,
                    best_step=result.best.step,
                    parameter_count=model.parameter_count(),
                    dev=result.best.report,
                    test=evaluate_corpus(hyps, test_refs),
                    srl=srl_scores,
                ))
    return AblationResult(runs=runs)
