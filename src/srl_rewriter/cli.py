"""Command-line entry points.

Exit codes: 0 on success, 1 for validation failures (bad inputs, bad config,
bad flags), 2 for unexpected internal errors.  Every command takes --config; a
config file supplies flat key = value defaults that explicit flags override.
Commands that write files also write a manifest with the content digests of
every file the run read or wrote, so a rerun over identical inputs is
byte-identical, manifest included.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
import traceback
from typing import Optional

from .core import (
    RUN_FILES,
    RewriterError,
    example_to_record,
    read_decoded,
    read_examples,
    record_tokens,
    validate_example,
    write_json,
    write_records,
)
from .generator import GeneratorConfig, sample_corpus, split_corpus
from .manifest import RunManifest, parse_config_file
from .masks import MaskVariant, build_mask
from .metrics import REPORT_HEADER, evaluate_corpus
from .model import (
    ModelConfig,
    RewriterModel,
    decode_corpus,
    load_checkpoint,
    save_checkpoint,
)
from .packing import Vocabulary, build_vocabulary, pack
from .srl import (
    OK,
    TripleMode,
    TripleScope,
    TripleSource,
    acquire_triples,
    compute_statistics,
    lint_annotations,
    score_srl_corpus,
)
from .training import (
    DEFAULT_GRID,
    TrainConfig,
    prepare_instances,
    references,
    run_ablation_grid,
    train,
)


def _manifest_config(args: argparse.Namespace) -> dict:
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "config", "manifest"):
            continue
        if isinstance(value, (str, int, float, bool, type(None), list, tuple)):
            out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _comma_list(args: argparse.Namespace, name: str) -> list[str]:
    items = str(getattr(args, name)).split(",")
    if not all(item.strip() for item in items):
        raise RewriterError("CONFIG_INVALID", f"--{name} needs a comma list without empty items")
    return items


def _source(args: argparse.Namespace) -> TripleSource:
    return TripleSource(TripleMode(args.source), TripleScope(args.scope))


def _clip(value: float) -> Optional[float]:
    return None if value == 0 else value


_VARIANTS = [v.value for v in MaskVariant]


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value file of defaults")
    sub.add_argument("--manifest", help="manifest path override")


def _add_source_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--source", choices=[m.value for m in TripleMode], default="gold")
    sub.add_argument("--scope", choices=[s.value for s in TripleScope], default="full")


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--d-model", type=int, default=64)
    sub.add_argument("--n-heads", type=int, default=4)
    sub.add_argument("--n-layers", type=int, default=2)
    sub.add_argument("--d-ff", type=int, default=128)
    sub.add_argument("--max-position", type=int, default=64)
    sub.add_argument("--tie-embeddings", action="store_true")


def _add_train_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--batch-size", type=int, default=32)
    sub.add_argument("--lr", type=float, default=5e-5)
    sub.add_argument("--max-steps", type=int, default=1000)
    sub.add_argument("--eval-every", type=int, default=100)
    sub.add_argument("--clip-norm", type=float, default=1.0, help="0 disables clipping")
    sub.add_argument("--stop-loss", type=float, default=None)
    sub.add_argument("--stop-dev-em", type=float, default=None)
    sub.add_argument("--max-decode-steps", type=int, default=32)


def _model_config(args: argparse.Namespace, vocab_size: int, variant: MaskVariant) -> ModelConfig:
    return ModelConfig(
        vocab_size=vocab_size,
        d_model=args.d_model,
        n_heads=args.n_heads,
        n_layers=args.n_layers,
        d_ff=args.d_ff,
        max_position=args.max_position,
        mask_variant=variant,
        tie_embeddings=args.tie_embeddings,
    )


def _train_config(args: argparse.Namespace, seed: int = 0) -> TrainConfig:
    """``ablate`` keeps the default seed: each of its runs takes one of --seeds."""
    return TrainConfig(
        batch_size=args.batch_size,
        lr=args.lr,
        max_steps=args.max_steps,
        eval_every=args.eval_every,
        seed=seed,
        clip_norm=_clip(args.clip_norm),
        stop_loss=args.stop_loss,
        stop_dev_em=args.stop_dev_em,
        max_decode_steps=args.max_decode_steps,
    )


# -- commands -----------------------------------------------------------------


def cmd_gen_corpus(args: argparse.Namespace) -> int:
    config = GeneratorConfig(
        n_sessions=args.n_sessions,
        seed=args.seed,
        token_mode=args.token_mode,
        cross_turn_rate=args.cross_turn_rate,
        omission_rate=args.omission_rate,
        pronoun_rate=args.pronoun_rate,
        neg_rate=args.neg_rate,
        tmp_rate=args.tmp_rate,
        loc_rate=args.loc_rate,
        include_negation_triples=args.include_negation_triples,
    )
    examples = sample_corpus(config)
    if args.split:
        parts = zip(("train", "dev", "test"), split_corpus(examples))
    else:
        parts = [("all", examples)]
    for name, part in parts:
        path = f"{args.out_prefix}.{name}.jsonl"
        write_records(path, [example_to_record(ex) for ex in part])
        print(f"wrote {len(part):>6} examples to {path}")
    stats = compute_statistics(examples)
    print(stats.table())
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    examples = read_examples(args.input)
    stats = compute_statistics(examples)
    print(stats.table())
    if args.lint:
        counts: dict[str, int] = {}
        for ex in examples:
            # what reading accepts but validate_example flags, such as an empty
            # utterance or reference, and the annotation lints
            codes = [v.code for v in validate_example(ex)]
            for entry in lint_annotations(ex.session, ex.triples):
                codes += (entry.c1, entry.c2, entry.c3, entry.c4)
            for code in codes:
                if code != OK:
                    counts[code] = counts.get(code, 0) + 1
        if counts:
            for code, n in sorted(counts.items()):
                print(f"lint {code}: {n}")
        else:
            print("lint clean")
    return 0


def cmd_pack(args: argparse.Namespace) -> int:
    examples = read_examples(args.input)
    if not 0 <= args.index < len(examples):
        raise RewriterError("BAD_RECORD", f"index {args.index} outside corpus of {len(examples)}")
    example = examples[args.index]
    vocab = Vocabulary.load(args.vocab) if args.vocab else build_vocabulary(examples)
    triples = acquire_triples(example, _source(args))
    packed = pack(example, triples, vocab, args.seed)
    if args.dump:
        print(f"{'idx':>4} {'token':<12} {'segment':<6} {'pos':>4} region")
        kinds = ["triple"] * packed.len_z + ["context"] * packed.len_c + ["rewrite"] * packed.len_r
        for i, kind in enumerate(kinds):
            print(
                f"{i:>4} {vocab.token_of(packed.token_ids[i]):<12} "
                f"{packed.segment_ids[i].name:<6} {packed.position_ids[i]:>4} "
                f"{kind}:{packed.region_index[i]}"
            )
    if args.dump_mask:
        mask = build_mask(packed, MaskVariant(args.variant))
        for row in mask.astype(int):
            print("".join(str(v) for v in row))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    variant = MaskVariant(args.variant)
    if variant is MaskVariant.NO_SRL and args.source != TripleMode.NONE.value:
        raise RewriterError("VARIANT_MISMATCH", "no-srl needs the empty triple source")
    config = _train_config(args, seed=args.seed)
    train_examples = read_examples(args.train)
    dev_examples = read_examples(args.dev)
    vocab = build_vocabulary([*train_examples, *dev_examples])
    model = RewriterModel(_model_config(args, len(vocab), variant), seed=args.seed)
    source = _source(args)
    result = train(
        model,
        prepare_instances(train_examples, vocab, source, args.seed),
        prepare_instances(dev_examples, vocab, source, args.seed, include_reference=False),
        references(dev_examples),
        vocab,
        config,
    )
    for point in result.history:
        rep = point.report
        print(
            f"step {point.step:>6}  loss {point.train_loss:.4f}  "
            f"dev-EM {rep.em * 100:6.2f}  BLEU-4 {rep.bleu4 * 100:6.2f}"
        )
    print(f"best dev-EM {result.best_em * 100:.2f} at step {result.best_step}")
    save_checkpoint(result.model, args.out)
    vocab.save(args.out + ".vocab")
    return 0


def cmd_rewrite(args: argparse.Namespace) -> int:
    model = load_checkpoint(args.model)
    variant = model.config.mask_variant.value
    if args.variant not in (None, variant):
        raise RewriterError(
            "VARIANT_MISMATCH", f"--variant {args.variant} against a {variant} checkpoint"
        )
    args.variant = variant  # the manifest records the variant the decode ran under
    vocab = Vocabulary.load(args.model + ".vocab")
    if len(vocab) != model.config.vocab_size:
        message = f"{len(vocab)} vocabulary tokens for a checkpoint of {model.config.vocab_size}"
        raise RewriterError("CHECKPOINT_MISMATCH", message)
    examples = read_examples(args.input)
    packs = prepare_instances(examples, vocab, _source(args), args.seed, include_reference=False)
    hyps = decode_corpus(model, packs, args.max_decode_steps, vocab=vocab)
    records = [example_to_record(ex, hypothesis=hyp) for ex, hyp in zip(examples, hyps)]
    write_records(args.out, records)
    print(f"wrote {len(records)} rewrites to {args.out}")
    # a hypothesis as long as the budget was cut off: EOS never ends one that long
    hits = sum(len(hyp) == args.max_decode_steps for hyp in hyps)
    print(f"{hits} of {len(records)} rewrites hit the decode budget of {args.max_decode_steps} steps")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    hyps = read_decoded(args.input, lambda rec: record_tokens(rec, "hypothesis", "reference"))
    refs = read_decoded(args.ref or args.input, lambda rec: record_tokens(rec, "reference"))
    if len(hyps) != len(refs):
        raise RewriterError("LENGTH_MISMATCH", "hypothesis and reference files differ in length")
    report = evaluate_corpus(hyps, refs, smooth_bleu=args.smooth_bleu)
    print(REPORT_HEADER)
    print(report.row())
    if args.json_out:
        write_json(args.json_out, report.to_dict())
    return 0


def cmd_score_srl(args: argparse.Namespace) -> int:
    gold_examples = read_examples(args.input)
    gold = [list(ex.triples) for ex in gold_examples]
    if args.pred:
        pred_examples = read_examples(args.pred)
        predicted = [list(ex.triples) for ex in pred_examples]
    else:
        source = _source(args)
        if source.mode is TripleMode.GOLD:
            raise RewriterError(
                "CONFIG_INVALID", "scoring gold against itself; pass --pred or --source heuristic"
            )
        predicted = [list(acquire_triples(ex, source)) for ex in gold_examples]
    precision, recall, f1 = score_srl_corpus(predicted, gold)
    print(f"precision {precision:.4f}")
    print(f"recall    {recall:.4f}")
    print(f"f1        {f1:.4f}")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    try:
        seeds = [int(s) for s in _comma_list(args, "seeds")]
    except ValueError as exc:
        raise RewriterError("CONFIG_INVALID", f"--seeds takes integers: {exc}") from exc
    labels = _comma_list(args, "cells")
    by_label = {cell.label: cell for cell in DEFAULT_GRID}
    unknown = [c for c in labels if c not in by_label]
    if unknown:
        raise RewriterError("CONFIG_INVALID", f"unknown cells {unknown}; know {sorted(by_label)}")
    grid = [by_label[c] for c in labels]
    model_config = _model_config(args, vocab_size=4, variant=MaskVariant.TRIPLE_MASK)
    train_config = _train_config(args)
    result = run_ablation_grid(
        read_examples(args.train), read_examples(args.dev), read_examples(args.test),
        model_config, train_config, grid=grid, seeds=seeds,
    )
    print(result.table())
    for label, runs in result.runs.items():
        scores = runs[0].srl_scores
        if scores is not None:
            print(f"srl {label}: precision {scores[0]:.4f} recall {scores[1]:.4f} f1 {scores[2]:.4f}")
    payload = {
        label: [
            {
                "seed": r.seed,
                "steps_run": r.steps_run,
                "best_step": r.best_step,
                "parameter_count": r.parameter_count,
                "dev": r.dev_report.to_dict(),
                "test": r.test_report.to_dict(),
                "srl": list(r.srl_scores) if r.srl_scores else None,
            }
            for r in runs
        ]
        for label, runs in result.runs.items()
    }
    write_json(args.out, payload)
    return 0


# -- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are coded ``USAGE`` failures
    (exit 1) rather than argparse's exit 2; its subcommand parsers inherit it."""

    def error(self, message: str):
        raise RewriterError("USAGE", f"{self.prog}: {message}")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(
        prog="srl-rewriter",
        description="SRL-guided multi-turn dialogue rewriting toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, argparse.ArgumentParser] = {}

    def register(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(func=handler)
        _add_common(sub)
        registry[name] = sub
        return sub

    sub = register("gen-corpus", cmd_gen_corpus, "sample a synthetic dialogue corpus")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--n-sessions", type=int, default=1000)
    sub.add_argument("--token-mode", choices=["char", "word"], default="char")
    sub.add_argument("--cross-turn-rate", type=float, default=0.3)
    sub.add_argument("--omission-rate", type=float, default=0.5)
    sub.add_argument("--pronoun-rate", type=float, default=0.5)
    sub.add_argument("--neg-rate", type=float, default=0.25)
    sub.add_argument("--tmp-rate", type=float, default=0.0)
    sub.add_argument("--loc-rate", type=float, default=0.0)
    sub.add_argument("--include-negation-triples", action="store_true")
    sub.add_argument("--split", action="store_true", help="write train/dev/test files")
    sub.add_argument("--out-prefix", required=True)

    sub = register("stats", cmd_stats, "role mix and cross-turn ratios of a corpus")
    sub.add_argument("--input", required=True)
    sub.add_argument("--lint", action="store_true", help="also lint the annotations")

    sub = register("pack", cmd_pack, "inspect one packed training instance")
    sub.add_argument("--input", required=True)
    sub.add_argument("--index", type=int, default=0)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--vocab")
    sub.add_argument("--dump", action="store_true", help="print the packed token table")
    sub.add_argument("--dump-mask", action="store_true", help="print visibility rows as 0/1")
    _add_source_flags(sub)
    sub.add_argument("--variant", choices=_VARIANTS, default="triple-mask",
                     help="mask of --dump-mask")

    sub = register("train", cmd_train, "train a rewriter")
    sub.add_argument("--train", required=True)
    sub.add_argument("--dev", required=True)
    sub.add_argument("--out", required=True, help="checkpoint path")
    sub.add_argument("--seed", type=int, default=0)
    _add_source_flags(sub)
    sub.add_argument("--variant", choices=_VARIANTS, default="triple-mask")
    _add_model_flags(sub)
    _add_train_flags(sub)

    sub = register("rewrite", cmd_rewrite, "decode rewrites for a record file")
    sub.add_argument("--model", required=True, help="checkpoint; its vocabulary is MODEL.vocab")
    sub.add_argument("--input", required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--max-decode-steps", type=int, default=32)
    sub.add_argument("--seed", type=int, default=0)
    _add_source_flags(sub)
    sub.add_argument("--variant", choices=_VARIANTS,
                     help="must match the checkpoint's, which is the default")

    sub = register("evaluate", cmd_evaluate, "score hypotheses against references")
    sub.add_argument("--input", required=True, help="records with hypothesis tokens")
    sub.add_argument("--ref", help="separate reference records (defaults to --input)")
    sub.add_argument("--smooth-bleu", action="store_true")
    sub.add_argument("--json-out")

    sub = register("score-srl", cmd_score_srl, "triple-level precision/recall/F1")
    sub.add_argument("--input", required=True, help="records with gold triples")
    sub.add_argument("--pred", help="records whose triples are the predictions")
    _add_source_flags(sub)

    sub = register("ablate", cmd_ablate, "train the source x mask grid across seeds")
    sub.add_argument("--train", required=True)
    sub.add_argument("--dev", required=True)
    sub.add_argument("--test", required=True)
    sub.add_argument("--seeds", default="0,1,2")
    sub.add_argument("--cells", default=",".join(cell.label for cell in DEFAULT_GRID))
    sub.add_argument("--out", required=True, help="JSON results path")
    _add_model_flags(sub)
    _add_train_flags(sub)

    return parser, registry


def _keep_freed_memory_mapped() -> None:
    """Keep freed numpy temporaries mapped from one training step to the next:
    pin glibc's mmap and trim thresholds at the ceilings its adaptive ones reach.
    Process-wide, so set here and not at import; a no-op without ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError, TypeError):
        pass


def _check_out(path: str) -> None:
    """Refuse an --out that cannot be written before any work is done."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise RewriterError("IO_ERROR", f"cannot write --out {path}")


def main(argv: Optional[list[str]] = None) -> int:
    _keep_freed_memory_mapped()
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    read, written = {}, set()
    run = RUN_FILES.set((read, written))  # readers and writers add their paths here
    try:
        args = parser.parse_args(argv)
        if args.config:
            overrides = parse_config_file(args.config)
            sub = registry[args.command]
            valid = {action.dest for action in sub._actions}
            unknown = sorted(set(overrides) - valid)
            if unknown:
                raise RewriterError("BAD_CONFIG", f"unknown config keys {unknown}")
            sub.set_defaults(**overrides)
            args = parser.parse_args(argv)
        if getattr(args, "out", None) is not None:
            _check_out(args.out)
        code = args.func(args)
        # the manifest goes to --manifest, else next to --out or --out-prefix
        stem = getattr(args, "out", None) or getattr(args, "out_prefix", None)
        path = args.manifest or (stem and stem + ".manifest.json")
        if code == 0 and path:
            RunManifest(args.command, _manifest_config(args), read, written).save(path)
        return code
    except RewriterError as err:
        print(f"error[{err.code}]: {err.message}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except OSError as err:  # a path that is missing, a directory or not writable
        print(f"error[IO_ERROR]: {err}", file=sys.stderr)
        return 1
    except SystemExit:
        raise
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        RUN_FILES.reset(run)


if __name__ == "__main__":
    sys.exit(main())
