"""Command-line entry points.

Exit codes: 0 on success, 1 for validation failures (bad inputs, bad config,
bad flags), 2 for unexpected internal errors.  Corpus, model and training flags
come from the fields of their config dataclasses.  Every command takes
--config; a config file's flat key = value pairs are read as flags, which
explicit flags override.
Commands that write files also write a manifest with the content digests of
every file the run read or wrote, so a rerun over identical inputs is
byte-identical, manifest included.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import os
import sys
import traceback
import typing

from .core import (
    RESERVED_TOKENS,
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
from .packing import UNK_ID, Vocabulary, build_vocabulary, pack
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
    check_grid,
    prepare_instances,
    references,
    run_ablation_grid,
    train,
)


def _manifest_config(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("func", "config", "manifest")}


def _comma_list(args: argparse.Namespace, name: str) -> list[str]:
    items = str(getattr(args, name)).split(",")
    if not all(item.strip() for item in items):
        raise RewriterError("CONFIG_INVALID", f"--{name} needs a comma list without empty items")
    return items


def _source(args: argparse.Namespace) -> TripleSource:
    return TripleSource(TripleMode(args.source), TripleScope(args.scope))


_VARIANTS = [v.value for v in MaskVariant]


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value file read as flags; explicit flags win")
    sub.add_argument("--manifest", help="manifest path override")


def _add_source_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--source", choices=[m.value for m in TripleMode], default="gold")
    sub.add_argument("--scope", choices=[s.value for s in TripleScope], default="full")


# the vocabulary, --variant or a cell, and --seed or each of --seeds set these
_SET_BY_COMMAND = ("vocab_size", "mask_variant", "seed")


def _add_fields(sub: argparse.ArgumentParser, *classes: type, skip=()) -> None:
    """One flag per field of each config dataclass, ``--d-model`` for ``d_model``,
    with the field's type and default and the choices or help of its metadata."""
    for cls in classes:
        hints = typing.get_type_hints(cls)
        for f in (f for f in dataclasses.fields(cls) if f.name not in skip):
            hint = hints[f.name]  # an Optional[float] field is a float flag
            kind = next(t for t in (*typing.get_args(hint), hint) if t is not type(None))
            how = {"action": "store_true"} if kind is bool else {"type": kind, "default": f.default}
            sub.add_argument("--" + f.name.replace("_", "-"), **how, **f.metadata)


def _config(cls: type, args: argparse.Namespace, **fixed):
    """A ``cls`` from the flags of its fields that ``args`` holds, and ``fixed``."""
    names = {f.name for f in dataclasses.fields(cls)} - fixed.keys()
    return cls(**{k: v for k, v in vars(args).items() if k in names}, **fixed)


# -- commands -----------------------------------------------------------------


def _corpus_paths(args: argparse.Namespace) -> list[str]:
    """The record files ``gen-corpus`` writes: its three splits or one file."""
    names = ("train", "dev", "test") if args.split else ("all",)
    return [f"{args.out_prefix}.{name}.jsonl" for name in names]


def cmd_gen_corpus(args: argparse.Namespace) -> None:
    examples = sample_corpus(_config(GeneratorConfig, args))
    parts = split_corpus(examples) if args.split else [examples]
    written = []
    for path, part in zip(_corpus_paths(args), parts):
        write_records(path, map(example_to_record, part))
        written.append(f"wrote {len(part):>6} examples to {path}")
    print("\n".join(written))
    print(compute_statistics(examples).table())


def cmd_stats(args: argparse.Namespace) -> None:
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


def cmd_pack(args: argparse.Namespace) -> None:
    examples = read_examples(args.input)
    if not 0 <= args.index < len(examples):
        raise RewriterError("BAD_RECORD", f"index {args.index} outside corpus of {len(examples)}")
    example = examples[args.index]
    vocab = Vocabulary.load(args.vocab) if args.vocab else build_vocabulary(examples)
    triples = acquire_triples(example, _source(args))
    packed = pack(example, triples, vocab)
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


def cmd_train(args: argparse.Namespace) -> None:
    variant = MaskVariant(args.variant)
    if variant is MaskVariant.NO_SRL and args.source != TripleMode.NONE.value:
        raise RewriterError("VARIANT_MISMATCH", "no-srl needs the empty triple source")
    config = _config(TrainConfig, args)
    train_examples = read_examples(args.train)
    dev_examples = read_examples(args.dev)
    vocab = build_vocabulary([*train_examples, *dev_examples])
    model_config = _config(ModelConfig, args, vocab_size=len(vocab), mask_variant=variant)
    model = RewriterModel(model_config, seed=args.seed)
    source = _source(args)
    result = train(
        model,
        prepare_instances(train_examples, vocab, source),
        prepare_instances(dev_examples, vocab, source, include_reference=False),
        references(dev_examples),
        vocab,
        config,
    )
    save_checkpoint(result.model, args.out)
    vocab.save(args.out + ".vocab")
    for point in result.history:
        rep = point.report
        print(
            f"step {point.step:>6}  loss {point.train_loss:.4f}  "
            f"dev-EM {rep.em * 100:6.2f}  BLEU-4 {rep.bleu4 * 100:6.2f}"
        )
    print(f"best dev-EM {result.best.report.em * 100:.2f} at step {result.best.step}")


def cmd_rewrite(args: argparse.Namespace) -> None:
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
    model.config.check_decode_budget(args.max_decode_steps)  # before the records are read
    examples = read_examples(args.input)
    if not examples:
        raise RewriterError("EMPTY_CORPUS", "no records to rewrite")
    packs = prepare_instances(examples, vocab, _source(args), include_reference=False)
    hyps = decode_corpus(model, packs, args.max_decode_steps, vocab=vocab)
    write_records(args.out, map(example_to_record, examples, hyps))
    print(f"wrote {len(hyps)} rewrites to {args.out}")
    # validate_example refuses the reserved tokens, so every [UNK] in a pack was unknown input
    unknown = sum(packed.token_ids.count(UNK_ID) for packed in packs)
    print(f"{unknown} packed input tokens fell outside the vocabulary")
    # a hypothesis as long as the budget was cut off: EOS never ends one that long
    hits = sum(len(hyp) == args.max_decode_steps for hyp in hyps)
    print(f"{hits} of {len(hyps)} rewrites hit the decode budget of {args.max_decode_steps} steps")


def cmd_evaluate(args: argparse.Namespace) -> None:
    def hypothesis(rec) -> list[str]:
        return record_tokens(rec, "hypothesis", "reference")

    def reference(rec) -> list[str]:
        return record_tokens(rec, "reference")

    if args.ref:  # files of unequal length are refused by evaluate_corpus
        hyps, refs = read_decoded(args.input, hypothesis), read_decoded(args.ref, reference)
    else:  # one pass over the file for both
        pairs = read_decoded(args.input, lambda rec: (hypothesis(rec), reference(rec)))
        hyps, refs = [h for h, _ in pairs], [r for _, r in pairs]
    report = evaluate_corpus(hyps, refs, smooth_bleu=args.smooth_bleu)
    if args.json_out:
        write_json(args.json_out, dataclasses.asdict(report))
    print(REPORT_HEADER)
    print(report.row())


def cmd_score_srl(args: argparse.Namespace) -> None:
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


def cmd_ablate(args: argparse.Namespace) -> None:
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
    check_grid(grid, seeds)
    # the grid sets the vocabulary size, the mask variant and the seed of each run
    model_config = _config(ModelConfig, args, vocab_size=len(RESERVED_TOKENS))
    train_config = _config(TrainConfig, args)
    result = run_ablation_grid(
        read_examples(args.train), read_examples(args.dev), read_examples(args.test),
        model_config, train_config, grid=grid, seeds=seeds,
    )
    payload = {label: [dataclasses.asdict(r) for r in runs] for label, runs in result.runs.items()}
    write_json(args.out, payload)
    print(result.table())
    for label, runs in result.runs.items():
        scores = runs[0].srl
        if scores is not None:
            print(f"srl {label}: precision {scores[0]:.4f} recall {scores[1]:.4f} f1 {scores[2]:.4f}")


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
    _add_fields(sub, GeneratorConfig)
    sub.add_argument("--split", action="store_true", help="write train/dev/test files")
    sub.add_argument("--out-prefix", required=True)

    sub = register("stats", cmd_stats, "role mix and cross-turn ratios of a corpus")
    sub.add_argument("--input", required=True)
    sub.add_argument("--lint", action="store_true", help="also lint the annotations")

    sub = register("pack", cmd_pack, "inspect one packed training instance")
    sub.add_argument("--input", required=True)
    sub.add_argument("--index", type=int, default=0)
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
    _add_fields(sub, ModelConfig, TrainConfig, skip=_SET_BY_COMMAND)

    sub = register("rewrite", cmd_rewrite, "decode rewrites for a record file")
    sub.add_argument("--model", required=True, help="checkpoint; its vocabulary is MODEL.vocab")
    sub.add_argument("--input", required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--max-decode-steps", type=int, default=32)
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
    _add_fields(sub, ModelConfig, TrainConfig, skip=_SET_BY_COMMAND)

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


def _config_flags(path: str, sub: argparse.ArgumentParser) -> list[str]:
    """A config file's pairs as flags of ``sub``: ``true`` gives a switch its
    bare flag and ``false`` leaves it out."""
    actions = {a.dest: a for a in sub._actions if a.option_strings and a.dest != "help"}
    pairs = parse_config_file(path)
    unknown = sorted(set(pairs) - set(actions))
    if unknown:
        raise RewriterError("BAD_CONFIG", f"unknown config keys {unknown}")
    flags = []
    for key, value in pairs.items():
        flag = actions[key].option_strings[0]
        if actions[key].nargs != 0:
            flags.append(f"{flag}={value}")
        elif value.lower() not in ("true", "false"):
            raise RewriterError("BAD_CONFIG", f"{key} takes true or false, not {value!r}")
        elif value.lower() == "true":
            flags.append(flag)
    return flags


def _check_out(flag: str, path: str) -> None:
    """Refuse a file that cannot be written before any work is done."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise RewriterError("IO_ERROR", f"cannot write {flag} {path}")


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory_mapped()
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    read, written = {}, set()
    run = RUN_FILES.set((read, written))  # readers and writers add their paths here
    try:
        args = parser.parse_args(argv)
        if args.config:  # its flags go first, so the command line's own win
            argv[1:1] = _config_flags(args.config, registry[args.command])
            args = parser.parse_args(argv)
        # the manifest goes to --manifest, else next to --out or --out-prefix
        stem = getattr(args, "out", None) or getattr(args, "out_prefix", None)
        manifest = args.manifest or (stem and stem + ".manifest.json")
        outputs = [("--out", getattr(args, "out", None)),
                   ("--json-out", getattr(args, "json_out", None))]
        if args.command == "gen-corpus":
            outputs += [("--out-prefix", path) for path in _corpus_paths(args)]
        if args.command == "train":
            outputs.append(("--out", args.out + ".vocab"))
        for flag, path in [*outputs, ("--manifest", manifest)]:  # before any work
            if path:
                _check_out(flag, path)
        try:
            args.func(args)
        except BrokenPipeError:  # stdout closed early; every command writes its files first
            pass
        if manifest:
            RunManifest(args.command, _manifest_config(args), read, written).save(manifest)
        return 0
    except RewriterError as err:
        print(f"error[{err.code}]: {err.message}", file=sys.stderr)
        return 1
    except OSError as err:  # a path that is missing, a directory or not writable
        print(f"error[IO_ERROR]: {err}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        RUN_FILES.reset(run)


if __name__ == "__main__":
    sys.exit(main())
