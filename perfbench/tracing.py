"""Span tracing around the package's public functions, from outside the package.

`Tracer.install` replaces each target function with a timing wrapper in every
module namespace that holds it, so a call made through `training.make_batch`
is seen exactly like one made through `model.make_batch`.  Methods are wrapped
on their class.  A target that no longer exists is recorded as missing and
the run goes on.

Spans are kept in memory as `[name, parent, start, end, value]` rows that
share one run id and are written to a side file by `Tracer.dump`.  A span's
self time is its duration minus the durations of its direct children; the
process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import uuid
from typing import Callable, Optional

# maps a call's (args, kwargs, result) to one number stored with its span
Hook = Optional[Callable[[tuple, dict, object], float]]


def _forward_rows(args: tuple, kwargs: dict, result) -> float:
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    return float(batch["ids"].size)


def _max_step_hit(args: tuple, kwargs: dict, result) -> float:
    max_steps = args[2] if len(args) > 2 else kwargs.get("max_steps", 32)
    return 1.0 if len(result) >= max_steps else 0.0


# (module, attribute path, span name, value hook)
TARGETS: tuple[tuple[str, str, str, Hook], ...] = (
    ("masks", "build_mask", "masks.build_mask", None),
    ("model", "make_batch", "model.make_batch", None),
    ("model", "greedy_decode", "model.greedy_decode", _max_step_hit),
    ("model", "RewriterModel.forward_batch", "model.forward_batch", _forward_rows),
    ("model", "RewriterModel.loss_and_grads", "model.loss_and_grads", None),
    ("model", "load_checkpoint", "model.load_checkpoint", None),
    ("model", "save_checkpoint", "model.save_checkpoint", None),
    ("training", "train", "training.train", None),
    ("training", "adam_update", "training.adam_update", None),
    ("training", "clip_gradients", "training.clip_gradients", None),
    ("training", "prepare_instances", "training.prepare_instances", None),
    ("training", "decode_corpus", "training.decode_corpus", None),
    ("packing", "pack", "packing.pack", None),
    ("packing", "append_rewrite_token", "packing.append_rewrite_token", None),
    ("srl", "acquire_triples", "srl.acquire_triples", None),
    ("metrics", "evaluate_corpus", "metrics.evaluate_corpus", None),
    ("core", "read_examples", "core.read_examples", None),
    ("core", "write_records", "core.write_records", None),
    ("manifest", "RunManifest.save", "manifest.save", None),
    ("generator", "sample_corpus", "generator.sample_corpus", None),
)

# every module of the package, searched for names bound to a target
MODULES = (
    "core", "generator", "manifest", "masks", "metrics", "model",
    "packing", "seeding", "srl", "training", "cli",
)

NAME, PARENT, START, END, VALUE = range(5)


class Tracer:
    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, fn: Callable, name: str, hook: Hook) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                span[VALUE] = hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"srl_rewriter.{short}")
            except ImportError:
                self.missing.append(short)
        for short, attr, name, hook in TARGETS:
            owner = modules.get(short)
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{short}.{attr}")
                continue
            wrapper = self._wrap(original, name, hook)
            if len(path) > 1:
                setattr(owner, path[-1], wrapper)
                continue
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"run_id": self.run_id, "missing": self.missing,
                 "fields": ["name", "parent", "start", "end", "value"], "spans": self.spans},
                fh,
            )
            fh.write("\n")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_per_pack", "_per_step")):
        return "ratio"
    return "count"


def layer_metrics(spans: list[list], start: int = 0) -> dict[str, float]:
    """Per-layer counts and times from the spans from index `start` on, which
    cover one traced unit of work; parents are indices into all of `spans`."""
    own = spans[start:]
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    child: dict[str, float] = {}
    value: dict[str, float] = {}
    for span in own:
        name, dur = span[NAME], span[END] - span[START]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        value[name] = value.get(name, 0.0) + span[VALUE]
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]][NAME]
            child[parent] = child.get(parent, 0.0) + dur

    def n(name: str) -> int:
        return calls.get(name, 0)

    def s(name: str) -> float:
        return total.get(name, 0.0)

    def self_s(name: str) -> float:
        return s(name) - child.get(name, 0.0)

    def under(span: list, ancestor: str) -> bool:
        while span[PARENT] >= 0:
            span = spans[span[PARENT]]
            if span[NAME] == ancestor:
                return True
        return False

    decode_steps = 0
    decode_rows = 0.0
    for span in own:
        if span[NAME] == "model.forward_batch" and span[PARENT] >= 0 \
                and spans[span[PARENT]][NAME] == "model.greedy_decode":
            decode_steps += 1
            decode_rows += span[VALUE]
    eval_decode_s = sum(
        sp[END] - sp[START] for sp in own
        if sp[NAME] == "training.decode_corpus" and under(sp, "training.train")
    )
    return {
        "masks.build_mask_calls": n("masks.build_mask"),
        "masks.build_mask_s": s("masks.build_mask"),
        "masks.build_mask_calls_per_pack": n("masks.build_mask") / max(n("packing.pack"), 1),
        "model.make_batch_calls": n("model.make_batch"),
        "model.make_batch_self_s": self_s("model.make_batch"),
        "model.greedy_decode_calls": n("model.greedy_decode"),
        "model.greedy_decode_self_s": self_s("model.greedy_decode"),
        "model.decode_steps": decode_steps,
        "model.decode_rows_per_step": decode_rows / max(decode_steps, 1),
        "model.decode_max_step_hits": value.get("model.greedy_decode", 0.0),
        "model.forward_batch_calls": n("model.forward_batch"),
        "model.forward_batch_s": s("model.forward_batch"),
        "model.forward_rows": value.get("model.forward_batch", 0.0),
        "model.loss_and_grads_calls": n("model.loss_and_grads"),
        "model.loss_and_grads_self_s": self_s("model.loss_and_grads"),
        "model.load_checkpoint_s": s("model.load_checkpoint"),
        "model.save_checkpoint_s": s("model.save_checkpoint"),
        "training.train_self_s": self_s("training.train"),
        "training.adam_update_s": s("training.adam_update"),
        "training.clip_gradients_s": s("training.clip_gradients"),
        "training.prepare_instances_self_s": self_s("training.prepare_instances"),
        "training.decode_corpus_s": s("training.decode_corpus"),
        "training.eval_share": eval_decode_s / s("training.train") if n("training.train") else 0.0,
        "packing.pack_calls": n("packing.pack"),
        "packing.pack_s": s("packing.pack"),
        "packing.append_rewrite_token_calls": n("packing.append_rewrite_token"),
        "srl.acquire_triples_calls": n("srl.acquire_triples"),
        "srl.acquire_triples_s": s("srl.acquire_triples"),
        "metrics.evaluate_corpus_s": s("metrics.evaluate_corpus"),
        "core.read_examples_s": s("core.read_examples"),
        "core.write_records_s": s("core.write_records"),
        "manifest.save_s": s("manifest.save"),
        "generator.sample_corpus_s": s("generator.sample_corpus"),
    }
