"""Regenerate the fixed weights the `rewrite` workload decodes with.

    python3 perfbench/make_weights.py

The weights are trained once and committed, so `rewrite` times every commit
on the same model.  The recipe (corpus seed, train flags, held-out seed rule)
and the SHA-256 digests of the checkpoint and its vocabulary are written to
`weights/recipe.json`; the benchmark refuses to time a checkpoint whose digest
differs from the recorded one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WEIGHTS = os.path.join(HERE, "weights")
RECIPE = os.path.join(WEIGHTS, "recipe.json")
CHECKPOINT = "gold_triple.ckpt"

CORPUS_ARGV = ["--n-sessions", "2000", "--seed", "0", "--cross-turn-rate", "0.3", "--split"]
TRAIN_ARGV = [
    "--source", "gold", "--variant", "triple-mask",
    "--d-model", "64", "--n-heads", "4", "--n-layers", "2", "--d-ff", "128",
    "--batch-size", "32", "--lr", "0.001", "--max-steps", "400", "--eval-every", "400",
    "--max-decode-steps", "24", "--seed", "0",
]
# held-out corpora use this offset on the workload seed, so they never share
# the training corpus seed (0) for any non-negative workload seed
HELDOUT_SEED_OFFSET = 1000


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_recipe() -> dict:
    with open(RECIPE, encoding="utf-8") as fh:
        return json.load(fh)


def check_digests(recipe: dict) -> list[str]:
    """Names of weight files whose digest differs from the recipe's."""
    return [
        name for name, want in sorted(recipe["digests"].items())
        if not os.path.exists(os.path.join(WEIGHTS, name))
        or digest(os.path.join(WEIGHTS, name)) != want
    ]


def build(work: str) -> dict:
    from srl_rewriter.cli import main

    prefix = os.path.join(work, "corpus")
    ckpt = os.path.join(WEIGHTS, CHECKPOINT)
    with contextlib.redirect_stdout(io.StringIO()) as log:
        if main(["gen-corpus", *CORPUS_ARGV, "--out-prefix", prefix]) != 0:
            raise SystemExit("gen-corpus failed")
        code = main([
            "train", "--train", f"{prefix}.train.jsonl", "--dev", f"{prefix}.dev.jsonl",
            "--out", ckpt, "--manifest", os.path.join(work, "train.manifest.json"), *TRAIN_ARGV,
        ])
    if code != 0:
        raise SystemExit("train failed")
    print(log.getvalue(), end="")
    return {
        "corpus_argv": CORPUS_ARGV,
        "train_argv": TRAIN_ARGV,
        "train_split": "train (1600 sessions); dev split (200 sessions) for checkpoint selection",
        "heldout": {
            "n_sessions": 1000,
            "cross_turn_rate": 0.3,
            "seed_rule": f"workload seed + {HELDOUT_SEED_OFFSET}",
            "seed_offset": HELDOUT_SEED_OFFSET,
        },
        "digests": {name: digest(os.path.join(WEIGHTS, name))
                    for name in (CHECKPOINT, CHECKPOINT + ".vocab")},
    }


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    work = os.path.join(HERE, "_work", "make_weights")
    os.makedirs(work, exist_ok=True)
    try:
        recipe = build(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(RECIPE, "w", encoding="utf-8") as fh:
        json.dump(recipe, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {RECIPE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
