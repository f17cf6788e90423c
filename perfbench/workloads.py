"""The three workloads: set-up, one timed unit of work, and its output check.

Each workload drives `srl_rewriter.cli.main` in-process, exactly as the
`srl-rewriter` command would, on inputs generated from the workload seed.
A unit is one CLI call; the runner repeats units for the requested seconds
and reports medians.  Every check compares CLI outputs against values the
benchmark computes itself from the generated input files.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import time
from dataclasses import dataclass, field
from statistics import median

from srl_rewriter.cli import main as cli_main

import make_weights

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# model shape of criterion 8 (tests/test_acceptance.py)
MODEL_ARGV = ["--d-model", "64", "--n-heads", "4", "--n-layers", "2", "--d-ff", "128"]
TINY_MODEL_ARGV = ["--d-model", "16", "--n-heads", "2", "--n-layers", "1", "--d-ff", "32"]
GOLD_TRIPLE = ["--source", "gold", "--variant", "triple-mask"]
REWRITE_MAX_STEPS = 32  # also the rewrite command's default


class CheckFailed(Exception):
    pass


@dataclass
class Unit:
    """One timed CLI call: wall time, operations attempted and failed, and
    the workload-specific counts its metrics need."""

    wall_s: float
    attempted: int
    failed: int
    counts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """Exit code, captured stdout and wall seconds of one CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        code = cli_main(argv)
        wall = time.perf_counter() - start
    return code, buf.getvalue(), wall


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def gen_corpus(n_sessions: int, seed: int, prefix: str, split: bool) -> None:
    argv = ["gen-corpus", "--n-sessions", str(n_sessions), "--seed", str(seed),
            "--cross-turn-rate", "0.3", "--out-prefix", prefix]
    code, _, _ = run_cli(argv + (["--split"] if split else []))
    if code != 0:
        raise CheckFailed(f"gen-corpus exited {code}")


class Workload:
    name = ""

    def __init__(self, seed: int, work: str, tiny: bool):
        self.seed = seed
        self.work = work
        self.tiny = tiny

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def prepare(self) -> None:
        """Checks made once, before any timing."""

    def setup(self) -> None:
        """The timed set-up: corpus generation and file writing."""
        raise NotImplementedError

    def read_inputs(self) -> None:
        """Untimed: derive the expected outputs from the set-up's files."""

    def unit(self) -> Unit:
        raise NotImplementedError

    def metrics(self, units: list[Unit]) -> dict[str, float]:
        """Workload-named end-to-end values from all units of a run."""
        raise NotImplementedError


class Train(Workload):
    """`srl-rewriter train` for one epoch of the criterion-8 training split."""

    name = "train"

    def __init__(self, seed: int, work: str, tiny: bool):
        super().__init__(seed, work, tiny)
        self.n_sessions = 100 if tiny else 2000
        self.batch = 8 if tiny else 32
        self.dev_sessions = 5
        self.ref_loss = self.first_loss = None
        if not tiny:
            with open(REFERENCE, encoding="utf-8") as fh:
                ref = json.load(fh)["train"]
            if ref["seed"] == seed:
                self.ref_loss, self.loss_tol = ref["final_loss"], ref["tolerance"]

    def setup(self) -> None:
        prefix = self.path("corpus")
        gen_corpus(self.n_sessions, self.seed, prefix, split=True)
        with open(f"{prefix}.dev.jsonl", encoding="utf-8") as src, \
                open(self.path("dev_handful.jsonl"), "w", encoding="utf-8") as dst:
            for _, line in zip(range(self.dev_sessions), src):
                dst.write(line)

    def read_inputs(self) -> None:
        train = read_jsonl(self.path("corpus.train.jsonl"))
        self.steps = math.ceil(len(train) / self.batch)  # exactly one epoch
        self.tokens = sum(len(rec["reference"]) + 1 for rec in train)

    def unit(self) -> Unit:
        code, out, wall = run_cli([
            "train", "--train", self.path("corpus.train.jsonl"),
            "--dev", self.path("dev_handful.jsonl"), "--out", self.path("model.ckpt"),
            *GOLD_TRIPLE, *(TINY_MODEL_ARGV if self.tiny else MODEL_ARGV),
            "--batch-size", str(self.batch), "--lr", "0.001",
            "--max-steps", str(self.steps), "--eval-every", str(self.steps),
            "--max-decode-steps", "24", "--seed", str(self.seed),
        ])
        problems = []
        losses = [float(m.group(1)) for m in re.finditer(r"^step +\d+ +loss +(\S+)", out, re.M)]
        if code != 0:
            problems.append(f"train exited {code}")
        elif not losses or not all(math.isfinite(x) for x in losses):
            problems.append(f"non-finite or missing losses {losses}")
        elif self.ref_loss is not None and abs(losses[-1] - self.ref_loss) > self.loss_tol:
            problems.append(f"final loss {losses[-1]} != reference {self.ref_loss} ± {self.loss_tol}")
        elif self.first_loss is not None and losses[-1] != self.first_loss:
            problems.append(f"final loss {losses[-1]} differs from the first call's {self.first_loss}")
        if losses and self.first_loss is None:
            self.first_loss = losses[-1]
        counts = {"steps": self.steps, "tokens": self.tokens,
                  "final_loss": losses[-1] if losses else float("nan")}
        return Unit(wall, 1, 1 if problems else 0, counts, problems)

    def metrics(self, units: list[Unit]) -> dict[str, float]:
        return {
            "train_steps_per_s": median([u.counts["steps"] / u.wall_s for u in units]),
            "train_tokens_per_s": median([u.counts["tokens"] / u.wall_s for u in units]),
        }


class Rewrite(Workload):
    """`srl-rewriter rewrite` over held-out sessions with the committed weights."""

    name = "rewrite"

    def __init__(self, seed: int, work: str, tiny: bool):
        super().__init__(seed, work, tiny)
        self.recipe = make_weights.load_recipe()
        held = self.recipe["heldout"]
        self.n_sessions = 20 if tiny else held["n_sessions"]
        self.corpus_seed = seed + held["seed_offset"]
        train_seed = int(self.recipe["corpus_argv"][self.recipe["corpus_argv"].index("--seed") + 1])
        if self.corpus_seed == train_seed:
            raise CheckFailed(f"held-out seed {self.corpus_seed} equals the training corpus seed")

    def prepare(self) -> None:
        bad = make_weights.check_digests(self.recipe)
        if bad:
            raise CheckFailed(f"fixed weights differ from recipe digests: {bad}")

    def setup(self) -> None:
        gen_corpus(self.n_sessions, self.corpus_seed, self.path("heldout"), split=False)

    def read_inputs(self) -> None:
        self.references = [rec["reference"] for rec in read_jsonl(self.path("heldout.all.jsonl"))]

    def unit(self) -> Unit:
        out_path = self.path("hyps.jsonl")
        if os.path.exists(out_path):
            os.remove(out_path)
        code, _, wall = run_cli([
            "rewrite", "--model", os.path.join(make_weights.WEIGHTS, make_weights.CHECKPOINT),
            "--input", self.path("heldout.all.jsonl"), "--out", out_path, *GOLD_TRIPLE,
            "--max-decode-steps", str(REWRITE_MAX_STEPS),
        ])
        n = len(self.references)
        if code != 0:
            return Unit(wall, n, n, {"steps": 0, "matches": 0}, [f"rewrite exited {code}"])
        hyps = [rec.get("hypothesis") for rec in read_jsonl(out_path)]
        if len(hyps) != n:
            return Unit(wall, n, n, {"steps": 0, "matches": 0},
                        [f"{len(hyps)} hypotheses for {n} inputs"])
        matches = sum(h == r for h, r in zip(hyps, self.references))
        # one decode step per emitted token plus the EOS, unless max steps hit
        tokens = sum(min(len(h or ()) + 1, REWRITE_MAX_STEPS) for h in hyps)
        problems = [f"{n - matches} of {n} hypotheses differ from their reference"] \
            if matches != n else []
        return Unit(wall, n, n - matches, {"steps": tokens, "matches": matches}, problems)

    def metrics(self, units: list[Unit]) -> dict[str, float]:
        return {
            "rewrite_tokens_per_s": median([u.counts["steps"] / u.wall_s for u in units]),
            "rewrite_em": sum(u.counts["matches"] for u in units) / sum(u.attempted for u in units),
        }


class Ablate(Workload):
    """One `srl-rewriter ablate` cell (gold+triple, seed 0) at the criterion-8 config."""

    name = "ablate"
    EVAL_KEYS = {"bleu1", "bleu2", "bleu4", "em", "rouge1", "rouge2", "rougeL"}

    def __init__(self, seed: int, work: str, tiny: bool):
        super().__init__(seed, work, tiny)
        self.n_sessions = 60 if tiny else 2000
        self.steps, self.eval_every = (4, 2) if tiny else (120, 40)
        self.shape = dict(zip(("d", "h", "layers", "ff"), (16, 2, 1, 32) if tiny else (64, 4, 2, 128)))

    def setup(self) -> None:
        gen_corpus(self.n_sessions, self.seed, self.path("corpus"), split=True)

    def read_inputs(self) -> None:
        tokens = set()
        for part in ("train", "dev", "test"):
            for rec in read_jsonl(self.path(f"corpus.{part}.jsonl")):
                for utt in rec["utterances"]:
                    tokens.update(utt["tokens"])
                tokens.update(rec["reference"])
        self.vocab_size = len(tokens) + 4 + 9  # reserved tokens + one marker per role
        self.split_sizes = {part: len(read_jsonl(self.path(f"corpus.{part}.jsonl")))
                            for part in ("dev", "test")}
        self.expected_params = parameter_count(self.vocab_size, **self.shape)

    def unit(self) -> Unit:
        out_path = self.path("grid.json")
        if os.path.exists(out_path):
            os.remove(out_path)
        code, _, wall = run_cli([
            "ablate", "--train", self.path("corpus.train.jsonl"),
            "--dev", self.path("corpus.dev.jsonl"), "--test", self.path("corpus.test.jsonl"),
            "--seeds", "0", "--cells", "gold+triple", "--out", out_path,
            *(TINY_MODEL_ARGV if self.tiny else MODEL_ARGV),
            "--batch-size", "32", "--lr", "0.001", "--max-steps", str(self.steps),
            "--eval-every", str(self.eval_every), "--max-decode-steps", "24",
        ])
        problems = [f"ablate exited {code}"] if code != 0 else self.check(out_path)
        em = float("nan") if problems else read_json(out_path)["gold+triple"][0]["test"]["em"]
        return Unit(wall, 1, 1 if problems else 0, {"steps": self.steps, "test_em": em}, problems)

    def check(self, path: str) -> list[str]:
        grid = read_json(path)
        if set(grid) != {"gold+triple"} or len(grid["gold+triple"]) != 1:
            return [f"cells {sorted(grid)} instead of one gold+triple run"]
        run = grid["gold+triple"][0]
        problems = []
        if run.get("seed") != 0 or run.get("steps_run") != self.steps:
            problems.append(f"seed {run.get('seed')} steps_run {run.get('steps_run')}")
        if run.get("best_step") not in range(self.eval_every, self.steps + 1, self.eval_every):
            problems.append(f"best_step {run.get('best_step')} is not an eval step")
        for split in ("dev", "test"):
            report = run.get(split) or {}
            if not self.EVAL_KEYS <= set(report) or not 0.0 <= report.get("em", -1) <= 1.0 \
                    or report.get("n_examples") != self.split_sizes[split]:
                problems.append(f"{split} report incomplete: {report}")
        if run.get("parameter_count") != self.expected_params:
            problems.append(f"parameter_count {run.get('parameter_count')} "
                            f"!= {self.expected_params} for vocab {self.vocab_size}")
        return problems

    def metrics(self, units: list[Unit]) -> dict[str, float]:
        return {
            "ablate_cell_s": median([u.wall_s for u in units]),
            "ablate_test_em": median([u.counts["test_em"] for u in units]),
        }


def parameter_count(vocab: int, d: int, h: int, layers: int, ff: int, max_position: int = 64) -> int:
    """Untied embeddings, per-layer attention/LN/FFN, output projection."""
    per_layer = 4 * d * d + 4 * d + 2 * d + d * ff + ff + ff * d + d + 2 * d
    return vocab * d + 3 * d + max_position * d + layers * per_layer + d * vocab + vocab


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


WORKLOADS = {cls.name: cls for cls in (Train, Rewrite, Ablate)}
