"""End-to-end command-line flows in temporary workspaces."""

import contextlib
import copy
import io
import json
import os
import platform
import shutil
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import oracle_tags
from test_model import join_checkpoint, split_checkpoint

import srl_rewriter
from srl_rewriter.cli import _manifest_config, build_parser, main
from srl_rewriter.core import ROLE_TOKENS, RUN_FILES, file_digest, read_examples
from srl_rewriter.model import load_checkpoint
from srl_rewriter.training import prepare_instances

TINY_MODEL = [
    "--d-model", "16", "--n-heads", "2", "--n-layers", "1", "--d-ff", "24",
]
TINY_TRAIN = [
    "--batch-size", "4", "--lr", "0.001", "--max-steps", "2", "--eval-every", "2",
]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One generated corpus, one trained checkpoint, one decoded record file."""
    root = tmp_path_factory.mktemp("cli")
    prefix = str(root / "corpus")
    assert main([
        "gen-corpus", "--n-sessions", "30", "--seed", "3", "--split",
        "--out-prefix", prefix,
    ]) == 0
    ckpt = str(root / "model.ckpt")
    assert main([
        "train", "--train", f"{prefix}.train.jsonl", "--dev", f"{prefix}.dev.jsonl",
        "--out", ckpt, *TINY_MODEL, *TINY_TRAIN,
    ]) == 0
    hyps = str(root / "hyps.jsonl")
    assert main([
        "rewrite", "--model", ckpt, "--input", f"{prefix}.test.jsonl", "--out", hyps,
    ]) == 0
    return {"root": root, "prefix": prefix, "ckpt": ckpt, "hyps": hyps}


@pytest.fixture(scope="module")
def word_prefix(tmp_path_factory):
    """A corpus in the word-token lexicon, split three ways."""
    prefix = str(tmp_path_factory.mktemp("words") / "corpus")
    assert main([
        "gen-corpus", "--n-sessions", "30", "--seed", "3", "--token-mode", "word", "--split",
        "--out-prefix", prefix,
    ]) == 0
    return prefix


def read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh.read().splitlines() if line]


# -- corpus generation ------------------------------------------------------------


def test_split_files_and_manifest(ws):
    prefix = ws["prefix"]
    counts = {name: len(read_lines(f"{prefix}.{name}.jsonl")) for name in ("train", "dev", "test")}
    assert counts == {"train": 24, "dev": 3, "test": 3}
    manifest = json.loads(open(f"{prefix}.manifest.json", encoding="utf-8").read())
    assert manifest["command"] == "gen-corpus"
    assert len(manifest["outputs"]) == 3
    for digest in manifest["outputs"].values():
        assert len(digest) == 64
    assert manifest["config"]["n_sessions"] == 30
    assert "timestamp" not in json.dumps(manifest)


def test_gen_corpus_single_file_output(tmp_path, capsys):
    prefix = str(tmp_path / "c")
    assert main(["gen-corpus", "--n-sessions", "5", "--out-prefix", prefix]) == 0
    out = capsys.readouterr().out
    assert f"wrote      5 examples to {prefix}.all.jsonl" in out
    assert "totals:" in out


def test_gen_corpus_rerun_is_byte_identical(tmp_path):
    prefix = str(tmp_path / "c")
    main(["gen-corpus", "--n-sessions", "8", "--seed", "5", "--out-prefix", prefix])
    first = open(f"{prefix}.all.jsonl", "rb").read()
    first_manifest = open(f"{prefix}.manifest.json", "rb").read()
    main(["gen-corpus", "--n-sessions", "8", "--seed", "5", "--out-prefix", prefix])
    assert open(f"{prefix}.all.jsonl", "rb").read() == first
    assert open(f"{prefix}.manifest.json", "rb").read() == first_manifest


# -- inspection commands ----------------------------------------------------------


def test_stats_reports_clean_lint(ws, capsys):
    assert main(["stats", "--input", f"{ws['prefix']}.train.jsonl", "--lint"]) == 0
    out = capsys.readouterr().out
    assert "ARG0" in out and "cross-turn" in out
    assert "lint clean" in out


def test_pack_dump_table_and_mask(ws, capsys):
    assert main([
        "pack", "--input", f"{ws['prefix']}.train.jsonl", "--index", "1",
        "--dump", "--dump-mask",
    ]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["idx", "token", "segment", "pos", "region"]
    table = [l for l in out[1:] if not set(l) <= {"0", "1"}]
    mask_rows = [l for l in out[1:] if l and set(l) <= {"0", "1"}]
    assert any("triple:0" in line for line in table)
    assert any("rewrite:0" in line for line in table)
    n = len(mask_rows)
    assert n == len(table) and all(len(r) == n for r in mask_rows)
    assert all(r[i] == "1" for i, r in enumerate(mask_rows)), "diagonal must be visible"


def test_pack_dump_prints_each_tokens_region_and_index(ws, capsys):
    path = f"{ws['prefix']}.train.jsonl"
    assert main(["pack", "--input", path, "--dump"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    example = read_examples(path)[0]
    tags = oracle_tags(example, example.triples, 0)
    assert [row.split()[-1] for row in rows] == [f"{tag.kind.value}:{tag.index}" for tag in tags]


def test_pack_rejects_out_of_range_index(ws, capsys):
    assert main(["pack", "--input", f"{ws['prefix']}.dev.jsonl", "--index", "99"]) == 1
    assert "error[BAD_RECORD]" in capsys.readouterr().err


@pytest.mark.parametrize("span", [
    {"turn": 5, "start": 0, "end": 1},
    {"turn": 0, "start": -1, "end": 1},
])
def test_pack_rejects_out_of_range_triple_span(ws, capsys, tmp_path, span):
    records = [json.loads(line) for line in read_lines(f"{ws['prefix']}.dev.jsonl")]
    records[1]["triples"][0]["argument"] = span
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert main(["pack", "--input", str(path), "--index", "1", "--dump"]) == 1
    err = capsys.readouterr().err
    assert "error[BAD_RECORD]" in err and "record 1: triple 0: argument" in err


@pytest.mark.parametrize("command", ["pack", "stats", "rewrite", "score-srl"])
@pytest.mark.parametrize("where", ["utterance", "reference"])
@pytest.mark.parametrize("token", ["[EOS]", "<ARG1>"])
def test_reserved_tokens_are_refused_by_every_read(ws, capsys, tmp_path, command, where, token):
    records = [json.loads(line) for line in read_lines(f"{ws['prefix']}.dev.jsonl")]
    tokens = records[1]["utterances"][0]["tokens"] if where == "utterance" else records[1]["reference"]
    tokens.insert(1, token)
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(json.dumps(r) + "\n" for r in records))
    argv = {
        "pack": ["pack", "--input", path],
        "stats": ["stats", "--input", path, "--lint"],
        "rewrite": ["rewrite", "--model", ws["ckpt"], "--input", path,
                    "--out", str(tmp_path / "out.jsonl")],
        "score-srl": ["score-srl", "--input", path, "--source", "heuristic"],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error[BAD_RECORD]" in err and f"{path}: record 1: " in err
    assert token in err


# -- training and decoding ---------------------------------------------------------


def test_train_writes_checkpoint_vocab_manifest(ws):
    model = load_checkpoint(ws["ckpt"])
    assert model.config.d_model == 16
    vocab_lines = read_lines(ws["ckpt"] + ".vocab")
    assert vocab_lines[0] == "[PAD]"
    manifest = json.loads(open(ws["ckpt"] + ".manifest.json", encoding="utf-8").read())
    assert set(manifest["inputs"]) == {f"{ws['prefix']}.train.jsonl", f"{ws['prefix']}.dev.jsonl"}
    assert set(manifest["outputs"]) == {ws["ckpt"], ws["ckpt"] + ".vocab"}


@pytest.mark.parametrize("flag,value", [
    ("--n-heads", "0"), ("--d-ff", "-1"), ("--n-layers", "0"), ("--d-model", "0"),
    ("--max-position", "0"),
])
def test_train_refuses_non_positive_model_sizes(ws, capsys, tmp_path, flag, value):
    assert main([
        "train", "--train", f"{ws['prefix']}.train.jsonl", "--dev", f"{ws['prefix']}.dev.jsonl",
        "--out", str(tmp_path / "m.ckpt"), *TINY_MODEL, *TINY_TRAIN, flag, value,
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[CONFIG_INVALID]: ") and flag[2:].replace("-", "_") in err


def test_train_refuses_a_zero_decode_budget_before_any_step(ws, capsys, tmp_path, monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran before the decode budget was checked")

    monkeypatch.setattr("srl_rewriter.training._batch_loss_and_grads", no_step)
    out = str(tmp_path / "m.ckpt")
    assert main([
        "train", "--train", f"{ws['prefix']}.train.jsonl", "--dev", f"{ws['prefix']}.dev.jsonl",
        "--out", out, *TINY_MODEL, *TINY_TRAIN, "--max-decode-steps", "0",
    ]) == 1
    assert capsys.readouterr().err == "error[CONFIG_INVALID]: max_decode_steps 0 < 1\n"
    assert not os.path.exists(out)


def test_train_refuses_an_empty_dev_split_before_writing(ws, capsys, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main([
        "train", "--train", f"{ws['prefix']}.train.jsonl", "--dev", str(empty),
        "--out", str(tmp_path / "m.ckpt"), *TINY_MODEL, *TINY_TRAIN,
    ]) == 1
    assert capsys.readouterr() == ("", "error[EMPTY_CORPUS]: no dev examples\n")
    assert sorted(os.listdir(tmp_path)) == ["empty.jsonl"]  # no checkpoint, vocabulary or manifest


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("flag,value", [
    ("--lr", "nan"), ("--clip-norm", "nan"), ("--stop-loss", "inf"), ("--stop-dev-em", "nan"),
])
def test_training_refuses_non_finite_floats_before_reading_anything(
    ws, capsys, tmp_path, monkeypatch, command, flag, value
):
    def no_read(*args, **kwargs):
        raise AssertionError("input was read before the float flags were checked")

    monkeypatch.setattr("srl_rewriter.cli.read_examples", no_read)
    out, prefix = str(tmp_path / "out"), ws["prefix"]
    inputs = ["--train", f"{prefix}.train.jsonl", "--dev", f"{prefix}.dev.jsonl"]
    if command == "ablate":
        inputs += ["--test", f"{prefix}.test.jsonl", "--seeds", "0", "--cells", "no-srl"]
    argv = [command, *inputs, "--out", out, *TINY_MODEL, *TINY_TRAIN, flag, value]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error[CONFIG_INVALID]: {flag[2:].replace('-', '_')} {float(value)} is not finite\n"
    assert not os.path.exists(out)


def test_train_refuses_no_srl_with_triples_before_reading_anything(
    ws, capsys, tmp_path, monkeypatch
):
    def no_work(*args, **kwargs):
        raise AssertionError("input was read or packed before the flags were checked")

    for name in ("read_examples", "prepare_instances"):
        monkeypatch.setattr(f"srl_rewriter.cli.{name}", no_work)
    out = str(tmp_path / "m.ckpt")
    argv = ["train", "--train", f"{ws['prefix']}.train.jsonl", "--dev", f"{ws['prefix']}.dev.jsonl",
            "--out", out, *TINY_MODEL, *TINY_TRAIN, "--variant", "no-srl"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error[VARIANT_MISMATCH]: no-srl needs the empty triple source\n"
    assert not os.path.exists(out)
    monkeypatch.undo()
    assert main([*argv, "--source", "none"]) == 0


def test_train_packs_heuristic_triples_of_a_word_corpus(word_prefix, tmp_path, monkeypatch):
    # one rule table covers both lexica, so no flag names the corpus's tokens
    packed = []

    def spy(*args, **kwargs):
        packs = prepare_instances(*args, **kwargs)
        packed.extend(packs)
        return packs

    monkeypatch.setattr("srl_rewriter.cli.prepare_instances", spy)
    assert main([
        "train", "--train", f"{word_prefix}.train.jsonl", "--dev", f"{word_prefix}.dev.jsonl",
        "--out", str(tmp_path / "m.ckpt"), "--source", "heuristic", *TINY_MODEL, *TINY_TRAIN,
    ]) == 0
    assert len(packed) == 24 + 3
    assert all(p.len_z > 0 for p in packed)


@pytest.mark.parametrize("command, split", [("train", "dev"), ("ablate", "dev"), ("ablate", "test")])
def test_a_record_to_score_without_a_reference_is_refused(ws, capsys, tmp_path, command, split):
    records = [json.loads(line) for line in read_lines(f"{ws['prefix']}.{split}.jsonl")]
    del records[1]["reference"]
    paths = {name: f"{ws['prefix']}.{name}.jsonl" for name in ("train", "dev", "test")}
    paths[split] = str(tmp_path / "bare.jsonl")
    with open(paths[split], "w", encoding="utf-8") as fh:
        fh.write("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records))
    if command == "ablate":
        argv = ["ablate", "--test", paths["test"], "--seeds", "0", "--cells", "gold+triple"]
    else:
        argv = ["train"]
    out = str(tmp_path / "out")
    argv += ["--train", paths["train"], "--dev", paths["dev"], "--out", out, *TINY_MODEL, *TINY_TRAIN]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error[NO_REFERENCE]: example 1 to score carries no reference\n"
    assert not os.path.exists(out)


def test_rewrite_of_dev_reproduces_the_best_dev_em(tmp_path, capsys):
    # the printed best dev-EM is scored on the weights the checkpoint stores
    prefix = str(tmp_path / "corpus")
    assert main(["gen-corpus", "--n-sessions", "120", "--seed", "3", "--split",
                 "--out-prefix", prefix]) == 0
    ckpt, hyps = str(tmp_path / "model.ckpt"), str(tmp_path / "dev.hyps.jsonl")
    assert main([
        "train", "--train", f"{prefix}.train.jsonl", "--dev", f"{prefix}.dev.jsonl",
        "--out", ckpt, "--d-model", "32", "--n-heads", "2", "--n-layers", "1", "--d-ff", "48",
        "--batch-size", "16", "--lr", "0.005", "--max-steps", "150", "--eval-every", "50",
    ]) == 0
    best = capsys.readouterr().out.splitlines()[-1].split()
    assert best[:2] == ["best", "dev-EM"] and 0.0 < float(best[2]) < 100.0
    assert main(["rewrite", "--model", ckpt, "--input", f"{prefix}.dev.jsonl", "--out", hyps]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--input", hyps]) == 0
    assert capsys.readouterr().out.splitlines()[1].split()[-1] == best[2]


def test_rewrite_attaches_hypotheses(ws):
    records = [json.loads(line) for line in read_lines(ws["hyps"])]
    assert len(records) == 3
    for rec in records:
        assert isinstance(rec["hypothesis"], list)
        assert "reference" in rec  # inputs carried through untouched


def test_rewrite_reports_decode_budget_hits(ws, capsys, tmp_path):
    out = str(tmp_path / "hyps.jsonl")
    test = f"{ws['prefix']}.test.jsonl"
    for steps in ("1", "32"):
        argv = ["rewrite", "--model", ws["ckpt"], "--input", test, "--out", out,
                "--max-decode-steps", steps]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        hyps = [json.loads(line)["hypothesis"] for line in read_lines(out)]
        hits = sum(len(h) == int(steps) for h in hyps)
        assert lines[-1] == f"{hits} of 3 rewrites hit the decode budget of {steps} steps"
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == lines[-1]


def test_rewrite_counts_the_input_tokens_outside_the_vocabulary(ws, capsys, tmp_path):
    # the vocabulary holds every dev token; two new ones at the end of the last
    # turn lie outside every triple span, so each is packed once, as [UNK]
    records = [json.loads(line) for line in read_lines(f"{ws['prefix']}.dev.jsonl")]
    path, out = tmp_path / "unknown.jsonl", str(tmp_path / "hyps.jsonl")
    for extra, count in (([], 0), (["unseen-1", "unseen-2"], 2)):
        records[1]["utterances"][-1]["tokens"] += extra
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        for _ in range(2):  # the same count on a rerun
            assert main(["rewrite", "--model", ws["ckpt"], "--input", str(path), "--out", out]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[1] == f"{count} packed input tokens fell outside the vocabulary"


@pytest.mark.parametrize("steps, code, message", [
    ("0", "CONFIG_INVALID", "max_decode_steps 0 < 1"),
    ("99", "TOO_LONG", "99 decode steps exceed max_position 64"),
])
@pytest.mark.parametrize("records", ["empty", "test"])
def test_rewrite_checks_the_decode_budget_even_with_nothing_to_decode(
    ws, capsys, tmp_path, steps, code, message, records
):
    # the checkpoint's position table holds 64 rewrite positions
    test = f"{ws['prefix']}.test.jsonl"
    if records == "empty":
        test = str(tmp_path / "empty.jsonl")
        open(test, "w").close()
    out = str(tmp_path / "hyps.jsonl")
    argv = ["rewrite", "--model", ws["ckpt"], "--input", test, "--out", out,
            "--max-decode-steps", steps]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error[{code}]: {message}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("text", ["", "\n  \n"])
def test_rewrite_refuses_an_empty_input_before_decoding_or_writing(
    ws, capsys, tmp_path, monkeypatch, text
):
    # train, stats and evaluate refuse an empty corpus; rewrite wrote an empty file
    empty = tmp_path / "empty.jsonl"
    empty.write_text(text)
    out = tmp_path / "hyps.jsonl"

    def decode(*args, **kwargs):
        raise AssertionError("decoded an empty corpus")

    monkeypatch.setattr("srl_rewriter.cli.decode_corpus", decode)
    argv = ["rewrite", "--model", ws["ckpt"], "--input", str(empty), "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error[EMPTY_CORPUS]: no records to rewrite\n")
    assert sorted(os.listdir(tmp_path)) == ["empty.jsonl"]


def checkpoint_with_vocabulary(ws, tmp_path, lines):
    """A copy of the trained checkpoint whose MODEL.vocab holds ``lines``."""
    ckpt = str(tmp_path / "model.ckpt")
    shutil.copyfile(ws["ckpt"], ckpt)
    with open(ckpt + ".vocab", "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    return ckpt


@pytest.mark.parametrize("fault", ["cut", "roles-moved"])
def test_rewrite_refuses_a_vocabulary_the_checkpoint_was_not_trained_with(
    ws, capsys, tmp_path, monkeypatch, fault
):
    def no_work(*args, **kwargs):
        raise AssertionError("packing started before the vocabulary was checked")

    monkeypatch.setattr("srl_rewriter.cli.prepare_instances", no_work)
    lines = read_lines(ws["ckpt"] + ".vocab")
    roles = slice(4, 4 + len(ROLE_TOKENS))
    if fault == "cut":
        lines = lines[:-5]
    else:  # the role markers moved to the end: refused when the file is loaded
        lines = lines[: roles.start] + lines[roles.stop :] + lines[roles]
    ckpt = checkpoint_with_vocabulary(ws, tmp_path, lines)
    out = str(tmp_path / "hyps.jsonl")
    assert main(["rewrite", "--model", ckpt, "--input", f"{ws['prefix']}.test.jsonl",
                 "--out", out]) == 1
    err = capsys.readouterr().err
    code = "CHECKPOINT_MISMATCH" if fault == "cut" else "VOCAB_OVERFLOW"
    assert err.startswith(f"error[{code}]: ") and "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("fault", ["corpus-token", "reserved-token"])
def test_rewrite_refuses_a_vocabulary_with_a_repeated_line(ws, capsys, tmp_path, monkeypatch, fault):
    def no_work(*args, **kwargs):
        raise AssertionError("packing started before the vocabulary was checked")

    monkeypatch.setattr("srl_rewriter.cli.prepare_instances", no_work)
    lines = read_lines(ws["ckpt"] + ".vocab")
    if fault == "corpus-token":  # as many distinct tokens as the checkpoint has
        lines.insert(20, lines[15])
        want = f"line 21 repeats line 16, {lines[15]!r}"
    else:
        lines[20] = "[UNK]"
        want = "line 21 repeats line 4, '[UNK]'"
    ckpt = checkpoint_with_vocabulary(ws, tmp_path, lines)
    out = str(tmp_path / "hyps.jsonl")
    assert main(["rewrite", "--model", ckpt, "--input", f"{ws['prefix']}.test.jsonl",
                 "--out", out]) == 1
    assert capsys.readouterr() == ("", f"error[VOCAB_OVERFLOW]: {ckpt}.vocab: {want}\n")
    assert not os.path.exists(out)


def test_pack_refuses_a_vocabulary_whose_role_markers_moved(ws, capsys, tmp_path):
    lines = read_lines(ws["ckpt"] + ".vocab")
    roles = slice(4, 4 + len(ROLE_TOKENS))
    vocab = tmp_path / "moved.vocab"
    vocab.write_text(
        "".join(line + "\n" for line in lines[: roles.start] + lines[roles.stop :] + lines[roles]),
        encoding="utf-8",
    )
    assert main(["pack", "--input", f"{ws['prefix']}.dev.jsonl", "--vocab", str(vocab),
                 "--dump"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error[VOCAB_OVERFLOW]: {vocab}: line 5 is {lines[roles.stop]!r}, "
                   f"not the reserved '<ARG0>'\n")


def test_rewrite_refuses_a_variant_its_checkpoint_was_not_trained_with(ws, capsys, tmp_path):
    out = str(tmp_path / "hyps.jsonl")
    argv = ["rewrite", "--model", ws["ckpt"], "--input", f"{ws['prefix']}.test.jsonl",
            "--out", out]
    assert main([*argv, "--variant", "bi-mask"]) == 1
    err = capsys.readouterr().err
    assert err == "error[VARIANT_MISMATCH]: --variant bi-mask against a triple-mask checkpoint\n"
    for flags in ([], ["--variant", "triple-mask"]):
        assert main([*argv, *flags]) == 0
        manifest = json.loads(open(out + ".manifest.json", encoding="utf-8").read())
        assert manifest["config"]["variant"] == "triple-mask"


def test_rewrite_refuses_a_checkpoint_whose_parameter_table_disagrees_with_its_config(
    ws, capsys, tmp_path
):
    # the same arrays in reverse order, so the weights keep their byte size: a
    # writer that stored them in this order would have them read into the
    # wrong parameters
    blob = open(ws["ckpt"], "rb").read()
    header, weights = split_checkpoint(blob)
    header["params"].reverse()
    ckpt = str(tmp_path / "model.ckpt")
    with open(ckpt, "wb") as fh:
        fh.write(join_checkpoint(blob, header, weights))
    shutil.copyfile(ws["ckpt"] + ".vocab", ckpt + ".vocab")
    out = str(tmp_path / "hyps.jsonl")
    assert main(["rewrite", "--model", ckpt, "--input", f"{ws['prefix']}.test.jsonl",
                 "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == "error[CHECKPOINT_MISMATCH]: parameter table does not match config\n"
    assert not os.path.exists(out)


def test_evaluate_hypotheses(ws, capsys, tmp_path):
    report_path = str(tmp_path / "report.json")
    assert main(["evaluate", "--input", ws["hyps"], "--json-out", report_path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["B1", "B2", "B4", "R1", "R2", "RL", "EM"]
    assert len(out[1].split()) == 7
    report = json.loads(open(report_path, encoding="utf-8").read())
    assert report["n_examples"] == 3
    assert 0.0 <= report["em"] <= 1.0
    assert 0 <= report["n_matches"] <= 3


def test_evaluate_reference_against_itself_is_perfect(ws, capsys):
    assert main(["evaluate", "--input", f"{ws['prefix']}.dev.jsonl"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row == ["100.00"] * 7


@pytest.mark.parametrize("line", [
    "5",
    '["a"]',
    '{"hypothesis": 5, "reference": ["a"]}',
    '{"hypothesis": "abc", "reference": ["a"]}',
    '{"hypothesis": ["a", 1], "reference": ["a"]}',
    '{"hypothesis": ["a"], "reference": "a"}',
    '{"hypothesis": ["a"]}',
])
def test_evaluate_refuses_malformed_records(ws, capsys, tmp_path, line):
    hyps = read_lines(ws["hyps"])
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([hyps[0], line]) + "\n")
    assert main(["evaluate", "--input", path]) == 1
    err = capsys.readouterr().err
    assert "error[BAD_RECORD]" in err and f"{path}: record 1: " in err


def test_evaluate_reads_its_input_once(ws, capsys, monkeypatch):
    opened = []
    text_lines = srl_rewriter.core.text_lines

    def logged(path):
        opened.append(path)
        return text_lines(path)

    monkeypatch.setattr("srl_rewriter.core.text_lines", logged)
    assert main(["evaluate", "--input", ws["hyps"]]) == 0
    assert opened == [ws["hyps"]]
    opened.clear()
    test = f"{ws['prefix']}.test.jsonl"
    assert main(["evaluate", "--input", ws["hyps"], "--ref", test]) == 0
    assert opened == [ws["hyps"], test]


def test_evaluate_reports_the_first_bad_record(ws, capsys, tmp_path):
    # record 1 has a hypothesis but a bad reference, record 2 a bad hypothesis
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(read_lines(ws["hyps"])[0] + "\n")
        fh.write('{"hypothesis": ["a"], "reference": "a"}\n')
        fh.write('{"hypothesis": 5, "reference": ["a"]}\n')
    assert main(["evaluate", "--input", path]) == 1
    assert f"{path}: record 1: reference" in capsys.readouterr().err


def test_evaluate_refuses_reference_files_of_another_length(ws, capsys, tmp_path):
    path = str(tmp_path / "refs.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"reference": ["a"]}\n')
    assert main(["evaluate", "--input", ws["hyps"], "--ref", path]) == 1
    assert "error[LENGTH_MISMATCH]: 3 hypotheses vs 1 references" in capsys.readouterr().err


def test_evaluate_refuses_a_malformed_reference_file(ws, capsys, tmp_path):
    path = str(tmp_path / "refs.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"reference": ["a"]}\n{"reference": "abc"}\n{"reference": ["b"]}\n')
    assert main(["evaluate", "--input", ws["hyps"], "--ref", path]) == 1
    err = capsys.readouterr().err
    assert "error[BAD_RECORD]" in err and f"{path}: record 1: reference" in err


# -- triple scoring ----------------------------------------------------------------


def test_score_srl_heuristic_full_recall(ws, capsys):
    assert main([
        "score-srl", "--input", f"{ws['prefix']}.test.jsonl", "--source", "heuristic",
        "--scope", "last",
    ]) == 0
    out = capsys.readouterr().out
    assert "recall    1.0000" in out
    assert "precision" in out and "f1" in out


@pytest.mark.parametrize("scope", ["full", "last"])
def test_score_srl_heuristic_recovers_a_word_corpus_without_a_flag(word_prefix, capsys, scope):
    assert main([
        "score-srl", "--input", f"{word_prefix}.test.jsonl", "--source", "heuristic",
        "--scope", scope,
    ]) == 0
    assert "recall    1.0000" in capsys.readouterr().out


def test_score_srl_pred_file_identity(ws, capsys):
    assert main([
        "score-srl", "--input", f"{ws['prefix']}.test.jsonl",
        "--pred", f"{ws['prefix']}.test.jsonl",
    ]) == 0
    assert "f1        1.0000" in capsys.readouterr().out


def test_score_srl_gold_against_itself_is_refused(ws, capsys):
    assert main(["score-srl", "--input", f"{ws['prefix']}.test.jsonl"]) == 1
    assert "error[CONFIG_INVALID]" in capsys.readouterr().err


@pytest.mark.parametrize("pred", [False, True])
def test_score_srl_refuses_an_empty_corpus(capsys, tmp_path, pred):
    # score_srl would score no triples at all as precision, recall and F1 of 1.0
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    flags = ["--pred", str(empty)] if pred else ["--source", "heuristic"]
    assert main(["score-srl", "--input", str(empty), *flags]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error[EMPTY_CORPUS]: no records to score\n"


# -- ablation ----------------------------------------------------------------------


def test_ablate_tiny_grid(ws, capsys, tmp_path):
    out_path = str(tmp_path / "grid.json")
    assert main([
        "ablate", "--train", f"{ws['prefix']}.train.jsonl",
        "--dev", f"{ws['prefix']}.dev.jsonl", "--test", f"{ws['prefix']}.test.jsonl",
        "--seeds", "0", "--cells", "no-srl,heuristic+triple",
        "--out", out_path, *TINY_MODEL, *TINY_TRAIN,
    ]) == 0
    out = capsys.readouterr().out
    assert "no-srl" in out and "heuristic+triple" in out and "med" in out
    assert "srl heuristic+triple: precision" in out
    payload = json.loads(open(out_path, encoding="utf-8").read())
    assert set(payload) == {"no-srl", "heuristic+triple"}
    run = payload["heuristic+triple"][0]
    assert run["seed"] == 0
    assert run["srl"] is not None and len(run["srl"]) == 3
    assert payload["no-srl"][0]["srl"] is None
    assert run["parameter_count"] == payload["no-srl"][0]["parameter_count"]


def test_ablate_unknown_cell(ws, capsys, tmp_path):
    assert main([
        "ablate", "--train", f"{ws['prefix']}.train.jsonl",
        "--dev", f"{ws['prefix']}.dev.jsonl", "--test", f"{ws['prefix']}.test.jsonl",
        "--cells", "bogus", "--out", str(tmp_path / "x.json"),
    ]) == 1
    assert "error[CONFIG_INVALID]" in capsys.readouterr().err


@pytest.mark.parametrize("cells,seeds,what", [
    ("gold+bi,gold+bi", "0,0", "cell 'gold+bi'"),
    ("no-srl,gold+bi,no-srl", "0", "cell 'no-srl'"),
    ("gold+bi", "1,0,1", "seed 1"),
])
def test_ablate_refuses_a_repeated_cell_or_seed_before_training(
    ws, capsys, tmp_path, monkeypatch, cells, seeds, what
):
    def no_work(*args, **kwargs):
        raise AssertionError("a split was packed or a cell trained before the grid was checked")

    for name in ("train", "prepare_instances"):
        monkeypatch.setattr(f"srl_rewriter.training.{name}", no_work)
    reads = []
    monkeypatch.setattr("srl_rewriter.cli.read_examples", lambda path: reads.append(path) or [])
    out = str(tmp_path / "x.json")
    assert main([
        "ablate", "--train", f"{ws['prefix']}.train.jsonl",
        "--dev", f"{ws['prefix']}.dev.jsonl", "--test", f"{ws['prefix']}.test.jsonl",
        "--cells", cells, "--seeds", seeds, "--out", out, *TINY_MODEL, *TINY_TRAIN,
    ]) == 1
    assert capsys.readouterr().err == f"error[CONFIG_INVALID]: {what} is repeated\n"
    assert reads == [] and not os.path.exists(out)


@pytest.mark.parametrize("flag,value", [
    ("--seeds", "x"), ("--seeds", ""), ("--seeds", "0,,1"), ("--cells", ""),
])
def test_ablate_rejects_malformed_lists(ws, capsys, tmp_path, flag, value):
    assert main([
        "ablate", "--train", f"{ws['prefix']}.train.jsonl",
        "--dev", f"{ws['prefix']}.dev.jsonl", "--test", f"{ws['prefix']}.test.jsonl",
        flag, value, "--out", str(tmp_path / "x.json"),
    ]) == 1
    assert "error[CONFIG_INVALID]" in capsys.readouterr().err


def test_ablate_seeds_from_config_file(ws, capsys, tmp_path):
    cfg = tmp_path / "ablate.cfg"
    cfg.write_text("seeds = 0\n")  # typed as an int, not a string
    assert main([
        "ablate", "--config", str(cfg), "--train", f"{ws['prefix']}.train.jsonl",
        "--dev", f"{ws['prefix']}.dev.jsonl", "--test", f"{ws['prefix']}.test.jsonl",
        "--cells", "bogus", "--out", str(tmp_path / "x.json"),
    ]) == 1
    err = capsys.readouterr().err
    assert "error[CONFIG_INVALID]" in err and "unknown cells" in err


@pytest.mark.parametrize("command,flags", [
    ("ablate", ["--source", "heuristic"]),
    ("ablate", ["--scope", "last"]),
    ("ablate", ["--variant", "no-srl"]),
    ("score-srl", ["--variant", "bi-mask"]),
])
def test_commands_refuse_flags_they_would_ignore(ws, tmp_path, capsys, command, flags):
    test = f"{ws['prefix']}.test.jsonl"
    argv = {
        "ablate": ["ablate", "--train", f"{ws['prefix']}.train.jsonl", "--dev", test,
                   "--test", test, "--seeds", "0", "--cells", "no-srl",
                   "--out", str(tmp_path / "x.json"), *TINY_MODEL, *TINY_TRAIN],
        "score-srl": ["score-srl", "--input", test, "--source", "heuristic"],
    }[command]
    assert main([*argv, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[USAGE]: srl-rewriter: unrecognized arguments: ")
    assert flags[0] in err and "Traceback" not in err


def test_ablate_cells_set_source_and_variant(ws, tmp_path):
    # --cells alone picks each cell's triple source and mask variant
    out = str(tmp_path / "grid.json")
    test = f"{ws['prefix']}.test.jsonl"
    assert main([
        "ablate", "--train", f"{ws['prefix']}.train.jsonl", "--dev", test, "--test", test,
        "--seeds", "0", "--cells", "no-srl", "--out", out,
        *TINY_MODEL, *TINY_TRAIN,
    ]) == 0
    manifest = json.loads(open(out + ".manifest.json", encoding="utf-8").read())
    assert not {"source", "scope", "variant"} & set(manifest["config"])


@pytest.mark.parametrize("split", ["train", "dev", "test"])
def test_ablate_refuses_an_empty_split_before_training(ws, tmp_path, monkeypatch, capsys, split):
    def no_training(*args, **kwargs):
        raise AssertionError("a cell trained before the splits were checked")

    monkeypatch.setattr("srl_rewriter.training.train", no_training)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    paths = {name: f"{ws['prefix']}.{name}.jsonl" for name in ("train", "dev", "test")}
    paths[split] = str(empty)
    assert main([
        "ablate", *[x for name, path in paths.items() for x in (f"--{name}", path)],
        "--seeds", "0", "--cells", "no-srl", "--out", str(tmp_path / "x.json"),
        *TINY_MODEL, *TINY_TRAIN,
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error[EMPTY_CORPUS]: no {split} examples")


COMMON_FLAGS = ["--config", "--manifest"]
SOURCE_FLAGS = ["--scope", "--source"]
MODEL_FLAGS = ["--d-ff", "--d-model", "--max-position", "--n-heads", "--n-layers"]
TRAIN_FLAGS = ["--batch-size", "--clip-norm", "--eval-every", "--lr", "--max-decode-steps",
               "--max-steps", "--stop-dev-em", "--stop-loss"]
COMMAND_FLAGS = {
    "gen-corpus": ["--cross-turn-rate", "--include-negation-triples", "--loc-rate",
                   "--n-sessions", "--neg-rate", "--omission-rate", "--out-prefix",
                   "--pronoun-rate", "--seed", "--split", "--tmp-rate", "--token-mode"],
    "stats": ["--input", "--lint"],
    "pack": ["--dump", "--dump-mask", "--index", "--input", "--seed", "--variant", "--vocab",
             *SOURCE_FLAGS],
    "train": ["--dev", "--out", "--seed", "--train", "--variant", *SOURCE_FLAGS, *MODEL_FLAGS,
              *TRAIN_FLAGS],
    "rewrite": ["--input", "--max-decode-steps", "--model", "--out", "--seed", "--variant",
                *SOURCE_FLAGS],
    "evaluate": ["--input", "--json-out", "--ref", "--smooth-bleu"],
    "score-srl": ["--input", "--pred", *SOURCE_FLAGS],
    "ablate": ["--cells", "--dev", "--out", "--seeds", "--test", "--train", *MODEL_FLAGS,
               *TRAIN_FLAGS],
}


def test_each_command_declares_exactly_its_flags():
    _, registry = build_parser()
    declared = {
        name: sorted(
            flag for action in sub._actions for flag in action.option_strings
            if flag not in ("-h", "--help")
        )
        for name, sub in registry.items()
    }
    assert declared == {
        name: sorted([*COMMON_FLAGS, *flags]) for name, flags in COMMAND_FLAGS.items()
    }


REQUIRED = {
    "gen-corpus": ["--out-prefix", "P"],
    "stats": ["--input", "I"],
    "pack": ["--input", "I"],
    "train": ["--train", "T", "--dev", "D", "--out", "O"],
    "rewrite": ["--model", "M", "--input", "I", "--out", "O"],
    "evaluate": ["--input", "I"],
    "score-srl": ["--input", "I"],
    "ablate": ["--train", "T", "--dev", "D", "--test", "E", "--out", "O"],
}
SOURCE_DEFAULTS = {"scope": "full", "source": "gold"}
TRAINING_DEFAULTS = {
    "batch_size": 32, "clip_norm": 1.0, "d_ff": 128, "d_model": 64, "dev": "D", "eval_every": 100,
    "lr": 5e-05, "max_decode_steps": 32, "max_position": 64, "max_steps": 1000, "n_heads": 4,
    "n_layers": 2, "out": "O", "stop_dev_em": None, "stop_loss": None, "train": "T",
}
DEFAULTS = {
    "gen-corpus": {"cross_turn_rate": 0.3, "include_negation_triples": False, "loc_rate": 0.0,
                   "n_sessions": 1000, "neg_rate": 0.25, "omission_rate": 0.5, "out_prefix": "P",
                   "pronoun_rate": 0.5, "seed": 0, "split": False, "tmp_rate": 0.0,
                   "token_mode": "char"},
    "stats": {"input": "I", "lint": False},
    "pack": {"dump": False, "dump_mask": False, "index": 0, "input": "I", "seed": 0,
             "variant": "triple-mask", "vocab": None, **SOURCE_DEFAULTS},
    "train": {"seed": 0, "variant": "triple-mask", **SOURCE_DEFAULTS, **TRAINING_DEFAULTS},
    "rewrite": {"input": "I", "max_decode_steps": 32, "model": "M", "out": "O", "seed": 0,
                "variant": None, **SOURCE_DEFAULTS},
    "evaluate": {"input": "I", "json_out": None, "ref": None, "smooth_bleu": False},
    "score-srl": {"input": "I", "pred": None, **SOURCE_DEFAULTS},
    "ablate": {"cells": "no-srl,gold+bi,gold+triple,heuristic+bi,heuristic+triple",
               "seeds": "0,1,2", "test": "E", **TRAINING_DEFAULTS},
}


@pytest.mark.parametrize("command", list(DEFAULTS))
def test_each_command_keeps_its_defaults(command, capsys):
    parser, _ = build_parser()
    config = _manifest_config(parser.parse_args([command, *REQUIRED[command]]))
    # as the manifest writes them, so a float default that turned int shows
    want = {"command": command, **DEFAULTS[command]}
    assert json.dumps(config, sort_keys=True) == json.dumps(want, sort_keys=True)
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: ")


# -- manifests ---------------------------------------------------------------------


def manifest_case(ws, tmp_path, case):
    """argv, manifest inputs, manifest outputs and default manifest path."""
    prefix, ckpt, hyps = ws["prefix"], ws["ckpt"], ws["hyps"]
    train, dev, test = (f"{prefix}.{name}.jsonl" for name in ("train", "dev", "test"))
    out = str(tmp_path / "out")
    splits = [f"{out}.{name}.jsonl" for name in ("train", "dev", "test")]
    cfg = tmp_path / "train.cfg"
    cfg.write_text("lr = 0.001\n")
    return {
        "gen-corpus": (["gen-corpus", "--n-sessions", "6", "--split", "--out-prefix", out],
                       [], splits, f"{out}.manifest.json"),
        "stats": (["stats", "--input", train, "--lint"], [train], [], None),
        "pack": (["pack", "--input", train, "--dump"], [train], [], None),
        "pack+vocab": (["pack", "--input", train, "--vocab", ckpt + ".vocab", "--dump"],
                       [train, ckpt + ".vocab"], [], None),
        "train": (["train", "--train", train, "--dev", dev, "--out", out,
                   *TINY_MODEL, *TINY_TRAIN], [train, dev], [out, out + ".vocab"],
                  out + ".manifest.json"),
        "train+config": (["train", "--config", str(cfg), "--train", train, "--dev", dev,
                          "--out", out, *TINY_MODEL, *TINY_TRAIN],
                         [str(cfg), train, dev], [out, out + ".vocab"], out + ".manifest.json"),
        # the vocabulary decides which token each id decodes to, so it is an input
        "rewrite": (["rewrite", "--model", ckpt, "--input", test, "--out", out],
                    [ckpt, ckpt + ".vocab", test], [out], out + ".manifest.json"),
        "evaluate": (["evaluate", "--input", hyps], [hyps], [], None),
        "evaluate+ref+json": (["evaluate", "--input", hyps, "--ref", test, "--json-out", out],
                              [hyps, test], [out], None),
        "score-srl": (["score-srl", "--input", test, "--source", "heuristic"], [test], [], None),
        "score-srl+pred": (["score-srl", "--input", test, "--pred", dev], [test, dev], [], None),
        "ablate": (["ablate", "--train", train, "--dev", dev, "--test", test, "--seeds", "0",
                    "--cells", "no-srl", "--out", out, *TINY_MODEL, *TINY_TRAIN],
                   [train, dev, test], [out], out + ".manifest.json"),
    }[case]


@pytest.mark.parametrize("case", [
    "gen-corpus", "stats", "pack", "pack+vocab", "train", "train+config", "rewrite", "evaluate",
    "evaluate+ref+json", "score-srl", "score-srl+pred", "ablate",
])
def test_manifest_records_command_inputs_and_outputs(ws, tmp_path, capsys, case):
    argv, inputs, outputs, default = manifest_case(ws, tmp_path, case)

    def files():
        return {str(f) for folder in (ws["root"], tmp_path) for f in folder.iterdir()}

    before = files()
    assert main(argv) == 0
    # a run writes its outputs and its default manifest, and nothing else
    assert files() - before == {*outputs, *filter(None, [default])}
    if default is None:  # inspection commands write a manifest only when asked
        default = str(tmp_path / "asked.manifest.json")
        argv = [*argv, "--manifest", default]
        assert main(argv) == 0
    manifest = json.loads(open(default, encoding="utf-8").read())
    assert manifest["command"] == manifest["config"]["command"] == argv[0]
    assert set(manifest["inputs"]) == set(inputs)
    assert set(manifest["outputs"]) == set(outputs)


def test_rewrite_manifest_tells_a_reordered_vocabulary_apart(ws, tmp_path, capsys):
    model, test, out = str(tmp_path / "m.ckpt"), f"{ws['prefix']}.test.jsonl", str(tmp_path / "o")
    shutil.copy(ws["ckpt"], model)
    lines = read_lines(ws["ckpt"] + ".vocab")
    reserved = 4 + len(ROLE_TOKENS)  # the structural tokens, then one marker per role

    def inputs(vocab_lines):
        with open(model + ".vocab", "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in vocab_lines))
        assert main(["rewrite", "--model", model, "--input", test, "--out", out]) == 0
        return json.loads(open(out + ".manifest.json", encoding="utf-8").read())["inputs"]

    given = inputs(lines)
    reordered = inputs(lines[:reserved] + lines[reserved:][::-1])
    assert set(given) == set(reordered) == {model, model + ".vocab", test}
    assert given[model] == reordered[model] and given[test] == reordered[test]
    assert given[model + ".vocab"] != reordered[model + ".vocab"]


def test_manifest_digests_an_input_as_it_was_read(ws, tmp_path, capsys):
    data = str(tmp_path / "y.jsonl")
    shutil.copy(f"{ws['prefix']}.test.jsonl", data)
    before = file_digest(data)
    assert main(["rewrite", "--model", ws["ckpt"], "--input", data, "--out", data]) == 0
    manifest = json.loads(open(data + ".manifest.json", encoding="utf-8").read())
    assert manifest["inputs"][data] == before  # not the digest of the output written over it
    assert manifest["outputs"][data] == file_digest(data) != before


def test_each_call_records_only_its_own_files(ws, tmp_path, capsys):
    train, hyps = f"{ws['prefix']}.train.jsonl", ws["hyps"]
    first, second = str(tmp_path / "first.json"), str(tmp_path / "second.json")
    assert main(["stats", "--input", train, "--manifest", first]) == 0
    assert main(["pack", "--input", str(tmp_path / "missing.jsonl")]) == 1  # refused after recording its input
    assert main(["evaluate", "--input", hyps, "--manifest", second]) == 0
    assert set(json.loads(open(first, encoding="utf-8").read())["inputs"]) == {train}
    assert set(json.loads(open(second, encoding="utf-8").read())["inputs"]) == {hyps}
    assert RUN_FILES.get() is None  # outside a call, readers record nothing


# -- malformed records -------------------------------------------------------------


def record_paths(obj, prefix=()):
    """Every key or index path inside a decoded JSON record."""
    yield prefix
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in children:
        yield from record_paths(value, prefix + (key,))


DROP = object()  # stands for deleting the key or item


def set_path(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    if value is DROP:
        del obj[path[-1]]
    else:
        obj[path[-1]] = value


WRONG_TYPES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10**20), st.floats(), st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    st.just(DROP),
)
RESERVED = st.sampled_from(["[PAD]", "[EOS]", "[BOS]"])


@st.composite
def mutated_record(draw, records):
    record = copy.deepcopy(draw(st.sampled_from(records)))
    kind = draw(st.sampled_from(["record", "type", "span", "reserved"]))
    if kind == "record":
        record = draw(WRONG_TYPES.filter(lambda value: value is not DROP))
    elif kind == "type":
        path = draw(st.sampled_from([p for p in record_paths(record) if p]))
        set_path(record, path, draw(WRONG_TYPES))
    elif kind == "span" and record.get("triples"):
        triple = draw(st.sampled_from(record["triples"]))
        span = triple[draw(st.sampled_from(["predicate", "argument"]))]
        span[draw(st.sampled_from(["turn", "start", "end"]))] = draw(st.integers(-5, 40))
    else:
        tokens = draw(st.sampled_from(
            [u["tokens"] for u in record["utterances"]] + [record.get("reference", [])]))
        tokens.insert(draw(st.integers(0, len(tokens))), draw(RESERVED))
    return record


@pytest.fixture(scope="module")
def valid_records(ws):
    """Dev records and rewrite outputs, which add a hypothesis field."""
    return [json.loads(line) for path in (f"{ws['prefix']}.dev.jsonl", ws["hyps"])
            for line in read_lines(path)]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


FUZZ_TRAIN = ["--d-model", "8", "--n-heads", "2", "--n-layers", "1", "--d-ff", "8",
              "--max-steps", "1", "--eval-every", "1", "--max-decode-steps", "4"]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_malformed_records_never_crash(ws, valid_records, fuzz_dir, data):
    record = data.draw(mutated_record(valid_records))
    path = str(fuzz_dir / "in.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n" + json.dumps(valid_records[0]) + "\n")
    for argv in (
        ["pack", "--input", path, "--dump"],
        ["stats", "--input", path, "--lint"],
        ["rewrite", "--model", ws["ckpt"], "--input", path,
         "--out", str(fuzz_dir / "out.jsonl")],
        ["evaluate", "--input", path],
        ["score-srl", "--input", path, "--source", "heuristic"],
        ["train", "--train", path, "--dev", path, "--out", str(fuzz_dir / "m.ckpt"), *FUZZ_TRAIN],
        ["ablate", "--train", path, "--dev", path, "--test", path, "--out", str(fuzz_dir / "a.json"),
         "--cells", "gold+triple,heuristic+bi", "--seeds", "0", *FUZZ_TRAIN],
    ):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (0, 1), f"{argv[0]} exited {code} on {record}: {err.getvalue()}"


# -- config files and exit codes -----------------------------------------------------


def test_config_file_sets_defaults(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("n-sessions = 6\nseed = 2\n")
    prefix = str(tmp_path / "c")
    assert main(["gen-corpus", "--config", str(cfg), "--out-prefix", prefix]) == 0
    assert "wrote      6 examples" in capsys.readouterr().out


def test_explicit_flag_beats_config_file(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("n-sessions = 6\n")
    prefix = str(tmp_path / "c")
    assert main([
        "gen-corpus", "--config", str(cfg), "--n-sessions", "9", "--out-prefix", prefix,
    ]) == 0
    assert "wrote      9 examples" in capsys.readouterr().out


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("bogus-knob = 1\n")
    assert main([
        "gen-corpus", "--config", str(cfg), "--out-prefix", str(tmp_path / "c"),
    ]) == 1
    assert "error[BAD_CONFIG]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pack", "train", "rewrite", "score-srl", "ablate"])
def test_a_config_naming_token_mode_is_refused_where_no_flag_reads_it(ws, tmp_path, capsys, command):
    cfg = tmp_path / "words.cfg"
    cfg.write_text("token-mode = word\n")
    train, dev, test = (f"{ws['prefix']}.{name}.jsonl" for name in ("train", "dev", "test"))
    out = str(tmp_path / "out")
    argv = {
        "pack": ["--input", test],
        "train": ["--train", train, "--dev", dev, "--out", out, *TINY_MODEL, *TINY_TRAIN],
        "rewrite": ["--model", ws["ckpt"], "--input", test, "--out", out],
        "score-srl": ["--input", test, "--source", "heuristic"],
        "ablate": ["--train", train, "--dev", dev, "--test", test, "--out", out, "--seeds", "0",
                   "--cells", "no-srl", *TINY_MODEL, *TINY_TRAIN],
    }[command]
    assert main([command, "--config", str(cfg), *argv]) == 1
    out_text, err = capsys.readouterr()
    assert out_text == "" and err == "error[BAD_CONFIG]: unknown config keys ['token_mode']\n"


@pytest.mark.parametrize("command,key", [
    ("gen-corpus", "token-mode"), ("pack", "source"), ("pack", "variant"), ("train", "source"),
    ("train", "scope"), ("train", "variant"), ("rewrite", "variant"), ("score-srl", "scope"),
])
def test_a_config_value_outside_a_flags_choices_is_a_usage_error(
    ws, tmp_path, capsys, command, key
):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = bogus\n")
    out = str(tmp_path / "out")
    test = f"{ws['prefix']}.test.jsonl"
    argv = {
        "gen-corpus": ["--out-prefix", out],
        "pack": ["--input", test],
        "train": ["--train", f"{ws['prefix']}.train.jsonl", "--dev", test, "--out", out,
                  *TINY_MODEL, *TINY_TRAIN],
        "rewrite": ["--model", ws["ckpt"], "--input", test, "--out", out],
        "score-srl": ["--input", test, "--source", "heuristic"],
    }[command]
    assert main([command, "--config", str(cfg), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error[USAGE]: srl-rewriter {command}: argument --{key}: invalid choice")
    assert err.count("\n") == 1


def test_config_values_are_typed_and_switched_as_flags(tmp_path, capsys):
    prefix = str(tmp_path / "c")
    cfg = tmp_path / "gen.cfg"
    for body, code in (("n-sessions = many\n", "USAGE"), ("split = yes\n", "BAD_CONFIG")):
        cfg.write_text(body)
        assert main(["gen-corpus", "--config", str(cfg), "--out-prefix", prefix]) == 1
        assert capsys.readouterr().err.startswith(f"error[{code}]: ")
    cfg.write_text("n-sessions = 6\nsplit = True\ninclude-negation-triples = false\n")
    assert main(["gen-corpus", "--config", str(cfg), "--out-prefix", prefix]) == 0
    manifest = json.loads(open(f"{prefix}.manifest.json", encoding="utf-8").read())
    assert manifest["config"]["n_sessions"] == 6 and manifest["config"]["split"] is True
    assert manifest["config"]["include_negation_triples"] is False


def test_missing_required_flag_is_a_usage_error(capsys):
    assert main(["gen-corpus"]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error[USAGE]: srl-rewriter gen-corpus: the following arguments are required:"
        " --out-prefix\n"
    )
    with pytest.raises(SystemExit) as exc:  # help is not an error
        main(["gen-corpus", "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "model", "out-dir"])
def test_file_errors_exit_1_with_a_coded_line(ws, tmp_path, capsys, case):
    test = f"{ws['prefix']}.test.jsonl"
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"\xff\xfe{}\n")
    missing, out = str(tmp_path / "nope.jsonl"), str(tmp_path / "no" / "dir" / "o.jsonl")
    argv, code, path = {
        "missing": (["pack", "--input", missing], "IO_ERROR", missing),
        "directory": (["stats", "--input", str(tmp_path)], "IO_ERROR", str(tmp_path)),
        "not-utf8": (["pack", "--input", str(bad)], "BAD_ENCODING", str(bad)),
        "model": (["rewrite", "--model", missing, "--input", test,
                   "--out", str(tmp_path / "o.jsonl")], "IO_ERROR", missing),
        "out-dir": (["rewrite", "--model", ws["ckpt"], "--input", test, "--out", out],
                    "IO_ERROR", out),
    }[case]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error[{code}]: ") and path in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "rewrite", "ablate"])
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unusable_out_fails_before_any_work(ws, tmp_path, monkeypatch, capsys, command, where):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("train", "run_ablation_grid", "decode_corpus"):
        monkeypatch.setattr(f"srl_rewriter.cli.{name}", no_work)
    prefix = ws["prefix"]
    splits = {f"--{name}": f"{prefix}.{name}.jsonl" for name in ("train", "dev", "test")}
    argv = {
        "train": ["train", "--train", splits["--train"], "--dev", splits["--dev"]],
        "rewrite": ["rewrite", "--model", ws["ckpt"], "--input", splits["--test"]],
        "ablate": ["ablate", *[x for kv in splits.items() for x in kv]],
    }[command]
    out = str(tmp_path / "no" / "out") if where == "missing-dir" else str(tmp_path)
    assert main([*argv, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[IO_ERROR]: ") and out in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["stats", "gen-corpus", "train"])
def test_a_reader_that_closes_the_pipe_early_exits_0(ws, monkeypatch, capsys, tmp_path, command):
    # every command writes its files before its first print, so a closed
    # stdout leaves the files and the manifest of a run with a working one
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError("the reader went away")

    out = str(tmp_path / "run")
    argv = {
        "stats": ["stats", "--input", f"{ws['prefix']}.dev.jsonl", "--lint"],
        "gen-corpus": ["gen-corpus", "--n-sessions", "30", "--seed", "3", "--split",
                       "--out-prefix", out],
        "train": ["train", "--train", f"{ws['prefix']}.train.jsonl",
                  "--dev", f"{ws['prefix']}.dev.jsonl", "--out", out, *TINY_MODEL, *TINY_TRAIN],
    }[command]
    assert main(argv) == 0
    files = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert command == "stats" or "run.manifest.json" in files
    for path in tmp_path.iterdir():
        path.unlink()
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == files


def test_unexpected_failures_exit_2(ws, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("internal fault")

    monkeypatch.setattr("srl_rewriter.cli.evaluate_corpus", broken)
    assert main(["evaluate", "--input", ws["hyps"]]) == 2
    assert "Traceback" in capsys.readouterr().err


# -- lint -----------------------------------------------------------------------------


def test_stats_lint_counts_what_reading_accepts_but_validation_flags(ws, tmp_path, capsys):
    record = json.loads(read_lines(f"{ws['prefix']}.dev.jsonl")[1])
    record["utterances"].append({"speaker": "A", "tokens": []})
    record["reference"] = []
    future = json.loads(read_lines(f"{ws['prefix']}.dev.jsonl")[1])
    first = future["triples"][0]
    first["predicate"] = {"turn": 0, "start": 0, "end": 1}  # before its argument's turn
    assert first["argument"]["turn"] > 0
    path = tmp_path / "odd.jsonl"
    path.write_text(json.dumps(record) + "\n" + json.dumps(future) + "\n", encoding="utf-8")
    assert main(["stats", "--input", str(path), "--lint"]) == 0
    lint = [line for line in capsys.readouterr().out.splitlines() if line.startswith("lint")]
    assert lint == ["lint C1_FUTURE_ARGUMENT: 1", "lint EMPTY_REFERENCE: 1", "lint EMPTY_UTTERANCE: 1"]


def test_stats_lint_measures_an_argument_inside_its_predicate_at_distance_0(tmp_path, capsys):
    # "tea is" holds its ARG0 "tea", so no other "tea" can lie nearer; the ARG1
    # "jazz" of the second turn lies 2 tokens before "is", the last turn's 0 after it
    record = {
        "utterances": [
            {"speaker": "A", "tokens": ["about", "tea"]},
            {"speaker": "B", "tokens": ["tea", "is", "jazz", "right"]},
            {"speaker": "A", "tokens": ["tea", "is", "jazz", "then"]},
        ],
        "triples": [
            {"predicate": {"turn": 2, "start": 0, "end": 2}, "role": "ARG0",
             "argument": {"turn": 2, "start": 0, "end": 1}},
            {"predicate": {"turn": 2, "start": 1, "end": 2}, "role": "ARG1",
             "argument": {"turn": 1, "start": 2, "end": 3}},
        ],
        "reference": ["tea", "is", "jazz", "then"],
    }
    path = tmp_path / "overlap.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert main(["stats", "--input", str(path), "--lint"]) == 0
    lint = [line for line in capsys.readouterr().out.splitlines() if line.startswith("lint")]
    assert lint == ["lint C4_NOT_NEAREST: 1"]


# -- memory ---------------------------------------------------------------------------

_HEAP_PROBE = """
import resource, sys
from srl_rewriter.cli import main
work = sys.argv[1]
prefix = work + "/c"
assert main(["gen-corpus", "--n-sessions", "200", "--split", "--out-prefix", prefix]) == 0
argv = ["train", "--train", prefix + ".train.jsonl", "--dev", prefix + ".dev.jsonl",
        "--out", work + "/m.ckpt", "--max-steps", "10", "--eval-every", "10"]
assert main(argv) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc", reason="glibc mallopt only"
)
def test_repeated_train_calls_reuse_the_heap(tmp_path):
    # a fresh process, so that no earlier main() in this one has set the allocator;
    # the second 10-step train call (d=64, B=32) faults in about 38k pages when
    # glibc trims and unmaps the freed temporaries, and under a hundred when not
    src = os.path.dirname(os.path.dirname(srl_rewriter.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _HEAP_PROBE, str(tmp_path)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    faults = int(proc.stdout.splitlines()[-1])
    assert faults < 3000, f"{faults} minor page faults in one train call"


@pytest.mark.parametrize("fault", [AttributeError, OSError, TypeError])
def test_main_runs_without_mallopt(tmp_path, monkeypatch, fault):
    def libc(name):
        if fault is AttributeError:
            return object()  # a C library without mallopt
        raise fault("no C library to call")

    monkeypatch.setattr("srl_rewriter.cli.ctypes.CDLL", libc)
    assert main(["gen-corpus", "--n-sessions", "5", "--out-prefix", str(tmp_path / "c")]) == 0
