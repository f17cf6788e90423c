"""Run manifests and the flat config-file dialect."""

import hashlib
import json

import pytest

from srl_rewriter.core import RewriterError
from srl_rewriter.manifest import RunManifest, file_digest, parse_config_file


def test_file_digest_is_sha256(tmp_path):
    p = tmp_path / "data.bin"
    p.write_bytes(b"hello \xe7\xb2\xa4")
    assert file_digest(str(p)) == hashlib.sha256(b"hello \xe7\xb2\xa4").hexdigest()


def test_manifest_json_is_stable_and_timestamp_free(tmp_path):
    out = tmp_path / "out.jsonl"
    out.write_text("{}\n")
    m1 = RunManifest(command="gen-corpus", config={"seed": 3, "n": 10}, outputs=[str(out)])
    m2 = RunManifest(command="gen-corpus", config={"n": 10, "seed": 3}, outputs={str(out)})
    assert m1.to_json() == m2.to_json()  # key order never leaks
    payload = json.loads(m1.to_json())
    assert set(payload) == {"command", "config", "inputs", "outputs", "tool_version"}
    assert m1.to_json().endswith("\n")


def test_manifest_save_round_trip(tmp_path):
    out = tmp_path / "artifact.txt"
    out.write_text("content")
    m = RunManifest(command="train", config={"lr": 0.001}, outputs={str(out)})
    dest = tmp_path / "run.manifest.json"
    m.save(str(dest))
    loaded = json.loads(dest.read_text())
    assert loaded["outputs"][str(out)] == file_digest(str(out))
    assert loaded["command"] == "train"


def test_config_file_types_and_comments(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# training knobs\n"
        "lr = 0.001\n"
        "max-steps = 200   # hyphen form\n"
        "tie_embeddings = true\n"
        "token-mode = char\n"
        "\n"
        "clip-norm = 1.0\n"
    )
    cfg = parse_config_file(str(p))
    assert cfg == {
        "lr": 0.001,
        "max_steps": 200,
        "tie_embeddings": True,
        "token_mode": "char",
        "clip_norm": 1.0,
    }
    assert isinstance(cfg["max_steps"], int)
    assert isinstance(cfg["clip_norm"], float)


@pytest.mark.parametrize(
    "body",
    [
        "just a line without equals\n",
        "key =\n",
        " = value\n",
        "dup = 1\ndup = 2\n",
    ],
)
def test_config_file_rejects_malformed_lines(tmp_path, body):
    p = tmp_path / "bad.cfg"
    p.write_text(body)
    with pytest.raises(RewriterError) as err:
        parse_config_file(str(p))
    assert err.value.code == "BAD_CONFIG"


def test_config_false_and_strings_survive(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("flag = False\nname = no-srl\ncount = 3.5\n")
    cfg = parse_config_file(str(p))
    assert cfg["flag"] is False
    assert cfg["name"] == "no-srl"
    assert cfg["count"] == 3.5
