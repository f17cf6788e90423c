"""Reproducibility records for command-line runs.

A manifest captures the resolved configuration plus content digests of every
input and output, and deliberately carries no timestamps or host details: the
same command over the same inputs must produce byte-identical manifests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from . import __version__
from .core import RewriterError, text_lines


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    command: str
    config: dict
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    tool_version: str = __version__

    def add_input(self, path: str) -> None:
        self.inputs[path] = file_digest(path)

    def add_output(self, path: str) -> None:
        self.outputs[path] = file_digest(path)

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "config": self.config,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "tool_version": self.tool_version,
        }
        return json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


def _typed(value: str):
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` pairs; ``#`` starts a comment; values are typed as
    bool/int/float when they parse, strings otherwise.  Hyphens in keys are
    normalized to underscores so keys mirror the long CLI flags."""
    out: dict = {}
    for lineno, raw in text_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise RewriterError("BAD_CONFIG", f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if not key or not value:
            raise RewriterError("BAD_CONFIG", f"{path}:{lineno}: empty key or value")
        if key in out:
            raise RewriterError("BAD_CONFIG", f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = _typed(value)
    return out
