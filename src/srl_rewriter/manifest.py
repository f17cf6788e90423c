"""Reproducibility records for command-line runs.

A manifest captures the resolved configuration plus content digests of every
input and output, and deliberately carries no timestamps or host details: the
same command over the same inputs must produce byte-identical manifests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Collection, Mapping

from . import __version__
from .core import RewriterError, file_digest, text_lines


@dataclass
class RunManifest:
    """The digests of the files a run read, taken as each was first read, and
    the paths it wrote, digested when the manifest is rendered."""

    command: str
    config: dict
    inputs: Mapping[str, str] = field(default_factory=dict)
    outputs: Collection[str] = ()
    tool_version: str = __version__

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "config": self.config,
            "inputs": dict(self.inputs),
            "outputs": {path: file_digest(path) for path in self.outputs},
            "tool_version": self.tool_version,
        }
        return json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


def parse_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` pairs of text; ``#`` starts a comment.  Hyphens in
    keys are normalized to underscores so keys mirror the long CLI flags."""
    out: dict[str, str] = {}
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
        out[key] = value
    return out
