"""Reading the append-only JSONL logs: run events, journals, store stats."""

from __future__ import annotations

import json


def read_jsonl(path: str) -> list[dict]:
    """Every intact object record of the JSONL file at ``path``, in order.

    A writer killed mid-append leaves a torn final line, possibly cut inside
    a multibyte UTF-8 character.  The file is read as bytes and each line
    decoded on its own, so a torn line, an invalid UTF-8 line or valid JSON
    that is not an object is skipped without poisoning the rest.  A missing
    file raises ``FileNotFoundError``.
    """
    out: list[dict] = []
    with open(path, "rb") as fh:
        raw = fh.read()
    for line in raw.split(b"\n"):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            continue
        if isinstance(record, dict):
            out.append(record)
    return out
