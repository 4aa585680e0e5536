"""Atomic file writes shared by the bench, sweep and serve tiers.

:func:`write_bytes` / :func:`write_text` / :func:`write_json` never leave a
truncated artifact behind: a killed run's readers (cache loads, resumed
sweeps, the run repository) see the old file or the new one.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Union

PathLike = Union[str, os.PathLike]


def write_bytes(path: PathLike, data: bytes) -> pathlib.Path:
    """Atomically write ``data`` to ``path``, creating parent directories.

    The write goes to a same-directory temporary file first and is moved into
    place with :func:`os.replace`, so readers (and resumed runs) never observe
    a partially written file.  Each writer gets its own temporary name (never
    ``*.json``, so a half-written file is never mistaken for a record), which
    lets threads and processes write one path concurrently: the last
    replace wins.
    """
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as handle:
            handle.write(data)
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)
    return target


def write_text(path: PathLike, text: str) -> pathlib.Path:
    """Atomically write ``text`` to ``path`` as UTF-8 (see :func:`write_bytes`).

    The encoding is pinned: readers (cache loads, spec loads) always use
    UTF-8, so writes must too or a non-UTF-8 locale would poison the cache.
    """
    return write_bytes(path, text.encode("utf-8"))


def write_json(path: PathLike, data: Any, *, indent: int = 2) -> pathlib.Path:
    """Atomically write ``data`` as deterministic (sorted-key) JSON."""
    return write_text(path, json.dumps(data, indent=indent, sort_keys=True) + "\n")
