"""Atomic file writes shared by the bench, sweep and serve tiers.

:func:`write_text` / :func:`write_json` never leave a truncated artifact
behind: a killed run's readers (cache loads, resumed sweeps, the run
repository) see the old file or the new one.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Union

PathLike = Union[str, os.PathLike]


def write_text(path: PathLike, text: str) -> pathlib.Path:
    """Atomically write ``text`` to ``path``, creating parent directories.

    The write goes to a same-directory temporary file first and is moved into
    place with :func:`os.replace`, so readers (and resumed runs) never observe
    a partially written file.
    """
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f".{target.name}.tmp.{os.getpid()}")
    # Pin the encoding: readers (cache loads, spec loads) always use UTF-8,
    # so writes must too or a non-UTF-8 locale would poison the cache.
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, target)
    return target


def write_json(path: PathLike, data: Any, *, indent: int = 2) -> pathlib.Path:
    """Atomically write ``data`` as deterministic (sorted-key) JSON."""
    return write_text(path, json.dumps(data, indent=indent, sort_keys=True) + "\n")
