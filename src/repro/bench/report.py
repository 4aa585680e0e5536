"""Plain-text tables in the paper's format, and the Table I taxonomy.

:func:`table` is the one renderer: a heading over ``(header, cell_fn)``
columns.  Each entry of :mod:`repro.bench.figures` declares its table's
columns next to its claim and shape check; ``repro figure`` prints the
result and ``benchmarks/run_all.py`` writes it into EXPERIMENTS.md.  Table I
is regenerated from a small systems knowledge base (:data:`TAXONOMY`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Sequence, Tuple

#: One column of a :func:`table`: its header and the cell of a row.
Column = Tuple[str, Callable[[Any], object]]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A padded plain-text table."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def table(heading: str, *columns: Column) -> Callable[[Iterable[Any]], str]:
    """``rows -> str``: ``heading`` over a :func:`format_table` of ``columns``.

    Each column is ``(header, cell_fn)``; ``cell_fn(row)`` is the row's cell.
    """
    headers = [header for header, _ in columns]

    def render(rows: Iterable[Any]) -> str:
        cells = [[cell(row) for _, cell in columns] for row in rows]
        return f"{heading}\n{format_table(headers, cells)}"

    return render


# ----------------------------------------------------------------------
# Table I taxonomy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SystemEntry:
    """One row of the paper's Table I."""

    name: str
    transactions: str
    nonblocking_reads: bool
    partial_replication: bool
    metadata: str


#: The paper's taxonomy of causally consistent systems (Table I).
TAXONOMY: Tuple[SystemEntry, ...] = (
    SystemEntry("COPS", "ROT", True, False, "O(|deps|)"),
    SystemEntry("Eiger", "ROT/WOT", True, False, "O(|deps|)"),
    SystemEntry("ChainReaction", "ROT", False, False, "M"),
    SystemEntry("Orbe", "ROT", False, False, "1 ts"),
    SystemEntry("GentleRain", "ROT", False, False, "1 ts"),
    SystemEntry("POCC", "ROT", False, False, "M"),
    SystemEntry("COPS-SNOW", "ROT", True, False, "O(|deps|)"),
    SystemEntry("OCCULT", "Generic", False, False, "O(M)"),
    SystemEntry("Cure", "Generic", False, False, "M"),
    SystemEntry("Wren", "Generic", True, False, "2 ts"),
    SystemEntry("AV", "Generic", True, False, "M"),
    SystemEntry("Xiang, Vaidya", "none", False, True, "1 ts"),
    SystemEntry("Contrarian", "ROT", True, False, "M"),
    SystemEntry("C3", "none", True, True, "M"),
    SystemEntry("Saturn", "none", True, True, "1 ts"),
    SystemEntry("Karma", "ROT", True, True, "O(|deps|)"),
    SystemEntry("CausalSpartan", "none", True, False, "M"),
    SystemEntry("Bolt-on CC", "none", True, False, "M"),
    SystemEntry("EunomiaKV", "none", True, False, "M"),
    SystemEntry("PaRiS (this work)", "Generic", True, True, "1 ts"),
)


def unique_full_support(entries: Sequence[SystemEntry] = TAXONOMY) -> List[str]:
    """Systems with generic txs + non-blocking reads + partial replication.

    The paper's claim: PaRiS is the only one.
    """
    return [
        entry.name
        for entry in entries
        if entry.transactions == "Generic"
        and entry.nonblocking_reads
        and entry.partial_replication
    ]
