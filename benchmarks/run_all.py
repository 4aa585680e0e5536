#!/usr/bin/env python3
"""Run the whole figure catalogue and regenerate EXPERIMENTS.md.

Usage:
    python benchmarks/run_all.py [--scale small|medium|paper] [--out PATH]
                                 [--workers N]

One section per entry of :data:`repro.bench.figures.FIGURES`: the rendered
artifact, the paper's claim and the measured shape.  Entries are independent
experiments, so ``--workers N`` fans them out across processes via
:func:`repro.workers.pool_map`; the assembled document holds no
wall-clock text and is identical at any worker count.  Exits 1 if any
entry's shape check fails (the document is written either way).  Run from
the repository root: the ``design_space`` entry reads its committed sweep
spec and the default run repository (``results/``) relative to the current
directory.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import Optional, Sequence

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.bench import experiments as exp  # noqa: E402
from repro.bench import figures, runner  # noqa: E402
from repro.workers import pool_map  # noqa: E402

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


def header(scale: exp.BenchScale) -> str:
    """The document's preamble: how it was generated and how to read it."""
    return (
        "# EXPERIMENTS — paper vs measured\n\n"
        f"Generated by `python benchmarks/run_all.py --scale {scale.name}` "
        f"(deployment: {scale.n_dcs} DCs x {scale.machines_per_dc} machines/DC, "
        f"RF {scale.replication_factor}; measurement window {scale.duration}s "
        f"after {scale.warmup}s warmup; simulated WAN of the paper's AWS "
        f"regions).\n\n"
        "Absolute numbers come from the simulated substrate and are not "
        "comparable to the paper's C++/EC2 testbed; every section therefore "
        "states the paper's claim next to the measured **shape** — direction, "
        "ratios, and crossovers.  See docs/architecture.md for the "
        "substitution rationale and docs/experiments.md for the figure map.\n"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run every entry (possibly in parallel) and write EXPERIMENTS.md."""
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--scale",
        choices=sorted(exp.SCALES),
        default="small",
        help="deployment scale (default: small)",
    )
    parser.add_argument(
        "--out", default=str(DEFAULT_OUT), help="where to write the assembled document"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (default: 1; results are identical at any worker count)",
    )
    args = parser.parse_args(argv)
    scale = exp.SCALES[args.scale]
    started = time.monotonic()

    def log(message: str) -> None:
        """Print ``message`` with a ``[  12.3s]`` elapsed-time prefix."""
        print(f"[{time.monotonic() - started:7.1f}s] {message}", flush=True)

    log(
        f"assembling {len(figures.FIGURES)} sections at scale '{args.scale}' "
        f"with {args.workers} worker(s)"
    )
    built = pool_map(
        figures.section,
        [(name, scale) for name in figures.FIGURES],
        workers=args.workers,
        progress=lambda i, task: log(f"done: {task[0]}"),
    )
    runner.write_text(
        args.out, header(scale) + "\n" + "\n".join(text for text, _ in built)
    )
    log(f"wrote {args.out}")
    failures = [failure for _, failure in built if failure]
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
