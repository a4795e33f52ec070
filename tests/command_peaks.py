"""Memory peaks of the level commands on a deep document, at two depths.

Run on two source trees and compare the outputs to check how a change moves
the memory a command needs as its top level grows::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<tree>/src python tests/command_peaks.py

The document is ``commuting_generic(2,24)`` seed 3 as explicit Kraus
matrices.  Its level dimension saturates at 24 from ``m = 23``, so every
level past that adds a ``24 x 48`` chain factor and nothing else that a
command must keep.  The commands that build levels, ``dims``,
``subproduct-check``, ``dilate``, ``dequantize`` and ``converge``, each run
at ``--max-m`` (``--level`` for ``dequantize``) 24 and 48, in process through
:func:`krausfock.cli.main`, with two seeded Hermitian observables.
``validate`` and ``complementary`` build no level, so they are left out.
One line is printed a command: its tracemalloc peaks in MB at both depths
and their ratio.  Each command runs once at level 2 before it is measured,
so a first call's one-time allocations count in no peak.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from krausfock import commuting_generic
from krausfock.cli import channel_to_document, main, matrix_to_json

DEPTHS = (24, 48)
COMMANDS = ("dims", "subproduct-check", "dilate", "dequantize", "converge")


def _argv(command: str, doc: str, observables: list[str], level: int) -> list[str]:
    if command == "dequantize":
        return [command, doc, "--observable", observables[0], "--level", str(level)]
    options = ["--observables", *observables] if command == "converge" else []
    return [command, doc, *options, "--max-m", str(level)]


def _peak(argv: list[str]) -> int:
    """The tracemalloc peak of one in-process run, in bytes above its start."""
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}: {err.getvalue()}")
    return peak


def command_peaks(commands=COMMANDS, depths=DEPTHS) -> dict[str, list[int]]:
    """The tracemalloc peak in bytes of each command at each depth."""
    rng = np.random.default_rng([3, 24])
    peaks = {}
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp, "commuting_generic-2-24-s3.json")
        doc.write_text(json.dumps(channel_to_document(commuting_generic(2, 24, seed=3))))
        observables = []
        for label in ("a", "b"):
            x = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
            path = Path(tmp, f"{label}.json")
            path.write_text(json.dumps({"matrix": matrix_to_json((x + x.conj().T) / 2.0)}))
            observables.append(str(path))
        for command in commands:
            _peak(_argv(command, str(doc), observables, 2))
            peaks[command] = [_peak(_argv(command, str(doc), observables, m)) for m in depths]
    return peaks


if __name__ == "__main__":
    for command, peaks in command_peaks().items():
        shown = "  ".join(f"m={m}: {peak / 1e6:.3f} MB" for m, peak in zip(DEPTHS, peaks))
        print(f"{command:<17} {shown}  ratio {peaks[-1] / peaks[0]:.2f}")
