"""Digests of the command line reports on a fixed corpus of channels.

Run on two source trees and compare the outputs line by line to check that a
change leaves every report byte-identical::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<tree>/src python tests/report_digests.py

Pin the BLAS thread count on both trees alike: the last bits of a report can
depend on it.  The documents and observables are written into a temporary
directory, and every command runs in process through
:func:`krausfock.cli.main`.  One line is printed a run: the document, the
command, its flags, the exit code and the first 16 hex digits of the SHA-256
of stdout and of stderr, with the temporary path masked in all of them.

The corpus has four documents at each of the instances 1, 3 and 7:

- ``random_unital(2,16)`` as a catalog document, to ``m = 8``;
- ``commuting_generic(2,12)`` as explicit Kraus matrices, to ``m = 12``;
- ``sequential_projective(d=4, angle=0.01)`` as a catalog document, to
  ``m = 6``;
- ``random_unital(2,3)`` with ``K_0`` split into the two halves
  ``K_0/√2, K_0/√2``, a dependent family, with the state
  ``diag(0.5, 0.3, 0.2)``, to ``m = 4``.

Each is run through ``validate``, ``dims``, ``subproduct-check`` (to at most
``m = 6``), ``dequantize`` at the top level, ``converge``, ``dilate`` and
``complementary``, with two seeded Hermitian observables, at the default
tolerances and again with ``--tol-rank 1e-3``: 168 runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from krausfock import KrausSet, commuting_generic, random_unital
from krausfock.cli import channel_to_document, main, matrix_to_json

INSTANCES = (1, 3, 7)
FLAG_SETS = ((), ("--tol-rank", "1e-3"))


class Run(NamedTuple):
    document: str
    command: str
    flags: str
    code: int
    out: str
    err: str

    def __str__(self) -> str:
        head = f"{self.document} {self.command} [{self.flags}]"
        return f"{head} exit={self.code} out={self.out} err={self.err}"


def documents(seed: int) -> list[tuple[str, dict, int]]:
    """``(name, document, top level)`` for the corpus at instance ``seed``."""
    base = random_unital(2, 3, seed=seed).ops
    split = KrausSet(np.concatenate([base[:1], base[:1], np.sqrt(2.0) * base[1:]]) / np.sqrt(2.0))
    return [
        (
            f"random_unital-2-16-s{seed}",
            {"catalog": {"family": "random_unital", "n": 2, "d": 16, "seed": seed}},
            8,
        ),
        (
            f"commuting_generic-2-12-s{seed}",
            channel_to_document(commuting_generic(2, 12, seed=seed)),
            12,
        ),
        (
            f"sequential_projective-4-s{seed}",
            {
                "catalog": {
                    "family": "sequential_projective",
                    "d": 4,
                    "seed": seed,
                    "params": {"angle": 0.01},
                }
            },
            6,
        ),
        (
            f"split-random_unital-2-3-s{seed}",
            channel_to_document(split, np.diag([0.5, 0.3, 0.2])),
            4,
        ),
    ]


def _observable(rng: np.random.Generator, dim: int) -> dict:
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return {"matrix": matrix_to_json((x + x.conj().T) / 2.0)}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run(argv: list[str], tmp: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().replace(tmp, "<tmp>"), err.getvalue().replace(tmp, "<tmp>")


def digests(instances=INSTANCES, flag_sets=FLAG_SETS) -> list[Run]:
    """One :class:`Run` for every document, command and flag set, in a fixed order."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in instances:
            for name, doc, top in documents(seed):
                path = Path(tmp, f"{name}.json")
                path.write_text(json.dumps(doc))
                dim = doc["dim"] if "dim" in doc else doc["catalog"]["d"]
                rng = np.random.default_rng([seed, dim])
                observables = []
                for label in ("a", "b"):
                    obs = Path(tmp, f"{name}-{label}.json")
                    obs.write_text(json.dumps(_observable(rng, dim)))
                    observables.append(str(obs))
                commands = [
                    ["validate"],
                    ["dims", "--max-m", str(top)],
                    ["subproduct-check", "--max-m", str(min(top, 6))],
                    ["dequantize", "--observable", observables[0], "--level", str(top)],
                    ["converge", "--observables", *observables, "--max-m", str(top)],
                    ["dilate", "--max-m", str(top)],
                    ["complementary"],
                ]
                for command, *options in commands:
                    for flags in flag_sets:
                        argv = [command, str(path), *options, *flags]
                        code, out, err = _run(argv, tmp)
                        shown = " ".join(options + list(flags)).replace(tmp, "<tmp>")
                        runs.append(Run(name, command, shown, code, _digest(out), _digest(err)))
    return runs


if __name__ == "__main__":
    for run in digests():
        print(run)
