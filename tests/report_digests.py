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

Two more documents are in the corpus once, whatever the instances: two
near-degenerate families on which the nesting law fails today, so that a
change to their level decisions shows as a change of exactly their lines:

- ``sequential_projective(d=3, angle=3e-5)`` seed 0 as a catalog document,
  to ``m = 6``;
- the two unitaries ``(u, u e^{itX}) / √2`` of :func:`rotated_unitaries` at
  ``t = 1e-6`` as explicit Kraus matrices, to ``m = 6``.

Each is run through ``validate``, ``dims``, ``subproduct-check`` (to at most
``m = 6``), ``dequantize`` at the top level, ``converge``, ``dilate`` and
``complementary``, with two seeded Hermitian observables, at the default
tolerances and again with ``--tol-rank 1e-3``: 196 runs.  Then each document
gets one ``queries`` line at the default tolerances (:func:`query_digests`),
for the library calls no command makes: its stdout digest is that of the
bytes of the ``truncated_fock`` blocks to the top level,
``multiplicativity_residual`` from level 1 to the top, ``covariant_symbol``
at the top level and ``normal_ordering_residual`` at degree ``min(4, top)``,
with seeded Hermitian arguments; a refusal is ``exit=1`` with the digest of
its message: 14 more lines.

``tests/report_digests.txt`` holds the output of a run of the whole corpus
with ``OPENBLAS_NUM_THREADS=1``, after a header of ``#`` lines that names the
numpy version, the BLAS build and that thread count (:func:`header`).  A
change that alters report bytes on purpose records it again::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/report_digests.py > tests/report_digests.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from krausfock import (
    KrausSet,
    build_subproduct,
    commuting_generic,
    covariant_symbol,
    minimal_kraus,
    multiplicativity_residual,
    normal_ordering_residual,
    random_unital,
    truncated_fock,
)
from krausfock.cli import channel_from_document, channel_to_document, main, matrix_to_json

INSTANCES = (1, 3, 7)
FLAG_SETS = ((), ("--tol-rank", "1e-3"))
THREADS = "OPENBLAS_NUM_THREADS"


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


def rotated_unitaries(t: float) -> KrausSet:
    """The unitaries ``u, u exp(i t X)``, each scaled by ``1/√2``, for a seeded ``u``."""
    rng = np.random.default_rng(0)
    for _ in range(2):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u = np.linalg.qr(g)[0]
    w, v = np.linalg.eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    rotation = (v * np.exp(1j * t * w)) @ v.T
    return KrausSet(np.stack([u, u @ rotation]) / np.sqrt(2.0))


def near_degenerate_documents() -> list[tuple[str, dict, int]]:
    """``(name, document, top level)`` for the two documents run once."""
    angle = {"family": "sequential_projective", "d": 3, "seed": 0, "params": {"angle": 3e-5}}
    return [
        ("sequential_projective-3-3e-05-s0", {"catalog": angle}, 6),
        ("rotated_unitaries-1e-06", channel_to_document(rotated_unitaries(1e-6)), 6),
    ]


def header() -> list[str]:
    """The lines that name what the digests depend on beyond the source tree."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        f"# numpy {np.__version__}",
        f"# blas {blas['name']} {blas['version']}: {blas.get('openblas configuration', '')}",
        f"# {THREADS}={os.environ.get(THREADS, '(unset)')}",
    ]


def corpus(instances=INSTANCES) -> list[tuple[int, str, dict, int]]:
    """``(seed, name, document, top level)`` for every document, in a fixed
    order: the documents of each instance, then the near-degenerate ones."""
    entries = [(seed, *entry) for seed in instances for entry in documents(seed)]
    return entries + [(0, *entry) for entry in near_degenerate_documents()]


def _hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (x + x.conj().T) / 2.0


def _observable(rng: np.random.Generator, dim: int) -> dict:
    return {"matrix": matrix_to_json(_hermitian(rng, dim))}


def _digest(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()[:16]


def _run(argv: list[str], tmp: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().replace(tmp, "<tmp>"), err.getvalue().replace(tmp, "<tmp>")


def digests(instances=INSTANCES, flag_sets=FLAG_SETS) -> list[Run]:
    """One :class:`Run` for every document, command and flag set, in a fixed order:
    the documents of each instance, then the near-degenerate ones."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed, name, doc, top in corpus(instances):
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


def _query_bytes(kraus: KrausSet, top: int, rng: np.random.Generator) -> bytes:
    """The bytes of the values of the four library queries on ``kraus`` to ``top``."""
    system = build_subproduct(kraus, top)
    a, b = (_hermitian(rng, kraus.size) for _ in range(2))
    x = _hermitian(rng, system.dims[top])
    fock = truncated_fock(system, top)
    last = kraus.size - 1
    blocks = fock.left_blocks + fock.right_blocks
    values = [block for level in blocks for block in level]
    values += [
        multiplicativity_residual(system, a, b, 1, top),
        covariant_symbol(kraus, system, top, x),
        normal_ordering_residual(kraus, system, (0, last), (last, 0), min(4, top)),
    ]
    return b"".join(np.asarray(value).tobytes() for value in values)


def query_digests(instances=INSTANCES) -> list[Run]:
    """One ``queries`` :class:`Run` a document of the corpus, in its order.

    The family is the minimal one the commands read from the document, at
    its own tolerances; the arguments are drawn from a generator seeded by
    the instance and the dimension.
    """
    runs = []
    for seed, name, doc, top in corpus(instances):
        kraus = minimal_kraus(channel_from_document(json.loads(json.dumps(doc)))[0])
        code, out, err = 0, b"", ""
        try:
            out = _query_bytes(kraus, top, np.random.default_rng([seed, kraus.dim, 1]))
        except ValueError as exc:
            code, err = 1, str(exc)
        runs.append(Run(name, "queries", f"top {top}", code, _digest(out), _digest(err)))
    return runs


if __name__ == "__main__":
    print("\n".join(header()))
    for run in digests() + query_digests():
        print(run)
