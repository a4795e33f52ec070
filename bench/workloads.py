"""Workloads of the benchmark: channel documents, fixed scripts, generated inputs.

A workload is a list of channel documents; a pass runs the fixed ``SCRIPT``
of commands on each of them.  Every level the script requests lies inside
the range that ``build_subproduct`` materialises under the default word
budget (``n^m <= 4096``), so no command depends on the dimensions-only branch
or on the clamping of ``converge`` to the built level.  Documents carry no ``tol``
block: every command runs at the library's default tolerances.

The workload seed picks one of ``POOL`` recorded instances (``seed mod
POOL``); the instance is the catalog seed of the documents and also seeds
the observables.  ``record.py`` chose the instances and recorded their
dimension ladders and ``converge`` values, so the gate compares against
numbers the program produced at the recorded commit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

POOL = 16

SCRIPT = ("validate", "dims", "dequantize", "converge", "dilate", "complementary", "queries")


@dataclass(frozen=True)
class Doc:
    """One channel document: a catalog instance and the level its script uses.

    ``form`` is ``"catalog"`` (the document names the family and the CLI builds
    it) or ``"kraus"`` (the document lists the Kraus matrices explicitly).
    """

    name: str
    family: str
    n: int
    d: int
    level: int
    form: str = "catalog"

    def catalog(self, instance: int) -> dict:
        return {"family": self.family, "n": self.n, "d": self.d, "seed": instance}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    docs: tuple[Doc, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense-generic",
            "random_unital(2,16) to m=8: d_m doubles to 256, so dense level algebra "
            "and large outputs dominate while words stay few",
            (Doc("random_unital", "random_unital", n=2, d=16, level=8),),
        ),
        Workload(
            "deep-commuting",
            "commuting_generic(2,12) to m=12: 4096 words with d_m <= 12, so word "
            "enumeration and n^m x d^2 stacks dominate",
            (Doc("commuting_generic", "commuting_generic", n=2, d=12, level=12, form="kraus"),),
        ),
    )
}


@dataclass(frozen=True)
class Op:
    """One operation of a pass: a CLI command or the block of library queries."""

    index: int
    doc: Doc
    command: str
    argv: tuple[str, ...] = ()


@dataclass
class Inputs:
    """Files and arrays generated for one instance of a workload."""

    workload: Workload
    instance: int
    directory: str
    paths: dict[str, dict[str, str]]
    query_args: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]
    ops: list[Op]


def _matrix_json(a) -> dict:
    a = np.asarray(a, dtype=complex)
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


def _hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (g + g.conj().T) / 2.0
    return h / np.linalg.norm(h, 2)


def _write(path: str, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def make_inputs(workload: Workload, instance: int, directory: str, ladders: dict) -> Inputs:
    """Write the documents of one instance and build its script of operations.

    ``ladders`` maps each document name to its recorded dimension ladder; it
    fixes the shapes of the level operators handed to the library queries.
    """
    from krausfock.catalog import CatalogSpec, build_catalog

    os.makedirs(directory, exist_ok=True)
    paths, query_args = {}, {}
    for index, doc in enumerate(workload.docs):
        rng = np.random.default_rng([instance, index])
        spec = doc.catalog(instance)
        channel = os.path.join(directory, f"{doc.name}.json")
        if doc.form == "catalog":
            _write(channel, {"catalog": spec})
        else:
            kraus = build_catalog(CatalogSpec(**spec))
            _write(channel, {"dim": kraus.dim, "kraus": [_matrix_json(k) for k in kraus.ops]})
        a, b = _hermitian(rng, doc.d), _hermitian(rng, doc.d)
        paths[doc.name] = {
            "channel": channel,
            "a": os.path.join(directory, f"{doc.name}.a.json"),
            "b": os.path.join(directory, f"{doc.name}.b.json"),
        }
        _write(paths[doc.name]["a"], {"matrix": _matrix_json(a)})
        _write(paths[doc.name]["b"], {"matrix": _matrix_json(b)})
        ladder = ladders[doc.name]
        query_args[doc.name] = (
            _hermitian(rng, ladder[1]),
            _hermitian(rng, ladder[1]),
            _hermitian(rng, ladder[doc.level]),
        )
    ops = []
    for doc in workload.docs:
        for command in SCRIPT:
            ops.append(Op(len(ops), doc, command, _argv(command, doc, paths[doc.name])))
    return Inputs(workload, instance, directory, paths, query_args, ops)


def _argv(command: str, doc: Doc, paths: dict[str, str]) -> tuple[str, ...]:
    level = str(doc.level)
    channel = paths["channel"]
    if command in ("validate", "complementary"):
        return (command, channel)
    if command in ("dims", "dilate"):
        return (command, channel, "--max-m", level)
    if command == "dequantize":
        return (command, channel, "--observable", paths["a"], "--level", level)
    if command == "converge":
        return (command, channel, "--max-m", level, "--observables", paths["a"], paths["b"])
    if command == "queries":
        return ()
    raise ValueError(f"unknown command {command!r}")
