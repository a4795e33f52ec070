"""Correctness gate: decides for each operation whether its output is right.

An operation fails if it raises, exits with a nonzero code, or produces output
that breaks one of the invariants below.  The gate reads the outputs the way
a user would (CSV rows, JSON reports, printed lines) and never calls the
library, so a refactor of the library cannot weaken it.

- Residuals (nesting, isometry, unitarity, unitality, formula agreement) are
  at or below ``RESIDUAL_TOL``, the library's default ``residual_tol``.
- Level dimensions equal the recorded ladder of the document.
- CSV reports have exactly one row per requested level, with finite values.
- ``converge`` values match the values recorded at the reference commit to
  ``|x - r| <= CONVERGE_ATOL + CONVERGE_RTOL * |r|``, never bytewise.  Every
  recorded instance has correlation matrices whose smallest eigenvalue is at
  least ``1e-7`` of the largest, so rounding is amplified by at most about
  ``1e7``.  Rotating every level basis by a random unitary, which changes
  every rounding but no exact value, moved the recorded values by at most
  0.2 % of this tolerance (the largest moves, about ``2e-9``, are in
  ``limit_state_gap`` entries that are zero in exact arithmetic).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

RESIDUAL_TOL = 1e-8
CONVERGE_RTOL = 1e-5
CONVERGE_ATOL = 1e-6
CONVERGE_HEADER = ["m", "norm_gap", "vn_residual", "scaled_commutator", "limit_state_gap"]


@dataclass
class Outcome:
    """What one operation returned: exit code and streams, or query values."""

    rc: int | None = None
    out: str = ""
    err: str = ""
    error: str | None = None
    values: dict | None = None


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    table = list(csv.reader(lines))
    if not table:
        return [], []
    return table[0], table[1:]


def converge_rows(text: str) -> list[list[float]]:
    """Values of a ``converge`` CSV, one list of four floats per level."""
    _, rows = parse_csv(text)
    return [[float(v) for v in row[1:]] for row in rows]


def _small(value, what: str, problems: list[str]) -> None:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        problems.append(f"{what} is not a finite number: {value!r}")
    elif value > RESIDUAL_TOL:
        problems.append(f"{what} = {value:.3e} exceeds {RESIDUAL_TOL:.0e}")


def _check_validate(out: str, problems: list[str], **_) -> None:
    fields = {}
    for line in out.splitlines():
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    if fields.get("valid") != "yes":
        problems.append(f"validate reports valid = {fields.get('valid')!r}")
    try:
        _small(float(fields.get("unitality_residual", "nan")), "unitality_residual", problems)
    except ValueError:
        problems.append("validate printed no numeric unitality_residual")


def _check_dims(out: str, problems: list[str], level: int, ladder: list[int], **_) -> None:
    header, rows = parse_csv(out)
    if header != ["m", "d_m", "subproduct_residual_max"]:
        problems.append(f"dims header {header}")
    if len(rows) != level:
        problems.append(f"dims has {len(rows)} rows for {level} levels")
    for m, row in enumerate(rows, start=1):
        if len(row) != 3 or row[0] != str(m):
            problems.append(f"dims row {m} malformed: {row}")
            continue
        if int(row[1]) != ladder[m]:
            problems.append(f"d_{m} = {row[1]}, expected {ladder[m]}")
        _small(float(row[2]), f"nesting residual at m={m}", problems)


def _check_dilate(out: str, problems: list[str], level: int, **_) -> None:
    payload = json.loads(out)["payload"]
    for key in ("unitarity_residual", "compression_residual"):
        _small(payload["unitary"][key], f"unitary {key}", problems)
    levels = payload["levels"]
    if [entry["m"] for entry in levels] != list(range(1, level + 1)):
        problems.append(f"dilate reports levels {[e['m'] for e in levels]}")
    for entry in levels:
        for key in ("isometry_residual", "compression_residual"):
            _small(entry[key], f"level {entry['m']} {key}", problems)


def _matrix(obj) -> np.ndarray:
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


def _check_complementary(out: str, problems: list[str], ladder: list[int], **_) -> None:
    payload = json.loads(out)["payload"]
    _small(payload["formula_agreement"], "formula_agreement", problems)
    _small(abs(payload["trace"] - 1.0), "|trace - 1|", problems)
    if not payload["min_eigenvalue"] >= -RESIDUAL_TOL:
        problems.append(f"bath state has eigenvalue {payload['min_eigenvalue']!r}")
    state = _matrix(payload["state_on_bath"])
    if state.shape != (ladder[1], ladder[1]) or not np.all(np.isfinite(state)):
        problems.append(f"bath state has shape {state.shape} or non-finite entries")


def _check_dequantize(out: str, problems: list[str], level: int, ladder: list[int], **_) -> None:
    payload = json.loads(out)["payload"]
    if payload["level"] != level:
        problems.append(f"dequantize reports level {payload['level']}")
    psi = _matrix(payload["matrix"])
    dm = ladder[level]
    if psi.shape != (dm, dm) or not np.all(np.isfinite(psi)):
        problems.append(f"dequantized matrix has shape {psi.shape} or non-finite entries")
    _small(payload["unitality_residual"], "unitality_residual", problems)
    sym = payload["symmetry_residuals"]
    if sorted(sym, key=int) != [str(m) for m in range(1, level + 1)]:
        problems.append(f"symmetry residuals for levels {sorted(sym)}")
    if not all(math.isfinite(v) for pair in sym.values() for v in pair):
        problems.append("non-finite symmetry residual")


def _check_converge(out: str, problems: list[str], level: int, reference, **_) -> None:
    header, rows = parse_csv(out)
    if header != CONVERGE_HEADER:
        problems.append(f"converge header {header}")
    if [row[0] for row in rows] != [str(m) for m in range(1, level + 1)]:
        problems.append(f"converge rows for levels {[row[0] for row in rows]}")
        return
    values = converge_rows(out)
    if not all(math.isfinite(v) for row in values for v in row):
        problems.append("non-finite converge value")
    for m, (row, ref) in enumerate(zip(values, reference), start=1):
        for name, x, r in zip(CONVERGE_HEADER[1:], row, ref):
            if not abs(x - r) <= CONVERGE_ATOL + CONVERGE_RTOL * abs(r):
                problems.append(f"converge {name} at m={m} is {x!r}, recorded {r!r}")


def _check_queries(values: dict, problems: list[str], level: int, ladder: list[int], **_) -> None:
    if list(values["fock_dims"]) != ladder[: level + 1]:
        problems.append(f"truncated Fock dims {values['fock_dims']}")
    mult = values["multiplicativity_residual"]
    if not (math.isfinite(mult) and mult >= 0.0):
        problems.append(f"multiplicativity residual {mult!r}")
    symbol = np.asarray(values["covariant_symbol"])
    if not np.all(np.isfinite(symbol)):
        problems.append("covariant symbol has non-finite entries")
    else:
        scale = max(1.0, float(np.linalg.norm(symbol, 2)))
        _small(float(np.linalg.norm(symbol - symbol.conj().T, 2)) / scale, "symbol asymmetry", problems)
    order = values["normal_ordering_residual"]
    if not (math.isfinite(order) and -RESIDUAL_TOL <= order <= 1.0 + RESIDUAL_TOL):
        problems.append(f"normal-ordering residual {order!r} outside [0, 1]")


_CHECKS = {
    "validate": _check_validate,
    "dims": _check_dims,
    "dilate": _check_dilate,
    "complementary": _check_complementary,
    "dequantize": _check_dequantize,
    "converge": _check_converge,
}


def check(command: str, outcome: Outcome, level: int, ladder: list[int], reference=None) -> list[str]:
    """Problems found in one operation's outcome; an empty list means it passed."""
    if outcome.error is not None:
        return [f"raised {outcome.error}"]
    problems: list[str] = []
    context = {"level": level, "ladder": ladder, "reference": reference}
    try:
        if command == "queries":
            _check_queries(outcome.values, problems, **context)
        else:
            if outcome.rc != 0:
                problems.append(f"exit code {outcome.rc}: {outcome.err.strip()[-200:]}")
            _CHECKS[command](outcome.out, problems, **context)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems


class Tally:
    """Counts attempted and failed operations and keeps the first problems found."""

    def __init__(self, keep: int = 20):
        self.attempted = 0
        self.failed = 0
        self.problems: list[dict] = []
        self._keep = keep

    def record(self, label: str, command: str, outcome: Outcome, level: int, ladder, reference=None):
        self.attempted += 1
        problems = check(command, outcome, level, ladder, reference)
        if problems:
            self.failed += 1
            if len(self.problems) < self._keep:
                self.problems.append({"operation": label, "problems": problems[:5]})
        return problems


def _edit_last_row(text: str, column: int, edit) -> str:
    lines = text.rstrip("\n").split("\n")
    cells = lines[-1].split(",")
    cells[column] = edit(cells[column])
    lines[-1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def self_check(dims: Outcome, converge: Outcome, level: int, ladder, reference) -> dict:
    """Feed the gate corrupted copies of real outputs and count the failures.

    Returns the number of corrupted outputs, how many the tally counted as
    failed, and whether the untouched outputs passed; the gate works only if
    every corrupted one failed and the originals did not.
    """
    try:
        corrupted = {
            "dims with a wrong d_m": ("dims", _edit_last_row(dims.out, 1, lambda v: str(int(v) + 1))),
            "dims with a level missing": ("dims", dims.out.rstrip("\n").rsplit("\n", 1)[0] + "\n"),
            "converge with a value moved by 1e-3": (
                "converge",
                _edit_last_row(converge.out, 1, lambda v: repr(float(v) + 1e-3 * max(1.0, abs(float(v))))),
            ),
        }
    except (ValueError, IndexError):  # the outputs are not CSV rows the edits apply to
        return {"corrupted": 0, "counted_failed": 0, "originals_failed": None, "ok": False}
    tally = Tally()
    for label, (command, text) in corrupted.items():
        tally.record(label, command, Outcome(rc=0, out=text), level, ladder, reference)
    originals = Tally()
    originals.record("dims", "dims", dims, level, ladder)
    originals.record("converge", "converge", converge, level, ladder, reference)
    return {
        "corrupted": len(corrupted),
        "counted_failed": tally.failed,
        "originals_failed": originals.failed,
        "ok": tally.failed == len(corrupted) and originals.failed == 0,
    }
