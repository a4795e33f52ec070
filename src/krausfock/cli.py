"""Command line front end: channel ingestion, reports and serialization.

Channel documents are JSON objects with either explicit Kraus matrices or a
catalog spec::

    {
      "dim": 2,
      "kraus": [{"re": [[...]], "im": [[...]]}, ...],
      "state": {"re": [[...]], "im": [[...]]},          # optional
      "tol": {"rank_rel_tol": ..., "residual_tol": ...}, # optional
      "catalog": {"family": "...", "n": ..., "d": ..., "seed": ..., "params": {...}}
    }

Exactly one of ``kraus`` / ``catalog`` must be present; an explicit-Kraus
document may also hold the ``catalog_echo`` that ``catalog`` writes, which is
not read.  Every object -- the document, ``tol``, ``catalog``,
``catalog.params``, each ``{re, im}`` matrix and the observable document
``{"matrix": ...}`` -- rejects a field it does not define.  Every command,
``validate`` included, checks ``state`` with ``channel.check_state`` when it
loads the document.  This module checks the JSON shape: objects, field
names, ``null``, ``dim`` and matrix entries and shapes, so a ragged matrix
or a string where a matrix entry belongs is an input error that names the
field.  The values of ``tol`` and ``catalog`` are checked only by the library
types that hold them, :class:`~krausfock.linalg.Tolerances` and
:class:`~krausfock.catalog.CatalogSpec`, for the command line and library
callers alike, and so are the ``--tol-rank`` and ``--tol-residual`` flags;
their message is the one printed.  Complex matrices are stored as paired real
arrays; floats are written with Python's shortest round-tripping repr, so
serialize -> parse reproduces every entry bit for bit.  JSON reports are
written by a dedicated writer whose bytes equal
``json.dumps(report, sort_keys=True, indent=2)`` with every array replaced
by its ``tolist()``.  Reports are streamed: a report matrix stays a pair of
float arrays and is written one row at a time, so no report text is held
in memory whole.

A subcommand accepts only the flags it reads.  Every channel command takes
``--tol-rank``, ``--tol-residual`` and ``--out``, which sends its JSON or CSV
report to a file instead of stdout.  ``validate`` prints its report and
takes ``--out`` only with ``--minimalize``, which writes the reduced channel
there, by default over the input.  ``dims``, ``subproduct-check`` and
``converge`` build every level up to ``--max-m``, ``dequantize`` up to
``--level``; a level keeps its chain factor, at most ``n d^4`` entries, and
the generators and correlations of one level are kept besides, so cost is
polynomial in the level.  ``dilate`` reads each ``V_m`` off its level as the
level is formed, up to ``--max-m``, and keeps no factor.  Exit codes: 0
success, 1 validation or acceptance failure, 2 input error.  Exit 2 means
the failure arose while input was read: ``load_document`` and
``channel_from_document`` raise :class:`InputError`, the latter also for
every ``ValueError`` the library raises on what it is given, and ``main``
maps it to 2.  After loading, a ``ValueError`` exits 1 in every command.

:func:`main` may be called many times in one process, as the tests, the
benchmark and notebooks do.  It builds its parser on the first call and only
reads it afterwards, so a call carries no flag or default over to the next;
a command run from the shell builds one parser, as before.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, fields, replace
from itertools import chain

import numpy as np

from . import __version__
from .catalog import CatalogSpec, build_catalog
from .channel import KrausSet, apply_heisenberg, check_state, minimal_kraus, validate
from .dequantization import (
    ConvergenceReport,
    CorrelationData,
    StateSpec,
    _dequantize,
    convergence_rows,
    phi_symmetry_residual,
)
from .dilation import (
    _complementary_state,
    _complementary_state_via_dilation,
    _compressed_action,
    _isometry,
    unitary_dilation,
)
from .linalg import Tolerances, _largest_norm, operator_norm
from .subproduct import SubproductSystem, _levels, build_subproduct, nesting_residuals


class InputError(Exception):
    """Malformed document, missing file or inconsistent parameters."""


def matrix_to_json(a) -> dict:
    a = np.asarray(a, dtype=complex)
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


def _matrix_arrays(a) -> dict:
    """:func:`matrix_to_json` for a report: float64 arrays, serialized by rows."""
    a = np.asarray(a, dtype=complex)
    return {"re": a.real, "im": a.imag}


def _object(value, what: str, allowed, required=()) -> dict:
    """``value`` as a JSON object with every ``required`` key and no key outside ``allowed``."""
    if not isinstance(value, dict):
        raise InputError(f"{what} must be an object, got {value!r}")
    unknown = sorted(set(value) - set(allowed))
    if unknown:
        raise InputError(f"{what} has unknown fields {unknown}")
    missing = [key for key in required if key not in value]
    if missing:
        raise InputError(f"{what} needs the fields {missing}")
    return value


def _number(value, what: str) -> float:
    """A finite JSON number; booleans, numeric strings and integers beyond
    float range are rejected."""
    try:
        if not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value):
            return float(value)
    except OverflowError:  # math.isfinite of an integer beyond float range
        pass
    raise InputError(f"{what} must be a finite number, got {value!r}")


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def _real_rows(rows, what: str) -> np.ndarray:
    """A rectangular, non-empty list of rows of finite numbers as a float array."""
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise InputError(f"{what} must be a non-empty list of rows")
    width = len(rows[0])
    if width == 0 or any(len(r) != width for r in rows):
        raise InputError(f"{what} is ragged: every row needs the same nonzero length")
    for row in rows:
        for x in row:
            # a finite float passes as is; anything else gets _number's check and message
            if not (type(x) is float and -math.inf < x < math.inf):
                _number(x, f"{what} entry")
    return np.array(rows, dtype=float)


def matrix_from_json(obj, what: str = "matrix") -> np.ndarray:
    obj = _object(obj, what, ("re", "im"), ("re",))
    re = _real_rows(obj["re"], f"{what}.re")
    im = _real_rows(obj["im"], f"{what}.im") if "im" in obj else np.zeros_like(re)
    if re.shape != im.shape:
        raise InputError(f"{what} parts must be equal-shaped 2-d arrays")
    return re + 1j * im


def tolerances_from_json(obj) -> Tolerances:
    """Tolerances from a document's ``tol`` object; :class:`Tolerances` checks the values."""
    return Tolerances(**_object(obj, "tol", [f.name for f in fields(Tolerances)]))


def catalog_spec_from_json(obj) -> CatalogSpec:
    """Catalog spec from a document's ``catalog`` object.

    Only the JSON shape is checked here: the field names, and that none is
    ``null``, which :class:`CatalogSpec` would read as "not given".
    :class:`CatalogSpec` checks every value, ``params`` included.
    """
    obj = _object(obj, "catalog", ("family", "n", "d", "seed", "params"), ("family",))
    nulls = sorted(k for k, v in obj.items() if v is None)
    if nulls:
        raise InputError(f"catalog fields {nulls} must not be null")
    return CatalogSpec(**obj)


def load_document(path: str) -> tuple[object, str]:
    """The parsed JSON of the file ``path`` and the SHA-256 digest of its bytes."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw), hashlib.sha256(raw).hexdigest()
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path} is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, too many digits or too deep
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def channel_from_document(doc, args=None) -> tuple[KrausSet, np.ndarray | None]:
    """Build the Kraus set and optional reference state from a parsed document.

    This is where input is read: a ``ValueError`` raised here, by a reader or
    by the library checking what it was given, is an :class:`InputError`.
    """
    if not isinstance(doc, dict) or ("kraus" in doc) == ("catalog" in doc):
        raise InputError("document must be an object with exactly one of 'kraus' or 'catalog'")
    if "kraus" in doc:
        _object(doc, "document", ("dim", "kraus", "catalog_echo", "state", "tol"), ("dim",))
    else:
        _object(doc, "document", ("catalog", "state", "tol"))
    try:
        tol = tolerances_from_json(doc.get("tol", {}))
        if args is not None:
            overrides = {"rank_rel_tol": args.tol_rank, "residual_tol": args.tol_residual}
            tol = replace(tol, **{k: v for k, v in overrides.items() if v is not None})
        if "kraus" in doc:
            dim = _integer(doc["dim"], "dim")
            if not isinstance(doc["kraus"], list) or not doc["kraus"]:
                raise InputError("'kraus' must be a non-empty list of matrices")
            mats = [matrix_from_json(m, f"kraus[{i}]") for i, m in enumerate(doc["kraus"])]
            for i, m in enumerate(mats):
                if m.shape != (dim, dim):
                    raise InputError(f"kraus[{i}] has shape {m.shape}, but 'dim' is {dim}")
            ops = np.stack(mats)
        else:
            ops = build_catalog(catalog_spec_from_json(doc["catalog"])).ops
        kraus = KrausSet(ops, tol=tol)
        state = None
        if "state" in doc:
            state = check_state(kraus, matrix_from_json(doc["state"], "state"))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return kraus, state


def channel_to_document(kraus: KrausSet, state=None) -> dict:
    doc = {
        "dim": kraus.dim,
        "kraus": [matrix_to_json(k) for k in kraus.ops],
        "tol": asdict(kraus.tol),
    }
    if state is not None:
        doc["state"] = matrix_to_json(state)
    return doc


def _header(digest: str, args) -> dict:
    """The fields every JSON and CSV report starts with."""
    return {"command": " ".join(args._argv), "version": __version__, "input_digest": digest}


def _write(pieces, out: str | None) -> None:
    """Write the strings ``pieces`` as they are produced to the file ``out``,
    or to stdout when it is ``None``."""
    if out is None:
        try:
            sys.stdout.writelines(pieces)
        except BrokenPipeError:
            # the reader has gone (``| head``): drop the rest of the report
            # and point stdout at devnull, so the flush at exit cannot raise
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return
    try:
        with open(out, "w") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from exc


def _json_chunks(obj, indent: str = "\n"):
    """Pieces of ``json.dumps(obj, sort_keys=True, indent=2)`` for string keys,
    without the pure-Python encoder ``indent`` selects: a list of floats is
    written by one call to the C encoder, with the indented separator between
    items, and ``json.dumps`` writes every other scalar.  A float64 array is
    written as its ``tolist()`` would be, one row at a time."""
    inner = indent + "  "
    # an array is a list of rows; a 1-d one, or one with no rows, is written
    # from its tolist() of Python floats, so its items need no type scan
    floats = isinstance(obj, np.ndarray) and (obj.ndim == 1 or not len(obj))
    if floats:
        obj = obj.tolist()
    if isinstance(obj, dict) and obj:
        for i, (key, value) in enumerate(sorted(obj.items())):
            yield ("," if i else "{") + inner + json.dumps(key) + ": "
            yield from _json_chunks(value, inner)
        yield indent + "}"
    elif not isinstance(obj, (list, tuple, np.ndarray)) or not len(obj):
        yield json.dumps(obj)
    else:
        if floats or all(type(x) is float for x in obj):
            text = json.dumps(obj, separators=("," + inner, ": "))
            yield "[" + inner + text[1:-1] + indent + "]"
            return
        for i, value in enumerate(obj):
            yield ("," if i else "[") + inner
            yield from _json_chunks(value, inner)
        yield indent + "]"


def _emit_json(obj: dict, out: str | None) -> None:
    _write(chain(_json_chunks(obj), ["\n"]), out)


def _emit_csv(columns: list[str], rows, digest: str, args) -> None:
    """A CSV report of int and float rows; floats are written by their repr.

    Each row is written as it is read from ``rows``, so an error raised by
    a row comes after the rows before it have been written."""
    header = [f"# {key}: {value}" for key, value in _header(digest, args).items()]
    lines = chain(header, [",".join(columns)], (",".join(map(repr, row)) for row in rows))
    _write((line + "\n" for line in lines), args.out)


def _load_channel(args) -> tuple[str, KrausSet, np.ndarray]:
    """Input digest, minimal Kraus set and reference state of ``args.channel``.

    The state is the document's, checked once by :func:`channel_from_document`,
    or maximally mixed when the document has none; commands hold it in a
    :class:`~krausfock.dequantization.StateSpec` without checking it again.
    """
    doc, digest = load_document(args.channel)
    kraus, state = channel_from_document(doc, args)
    if state is None:  # complex, as check_state returns a state
        state = np.eye(kraus.dim, dtype=complex) / kraus.dim
    return digest, minimal_kraus(kraus), state


def _load_observable(path: str, dim: int) -> np.ndarray:
    """The ``dim``-square ``matrix`` field of an observable document."""
    doc, _ = load_document(path)
    a = matrix_from_json(_object(doc, path, ("matrix",), ("matrix",))["matrix"], f"{path} matrix")
    if a.shape != (dim, dim):
        raise InputError(f"{path}: observable has shape {a.shape}, expected ({dim}, {dim})")
    return a


def cmd_validate(args) -> int:
    if args.out and not args.minimalize:
        raise InputError("validate writes --out only with --minimalize; its report goes to stdout")
    doc, _ = load_document(args.channel)
    kraus, state = channel_from_document(doc, args)
    report = validate(kraus)
    print(f"unitality_residual = {report.unitality_residual!r}")
    print(f"independence_rank  = {report.independence_rank} (of {kraus.size})")
    print(f"valid              = {'yes' if report.valid else 'no'}")
    if args.minimalize:
        reduced = minimal_kraus(kraus)
        out = args.out or args.channel
        _emit_json(channel_to_document(reduced, state), out)
        print(f"minimalized channel with {reduced.size} operators written to {out}")
    return 0 if report.valid else 1


def _split_rows(system: SubproductSystem) -> list[tuple[int, int, float]]:
    """``(m, l, |p_{m+l} (1 - p_m ⊗ p_l)|)`` for ``m, l >= 1`` and ``m + l <= top``,
    the top level of ``system``.

    A split with an empty side is exactly zero (``p_0 = 1``), so it is left out.
    """
    rows, top = [], system.max_level
    for m in range(1, top):
        split = nesting_residuals(system, m, top - m)
        rows += [(m, l, split[l]) for l in range(1, len(split))]
    return rows


def cmd_dims(args) -> int:
    digest, kraus, _ = _load_channel(args)
    system = build_subproduct(kraus, args.max_m)
    worst = [0.0] * (args.max_m + 1)
    for m, l, residual in _split_rows(system):
        worst[m + l] = max(worst[m + l], residual)
    rows = [(m, system.dims[m], worst[m]) for m in range(1, args.max_m + 1)]
    _emit_csv(["m", "d_m", "subproduct_residual_max"], rows, digest, args)
    return 0


def cmd_subproduct_check(args) -> int:
    digest, kraus, _ = _load_channel(args)
    system = build_subproduct(kraus, args.max_m)
    rows = _split_rows(system)
    worst = max((residual for _, _, residual in rows), default=0.0)
    _emit_csv(["m", "l", "residual"], rows, digest, args)
    return 0 if worst <= kraus.tol.residual_tol else 1


def _unit_probe_gap(kraus: KrausSet, w: np.ndarray) -> float:
    """The largest gap ``|V_1† (E_ab ⊗ 1) V_1 - Phi(E_ab)|`` over the ``d^2``
    unit probes ``E_ab``, ``V_1`` the ``e_0`` columns of the unitary ``w``.

    The probes are a stack of ``d`` for each row ``a``; a probe is normed
    only while it can still exceed the largest gap found so far.  ``V_1†``
    and ``V_1`` on ``d`` rows are formed once, and die with the call.
    """
    d = kraus.dim
    probe_gap, row, v1 = 0.0, np.zeros((d, d, d), dtype=complex), w[:, :: kraus.size]
    v1_adj, v1_wide = v1.conj().T, v1.reshape(d, -1)
    for a in range(d):
        row[:, a, :] = np.eye(d)
        gaps = _compressed_action(v1_adj, v1_wide, row) - apply_heisenberg(kraus, row)
        probe_gap = _largest_norm(gaps, probe_gap)
        row[:, a, :] = 0.0
    return probe_gap


def cmd_dilate(args) -> int:
    digest, kraus, _ = _load_channel(args)
    d = kraus.dim
    w = unitary_dilation(kraus)
    eye = np.eye(d * kraus.size)
    unitarity = max(operator_norm(np.stack([w @ w.conj().T, w.conj().T @ w]) - eye).tolist())
    probe_gap = _unit_probe_gap(kraus, w)
    # fixed, so no random numbers are drawn; Hermitian, with real and imaginary off-diagonals
    p = np.arange(1, d * d + 1).reshape(d, d) / (d * d)
    probe = p + p.T + 1j * (p - p.T)
    # each V_m is taken as its level is formed, and its isometry and
    # compression residuals are normed together before the next level
    norms, power = np.empty((args.max_m, 2)), probe
    for m, _, gens in _levels(kraus, args.max_m):
        v = _isometry(gens)
        v_adj = v.conj().T
        power = apply_heisenberg(kraus, power)
        compression = _compressed_action(v_adj, v.reshape(d, -1), probe) - power
        norms[m - 1] = operator_norm(np.stack([v_adj @ v - np.eye(d), compression]))
        del v, v_adj, compression  # before the next level's candidates are formed
    levels = [
        {"m": m, "isometry_residual": iso, "compression_residual": comp}
        for m, (iso, comp) in enumerate(norms.tolist(), start=1)
    ]
    payload = {
        "unitary": {"unitarity_residual": unitarity, "compression_residual": probe_gap},
        "levels": levels,
    }
    report = {**_header(digest, args), "payload": payload}
    if args.out:
        report["payload"]["unitary"]["matrix"] = _matrix_arrays(w)
    _emit_json(report, args.out)
    ok = unitarity <= kraus.tol.residual_tol and probe_gap <= kraus.tol.residual_tol
    return 0 if ok else 1


def cmd_complementary(args) -> int:
    digest, kraus, state = _load_channel(args)
    # the state was checked at load; the library's checked entry points would check it again
    by_sum = _complementary_state(kraus, state)
    by_dilation = _complementary_state_via_dilation(kraus, state)
    agreement = operator_norm(by_sum - by_dilation)
    eigs = np.linalg.eigvalsh((by_sum + by_sum.conj().T) / 2.0)
    payload = {
        "state_on_bath": _matrix_arrays(by_sum),
        "formula_agreement": agreement,
        "trace": float(np.trace(by_sum).real),
        "min_eigenvalue": float(eigs[0]),
    }
    _emit_json({**_header(digest, args), "payload": payload}, args.out)
    return 0 if agreement <= kraus.tol.residual_tol else 1


def cmd_dequantize(args) -> int:
    digest, kraus, state = _load_channel(args)
    a = _load_observable(args.observable, kraus.dim)
    m = args.level
    corr = CorrelationData(build_subproduct(kraus, m), StateSpec(state))
    # the sweep reads the levels upward, so each is formed once and level m is kept
    symmetry = phi_symmetry_residual(corr)
    # the observable was checked when it was read, and the identity needs no check
    psi = _dequantize(corr, a, m)
    unital = _dequantize(corr, np.eye(kraus.dim, dtype=complex), m)
    payload = {
        "level": m,
        "matrix": _matrix_arrays(psi),
        "unitality_residual": operator_norm(unital - np.eye(len(unital))),
        "hermiticity_residual": operator_norm(psi - psi.conj().T),
        "symmetry_residuals": {str(lv): list(symmetry[lv]) for lv in sorted(symmetry)},
    }
    # the level spaces, correlations and Psi_m(1) are not read by the writer
    del corr, unital
    _emit_json({**_header(digest, args), "payload": payload}, args.out)
    return 0


def cmd_converge(args) -> int:
    digest, kraus, state = _load_channel(args)
    mats = [_load_observable(path, kraus.dim) for path in args.observables]
    corr = CorrelationData(build_subproduct(kraus, args.max_m), StateSpec(state))
    # one upward pass, a row written as its level is formed: the rows below
    # the first singular level are printed before its error
    _emit_csv(["m", *ConvergenceReport.COLUMNS], convergence_rows(corr, *mats), digest, args)
    return 0


def cmd_catalog(args) -> int:
    flags = vars(args)
    catalog = {key: flags[key] for key in ("family", "n", "d", "seed") if flags[key] is not None}
    catalog["params"] = {key: flags[key] for key in ("ranks", "angle") if flags[key] is not None}
    # read as a document's catalog is, so a bad flag is an input error
    try:
        spec = catalog_spec_from_json(catalog)
        doc = {**channel_to_document(build_catalog(spec)), "catalog_echo": asdict(spec)}
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit_json(doc, args.out)
    return 0


def _ranks(text: str) -> list[int]:
    return [int(r) for r in text.split(",")]


def _level(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and shared after it.

    Callers only read it: parsing returns a fresh namespace and leaves the
    parser as it was.
    """
    parser = argparse.ArgumentParser(
        prog="krausfock",
        description="Level spaces, dilations and dequantization reports for Kraus channels",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def channel_command(
        name, func, help, max_m=False, out="write the report here instead of stdout"
    ):
        p = sub.add_parser(name, help=help)
        p.add_argument("channel", help="channel document (JSON)")
        if max_m:
            p.add_argument("--max-m", type=_level, default=6, help="largest level to build")
        p.add_argument("--tol-rank", type=float, default=None, help="override rank_rel_tol")
        p.add_argument("--tol-residual", type=float, default=None, help="override residual_tol")
        p.add_argument("--out", default=None, help=out)
        p.set_defaults(func=func)
        return p

    out_help = "with --minimalize, write the reduced channel here (default: over the input)"
    p = channel_command("validate", cmd_validate, "check unitality and minimality", out=out_help)
    p.add_argument("--minimalize", action="store_true", help="write back a reduced channel")
    channel_command(
        "dims", cmd_dims, "dimension ladder with subproduct residuals (CSV)", max_m=True
    )
    channel_command(
        "subproduct-check",
        cmd_subproduct_check,
        "nesting residual for every level split (CSV)",
        max_m=True,
    )
    channel_command(
        "dilate", cmd_dilate, "unitary dilation and per-level isometry residuals", max_m=True
    )
    channel_command(
        "complementary", cmd_complementary, "bath-side state of the reference density matrix"
    )

    p = channel_command("dequantize", cmd_dequantize, "time-m dequantization of one observable")
    p.add_argument("--observable", required=True, help="observable document (JSON)")
    p.add_argument("--level", type=_level, required=True, help="level m")

    p = channel_command(
        "converge", cmd_converge, "diagnostic sequences for two observables (CSV)", max_m=True
    )
    p.add_argument("--observables", nargs=2, required=True, metavar=("A", "B"))

    p = sub.add_parser("catalog", help="emit a channel document for a catalog family")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ranks", type=_ranks, default=None, help="comma-separated projection ranks")
    p.add_argument("--angle", type=float, default=None, help="rotation angle (sequential family)")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    args._argv = ["krausfock"] + argv
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
