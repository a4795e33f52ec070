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

Exactly one of ``kraus`` / ``catalog`` must be present; unknown ``tol``
fields are input errors.  Fields are checked for type and never coerced: a
ragged matrix, a string where a number belongs or a fractional seed is an
input error that names the field.  Complex matrices are stored as paired real
arrays; floats are written with Python's shortest round-tripping repr, so
serialize -> parse reproduces every entry bit for bit.  JSON reports are
written by a dedicated writer whose bytes equal
``json.dumps(report, sort_keys=True, indent=2)``.

A subcommand accepts only the flags it reads.  Every channel command takes
``--tol-rank``, ``--tol-residual`` and ``--out``, which sends its JSON or CSV
report to a file instead of stdout (``validate --minimalize`` writes the
reduced channel there, by default over the input).  ``dims``,
``subproduct-check``, ``dilate`` and ``converge`` build every level up to
``--max-m``, ``dequantize`` up to ``--level``; a level holds at most
``(n + 1) d^4`` entries, so cost is polynomial in the level.  Exit codes: 0
success, 1 validation or acceptance failure, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import __version__
from .catalog import CatalogSpec, build_catalog
from .channel import KrausSet, apply_heisenberg, minimal_kraus, validate
from .dequantization import (
    ConvergenceReport,
    CorrelationData,
    convergence_report,
    correlation_matrix,
    correlations,
    dequantize,
    phi_symmetry_residual,
    state_spec,
)
from .dilation import (
    complementary_state,
    complementary_state_via_dilation,
    compressed_action,
    stinespring_isometry,
    unitary_dilation,
)
from .linalg import SingularMatrixError, Tolerances, operator_norm
from .subproduct import SubproductSystem, build_subproduct, nesting_residuals


class InputError(Exception):
    """Malformed document, missing file or inconsistent parameters."""


def matrix_to_json(a) -> dict:
    a = np.asarray(a, dtype=complex)
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


def _number(value, what: str) -> float:
    """A finite JSON number; booleans and numeric strings are rejected."""
    # the comparison is also false for nan and for integers beyond float range
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) < math.inf:
        raise InputError(f"{what} must be a finite number, got {value!r}")
    return float(value)


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
            _number(x, f"{what} entry")
    return np.array(rows, dtype=float)


def matrix_from_json(obj, what: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict) or "re" not in obj:
        raise InputError(f"{what} must be an object with 're' (and optional 'im') arrays")
    re = _real_rows(obj["re"], f"{what}.re")
    im = _real_rows(obj["im"], f"{what}.im") if "im" in obj else np.zeros_like(re)
    if re.shape != im.shape:
        raise InputError(f"{what} parts must be equal-shaped 2-d arrays")
    return re + 1j * im


def tolerances_from_json(obj) -> Tolerances:
    if obj is None:
        return Tolerances()
    if not isinstance(obj, dict):
        raise InputError("'tol' must be an object")
    known = {f.name for f in fields(Tolerances)}
    extra = set(obj) - known
    if extra:
        raise InputError(f"unknown tolerance fields {sorted(extra)}")
    values = {name: _number(value, f"tol.{name}") for name, value in obj.items()}
    try:
        return Tolerances(**values)
    except ValueError as exc:
        raise InputError(f"tol: {exc}") from exc


def catalog_spec_from_json(obj) -> CatalogSpec:
    """Catalog spec from a document's ``catalog`` object.

    Fields are checked for type, not coerced; an absent field takes its
    default, and a present one must hold a value of its type.
    """
    if not isinstance(obj, dict) or "family" not in obj:
        raise InputError("'catalog' must be an object with a 'family' field")
    sizes = {k: _integer(obj[k], f"catalog.{k}") for k in ("n", "d", "seed") if k in obj}
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise InputError("catalog.params must be an object")
    params = dict(params)
    if "ranks" in params:
        ranks = params["ranks"]
        if not isinstance(ranks, list):
            raise InputError(f"catalog.params.ranks must be a list of integers, got {ranks!r}")
        params["ranks"] = [_integer(r, "catalog.params.ranks entry") for r in ranks]
    if "angle" in params:
        params["angle"] = _number(params["angle"], "catalog.params.angle")
    try:
        return CatalogSpec(family=obj["family"], params=params, **sizes)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def load_document(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path} is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    doc["_digest"] = hashlib.sha256(raw).hexdigest()
    doc["_path"] = path
    return doc


def channel_from_document(doc: dict, args=None) -> tuple[KrausSet, np.ndarray | None]:
    """Build the Kraus set and optional reference state from a parsed document."""
    has_kraus = "kraus" in doc
    has_catalog = "catalog" in doc
    if has_kraus == has_catalog:
        raise InputError("document must contain exactly one of 'kraus' or 'catalog'")
    tol = tolerances_from_json(doc.get("tol"))
    if args is not None:
        overrides = {"rank_rel_tol": args.tol_rank, "residual_tol": args.tol_residual}
        tol = replace(tol, **{k: v for k, v in overrides.items() if v is not None})
    if has_kraus:
        dim = doc.get("dim")
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise InputError("'dim' must be a positive integer")
        if not isinstance(doc["kraus"], list) or not doc["kraus"]:
            raise InputError("'kraus' must be a non-empty list of matrices")
        mats = [matrix_from_json(m, f"kraus[{i}]") for i, m in enumerate(doc["kraus"])]
        for i, m in enumerate(mats):
            if m.shape != (dim, dim):
                raise InputError(f"kraus[{i}] has shape {m.shape}, expected ({dim}, {dim})")
        try:
            kraus = KrausSet(np.stack(mats), tol=tol)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    else:
        spec = catalog_spec_from_json(doc["catalog"])
        try:
            kraus = build_catalog(spec, tol=tol)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    state = None
    if "state" in doc:
        state = matrix_from_json(doc["state"], "state")
        if state.shape != (kraus.dim, kraus.dim):
            raise InputError(f"state has shape {state.shape}, expected ({kraus.dim}, {kraus.dim})")
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


def _report(doc: dict, args, payload: dict) -> dict:
    return {
        "command": " ".join(args._argv),
        "version": __version__,
        "input_digest": doc.get("_digest", ""),
        "payload": payload,
    }


def _write(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when it is ``None``."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from exc


def _json_chunks(obj, indent: str = "\n"):
    """Pieces of ``json.dumps(obj, sort_keys=True, indent=2)`` for string keys,
    without the pure-Python encoder ``indent`` selects: a list of finite floats
    is joined in one call, and ``json.dumps`` writes every other scalar."""
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        for i, (key, value) in enumerate(sorted(obj.items())):
            yield ("," if i else "{") + inner + json.dumps(key) + ": "
            yield from _json_chunks(value, inner)
        yield indent + "}"
    elif not isinstance(obj, (list, tuple)) or not obj:
        yield json.dumps(obj)
    else:
        if all(type(x) is float for x in obj):
            text = ("," + inner).join(map(float.__repr__, obj))
            if "n" not in text:  # no nan or inf, which JSON spells NaN and Infinity
                yield "[" + inner + text + indent + "]"
                return
        for i, value in enumerate(obj):
            yield ("," if i else "[") + inner
            yield from _json_chunks(value, inner)
        yield indent + "]"


def _emit_json(obj: dict, out: str | None) -> None:
    _write("".join([*_json_chunks(obj), "\n"]), out)


def _emit_csv(header: list[str], rows, doc: dict, args) -> None:
    buf = io.StringIO()
    buf.write(f"# command: {' '.join(args._argv)}\n")
    buf.write(f"# version: {__version__}\n")
    buf.write(f"# input_digest: {doc.get('_digest', '')}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    _write(buf.getvalue(), args.out)


def _load_channel(args) -> tuple[dict, KrausSet, np.ndarray | None]:
    """Document, minimal Kraus set and optional state of ``args.channel``."""
    doc = load_document(args.channel)
    kraus, state = channel_from_document(doc, args)
    return doc, minimal_kraus(kraus), state


def _load_observable(path: str, dim: int) -> np.ndarray:
    """The ``dim``-square ``matrix`` field of an observable document."""
    doc = load_document(path)
    if "matrix" not in doc:
        raise InputError(f"{path}: observable document needs a 'matrix' field")
    a = matrix_from_json(doc["matrix"], "observable")
    if a.shape != (dim, dim):
        raise InputError(f"{path}: observable has shape {a.shape}, expected ({dim}, {dim})")
    return a


def _default_state(kraus: KrausSet, state: np.ndarray | None) -> np.ndarray:
    if state is not None:
        return state
    return np.eye(kraus.dim) / kraus.dim


def cmd_validate(args) -> int:
    doc = load_document(args.channel)
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


def _split_rows(system: SubproductSystem, top: int) -> list[tuple[int, int, float]]:
    """``(m, l, |p_{m+l} (1 - p_m ⊗ p_l)|)`` for ``m, l >= 1`` and ``m + l <= top``.

    A split with an empty side is exactly zero (``p_0 = 1``), so it is left out.
    """
    rows = []
    for m in range(1, top):
        split = nesting_residuals(system, m, top - m)
        rows += [(m, l, split[l]) for l in range(1, len(split))]
    return rows


def cmd_dims(args) -> int:
    doc, kraus, _ = _load_channel(args)
    system = build_subproduct(kraus, args.max_m)
    worst = [0.0] * (args.max_m + 1)
    for m, l, residual in _split_rows(system, args.max_m):
        worst[m + l] = max(worst[m + l], residual)
    rows = [(m, system.dims[m], worst[m]) for m in range(1, args.max_m + 1)]
    _emit_csv(["m", "d_m", "subproduct_residual_max"], rows, doc, args)
    return 0


def cmd_subproduct_check(args) -> int:
    doc, kraus, _ = _load_channel(args)
    system = build_subproduct(kraus, args.max_m)
    rows = _split_rows(system, args.max_m)
    worst = max((residual for _, _, residual in rows), default=0.0)
    _emit_csv(["m", "l", "residual"], rows, doc, args)
    return 0 if worst <= kraus.tol.residual_tol else 1


def cmd_dilate(args) -> int:
    doc, kraus, _ = _load_channel(args)
    d = kraus.dim
    w = unitary_dilation(kraus).unitary
    eye = np.eye(d * kraus.size)
    unitarity = max(
        operator_norm(w @ w.conj().T - eye), operator_norm(w.conj().T @ w - eye)
    )
    # the d^2 unit probes E_ab, one stack of d for each row a
    probe_gap, row = 0.0, np.zeros((d, d, d))
    for a in range(d):
        row[:, a, :] = np.eye(d)
        got = compressed_action(w, row, d, kraus.size)
        gaps = np.linalg.norm(got - apply_heisenberg(kraus, row), 2, axis=(-2, -1))
        probe_gap = max(probe_gap, float(gaps.max()))
        row[:, a, :] = 0.0
    system = build_subproduct(kraus, args.max_m)
    rng = np.random.default_rng(0)
    probe = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    probe = probe + probe.conj().T
    levels, power = [], probe
    for m in range(1, args.max_m + 1):
        v = stinespring_isometry(kraus, system, m)
        iso = operator_norm(v.conj().T @ v - np.eye(d))
        power = apply_heisenberg(kraus, power)
        # (probe ⊗ 1) v without the (d d_m)-square Kronecker product
        lifted = (probe @ v.reshape(d, -1)).reshape(v.shape)
        comp = operator_norm(v.conj().T @ lifted - power)
        levels.append({"m": m, "isometry_residual": iso, "compression_residual": comp})
    payload = {
        "unitary": {"unitarity_residual": unitarity, "compression_residual": probe_gap},
        "levels": levels,
    }
    report = _report(doc, args, payload)
    if args.out:
        report["payload"]["unitary"]["matrix"] = matrix_to_json(w)
    _emit_json(report, args.out)
    ok = unitarity <= kraus.tol.residual_tol and probe_gap <= kraus.tol.residual_tol
    return 0 if ok else 1


def cmd_complementary(args) -> int:
    doc, kraus, state = _load_channel(args)
    rho = _default_state(kraus, state)
    try:
        by_sum = complementary_state(kraus, rho)
        by_dilation = complementary_state_via_dilation(kraus, rho)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    agreement = operator_norm(by_sum - by_dilation)
    eigs = np.linalg.eigvalsh((by_sum + by_sum.conj().T) / 2.0)
    payload = {
        "state_on_bath": matrix_to_json(by_sum),
        "formula_agreement": agreement,
        "trace": float(np.trace(by_sum).real),
        "min_eigenvalue": float(eigs[0]),
    }
    _emit_json(_report(doc, args, payload), args.out)
    return 0 if agreement <= kraus.tol.residual_tol else 1


def cmd_dequantize(args) -> int:
    doc, kraus, state = _load_channel(args)
    a = _load_observable(args.observable, kraus.dim)
    m = args.level
    system = build_subproduct(kraus, m)
    spec = state_spec(kraus, _default_state(kraus, state))
    corr = correlations(kraus, system, spec, m)
    psi = dequantize(kraus, system, corr, a, m)
    unital = dequantize(kraus, system, corr, np.eye(kraus.dim), m)
    dm = system.dims[m]
    symmetry = phi_symmetry_residual(corr, system, m)
    payload = {
        "level": m,
        "matrix": matrix_to_json(psi),
        "unitality_residual": operator_norm(unital - np.eye(dm)),
        "hermiticity_residual": operator_norm(psi - psi.conj().T),
        "symmetry_residuals": {str(lv): list(symmetry[lv]) for lv in sorted(symmetry)},
    }
    _emit_json(_report(doc, args, payload), args.out)
    return 0


def cmd_converge(args) -> int:
    doc, kraus, state = _load_channel(args)
    mats = [_load_observable(path, kraus.dim) for path in args.observables]
    system = build_subproduct(kraus, args.max_m)
    spec = state_spec(kraus, _default_state(kraus, state))
    # rows for the levels below the first singular one, then that level's error
    levels, singular = {}, None
    for m in range(1, args.max_m + 1):
        try:
            levels[m] = correlation_matrix(kraus, system, spec, m)
        except SingularMatrixError as exc:
            singular = exc
            break
    if levels:
        corr = CorrelationData(state=spec, base=levels[1].matrix, levels=levels)
        report = convergence_report(kraus, system, corr, mats[0], mats[1], len(levels))
        _emit_csv(["m", *ConvergenceReport._COLUMNS], report.rows(), doc, args)
    if singular is not None:
        raise singular
    return 0


def cmd_catalog(args) -> int:
    params = {}
    if args.angle is not None:
        params["angle"] = args.angle
    try:
        if args.ranks:
            params["ranks"] = [int(r) for r in args.ranks.split(",")]
        spec = CatalogSpec(family=args.family, n=args.n, d=args.d, seed=args.seed, params=params)
        kraus = build_catalog(spec)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    doc = channel_to_document(kraus)
    doc["catalog_echo"] = asdict(spec)
    _emit_json(doc, args.out)
    return 0


def _tolerance(text: str) -> float:
    value = float(text)
    if not (np.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _level(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krausfock",
        description="Level spaces, dilations and dequantization reports for Kraus channels",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def channel_command(name, func, help, max_m=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("channel", help="channel document (JSON)")
        if max_m:
            p.add_argument("--max-m", type=_level, default=6, help="largest level to build")
        p.add_argument("--tol-rank", type=_tolerance, default=None, help="override rank_rel_tol")
        p.add_argument(
            "--tol-residual", type=_tolerance, default=None, help="override residual_tol"
        )
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.set_defaults(func=func)
        return p

    p = channel_command("validate", cmd_validate, "check unitality and minimality")
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
    p.add_argument("--ranks", default=None, help="comma-separated projection ranks")
    p.add_argument("--angle", type=float, default=None, help="rotation angle (sequential family)")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
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
