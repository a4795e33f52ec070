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
fields are input errors.  Complex matrices are stored as paired real
arrays; floats are written with Python's shortest round-tripping repr, so
serialize -> parse reproduces every entry bit for bit.  Every command that
takes ``--max-m`` builds all levels up to it in full (the level bases hold
``sum_m n^m d_m`` entries) and reports on each of them.  Exit codes: 0
success, 1 validation or acceptance failure, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .catalog import CatalogSpec, build_catalog
from .channel import KrausSet, apply_heisenberg, minimal_kraus, validate
from .dequantization import (
    convergence_report,
    correlations,
    dequantize,
    state_spec,
)
from .dilation import (
    complementary_state,
    complementary_state_via_dilation,
    compressed_action,
    stinespring_isometry,
    unitary_dilation,
)
from .linalg import Tolerances, operator_norm
from .subproduct import build_subproduct, subproduct_residual


class InputError(Exception):
    """Malformed document, missing file or inconsistent parameters."""


def matrix_to_json(a) -> dict:
    a = np.asarray(a, dtype=complex)
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


def matrix_from_json(obj, what: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict) or "re" not in obj:
        raise InputError(f"{what} must be an object with 're' (and optional 'im') arrays")
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
    if re.shape != im.shape or re.ndim != 2:
        raise InputError(f"{what} parts must be equal-shaped 2-d arrays")
    return re + 1j * im


def tolerances_from_json(obj) -> Tolerances:
    if obj is None:
        return Tolerances()
    known = {"rank_rel_tol", "residual_tol"}
    extra = set(obj) - known
    if extra:
        raise InputError(f"unknown tolerance fields {sorted(extra)}")
    return Tolerances(**obj)


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
        overrides = {
            "rank_rel_tol": getattr(args, "tol_rank", None),
            "residual_tol": getattr(args, "tol_residual", None),
        }
        tol = replace(tol, **{k: v for k, v in overrides.items() if v is not None})
    if has_kraus:
        dim = doc.get("dim")
        if not isinstance(dim, int) or dim < 1:
            raise InputError("'dim' must be a positive integer")
        mats = [matrix_from_json(m, f"kraus[{i}]") for i, m in enumerate(doc["kraus"])]
        for i, m in enumerate(mats):
            if m.shape != (dim, dim):
                raise InputError(f"kraus[{i}] has shape {m.shape}, expected ({dim}, {dim})")
        try:
            kraus = KrausSet(np.stack(mats), tol=tol)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    else:
        cat = doc["catalog"]
        if not isinstance(cat, dict) or "family" not in cat:
            raise InputError("'catalog' must be an object with a 'family' field")
        try:
            spec = CatalogSpec(
                family=cat["family"],
                n=cat.get("n"),
                d=cat.get("d"),
                seed=int(cat.get("seed", 0)),
                params=cat.get("params", {}),
            )
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


def _emit_json(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _emit_csv(header: list[str], rows, doc: dict, args, out: str | None) -> None:
    buf = io.StringIO()
    buf.write(f"# command: {' '.join(args._argv)}\n")
    buf.write(f"# version: {__version__}\n")
    buf.write(f"# input_digest: {doc.get('_digest', '')}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    text = buf.getvalue()
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _default_state(kraus: KrausSet, state: np.ndarray | None) -> np.ndarray:
    if state is not None:
        return state
    return np.eye(kraus.dim) / kraus.dim


def cmd_validate(args) -> int:
    doc = load_document(args.channel)
    kraus, _ = channel_from_document(doc, args)
    report = validate(kraus)
    print(f"unitality_residual = {report.unitality_residual!r}")
    print(f"independence_rank  = {report.independence_rank} (of {kraus.size})")
    print(f"valid              = {'yes' if report.valid else 'no'}")
    if args.minimalize:
        reduced = minimal_kraus(kraus)
        out = args.out or args.channel
        _emit_json(channel_to_document(reduced), out)
        print(f"minimalized channel with {reduced.size} operators written to {out}")
    return 0 if report.valid else 1


def cmd_dims(args) -> int:
    doc = load_document(args.channel)
    kraus, _ = channel_from_document(doc, args)
    system = build_subproduct(minimal_kraus(kraus), args.max_m)
    rows = []
    for m in range(1, args.max_m + 1):
        residual = max(subproduct_residual(system, a, m - a) for a in range(m + 1))
        rows.append((m, system.dims[m], residual))
    _emit_csv(["m", "d_m", "subproduct_residual_max"], rows, doc, args, args.csv)
    return 0


def cmd_subproduct_check(args) -> int:
    doc = load_document(args.channel)
    kraus, _ = channel_from_document(doc, args)
    system = build_subproduct(minimal_kraus(kraus), args.max_m)
    rows = []
    worst = 0.0
    for m in range(1, args.max_m + 1):
        for l in range(1, args.max_m - m + 1):
            residual = subproduct_residual(system, m, l)
            worst = max(worst, residual)
            rows.append((m, l, residual))
    _emit_csv(["m", "l", "residual"], rows, doc, args, args.csv)
    return 0 if worst <= kraus.tol.residual_tol else 1


def cmd_dilate(args) -> int:
    doc = load_document(args.channel)
    kraus, _ = channel_from_document(doc, args)
    kraus = minimal_kraus(kraus)
    d = kraus.dim
    bundle = unitary_dilation(kraus)
    w = bundle.unitary
    eye = np.eye(d * kraus.size)
    unitarity = max(
        operator_norm(w @ w.conj().T - eye), operator_norm(w.conj().T @ w - eye)
    )
    probe_gap = 0.0
    for a in range(d):
        for b in range(d):
            unit = np.zeros((d, d))
            unit[a, b] = 1.0
            got = compressed_action(w, unit, d, kraus.size, bundle.bath_index)
            probe_gap = max(probe_gap, operator_norm(got - apply_heisenberg(kraus, unit)))
    system = build_subproduct(kraus, args.max_m)
    rng = np.random.default_rng(0)
    probe = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    probe = probe + probe.conj().T
    levels = []
    for m in range(1, args.max_m + 1):
        v = stinespring_isometry(kraus, system, m)
        iso = operator_norm(v.conj().T @ v - np.eye(d))
        power = probe
        for _ in range(m):
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
    doc = load_document(args.channel)
    kraus, state = channel_from_document(doc, args)
    kraus = minimal_kraus(kraus)
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
    doc = load_document(args.channel)
    kraus, state = channel_from_document(doc, args)
    kraus = minimal_kraus(kraus)
    obs_doc = load_document(args.observable)
    if "matrix" not in obs_doc:
        raise InputError(f"{args.observable}: observable document needs a 'matrix' field")
    a = matrix_from_json(obs_doc["matrix"], "observable")
    if a.shape != (kraus.dim, kraus.dim):
        raise InputError(f"observable has shape {a.shape}, expected ({kraus.dim}, {kraus.dim})")
    m = args.level
    system = build_subproduct(kraus, m)
    spec = state_spec(kraus, _default_state(kraus, state))
    corr = correlations(kraus, system, spec, m)
    psi = dequantize(kraus, system, corr, a, m)
    unital = dequantize(kraus, system, corr, np.eye(kraus.dim), m)
    dm = system.dims[m]
    payload = {
        "level": m,
        "matrix": matrix_to_json(psi),
        "unitality_residual": operator_norm(unital - np.eye(dm)),
        "hermiticity_residual": operator_norm(psi - psi.conj().T),
        "symmetry_residuals": {
            str(lv): list(corr.symmetry_residuals[lv]) for lv in sorted(corr.symmetry_residuals)
        },
    }
    _emit_json(_report(doc, args, payload), args.out)
    return 0


def cmd_converge(args) -> int:
    doc = load_document(args.channel)
    kraus, state = channel_from_document(doc, args)
    kraus = minimal_kraus(kraus)
    if len(args.observables) != 2:
        raise InputError("--observables takes exactly two files")
    mats = []
    for path in args.observables:
        obs_doc = load_document(path)
        if "matrix" not in obs_doc:
            raise InputError(f"{path}: observable document needs a 'matrix' field")
        mat = matrix_from_json(obs_doc["matrix"], "observable")
        if mat.shape != (kraus.dim, kraus.dim):
            raise InputError(f"{path}: observable has shape {mat.shape}")
        mats.append(mat)
    system = build_subproduct(kraus, args.max_m)
    spec = state_spec(kraus, _default_state(kraus, state))
    corr = correlations(kraus, system, spec, args.max_m)
    report = convergence_report(kraus, system, corr, mats[0], mats[1], args.max_m)
    _emit_csv(
        ["m", "norm_gap", "vn_residual", "scaled_commutator", "limit_state_gap"],
        report.rows(),
        doc,
        args,
        args.csv,
    )
    return 0


def cmd_catalog(args) -> int:
    params = {}
    if args.ranks:
        params["ranks"] = [int(r) for r in args.ranks.split(",")]
    if args.angle is not None:
        params["angle"] = args.angle
    try:
        spec = CatalogSpec(family=args.family, n=args.n, d=args.d, seed=args.seed, params=params)
        kraus = build_catalog(spec)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    doc = channel_to_document(kraus)
    doc["catalog_echo"] = {
        "family": args.family,
        "n": args.n,
        "d": args.d,
        "seed": args.seed,
        "params": params,
    }
    _emit_json(doc, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krausfock",
        description="Level spaces, dilations and dequantization reports for Kraus channels",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, channel=True):
        if channel:
            p.add_argument("channel", help="channel document (JSON)")
        p.add_argument("--max-m", type=int, default=6, help="largest level to build")
        p.add_argument("--tol-rank", type=float, default=None, help="override rank_rel_tol")
        p.add_argument("--tol-residual", type=float, default=None, help="override residual_tol")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--csv", default=None, help="write CSV output here instead of stdout")

    p = sub.add_parser("validate", help="check unitality and minimality")
    common(p)
    p.add_argument("--minimalize", action="store_true", help="write back a reduced channel")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("dims", help="dimension ladder with subproduct residuals (CSV)")
    common(p)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("subproduct-check", help="nesting residual for every level split (CSV)")
    common(p)
    p.set_defaults(func=cmd_subproduct_check)

    p = sub.add_parser("dilate", help="unitary dilation and per-level isometry residuals")
    common(p)
    p.set_defaults(func=cmd_dilate)

    p = sub.add_parser("complementary", help="bath-side state of the reference density matrix")
    common(p)
    p.set_defaults(func=cmd_complementary)

    p = sub.add_parser("dequantize", help="time-m dequantization of one observable")
    common(p)
    p.add_argument("--observable", required=True, help="observable document (JSON)")
    p.add_argument("--level", type=int, required=True, help="level m")
    p.set_defaults(func=cmd_dequantize)

    p = sub.add_parser("converge", help="diagnostic sequences for two observables (CSV)")
    common(p)
    p.add_argument("--observables", nargs=2, required=True, metavar=("A", "B"))
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("catalog", help="emit a channel document for a catalog family")
    common(p, channel=False)
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
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
