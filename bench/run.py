"""Benchmark of krausfock: the CLI end to end, and each library layer by trace.

Run from the repository root::

    python3 bench/run.py --workload dense-generic --seed 3 --seconds 50 --trace 0

The seed picks the instance (see ``workloads.py``); the inputs are written
under ``.bench/`` and removed at the end.  The process and its children are
pinned to one CPU, and every end-to-end timing is in calibrated seconds: the
wall time scaled by the speed of that CPU at the time, as a yardstick run
between the timed operations measures it (``yardstick.py``).  A run

1. times a fresh interpreter that imports ``krausfock`` and runs one cold
   ``validate`` on the workload's first document (``setup_s``).  It does so
   ``SETUP_REPEATS`` times, spread over the run: once here, once after each
   untraced pass of step 3, and the rest after the passes;
2. runs one warm-up pass under tracemalloc, whose timings are discarded and
   whose peak is ``peak_mb`` (with ``--trace 1`` the spans of this pass give
   the per-layer memory peaks);
3. runs passes of the workload's fixed script for ``--seconds`` seconds,
   starting a pass only while it is expected to end in time.  With
   ``--trace 1`` the passes alternate between untraced and traced, and a
   level ladder probe follows;
4. checks every output with the gate, feeds the gate corrupted outputs as a
   self-check, and writes the full report, with provenance and the sample
   count and tail percentile of every timing, and the uncalibrated wall
   times, to ``.bench/BENCH_<workload>_s<seed>_t<trace>.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Each timing is the
median over the passes of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import env

SETUP_REPEATS = 9
LADDER_REPEATS = 3
COLD_TIMEOUT_S = 60
OUT_DIR = ".bench"
WORKLOAD_NAMES = ("dense-generic", "deep-commuting")
COMMAND_METRICS = ("dims", "converge", "dequantize", "dilate")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def describe(samples: list[float]) -> dict:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "min": ordered[0], "max": ordered[-1], "samples": samples}
    if n >= 11:
        k = n - 11
        out["tail"] = {"percentile": math.floor(100 * (k + 1) / n), "value": ordered[k]}
    else:
        out["tail"] = None
    return out


def _median(values: list):
    """Median; counts stay whole numbers (they repeat exactly from pass to pass)."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def cold_validate(path: str, root: str) -> tuple[float, object]:
    """Wall time of a fresh interpreter importing krausfock and validating once."""
    from gate import Outcome

    code = "import sys, krausfock.cli; sys.exit(krausfock.cli.main(sys.argv[1:]))"
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code, "validate", path],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=COLD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, Outcome(error=f"timed out after {COLD_TIMEOUT_S} s")
    seconds = time.perf_counter() - start
    return seconds, Outcome(rc=proc.returncode, out=proc.stdout, err=proc.stderr)


def ladder_probe(inputs) -> tuple[dict, dict]:
    """Marginal build time per level: median time to build to ``m`` minus to ``m-1``.

    Builds each document's system to every level ``0..top`` ``LADDER_REPEATS``
    times.  Returns the marginal times summed over documents by level relative
    to each document's top, and by absolute level.
    """
    import krausfock as kf
    from tracing import TOP_BUCKETS, level_bucket

    buckets = dict.fromkeys(TOP_BUCKETS, 0.0)
    levels: dict[str, float] = {}
    for doc in inputs.workload.docs:
        kraus = kf.minimal_kraus(kf.build_catalog(kf.CatalogSpec(**doc.catalog(inputs.instance))))
        samples = [[] for _ in range(doc.level + 1)]
        for _ in range(LADDER_REPEATS):
            for m in range(doc.level + 1):
                start = time.perf_counter()
                kf.build_subproduct(kraus, m)
                samples[m].append(time.perf_counter() - start)
        medians = [statistics.median(s) for s in samples]
        for m in range(1, doc.level + 1):
            marginal = medians[m] - medians[m - 1]
            buckets[level_bucket(doc.level, m)] += marginal
            key = f"m{m:02d}"
            levels[key] = levels.get(key, 0.0) + marginal
    return buckets, dict(sorted(levels.items()))


def blas_threads_in_use():
    """Thread count OpenBLAS reports, read through its C API, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(root: str, src: str, threads: int, cpus: tuple, args, instance: int) -> dict:
    import numpy as np
    from yardstick import REFERENCE_S

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    package = os.path.join(src, "krausfock")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "instance": instance,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_pinned": threads,
        "blas_threads_reported": blas_threads_in_use(),
        "nproc": os.cpu_count(),
        "cpus_usable": cpus[0],
        "cpu_pinned": cpus[1],
        "yardstick_reference_s": REFERENCE_S,
        "machine": platform.machine(),
    }


def timed_passes(inputs, seconds: float, tracer, yardstick, gate, after_plain) -> tuple[list, list]:
    """Passes for ``seconds``; with a tracer, untraced and traced passes alternate.

    Untraced passes measure the yardstick around each operation; traced
    passes do not.  ``after_plain()`` runs after each untraced pass, outside
    the timings.  A pass starts only if the last pass of its kind would
    still end before the deadline, but at least one pass of each kind runs.
    Outcomes are gated after each pass and dropped, except those of the last
    untraced pass.
    """
    from passes import run_pass

    plain, traced = [], []
    elapsed = {}
    deadline = time.perf_counter() + seconds
    while True:
        use_trace = tracer is not None and len(traced) < len(plain)
        done = traced if use_trace else plain
        required = not plain or (tracer is not None and not traced)
        if not required and time.perf_counter() + elapsed[use_trace] > deadline:
            return plain, traced
        start = time.perf_counter()
        if use_trace:
            with tracer.installed():
                result = run_pass(inputs, tracer)
        else:
            result = run_pass(inputs, yardstick=yardstick)
        elapsed[use_trace] = time.perf_counter() - start
        gate(f"pass{len(plain) + len(traced)}", result)
        if done:
            done[-1].outcomes = None
        done.append(result)
        if not use_trace:
            after_plain()


def _timings(inputs, passes: list, setup: list[float]) -> dict[str, list[float]]:
    """Samples of every end-to-end timing, from ``(op_seconds, query_seconds)`` per pass."""
    timings = {"setup_s": setup, "pass_s": [sum(ops) for ops, _ in passes]}
    for command in COMMAND_METRICS:
        timings[f"{command}_s"] = [
            sum(t for op, t in zip(inputs.ops, ops) if op.command == command) for ops, _ in passes
        ]
    timings["queries_s"] = [queries for _, queries in passes]
    return timings


def end_to_end_metrics(inputs, plain: list, setup: list, peak_bytes: int) -> tuple[dict, dict]:
    """Medians of calibrated times over the untraced passes, and their sample statistics.

    ``setup`` holds ``(calibrated, wall)`` pairs.  The detail also describes
    the wall times and the yardstick, so calibration can be checked.
    """
    calibrated = _timings(inputs, [r.calibrated() for r in plain], [c for c, _ in setup])
    wall = _timings(inputs, [(r.op_seconds, sum(r.query_seconds)) for r in plain], [w for _, w in setup])
    detail = {name: describe(samples) for name, samples in calibrated.items()}
    values = {name: d["median"] for name, d in detail.items()}
    for name, samples in wall.items():
        detail[name]["wall"] = describe(samples)
    detail["yardstick_s"] = describe([y for r in plain for y in r.yardstick])
    values["peak_mb"] = peak_bytes / 1e6
    detail["peak_mb"] = {"value": values["peak_mb"], "n": 1}
    return values, detail


def per_layer_metrics(inputs, traced: list, memory_spans: list, plain_wall: float) -> tuple[dict, dict]:
    """Medians over the traced passes, memory peaks, the ladder probe and overhead.

    ``plain_wall`` is the median wall time of the untraced passes.
    """
    from tracing import pass_metrics, peak_metrics

    tops = [op.doc.level for op in inputs.ops]
    per_pass, breakdowns = zip(*(pass_metrics(r.spans, tops, r.wall) for r in traced))
    values = {name: _median([p[name] for p in per_pass]) for name in per_pass[0]}
    detail = {name: describe([p[name] for p in per_pass]) for name in per_pass[0]}
    values.update(peak_metrics(memory_spans))
    build_buckets, build_levels = ladder_probe(inputs)
    for bucket, seconds in build_buckets.items():
        values[f"subproduct.build.{bucket}_s"] = seconds
    values["trace.overhead_frac"] = statistics.median(r.wall for r in traced) / plain_wall - 1.0
    for name, value in values.items():
        detail.setdefault(name, {"value": value})
    breakdown = {"subproduct.build_s by level (ladder probe)": build_levels}
    for key in breakdowns[0]:
        names = sorted({name for b in breakdowns for name in b[key]})
        breakdown[key] = {name: statistics.median(b[key].get(name, 0.0) for b in breakdowns) for name in names}
    return values, {"per_layer": detail, "breakdown": breakdown}


def write_spans(path: str, inputs, result) -> None:
    """Spans of one traced pass: name, start (s from the first span), duration, parent, op."""
    origin = result.spans[0].start if result.spans else 0.0
    with open(path, "w") as fh:
        json.dump(
            {
                "pass_wall_s": result.wall,
                "ops": [[op.doc.name, op.command] for op in inputs.ops],
                "spans": [[s.name, s.start - origin, s.seconds, s.parent, s.op] for s in result.spans],
            },
            fh,
        )


def run(args, root: str, src: str, threads: int, cpus: tuple) -> int:
    import tracemalloc

    import krausfock
    from yardstick import Yardstick, scale

    if os.path.dirname(os.path.abspath(krausfock.__file__)) != os.path.join(src, "krausfock"):
        print(f"error: krausfock was imported from {krausfock.__file__}, not {src}", file=sys.stderr)
        return 2

    from gate import Tally, self_check
    from passes import run_pass
    from tracing import Tracer
    from workloads import POOL, WORKLOADS, make_inputs

    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")) as fh:
        reference = json.load(fh)["workloads"][args.workload]
    workload = WORKLOADS[args.workload]
    instance = reference["instances"][args.seed % POOL]
    ladders = reference["ladders"]
    recorded = reference["converge"][str(instance)]

    out_dir = os.path.join(root, OUT_DIR)
    stem = f"{args.workload}_s{args.seed}_t{args.trace}"
    work = os.path.join(out_dir, f"inputs_{stem}_p{os.getpid()}")
    tally = Tally()

    def gate(label: str, result) -> None:
        for op, outcome in zip(inputs.ops, result.outcomes):
            ref = recorded[op.doc.name] if op.command == "converge" else None
            tally.record(
                f"{label}/{op.doc.name}/{op.command}", op.command, outcome, op.doc.level, ladders[op.doc.name], ref
            )

    try:
        inputs = make_inputs(workload, instance, work, ladders)
        first = workload.docs[0]
        yardstick = Yardstick()
        setup = []

        def cold_setup() -> None:
            """One calibrated cold start, while fewer than ``SETUP_REPEATS`` were timed."""
            if len(setup) == SETUP_REPEATS:
                return
            before = yardstick.measure()
            seconds, outcome = cold_validate(inputs.paths[first.name]["channel"], root)
            setup.append((seconds * scale([before, yardstick.measure()]), seconds))
            label = f"setup{len(setup) - 1}/{first.name}/validate"
            tally.record(label, "validate", outcome, first.level, ladders[first.name])

        cold_setup()

        memory_tracer = Tracer(memory=True) if args.trace else None
        tracemalloc.start()
        try:
            if memory_tracer is not None:
                with memory_tracer.installed():
                    warmup = run_pass(inputs, memory_tracer)
            else:
                warmup = run_pass(inputs)
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gate("warmup", warmup)

        tracer = Tracer() if args.trace else None
        plain, traced = timed_passes(inputs, args.seconds, tracer, yardstick, gate, cold_setup)
        for _ in range(SETUP_REPEATS):
            cold_setup()

        dims_op = next(op for op in inputs.ops if op.command == "dims")
        conv_op = next(op for op in inputs.ops if op.command == "converge" and op.doc == dims_op.doc)
        check = self_check(
            plain[-1].outcomes[dims_op.index],
            plain[-1].outcomes[conv_op.index],
            dims_op.doc.level,
            ladders[dims_op.doc.name],
            recorded[dims_op.doc.name],
        )

        end_to_end, detail = end_to_end_metrics(inputs, plain, setup, peak_bytes)
        metrics = {"end_to_end": detail}
        printed = end_to_end
        os.makedirs(out_dir, exist_ok=True)
        if tracer is not None:
            plain_wall = statistics.median(r.wall for r in plain)
            printed, layer_detail = per_layer_metrics(inputs, traced, warmup.spans, plain_wall)
            metrics.update(layer_detail)
            write_spans(os.path.join(out_dir, f"SPANS_{stem}.json"), inputs, traced[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = tally.failed == 0 and check["ok"]
    report = {
        "provenance": provenance(root, src, threads, cpus, args, instance),
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_frac": tally.failed / tally.attempted,
        "failures": tally.problems,
        "self_check": check,
        "passes": {"plain": len(plain), "traced": len(traced)},
        "metrics": metrics,
    }
    report_path = os.path.join(out_dir, f"BENCH_{stem}.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")

    print(f"report: {os.path.relpath(report_path, root)}")
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; fail_frac {report['fail_frac']}")
    if not check["ok"]:
        print(f"self-check of the gate failed: {check}", file=sys.stderr)
    for problem in tally.problems[:5]:
        print(f"failed: {problem}", file=sys.stderr)
    line = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in printed.items()},
    }
    print(json.dumps(line))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not env.has_sources(root):
        print(f"error: no src/krausfock under {root}; run from the repository root", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    src, threads = env.prepare(root)
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    pinned = env.pin_cpu()
    return run(args, root, src, threads, (usable, pinned))


if __name__ == "__main__":
    sys.exit(main())
