"""Choose the recorded instances and record what the gate compares against.

Run from the repository root at the commit whose outputs are the reference::

    python3 bench/record.py

For each workload it walks catalog seeds 0, 1, 2, ... and keeps the first
``POOL`` instances whose correlation matrices, on every document and level
of the script, have a smallest eigenvalue at least ``MIN_RATIO`` of the
largest.  Instances below that are ill-conditioned at this size: the library
refuses the ones below its ``rank_rel_tol`` of 1e-9 as singular, and near
that threshold a change of rounding could flip the decision.  The excluded
seeds are listed in the output with their ratios.  For each kept instance it
records the dimension ladders (which must not depend on the instance) and
the ``converge`` values, and writes ``bench/reference.json``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import env

MIN_RATIO = 1e-7


def correlation_ratio(kf, doc, instance: int) -> tuple[float, list[int]]:
    """Worst eigenvalue ratio of the document's correlation matrices, and its ladder."""
    import numpy as np

    kraus = kf.minimal_kraus(kf.build_catalog(kf.CatalogSpec(**doc.catalog(instance))))
    system = kf.build_subproduct(kraus, doc.level)
    state = kf.state_spec(kraus, np.eye(kraus.dim) / kraus.dim)
    worst = 1.0
    for m in range(1, doc.level + 1):
        try:
            level = kf.correlation_matrix(kraus, system, state, m)
        except kf.SingularMatrixError:
            return 0.0, list(system.dims)
        eigs = np.linalg.eigvalsh(level.matrix)
        worst = min(worst, float(eigs[0] / eigs[-1]))
    return worst, list(system.dims)


def record_workload(kf, workload, workdir: str) -> dict:
    from gate import converge_rows
    from passes import call_cli
    from workloads import POOL, make_inputs

    instances, excluded, ladders = [], [], None
    candidate = 0
    while len(instances) < POOL:
        surveyed = {doc.name: correlation_ratio(kf, doc, candidate) for doc in workload.docs}
        ratio = min(r for r, _ in surveyed.values())
        found = {name: ladder for name, (_, ladder) in surveyed.items()}
        if ratio >= MIN_RATIO:
            if ladders is not None and found != ladders:
                raise SystemExit(f"{workload.name}: ladder of instance {candidate} differs")
            ladders = found
            instances.append(candidate)
        else:
            excluded.append([candidate, ratio])
        candidate += 1

    converge = {}
    for instance in instances:
        inputs = make_inputs(workload, instance, os.path.join(workdir, str(instance)), ladders)
        values = {}
        for op in inputs.ops:
            if op.command == "converge":
                outcome = call_cli(op.argv)
                if outcome.rc != 0:
                    raise SystemExit(f"{workload.name}/{instance}: converge failed: {outcome.err}")
                values[op.doc.name] = converge_rows(outcome.out)
        converge[str(instance)] = values
        print(f"{workload.name}: recorded instance {instance}", flush=True)
    return {"instances": instances, "excluded": excluded, "ladders": ladders, "converge": converge}


def main() -> int:
    root = os.getcwd()
    if not env.has_sources(root):
        print("error: run from the repository root (no src/krausfock here)", file=sys.stderr)
        return 2
    env.prepare(root)
    import shutil

    import krausfock as kf
    from workloads import WORKLOADS

    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
    ).stdout.strip()
    workdir = os.path.join(root, ".bench", "record")
    try:
        reference = {
            "commit": commit or None,
            "min_correlation_ratio": MIN_RATIO,
            "workloads": {
                name: record_workload(kf, workload, os.path.join(workdir, name))
                for name, workload in WORKLOADS.items()
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
