"""Mutation check: does tier-1 notice a one-line change to the program?

Each mutant replaces one line of a file of the source tree by another.  For
each, the tree is copied into a temporary directory, that one line is
replaced, and tier-1 runs there, with criterion 11 (a known failure) and the
byte digests of the reports deselected, so that only a test of meaning can
kill the mutant.  One line is printed a mutant:

- ``KILLED``: a test failed; the first failing test is named;
- ``SURVIVED``: every test passed, and the mutant is not known to be
  equivalent; it needs a new test;
- ``EQUIVALENT``: every test passed, and the mutant is listed as equivalent,
  changing at most rounding; the reason gives the argument.

Run from the root of the repository, on every mutant or on some, by index::

    python tests/mutants.py
    python tests/mutants.py 0 3

It takes about half a minute a mutant, and exits 1 when a mutant survives.
Not part of tier-1.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
DESELECTED = (
    "tests/test_acceptance.py::test_c11_strict_quantization_trends",
    "tests/test_cli.py::TestReportDigests::test_checked_in_digests_match",
)
LEFT_OUT = shutil.ignore_patterns(".*", "__pycache__")


class Mutant(NamedTuple):
    file: str  # relative to the root of the repository
    old: str  # one line of the file, without its indentation
    new: str  # its replacement, indented as the old line
    reason: str
    equivalent: bool = False


MUTANTS = [
    Mutant(
        "src/krausfock/linalg.py",
        "kept = kept[~(g * (1.0 + 2.0**-20) + 2.0**-250 < floor)]",
        "kept = kept[~(g + 2.0**-250 < floor)]",
        "_largest_norm: the Gram screen without its factor 1 + 2^-20 skips a "
        "rank-one probe whose computed norm rounds above its computed bound",
    ),
    Mutant(
        "src/krausfock/linalg.py",
        "kept = kept[~(g * (1.0 + 2.0**-20) + 2.0**-250 < floor)]",
        "kept = kept[~(g * (1.0 + 2.0**-20) + 2.0**-500 < floor)]",
        "_largest_norm: a Gram term of 2^-500 does not cover fourth powers "
        "that underflow, below about 2^-268",
    ),
    Mutant(
        "src/krausfock/linalg.py",
        "g = np.sqrt(np.linalg.norm(kept.conj().swapaxes(-2, -1) @ kept, axis=(-2, -1)))",
        "g = np.linalg.norm(kept.conj().swapaxes(-2, -1) @ kept, axis=(-2, -1))",
        "_largest_norm: ||X†X||_F without its square root is no bound on the "
        "norm of a matrix below 1",
    ),
    Mutant(
        "src/krausfock/cli.py",
        "probe_gap = _largest_norm(gaps, probe_gap)",
        "probe_gap = _largest_norm(gaps[1:], probe_gap)",
        "dilate: the first unit probe E_a0 of each row is never normed",
    ),
    Mutant(
        "src/krausfock/cli.py",
        '"hermiticity_residual": operator_norm(psi - psi.conj().T),',
        '"hermiticity_residual": operator_norm(psi - psi.T),',
        "dequantize: hermiticity_residual taken as |Psi - Psi^T|, not |Psi - Psi†|",
    ),
    Mutant(
        "src/krausfock/linalg.py",
        "if a.shape[-2:] != (d, d):",
        "if a.shape[-1] != d:",
        "_square: a tall system- or letter-space operator (d + 1, d) is let through",
    ),
    Mutant(
        "src/krausfock/linalg.py",
        "a = as_matrix(a, stacked)",
        "a = np.asarray(a, dtype=complex)",
        "_square: a system- or letter-space operator with a NaN or infinite entry "
        "is let through",
    ),
    Mutant(
        "src/krausfock/subproduct.py",
        "if x.shape[-2:] != (dim, dim):",
        "if x.shape[-1] != dim:",
        "_check_inductive: a tall level operator (d_m + 1, d_m) is let through",
    ),
    Mutant(
        "src/krausfock/cli.py",
        '"min_eigenvalue": float(eigs[0]),',
        '"min_eigenvalue": max(float(eigs[0]), 0.0),',
        "complementary: min_eigenvalue clipped at 0 hides a bath eigenvalue that "
        "rounds below 0",
    ),
    Mutant(
        "src/krausfock/cli.py",
        "norms[m - 1] = operator_norm(np.stack([v_adj @ v - np.eye(d), compression]))",
        "norms[m % args.max_m] = operator_norm(np.stack([v_adj @ v - np.eye(d), compression]))",
        "dilate: each level's residual pair written at index m, one level up, "
        "the top level's at index 0",
    ),
    Mutant(
        "src/krausfock/cli.py",
        "power = apply_heisenberg(kraus, power)",
        "power = apply_heisenberg(kraus, power) if m > 1 else power",
        "dilate: level m's compression residual taken against Phi^(m-1)(P), "
        "the previous level's power of the probe",
    ),
    Mutant(
        "src/krausfock/cli.py",
        "norms[m - 1] = operator_norm(np.stack([v_adj @ v - np.eye(d), compression]))",
        "norms[m - 1] = operator_norm(np.stack([v.T @ v - np.eye(d), compression]))",
        "dilate: the isometry residual taken as |V^T V - 1|, V where V† belongs",
    ),
    Mutant(
        "src/krausfock/cli.py",
        "unitarity = max(operator_norm(np.stack([w @ w.conj().T, w.conj().T @ w]) - eye).tolist())",
        "unitarity = operator_norm(w @ w.conj().T - eye)",
        "dilate: the unitarity residual from W W† alone; a square W = U P has "
        "W W† - 1 = U (P^2 - 1) U† and W† W - 1 = P^2 - 1, the same singular "
        "values, so the two norms differ by rounding only, which the report's "
        "bytes show",
    ),
    Mutant(
        "src/krausfock/linalg.py",
        "return int(np.count_nonzero(s > tol.rank_rel_tol * s[0]))",
        "return int(np.count_nonzero(s >= tol.rank_rel_tol * s[0]))",
        "_rank: >= for > differs only on a singular value exactly at tau s[0], "
        "or on a zero one when tau s[0] underflows, below s[0] = 5e-315; "
        "orthonormal_range scales its input to s[0] >= 0.5, and the root rows "
        "of a trace-one state are far above it",
        equivalent=True,
    ),
]


def mutate(tree: Path, mutant: Mutant) -> None:
    """Replace the one line of ``mutant.file`` under ``tree`` that reads
    ``mutant.old``; a list that no longer matches the source is an error."""
    path = tree / mutant.file
    lines = path.read_text().splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.strip() == mutant.old]
    if len(hits) != 1:
        raise SystemExit(f"{mutant.file}: {len(hits)} lines read {mutant.old!r}, expected 1")
    line = lines[hits[0]]
    lines[hits[0]] = line[: len(line) - len(line.lstrip())] + mutant.new + "\n"
    path.write_text("".join(lines))


def run_tier1(tree: Path) -> tuple[bool, str]:
    """Whether tier-1 passes on ``tree``, and the first failing test."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider"]
    argv += [f"--deselect={test}" for test in DESELECTED]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return done.returncode == 0, failed.group(1) if failed else f"exit {done.returncode}"


def main(argv: list[str]) -> int:
    chosen = [int(i) for i in argv] or range(len(MUTANTS))
    survived = 0
    for i in chosen:
        mutant = MUTANTS[i]
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp) / "tree"
            shutil.copytree(ROOT, tree, ignore=LEFT_OUT)
            mutate(tree, mutant)
            passed, first = run_tier1(tree)
        if not passed:
            verdict = f"KILLED      by {first}"
        elif mutant.equivalent:
            verdict = "EQUIVALENT"
        else:
            verdict, survived = "SURVIVED", survived + 1
        print(f"{i}: {verdict}\n   {mutant.file}: {mutant.reason}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
