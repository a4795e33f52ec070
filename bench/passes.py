"""Running operations and passes in process.

CLI commands run through ``krausfock.cli.main`` with standard output and
error captured in memory, so emission cost is measured without disk I/O.
Library names are looked up on their modules at call time, so the span
wrappers of a traced pass see every call.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, field

import krausfock
import krausfock.cli

from gate import Outcome
from workloads import Inputs, Op
from yardstick import scale


def call_cli(argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = krausfock.cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # any failure of the program counts against it
        return Outcome(out=out.getvalue(), err=err.getvalue(), error=f"{type(exc).__name__}: {exc}")
    return Outcome(rc=rc, out=out.getvalue(), err=err.getvalue())


def run_queries(op: Op, inputs: Inputs) -> tuple[Outcome, float]:
    """Library calls the CLI cannot reach, timed without the build before them.

    Returns the outcome and the time of the four queries: ``truncated_fock``
    to the top level, ``multiplicativity_residual`` from level 1 to the top,
    ``covariant_symbol`` at the top level and ``normal_ordering_residual`` at
    degree 4.
    """
    kf = krausfock
    doc, top = op.doc, op.doc.level
    a, b, x = inputs.query_args[doc.name]
    try:
        kraus = kf.minimal_kraus(kf.build_catalog(kf.CatalogSpec(**doc.catalog(inputs.instance))))
        system = kf.build_subproduct(kraus, top)
        last = kraus.size - 1
        start = time.perf_counter()
        fock = kf.truncated_fock(system, top)
        mult = kf.multiplicativity_residual(system, a, b, 1, top)
        symbol = kf.covariant_symbol(kraus, system, top, x)
        order = kf.normal_ordering_residual(kraus, system, (0, last), (last, 0), 4)
        seconds = time.perf_counter() - start
    except Exception as exc:  # any failure of the program counts against it
        return Outcome(error=f"{type(exc).__name__}: {exc}"), 0.0
    values = {
        "fock_dims": list(fock.dims),
        "multiplicativity_residual": float(mult),
        "covariant_symbol": symbol,
        "normal_ordering_residual": float(order),
    }
    return Outcome(values=values), seconds


@dataclass
class PassResult:
    """Times of one pass and every outcome.

    ``op_seconds`` holds the wall time of each operation and ``wall`` their
    sum.  ``query_seconds`` holds, per operation, the time of the library
    queries inside it (0 for CLI commands).  ``yardstick`` holds the
    yardstick times before each operation and after the last, or is empty.
    """

    wall: float
    op_seconds: list[float]
    query_seconds: list[float]
    outcomes: list[Outcome] | None
    spans: list = field(default_factory=list)
    yardstick: list[float] = field(default_factory=list)

    def calibrated(self) -> tuple[list[float], float]:
        """Operation times and the query time in calibrated seconds."""
        factor = scale(self.yardstick)
        return [t * factor for t in self.op_seconds], sum(self.query_seconds) * factor


def run_pass(inputs: Inputs, tracer=None, yardstick=None) -> PassResult:
    """Run every operation of the script once, in order.

    With a tracer, each CLI command is wrapped in a ``cli.<command>`` span and
    every span records the operation it belongs to.  With a yardstick, it is
    measured before each operation and after the last, outside the timings.
    """
    op_seconds, query_seconds, outcomes, marks = [], [], [], []
    clock = time.perf_counter
    for op in inputs.ops:
        if yardstick is not None:
            marks.append(yardstick.measure())
        t0 = clock()
        queries = 0.0
        if op.command == "queries":
            if tracer is not None:
                tracer.op = op.index
            outcome, queries = run_queries(op, inputs)
        elif tracer is not None:
            with tracer.span(f"cli.{op.command}", op.index):
                outcome = call_cli(op.argv)
        else:
            outcome = call_cli(op.argv)
        op_seconds.append(clock() - t0)
        query_seconds.append(queries)
        outcomes.append(outcome)
    if yardstick is not None:
        marks.append(yardstick.measure())
    spans = tracer.take() if tracer is not None else []
    return PassResult(sum(op_seconds), op_seconds, query_seconds, outcomes, spans, marks)
