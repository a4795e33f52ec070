"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Criterion 11 asserts monotone decay rates that provably
do not hold at this scale; it is kept verbatim and fails with the measured
numbers (see the README note and the failure message).
"""

import math

import numpy as np
import pytest

from krausfock import (
    KrausSet,
    apply_heisenberg,
    build_subproduct,
    commuting_generic,
    complementary_state,
    complementary_state_via_dilation,
    compressed_action,
    convergence_report,
    correlations,
    covariant_symbol,
    dequantize,
    inductive_map,
    multiplicativity_residual,
    normal_ordering_residual,
    operator_norm,
    presentation_residual,
    projective_measurement,
    random_unital,
    sequential_projective,
    state_spec,
    stinespring_isometry,
    subproduct_residual,
    uniform_projective,
    unitary_dilation,
)
from conftest import (
    fock_rank_one_oracle,
    haar_unitary,
    random_complex,
    random_density,
    random_hermitian,
)


def check(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    line = f"[acceptance] criterion {num:02d} ({name}): {status}{suffix}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def families():
    # the four catalog instances the criteria name
    return {
        "projective": uniform_projective(3),
        "commuting": commuting_generic(2, 12, seed=3),
        "random": random_unital(2, 16, seed=0),
        "sequential": sequential_projective(4, np.pi / 4, seed=0),
    }


@pytest.fixture(scope="module")
def systems(families):
    return {
        "projective": build_subproduct(families["projective"], 8),
        "commuting": build_subproduct(families["commuting"], 8),
        "random": build_subproduct(families["random"], 7),
        "sequential": build_subproduct(families["sequential"], 7),
    }


def test_c01_dimension_ladders(systems):
    ok = True
    details = []
    dims = systems["projective"].dims
    if dims[1:9] != [3] * 8:
        ok, details = False, details + [f"projective {dims}"]
    dims = systems["commuting"].dims
    if dims[1:9] != [m + 1 for m in range(1, 9)]:
        ok, details = False, details + [f"commuting n=2 {dims}"]
    dims = build_subproduct(commuting_generic(3, 20, seed=3), 4).dims
    if dims != [math.comb(m + 2, 2) for m in range(5)]:
        ok, details = False, details + [f"commuting n=3 {dims}"]
    dims = systems["random"].dims
    if dims[1:8] != [2**m for m in range(1, 8)]:
        ok, details = False, details + [f"random {dims}"]
    check(1, "dimension ladders", ok, "; ".join(details))


def test_c02_subproduct_law(systems):
    worst = 0.0
    for name in ("projective", "commuting", "random", "sequential"):
        system = systems[name]
        for m in range(1, 7):
            for l in range(1, 8 - m):
                worst = max(worst, subproduct_residual(system, m, l))
    check(2, "subproduct law", worst < 1e-8, f"max residual {worst:.2e} over m+l<=7")


def test_c03_presentation_independence(families):
    rng = np.random.default_rng(99)
    worst = 0.0
    ok = True
    for name, kraus in families.items():
        u = haar_unitary(rng, kraus.size)
        mixed = KrausSet(np.einsum("ij,iab->jab", u, kraus.ops), tol=kraus.tol)
        original = build_subproduct(kraus, 6)
        rebuilt = build_subproduct(mixed, 6)
        if original.dims != rebuilt.dims:
            ok = False
        for m in range(1, 7):
            worst = max(worst, presentation_residual(original, rebuilt, u, m))
    check(
        3,
        "presentation independence",
        ok and worst < 1e-8,
        f"dims equal, max aligned projection gap {worst:.2e}",
    )


def test_c04_dilation_fidelity(systems, families):
    small = {
        "projective": families["projective"],
        "sequential": families["sequential"],
        "commuting d=6": commuting_generic(2, 6, seed=1),
        "random d=4": random_unital(2, 4, seed=2),
    }
    worst_w = 0.0
    for kraus in small.values():
        w = unitary_dilation(kraus).unitary
        for a in range(kraus.dim):
            for b in range(kraus.dim):
                unit = np.zeros((kraus.dim, kraus.dim))
                unit[a, b] = 1.0
                got = compressed_action(w, unit, kraus.dim, kraus.size)
                worst_w = max(worst_w, operator_norm(got - apply_heisenberg(kraus, unit)))
    rng = np.random.default_rng(4)
    worst_v = 0.0
    for name, system in systems.items():
        kraus = families[name]
        a = random_hermitian(rng, kraus.dim)
        for m in range(1, 6):
            v = stinespring_isometry(kraus, system, m)
            power = a
            for _ in range(m):
                power = apply_heisenberg(kraus, power)
            gap = operator_norm(v.conj().T @ np.kron(a, np.eye(system.dims[m])) @ v - power)
            worst_v = max(worst_v, gap)
    check(
        4,
        "dilation fidelity",
        worst_w < 1e-10 and worst_v < 1e-9,
        f"probe basis {worst_w:.2e}, levels m<=5 {worst_v:.2e}",
    )


def test_c05_complementary_channel():
    rng = np.random.default_rng(5)
    kraus = random_unital(3, 4, seed=5)
    worst_gap = 0.0
    worst_density = 0.0
    for _ in range(8):
        rho = random_density(rng, 4)
        by_sum = complementary_state(kraus, rho)
        by_dilation = complementary_state_via_dilation(kraus, rho)
        worst_gap = max(worst_gap, operator_norm(by_sum - by_dilation))
        herm = operator_norm(by_sum - by_sum.conj().T)
        neg = max(0.0, -np.linalg.eigvalsh((by_sum + by_sum.conj().T) / 2)[0])
        trace = abs(np.trace(by_sum) - 1.0)
        worst_density = max(worst_density, herm, neg, trace)
    check(
        5,
        "complementary channel",
        worst_gap < 1e-10 and worst_density < 1e-10,
        f"formula agreement {worst_gap:.2e}, density defect {worst_density:.2e}",
    )


def test_c06_covariant_symbol(systems, families):
    rng = np.random.default_rng(6)
    worst_dual = 0.0
    worst_unit = 0.0
    for name, system in systems.items():
        kraus = families[name]
        for m in range(1, 6):
            dm = system.dims[m]
            x = random_complex(rng, dm, dm)
            direct = covariant_symbol(kraus, system, m, x)
            v = stinespring_isometry(kraus, system, m)
            via_isometry = v.conj().T @ np.kron(np.eye(kraus.dim), x) @ v
            worst_dual = max(worst_dual, operator_norm(direct - via_isometry))
            unit = covariant_symbol(kraus, system, m, np.eye(dm))
            worst_unit = max(worst_unit, operator_norm(unit - np.eye(kraus.dim)))
    check(
        6,
        "covariant symbol duality",
        worst_dual < 1e-9 and worst_unit < 1e-9,
        f"route gap {worst_dual:.2e}, unitality {worst_unit:.2e}",
    )


def test_c07_inductive_maps(systems):
    rng = np.random.default_rng(7)
    worst_unital = 0.0
    worst_comp = 0.0
    worst_psd = 0.0
    for system in systems.values():
        for m in range(0, 6):
            out = inductive_map(system, np.eye(system.dims[m]), m, 6)
            worst_unital = max(worst_unital, operator_norm(out - np.eye(system.dims[6])))
        for m, r, l in [(1, 2, 4), (1, 3, 6), (2, 4, 6), (0, 3, 5)]:
            a = random_hermitian(rng, system.dims[m])
            direct = inductive_map(system, a, m, l)
            staged = inductive_map(system, inductive_map(system, a, m, r), r, l)
            worst_comp = max(worst_comp, operator_norm(direct - staged))
            g = random_complex(rng, system.dims[m], system.dims[m])
            psd_out = inductive_map(system, g @ g.conj().T, m, l)
            low = np.linalg.eigvalsh((psd_out + psd_out.conj().T) / 2)[0]
            worst_psd = max(worst_psd, max(0.0, -low))
    free = systems["random"]
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 2)
    free_mult = multiplicativity_residual(free, a, b, 1, 5)
    check(
        7,
        "inductive maps",
        worst_unital < 1e-9 and worst_comp < 1e-9 and worst_psd < 1e-9 and free_mult < 1e-10,
        f"unitality {worst_unital:.2e}, composition {worst_comp:.2e}, "
        f"free multiplicativity {free_mult:.2e}",
    )


def test_c08_correlation_normalization(systems, families):
    worst_norm = 0.0
    for name, system in systems.items():
        kraus = families[name]
        spec = state_spec(kraus, np.eye(kraus.dim) / kraus.dim)
        corr = correlations(kraus, system, spec, 5)
        for level in corr.levels.values():
            worst_norm = max(worst_norm, abs(level.inv_trace - level.trace) / level.trace)
    kraus = families["projective"]
    system = systems["projective"]
    corr = correlations(kraus, system, state_spec(kraus, np.eye(3) / 3), 6)
    worst_q = max(
        operator_norm(corr.levels[m].matrix - np.eye(system.dims[m])) for m in range(1, 7)
    )
    worst_sym = max(max(corr.symmetry_residuals[m]) for m in range(1, 7))
    check(
        8,
        "correlation normalization",
        worst_norm < 1e-8 and worst_q < 1e-10 and worst_sym < 1e-10,
        f"trace identity {worst_norm:.2e}, projective Q_m gap {worst_q:.2e}, "
        f"symmetry {worst_sym:.2e}",
    )


def test_c09_dequantization_unitality_and_oracle(systems, families):
    kraus = families["projective"]
    system = systems["projective"]
    corr = correlations(kraus, system, state_spec(kraus, np.eye(3) / 3), 6)
    worst_unital = max(
        operator_norm(dequantize(kraus, system, corr, np.eye(3), m) - np.eye(system.dims[m]))
        for m in range(1, 7)
    )
    rng = np.random.default_rng(9)
    worst_oracle = 0.0
    for name, system in systems.items():
        kraus = families[name]
        spec = state_spec(kraus, np.eye(kraus.dim) / kraus.dim)
        corr = correlations(kraus, system, spec, 4)
        a = random_hermitian(rng, kraus.dim)
        for m in range(1, 5):
            fast = dequantize(kraus, system, corr, a, m)
            slow = fock_rank_one_oracle(kraus, system, corr, a, m)
            scale = max(1.0, operator_norm(fast))
            worst_oracle = max(worst_oracle, operator_norm(fast - slow) / scale)
    check(
        9,
        "dequantization unitality and oracle",
        worst_unital < 1e-8 and worst_oracle < 1e-9,
        f"unitality {worst_unital:.2e}, rank-1 oracle gap {worst_oracle:.2e}",
    )


def test_c10_limit_state(systems, families):
    rng = np.random.default_rng(10)
    kraus = families["projective"]
    system = systems["projective"]
    spec = state_spec(kraus, np.eye(3) / 3)
    corr = correlations(kraus, system, spec, 6)
    a = random_hermitian(rng, 3)
    worst = 0.0
    for m in range(1, 7):
        psi = dequantize(kraus, system, corr, a, m)
        level = corr.levels[m]
        value = np.trace(level.matrix @ psi) / level.trace
        worst = max(worst, abs(value - np.trace(spec.rho0 @ a)))

    kraus = families["commuting"]
    system = systems["commuting"]
    spec = state_spec(kraus, np.eye(12) / 12)
    corr = correlations(kraus, system, spec, 6)
    a = kraus.ops[0].conj().T @ kraus.ops[0] - kraus.ops[1].conj().T @ kraus.ops[1]
    report = convergence_report(kraus, system, corr, a, a, 6)
    gap_trend = report.verdicts["limit_state_gap"]
    # the pairing identity makes the gap vanish at every level, the strongest
    # possible form of a decreasing trend; "flat" records exactly that
    trend_ok = gap_trend in ("flat", "decreasing")
    check(
        10,
        "limit state",
        worst < 1e-9 and trend_ok,
        f"projective gap {worst:.2e}, commuting trend '{gap_trend}' "
        f"(max gap {max(report.limit_state_gap):.2e})",
    )


def test_c11_strict_quantization_trends(systems, families):
    kraus = families["commuting"]
    system = systems["commuting"]
    spec = state_spec(kraus, np.eye(12) / 12)
    corr = correlations(kraus, system, spec, 7)
    a = kraus.ops[0].conj().T @ kraus.ops[0] - kraus.ops[1].conj().T @ kraus.ops[1]
    b = kraus.ops[0].conj().T @ kraus.ops[1] + kraus.ops[1].conj().T @ kraus.ops[0]
    report = convergence_report(kraus, system, corr, a, b, 7)

    vn = report.vn_residual[1:]  # m = 2..7
    ng = report.norm_gap[1:]
    sc = report.scaled_commutator
    slack = 1.0 + 1e-8
    vn_decreasing = all(y <= x * slack for x, y in zip(vn, vn[1:]))
    vn_halved = vn[-1] < vn[0] / 2
    ng_decreasing = all(y <= x * slack for x, y in zip(ng, ng[1:]))
    ng_dropped = ng[-1] < ng[0]
    sc_bounded = max(sc) <= 10 * np.median(sc)
    detail = (
        f"vn decreasing={vn_decreasing} halved={vn_halved}, "
        f"norm_gap decreasing={ng_decreasing} dropped={ng_dropped}, "
        f"scaled_commutator bounded={sc_bounded}; "
        f"vn m=2..7: {np.round(vn, 3).tolist()}; "
        "known blocker: at this scale (12 points, levels <= 7) the "
        "multiplicativity defect of the level quantization plateaus instead "
        "of decaying — the asymptotic regime needs levels comparable with "
        "the point count, and even exact design-point instances show a "
        "non-monotone defect here"
    )
    check(
        11,
        "strict-quantization trends",
        vn_decreasing and vn_halved and ng_decreasing and ng_dropped and sc_bounded,
        detail,
    )


def test_c12_normal_ordering(systems, families):
    worst_ordered = 0.0
    for name in ("projective", "commuting"):
        kraus = families[name]
        system = systems[name]
        n = kraus.size
        for left, right in [((0,), (1,)), ((0, 1), (1, 0)), ((0, 0, 1), (1, 0, 0))]:
            left = tuple(min(j, n - 1) for j in left)
            right = tuple(min(j, n - 1) for j in right)
            worst_ordered = max(
                worst_ordered, normal_ordering_residual(kraus, system, left, right, 3)
            )
    kraus = families["random"]
    system = systems["random"]
    free_residual = normal_ordering_residual(kraus, system, (0,), (1,), 3)
    check(
        12,
        "normal ordering",
        worst_ordered < 1e-9 and free_residual > 1e-6,
        f"ordered families {worst_ordered:.2e}, free family residual {free_residual:.3f} "
        "(strictly positive, reordering not certified)",
    )
