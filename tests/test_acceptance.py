"""End-to-end acceptance gate.

Each test covers one acceptance criterion at its stated tolerance and emits
a single PASS/FAIL line; the conftest terminal-summary hook prints the whole
checklist at the end of the run so it shows up in any test log.
"""

import math
from functools import partial

import numpy as np
import pytest

from conftest import acceptance_report

from qdetect import (
    HeadStartLaw,
    compare_limit,
    conditional_headstart_diagnostic,
    couple_pi0,
    delay_profile,
    estimate_e1_and_cross,
    estimate_e1_delay,
    identity_checks,
    limit_diagnostic,
    limit_predictions,
    mei_e1,
    mu0_exact,
    oracle_checks,
    p0_exact,
    size_biased_mean,
    yakir_e1,
    yakir_mean,
)
from qdetect import montecarlo
from qdetect.montecarlo import FLATNESS_LIMIT

SEED = 20240824
REPS = 10**6
A_GRID = [1.5, 1.6, 1.7, 1.8, 1.9, 1.98]

PUBLISHED_MC = {
    1.5: (0.5799, 0.0007),
    1.6: (0.6194, 0.0008),
    1.7: (0.6589, 0.0008),
    1.8: (0.6993, 0.0008),
    1.9: (0.7417, 0.0008),
    1.98: (0.7739, 0.0009),
}
REFUTED_COLUMN = [0.4115, 0.4433, 0.4757, 0.5090, 0.5430, 0.5708]

# replication counts for the small-p extrapolation, sized when the quadratic
# fit of the whole ratio left an intercept standard error near 0.0008, under
# a twentieth of the gap; with only the cost part simulated it is about
# 0.00006
LIMIT_P_GRID = [0.02, 0.01, 0.005]
LIMIT_REPS = [3_000_000, 6_000_000, 13_000_000]
C_STAR = 0.1


def _report(ok: bool, name: str, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    acceptance_report.append(line)
    print(line)


def _margin(checks, kind: str, pick=max) -> float:
    """The largest (or ``pick``) margin of the checks whose name, before any
    `` A=...``, ends in ``kind``."""
    return pick(margin for name, _, margin, _ in checks if name.split()[0].endswith(kind))


@pytest.fixture(scope="module")
def table_runs():
    return {a: estimate_e1_and_cross(a, HeadStartLaw.yakir(a), REPS, SEED)
            for a in A_GRID}


def test_criterion_1_delay_table(table_runs):
    worst = 0.0
    for a, (published, pub_se) in PUBLISHED_MC.items():
        e1, _ = table_runs[a]
        z = abs(e1.mean - published) / math.hypot(e1.stderr, pub_se)
        worst = max(worst, z)
    ok = worst <= 4.0
    _report(ok, "criterion-1 delay-table",
            f"max |z| over grid = {worst:.2f} (limit 4)")
    assert ok


def test_criterion_2_cross_term_consistency(table_runs):
    worst = 0.0
    for a in A_GRID:
        e1, cross = table_runs[a]
        p0 = p0_exact(a)
        predicted = mei_e1(p0, mu0_exact(a), cross.mean)
        z = abs(predicted - e1.mean) / math.hypot(e1.stderr, p0 * cross.stderr)
        worst = max(worst, z)
    ok = worst <= 4.0
    _report(ok, "criterion-2 cross-term-consistency",
            f"max |z| over grid = {worst:.2f} (limit 4)")
    assert ok


def test_criterion_3_refuted_column(table_runs):
    rounded_ok = True
    min_z = math.inf
    for a, expected in zip(A_GRID, REFUTED_COLUMN):
        value = yakir_e1(p0_exact(a), mu0_exact(a))
        rounded_ok = rounded_ok and float(f"{value:.4f}") == expected
        e1, _ = table_runs[a]
        min_z = min(min_z, abs(value - e1.mean) / e1.stderr)
    ok = rounded_ok and min_z > 20.0
    _report(ok, "criterion-3 refuted-column",
            f"4-decimal match = {rounded_ok}, min separation = {min_z:.0f} SE")
    assert ok


def test_criterion_4_closed_form_oracles():
    checks = [check for a in A_GRID for check in oracle_checks(a, REPS, SEED)]
    ok = all(check[1] for check in checks)
    _report(ok, "criterion-4 closed-form-oracles",
            f"quad err {_margin(checks, 'quadrature'):.1e}, "
            f"mc max |z| {_margin(checks, 'oracle'):.2f}, "
            f"erratum off by >= {_margin(checks, 'erratum-rejected', min):.0f} SE")
    assert ok


def test_criterion_5_limit_identification():
    a = 1.5
    eq3, eq4 = limit_predictions(a, C_STAR)
    diag = limit_diagnostic(a, HeadStartLaw.yakir(a), C_STAR, LIMIT_P_GRID,
                            LIMIT_REPS, SEED)
    verdict = compare_limit(diag, eq3, eq4)
    se_ok = diag.intercept_se < verdict.gap / 4.0
    ok = se_ok and verdict.z_eq4 <= 4.0 and verdict.z_eq3 > 10.0
    _report(ok, "criterion-5 limit-identification",
            f"intercept {diag.intercept:.4f}±{diag.intercept_se:.4f}, "
            f"gap {verdict.gap:.4f}, z(eq4) = {verdict.z_eq4:.2f} (need <= 4), "
            f"z(eq3) = {verdict.z_eq3:.1f} (need > 10)")
    assert ok


def exact_conditional_mean(law, A, p):
    """E[r0 | nu = 1] = E[r0 pi0(r0)] / E[pi0(r0)], each a law integral: its
    part below ``A`` plus its tail at or above it."""
    pi0 = partial(couple_pi0, p)

    def mean(fn):
        return law.mean_below(fn, A) + law.tail_mean(fn, A)
    return mean(lambda r: r * pi0(r)) / mean(pi0)


def test_criterion_6_size_biased_conditional_law():
    a, p = 1.5, 0.005
    law = HeadStartLaw.yakir(a)
    cond = conditional_headstart_diagnostic(law, p, 400_000, SEED)
    exact, target = exact_conditional_mean(law, a, p), size_biased_mean(a)
    z_exact = abs(cond.mean - exact) / cond.stderr
    z_sb = abs(cond.mean - target) / cond.stderr
    z_plain = abs(cond.mean - yakir_mean(a)) / cond.stderr
    ok = z_exact <= 4.0 and z_sb <= 4.0 and z_plain > 4.0
    _report(ok, "criterion-6 size-biased-conditional",
            f"cond mean {cond.mean:.4f} vs exact {exact:.4f} (z = {z_exact:.2f}) vs "
            f"size-biased {target:.4f} (z = {z_sb:.2f}) vs plain {yakir_mean(a):.4f} "
            f"(z = {z_plain:.0f})")
    assert ok


def test_criterion_7_exact_identities():
    # the brute-force risk, each run through its drawn change time, against
    # the exact-score estimate within 4 combined SE, and its misses against
    # the exact miss probability within 4 binomial SE; the prior-weight
    # coupling round trip and the closed-form difference identity at
    # machine precision on random inputs
    checks = identity_checks(1.5, C_STAR, REPS, SEED, 1)
    ok = all(check[1] for check in checks)
    _report(ok, "criterion-7 exact-identities",
            f"risk vs brute force |z| = {_margin(checks, 'risk-vs-brute-force'):.2f}, "
            f"misses vs exact |z| = {_margin(checks, 'miss-probability-exact'):.2f} "
            f"(limit 4), round-trip err {_margin(checks, 'pi0-round-trip'):.1e}, "
            f"difference-identity err {_margin(checks, 'eq3-eq4-difference'):.1e}")
    assert ok


def _criterion_8():
    """Criterion 8's ``(ok, detail)``: every k = 1..10 of the profile at its
    reps within :data:`FLATNESS_LIMIT` combined SE of k = 1."""
    profile = delay_profile(1.5, HeadStartLaw.yakir(1.5), 10, REPS, SEED)
    worst = max(profile.deviations().values())
    ok = worst <= FLATNESS_LIMIT and len(profile.entries) == 10
    return ok, (f"max deviation from k=1 over k=1..10: {worst:.2f} SE "
                f"(limit {FLATNESS_LIMIT:g})")


def test_criterion_8_equalizer_profile():
    ok, detail = _criterion_8()
    _report(ok, "criterion-8 equalizer-profile", detail)
    assert ok


def test_criterion_8_fails_on_a_pre_change_branch(monkeypatch):
    # the fault: the post-change branches of the profile pass (the only
    # chains that start post-change and carry no copy of R_0) step with the
    # pre-change ratio 2U, not 2 sqrt(U), so every k >= 2 measures a
    # pre-change run length.  k = 1, whose runs carry R_0 for the cross
    # term, keeps the post-change ratio, and the line must fail
    stop_times = montecarlo._stop_times

    def pre_change_branch(rng, r, a, nu, q, max_steps, ws, carry=()):
        if np.ndim(nu) == 0 and nu == 1 and not carry:
            nu = math.inf
        return stop_times(rng, r, a, nu, q, max_steps, ws, carry)

    monkeypatch.setattr(montecarlo, "_stop_times", pre_change_branch)
    ok, detail = _criterion_8()
    assert not ok, detail


def test_criterion_9_determinism():
    a = 1.5
    law = HeadStartLaw.yakir(a)
    serial = estimate_e1_delay(a, law, REPS, SEED, workers=1)
    repeat = estimate_e1_delay(a, law, REPS, SEED, workers=1)
    spread = [estimate_e1_delay(a, law, REPS, SEED, workers=w) for w in (2, 3)]
    # the limit's path on nested reps: each of its three tiers spans 2
    # chunks, so workers=2 runs a pool in each
    reps = [300_000, 600_000, 900_000]
    b1, b2 = (limit_diagnostic(a, law, C_STAR, [0.02, 0.01, 0.005], reps, SEED, workers=w)
              for w in (1, 2))
    ok = (serial == repeat and all(serial == s for s in spread) and b1 == b2)
    _report(ok, "criterion-9 determinism",
            "bit-identical across repeats and worker counts 1/2/3" if ok
            else "worker-count or repeat mismatch")
    assert ok
