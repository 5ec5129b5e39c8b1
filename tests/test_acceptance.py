"""End-to-end acceptance gate.

Each test covers one acceptance criterion at its stated tolerance and emits
a single PASS/FAIL line; the conftest terminal-summary hook prints the whole
checklist at the end of the run so it shows up in any test log.
"""

import math
import os

import pytest

from conftest import acceptance_report

from qdetect import (
    BayesConfig,
    HeadStartLaw,
    compare_limit,
    conditional_headstart_diagnostic,
    coupling_round_trip,
    delay_profile,
    estimate_bayes_risk,
    estimate_e1_and_cross,
    estimate_e1_delay,
    limit_diagnostic,
    limit_difference_identity,
    limit_predictions,
    mei_e1,
    mu0_exact,
    oracle_comparison,
    p0_exact,
    risk_identity_exact,
    size_biased_mean,
    yakir_e1,
    yakir_mean,
)
from qdetect.headstart import ERRATUM_MIN_Z, ORACLE_QUAD_TOL, ORACLE_Z_LIMIT
from qdetect.montecarlo import FLATNESS_LIMIT

SEED = int(os.environ.get("QDETECT_SEED", "20240824"))
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

# replication counts for the small-p extrapolation, sized so the intercept
# standard error comes out near 0.003, well under a quarter of the gap
LIMIT_P_GRID = [0.02, 0.01, 0.005]
LIMIT_REPS = [30_000_000, 60_000_000, 130_000_000]
C_STAR = 0.1


def _report(ok: bool, name: str, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    acceptance_report.append(line)
    print(line)


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
    quad_worst = 0.0
    mc_worst = 0.0
    for a in A_GRID:
        o = oracle_comparison(a, REPS, SEED)
        quad_worst = max(quad_worst, abs(o["p0"] - o["p0_quad"]),
                         abs(o["mu0"] - o["mu0_quad"]))
        mc_worst = max(mc_worst, abs(o["p0"] - o["p0_hat"]) / o["p0_se"],
                       abs(o["mu0"] - o["mu0_hat"]) / o["mu0_se"])
        if a == 1.5:
            erratum_z = abs(o["p0_erratum"] - o["p0_hat"]) / o["p0_se"]
    ok = (quad_worst <= ORACLE_QUAD_TOL and mc_worst <= ORACLE_Z_LIMIT
          and erratum_z > ERRATUM_MIN_Z)
    _report(ok, "criterion-4 closed-form-oracles",
            f"quad err {quad_worst:.1e}, mc max |z| {mc_worst:.2f}, "
            f"erratum off by {erratum_z:.0f} SE")
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


def test_criterion_6_size_biased_conditional_law():
    a = 1.5
    report = conditional_headstart_diagnostic(HeadStartLaw.yakir(a), 0.005,
                                              400_000, SEED)
    target = size_biased_mean(a)
    z_sb = abs(report.conditional_mean - target) / report.conditional_se
    z_plain = abs(report.conditional_mean - yakir_mean(a)) / report.conditional_se
    ok = z_sb <= 4.0 and z_plain > 4.0
    _report(ok, "criterion-6 size-biased-conditional",
            f"cond mean {report.conditional_mean:.4f} vs size-biased "
            f"{target:.4f} (z = {z_sb:.2f}) vs plain {yakir_mean(a):.4f} "
            f"(z = {z_plain:.0f})")
    assert ok


def test_criterion_7_exact_identities():
    # risk decomposition, replication by replication, bitwise
    config = BayesConfig(p=0.01, c=C_STAR, A=1.5, law=HeadStartLaw.yakir(1.5))
    bitwise_ok = risk_identity_exact(config, 100_000, SEED, 1, tag="acceptance-eq5")

    # prior-weight coupling round trip and the closed-form difference
    # identity, both at machine precision on random inputs
    round_ok, round_err = coupling_round_trip(SEED)
    diff_ok, diff_err = limit_difference_identity(SEED)
    ok = bitwise_ok and round_ok and diff_ok
    _report(ok, "criterion-7 exact-identities",
            f"risk decomposition bitwise = {bitwise_ok}, round-trip err "
            f"{round_err:.1e}, difference-identity err {diff_err:.1e}")
    assert ok


def test_criterion_8_equalizer_profile():
    profile = delay_profile(1.5, HeadStartLaw.yakir(1.5), 10, REPS, SEED)
    worst = max(profile.deviations().values())
    ok = worst <= FLATNESS_LIMIT and len(profile.entries) == 10
    _report(ok, "criterion-8 equalizer-profile",
            f"max deviation from k=1 over k=1..10: {worst:.2f} SE "
            f"(limit {FLATNESS_LIMIT:g})")
    assert ok


def test_criterion_9_determinism():
    a = 1.5
    law = HeadStartLaw.yakir(a)
    serial = estimate_e1_delay(a, law, REPS, SEED, workers=1)
    repeat = estimate_e1_delay(a, law, REPS, SEED, workers=1)
    spread = [estimate_e1_delay(a, law, REPS, SEED, workers=w) for w in (2, 3)]
    config = BayesConfig(p=0.01, c=C_STAR, A=a, law=law)
    # 600 000 reps span 3 chunks, so workers=2 runs a pool
    b1 = estimate_bayes_risk(config, 600_000, SEED, workers=1)
    b2 = estimate_bayes_risk(config, 600_000, SEED, workers=2)
    ok = (serial == repeat and all(serial == s for s in spread) and b1 == b2)
    _report(ok, "criterion-9 determinism",
            "bit-identical across repeats and worker counts 1/2/3" if ok
            else "worker-count or repeat mismatch")
    assert ok
