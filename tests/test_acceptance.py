"""End-to-end acceptance gate.

Each test covers one acceptance criterion at its stated tolerance and emits
a single PASS/FAIL line; the conftest terminal-summary hook prints the whole
checklist at the end of the run so it shows up in any test log.
"""

import math
import os

import numpy as np
import pytest

from conftest import acceptance_report

from qdetect import (
    BayesConfig,
    HeadStartLaw,
    c_limit_eq3,
    c_limit_eq4,
    conditional_headstart_diagnostic,
    couple_pi0,
    delay_profile,
    estimate_bayes_risk,
    estimate_e1_and_cross,
    estimate_e1_delay,
    functionals_oracle,
    implied_headstart,
    limit_diagnostic,
    limit_predictions,
    mei_e1,
    mu0_exact,
    mu0_quadrature,
    p0_erratum,
    p0_exact,
    p0_quadrature,
    size_biased_mean,
    yakir_e1,
    yakir_mean,
)
from qdetect.bayes import _risk_sums

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
LIMIT_INPUT_REPS = 8_000_000
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
        quad_worst = max(quad_worst,
                         abs(p0_exact(a) - p0_quadrature(a)),
                         abs(mu0_exact(a) - mu0_quadrature(a)))
        rng = np.random.default_rng(np.random.SeedSequence([SEED, int(a * 1000)]))
        oracle = functionals_oracle(HeadStartLaw.yakir(a), a, REPS, rng)
        mc_worst = max(mc_worst,
                       abs(p0_exact(a) - oracle["p0_hat"]) / oracle["p0_se"],
                       abs(mu0_exact(a) - oracle["mu0_hat"]) / oracle["mu0_se"])
        if a == 1.5:
            erratum_z = abs(p0_erratum(a) - oracle["p0_hat"]) / oracle["p0_se"]
    ok = quad_worst <= 1e-10 and mc_worst <= 4.0 and erratum_z > 20.0
    _report(ok, "criterion-4 closed-form-oracles",
            f"quad err {quad_worst:.1e}, mc max |z| {mc_worst:.2f}, "
            f"erratum off by {erratum_z:.0f} SE")
    assert ok


def test_criterion_5_limit_identification():
    a = 1.5
    pred = limit_predictions(a, C_STAR, LIMIT_INPUT_REPS, SEED)
    diag = limit_diagnostic(a, HeadStartLaw.yakir(a), C_STAR, LIMIT_P_GRID,
                            LIMIT_REPS, SEED)
    se_ok = diag.intercept_se < pred.gap / 4.0
    z4 = abs(diag.intercept - pred.eq4) / math.hypot(diag.intercept_se, pred.eq4_se)
    z3 = abs(diag.intercept - pred.eq3) / math.hypot(diag.intercept_se, pred.eq3_se)
    ok = se_ok and z4 <= 4.0 and z3 > 10.0
    _report(ok, "criterion-5 limit-identification",
            f"intercept {diag.intercept:.4f}±{diag.intercept_se:.4f}, "
            f"gap {pred.gap:.4f}, z(eq4) = {z4:.2f} (need <= 4), "
            f"z(eq3) = {z3:.1f} (need > 10)")
    assert ok


def test_criterion_6_size_biased_conditional_law():
    a = 1.5
    report = conditional_headstart_diagnostic(a, HeadStartLaw.yakir(a),
                                              0.005, 400_000, SEED)
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
    _, _, nu, n_stop, _ = _risk_sums(config, 100_000, SEED, 1,
                                     tag="acceptance-eq5", collect="arrays")
    cond = (n_stop >= nu - 1).astype(float)
    dp = np.maximum(0, n_stop - nu + 1).astype(float)
    bitwise_ok = bool(np.array_equal(cond - C_STAR * dp,
                                     cond * (1.0 - C_STAR * dp)))

    # prior-weight coupling round trip and the closed-form difference
    # identity, both at machine precision on random inputs
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 7]))
    round_err = 0.0
    diff_err = 0.0
    for _ in range(500):
        p = rng.uniform(1e-4, 0.99)
        r0 = rng.uniform(0.0, 50.0)
        round_err = max(round_err,
                        abs(implied_headstart(p, couple_pi0(p, r0)) - r0)
                        / max(1.0, r0))
        e_r0, e1d, arl, cr, cs = rng.uniform(0.01, 5.0, 5)
        lhs = c_limit_eq3(e_r0, e1d, arl, cs) \
            - c_limit_eq4(e_r0, e1d, arl, cr, cs)
        rhs = cs * (cr - e1d * e_r0)
        diff_err = max(diff_err, abs(lhs - rhs) / max(1.0, abs(rhs)))
    ok = bitwise_ok and round_err <= 1e-12 and diff_err <= 1e-12
    _report(ok, "criterion-7 exact-identities",
            f"risk decomposition bitwise = {bitwise_ok}, round-trip err "
            f"{round_err:.1e}, difference-identity err {diff_err:.1e}")
    assert ok


def test_criterion_8_equalizer_profile():
    profile = delay_profile(1.5, HeadStartLaw.yakir(1.5), 10, REPS, SEED)
    base = profile.entries[1]
    worst = 0.0
    for e in profile.entries.values():
        z = abs(e.mean - base.mean) / max(math.hypot(e.stderr, base.stderr), 1e-12)
        worst = max(worst, z)
    ok = worst <= 5.0 and len(profile.entries) == 10
    _report(ok, "criterion-8 equalizer-profile",
            f"max deviation from k=1 over k=1..10: {worst:.2f} SE (limit 5)")
    assert ok


def test_criterion_9_determinism():
    a = 1.5
    law = HeadStartLaw.yakir(a)
    serial = estimate_e1_delay(a, law, REPS, SEED, workers=1)
    repeat = estimate_e1_delay(a, law, REPS, SEED, workers=1)
    spread = [estimate_e1_delay(a, law, REPS, SEED, workers=w) for w in (2, 3)]
    config = BayesConfig(p=0.01, c=C_STAR, A=a, law=law)
    b1 = estimate_bayes_risk(config, 200_000, SEED, workers=1)
    b2 = estimate_bayes_risk(config, 200_000, SEED, workers=2)
    ok = (serial == repeat and all(serial == s for s in spread) and b1 == b2)
    _report(ok, "criterion-9 determinism",
            "bit-identical across repeats and worker counts 1/2/3" if ok
            else "worker-count or repeat mismatch")
    assert ok
