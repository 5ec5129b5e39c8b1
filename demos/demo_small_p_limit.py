"""
Small-p limit of the Bayes risk
===============================

The detection rule can be embedded in a Bayes problem with a geometric
change-time prior whose parameter p is coupled to the head start. As
p -> 0 the rescaled risk (1 - risk)/p approaches a constant, and two
closed-form candidates for that constant disagree. This script runs the
rescaled risk on a decreasing p grid, extrapolates to p = 0, and shows
which candidate the data picks.

Run with: python3 demos/demo_small_p_limit.py
(takes a minute or two at these replication counts)
"""

import qdetect as qd

A = 1.5
C_STAR = 0.1
SEED = 7
law = qd.HeadStartLaw.yakir(A)

# both closed forms, fed with measured delays, run lengths and the cross
# moment
pred = qd.limit_predictions(A, C_STAR, 2_000_000, SEED)
print(f"candidate with cross moment : {pred.eq4:.4f} ± {pred.eq4_se:.4f}")
print(f"candidate with product form : {pred.eq3:.4f} ± {pred.eq3_se:.4f}")
print()

# rescaled Bayes risk along the p grid, then a weighted linear
# extrapolation to p = 0
diag = qd.limit_diagnostic(A, law, C_STAR, [0.02, 0.01, 0.005],
                           [3_000_000, 6_000_000, 12_000_000], SEED)
for row in diag.rows:
    print(f"p = {row.p:<6} rescaled risk = {row.ratio:.4f} ± {row.stderr:.4f}")
print(f"extrapolated intercept      : {diag.intercept:.4f} ± {diag.intercept_se:.4f}")

verdict = qd.compare_limit(diag, pred.eq3, pred.eq4, pred.eq3_se, pred.eq4_se)
print(f"z against product form      : {verdict.z_eq3:.1f}")
print(f"z against cross-moment form : {verdict.z_eq4:.1f}")
print(f"verdict                     : {verdict.verdict}")
