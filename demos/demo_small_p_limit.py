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
(takes about a second at these replication counts)
"""

import qdetect as qd

A = 1.5
C_STAR = 0.1
SEED = 7
law = qd.HeadStartLaw.yakir(A)

# both closed forms, fed with the exact delay, run length and cross moment
eq3, eq4 = qd.limit_predictions(A, C_STAR)
print(f"candidate with cross moment : {eq4:.4f}")
print(f"candidate with product form : {eq3:.4f}")
print()

# rescaled Bayes risk along the p grid, every point stepping the same runs
# (the first 3, 6 and 12 M of one sequence) and simulating only the delay
# cost; the limit is the exact c = 0 value less a weighted quadratic
# extrapolation of the cost to p = 0, whose standard error reads how the
# points correlate
diag = qd.limit_diagnostic(A, law, C_STAR, [0.02, 0.01, 0.005],
                           [3_000_000, 6_000_000, 12_000_000], SEED)
for row in diag.rows:
    print(f"p = {row.p:<6} rescaled risk = {row.ratio:.4f} ± {row.stderr:.4f}")
print(f"extrapolated intercept      : {diag.intercept:.4f} ± {diag.intercept_se:.4f}")

verdict = qd.compare_limit(diag, eq3, eq4)
print(f"z against product form      : {verdict.z_eq3:.1f}")
print(f"z against cross-moment form : {verdict.z_eq4:.1f}")
print(f"verdict                     : {verdict.verdict}")
