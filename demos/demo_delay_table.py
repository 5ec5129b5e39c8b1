"""
Post-change delay table for the head-started detection rule
===========================================================

Walks through the main numerical comparison: the Monte Carlo expected
delay E_1 N for the modified Shiryaev-Roberts rule with a randomized
head start, side by side with two closed-form candidates. One candidate
(the corrected formula, fed with a measured cross moment) tracks the
simulation; the other (the product form) is far off at every threshold.

Run with: python3 demos/demo_delay_table.py
"""

import qdetect as qd

REPS = 200_000
SEED = 7

print(f"{'A':>5} {'monte carlo':>14} {'corrected':>10} {'product':>8}")
for a in [1.5, 1.6, 1.7, 1.8, 1.9, 1.98]:
    law = qd.HeadStartLaw.yakir(a)

    # direct simulation of the delay when the change is in effect from
    # the first observation; the same runs give the cross moment
    # E_1(R0 N) between the head start and the stopping index, which the
    # corrected closed form needs
    e1, cross = qd.estimate_e1_and_cross(a, law, REPS, SEED)
    corrected = qd.mei_e1(qd.p0_exact(a), qd.mu0_exact(a), cross.mean)

    # the product form assumes the head start and the run length are
    # independent, which they are not
    product = qd.yakir_e1(qd.p0_exact(a), qd.mu0_exact(a))

    print(f"{a:>5} {e1.mean:>8.4f} {'±':>2} {e1.stderr:.4f}"
          f" {corrected:>10.4f} {product:>8.4f}")

print()
print("The corrected column stays within Monte Carlo noise of the")
print("simulation; the product column is off by roughly 0.17 to 0.20.")
