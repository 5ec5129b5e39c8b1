"""
The randomized head start as an equalizer
=========================================

A detection rule is an equalizer when its conditional expected delay,
given that the alarm has not yet fired when the change arrives, is the
same no matter when the change happens. The uniform-product head start
has exactly this property for the exponential model: conditioning on
survival keeps regenerating the same statistic distribution.

Run with: python3 demos/demo_equalizer.py
"""

import qdetect as qd

A = 1.5
REPS = 300_000
SEED = 7

law = qd.HeadStartLaw.yakir(A)
profile = qd.delay_profile(A, law, 10, REPS, SEED)
base = profile.entries[1]

print(f"{'change at k':>12} {'conditional delay':>18} {'kept reps':>10}")
for k in sorted(profile.entries):
    e = profile.entries[k]
    print(f"{k:>12} {e.mean:>12.4f} ± {e.stderr:.4f} {e.reps:>10}")

print()
print(f"spread around k = 1: max |delay - {base.mean:.4f}| = "
      f"{max(abs(e.mean - base.mean) for e in profile.entries.values()):.4f}")
print("Later change times keep fewer replications (the rule may stop")
print("before the change), but the conditional delay stays flat.")

# Every k >= 2 comes from one pass: the runs step their pre-change chain
# once, and after step k - 1 the runs still below A branch off post-change.
# A branch draws before step k does, so one change index alone is its row
# of the profile, bit for bit.
alone = qd.estimate_conditional_delay(A, law, 5, REPS, SEED)
print()
print(f"k = 5 alone: {alone.mean:.4f} ± {alone.stderr:.4f}, "
      f"the profile's row: {alone == profile.entries[5]}")
