"""Exact targets for the exponential pair f0 = Exp(1), f1 = Exp(2).

Under f0 the likelihood ratio is U(0, 2); under f1 it has density l/2 on
(0, 2).  For A < 2 every transition kernel restricted to [0, A) is rank one,
so the renewal equations of Moustakides, Polunchenko & Tartakovsky
(Statistica Sinica 21, 2011) solve in closed form for a head start r < A:

    E_inf[N | r] = 1 + C / (2 (1 + r)),    C = A / (1 - log(1 + A) / 2)
    E_1[N | r]   = 1 + D / (2 (1 + r)^2),  D = (A^2 / 2) / (1 - I / 2),
                                           I = log(1 + A) + 1/(1 + A) - 1

and N = 0 when r >= A.  The unconditional targets integrate these against
the head-start density.  The density is restated here rather than imported,
so the targets do not depend on the code they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate

#: Values the targets must reproduce at A = 1.5, c* = 0.1 (five decimals).
REFERENCE_A = 1.5
REFERENCE_C_STAR = 0.1
REFERENCE = {"e1": 0.58059, "cross": 0.40816, "arl": 0.84551,
             "eq4": 3.44755, "eq3": 3.38676}


def yakir_density(A: float, x: float) -> float:
    """Density of R_0 = (R + 1) Z, R ~ U[0, A], Z ~ U[0, 2], on (0, 2(A + 1))."""
    if not 0.0 < x < 2.0 * (A + 1.0):
        return 0.0
    return math.log(2.0 * (A + 1.0) / max(x, 2.0)) / (2.0 * A)


@dataclass(frozen=True)
class SrTargets:
    """Exact SR expectations at one threshold under the uniform-product law."""

    A: float
    e1: float      # E_1 N
    cross: float   # E_1(R_0 N)
    arl: float     # E_inf N
    e_r0: float    # E R_0

    def eq4(self, c_star: float) -> float:
        """Corrected small-p Bayes limit."""
        return (self.e_r0 + 1.0 + self.arl) - c_star * (
            self.cross + self.e1 * (1.0 + self.arl))

    def eq3(self, c_star: float) -> float:
        """Refuted small-p Bayes limit."""
        return (1.0 - c_star * self.e1) * (self.e_r0 + 1.0 + self.arl)


def _integral(fn, A: float) -> float:
    val, _ = integrate.quad(lambda r: fn(r) * yakir_density(A, r), 0.0, A,
                            epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


def sr_targets(A: float) -> SrTargets:
    """E_1 N, E_1(R_0 N) and E_inf N by quadrature of the renewal solutions."""
    if not 0.0 < A < 2.0:
        raise ValueError(f"exact targets need 0 < A < 2, got {A}")
    log1a = math.log1p(A)
    C = A / (1.0 - log1a / 2.0)
    I = log1a + 1.0 / (1.0 + A) - 1.0
    D = (A * A / 2.0) / (1.0 - I / 2.0)

    def e1_given(r):
        return 1.0 + D / (2.0 * (1.0 + r) ** 2)

    return SrTargets(
        A=A,
        e1=_integral(e1_given, A),
        cross=_integral(lambda r: r * e1_given(r), A),
        arl=_integral(lambda r: 1.0 + C / (2.0 * (1.0 + r)), A),
        e_r0=A / 2.0 + 1.0,
    )


def check_reference() -> SrTargets:
    """Recompute the reference values; raise if any differs in five decimals."""
    t = sr_targets(REFERENCE_A)
    got = {"e1": t.e1, "cross": t.cross, "arl": t.arl,
           "eq4": t.eq4(REFERENCE_C_STAR), "eq3": t.eq3(REFERENCE_C_STAR)}
    for key, want in REFERENCE.items():
        if abs(got[key] - want) > 5e-6:
            raise RuntimeError(f"exact {key} = {got[key]:.6f}, expected {want}")
    return t
