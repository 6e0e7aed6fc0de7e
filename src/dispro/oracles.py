"""Numerical verification of the severity-underestimation bounds.

Each oracle computes the population and group-conditional expected severity
for a scenario by one-dimensional adaptive Gauss-Kronrod quadrature over the
severity density, then checks the predicted inequality direction:

* initial-severity shift: a group whose initial-severity density
  likelihood-ratio dominates the population's has a strictly higher
  feature-conditional expected severity, so a group-blind model
  underestimates it (and symmetrically for downward shifts);
* rate shift: the same statement for the progression-rate density at t > 0;
* visit-frequency shift: conditioning on having (or not having) a visit in a
  bin, a group that visits less at every severity has a strictly higher
  expected severity.

Expectations are ratios of integrals; the oracle propagates quadrature error
estimates and raises instead of returning a value that misses tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .types import ConfigurationError

QUAD_ABS_TOL = 1e-12
QUAD_REL_TOL = 1e-9   # keeps the ratio's error bound sharp when the
                      # conditioning event has small probability mass
RANGE_SDS = 10.0      # integrate over [mean - 10 sd, mean + 10 sd]
TOLERANCE = 1e-6      # the largest error bound an expectation may carry


class PrecisionError(RuntimeError):
    """Quadrature error estimate exceeds TOLERANCE."""


class Theorem(Enum):
    INITIAL_SEVERITY = "initial_severity"
    RATE = "rate"
    VISIT_FREQUENCY = "visit_frequency"


@dataclass(frozen=True)
class GaussianLatent:
    mean: float
    sd: float

    def pdf(self, z):
        u = (z - self.mean) / self.sd
        return math.exp(-0.5 * u * u) / (self.sd * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class SeverityScenario:
    """Scenario for the initial-severity and rate oracles.

    Severity at time t is init + rate * t with init ~ N(0, 1); one feature
    is observed as the severity plus N(0, noise_sd^2). ``shift`` moves the
    group's latent mean: a positive shift makes the group
    likelihood-ratio-dominate the population (the disadvantaged direction
    for initial severity and rate).
    """

    rate: GaussianLatent = GaussianLatent(0.0, 1.0)
    t: float = 0.0
    shift: float = 1.0
    observed: float = 0.0
    noise_sd: float = 1.0


@dataclass(frozen=True)
class VisitScenario:
    """Scenario for the visit-frequency oracle.

    The bin-level visit probability at severity z is 1 - exp(-exp(z)),
    strictly increasing in z with limits 0 and 1. The group's curve is the
    population's shifted by ``shift``: positive shift means the group
    visits less at the same severity.
    """

    severity: GaussianLatent = GaussianLatent(0.0, 1.0)
    shift: float = 1.0
    event: int = 1

    def __post_init__(self):
        if self.event not in (0, 1):
            raise ConfigurationError("event must be 0 or 1")


@dataclass(frozen=True)
class OracleResult:
    e_population: float
    e_group: float
    inequality_holds: bool
    expected_sign: int        # +1: group above population; -1: below


def _quad(fn, lo, hi):
    # imported on first use: no other command needs its ~0.2 s and 26 MB
    from scipy.integrate import quad
    val, err = quad(fn, lo, hi, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL,
                    limit=400)
    return val, err


def _expectation(latent: GaussianLatent, factor):
    """E[z] under the unnormalized density ``latent.pdf(z) * factor(z)`` on
    mean -/+ RANGE_SDS sd, with a propagated error bound; raises
    PrecisionError when the bound exceeds TOLERANCE."""
    def weight(z):
        return latent.pdf(z) * factor(z)

    lo = latent.mean - RANGE_SDS * latent.sd
    hi = latent.mean + RANGE_SDS * latent.sd
    den, den_err = _quad(weight, lo, hi)
    num, num_err = _quad(lambda z: z * weight(z), lo, hi)
    if den <= 0:
        raise PrecisionError("degenerate scenario: zero total mass")
    e = num / den
    bound = (num_err + abs(e) * den_err) / den
    if bound > TOLERANCE:
        raise PrecisionError(f"quadrature error bound {bound:.2e} exceeds "
                             f"tolerance {TOLERANCE:.2e}")
    return e, bound


def mlrp_bias_oracle(theorem: Theorem, scenario) -> OracleResult:
    """Compute population and group conditional expected severities for one
    scenario and check the predicted inequality.

    For the severity theorems a positive shift puts the group's density above
    the population's in likelihood ratio, so its conditional expectation must
    be strictly larger; for the visit theorem a positive shift means the
    group visits less at every severity, with the same conclusion under
    either event value. Negative shifts must reverse the inequality.
    """
    sc = scenario
    if theorem in (Theorem.INITIAL_SEVERITY, Theorem.RATE):
        if theorem is Theorem.RATE and sc.t <= 0.0:
            raise ConfigurationError("rate scenarios need t > 0")
        # severity init + rate * t of independent normals is itself normal;
        # the group's shift moves its mean by shift (init) or shift * t (rate)
        severity = GaussianLatent(sc.rate.mean * sc.t,
                                  math.hypot(1.0, sc.rate.sd * sc.t))
        delta = sc.shift if theorem is Theorem.INITIAL_SEVERITY else sc.shift * sc.t

        def like(sev):
            u = (sc.observed - sev) / sc.noise_sd
            return math.exp(-0.5 * u * u)

        population = (severity, like)
        group = (GaussianLatent(severity.mean + delta, severity.sd), like)
    elif theorem is Theorem.VISIT_FREQUENCY:
        def visit(s):  # P(visit in a bin at severity z) = 1 - exp(-exp(z - s))
            if sc.event == 1:
                return lambda z: -math.expm1(-math.exp(z - s))
            return lambda z: 1.0 + math.expm1(-math.exp(z - s))

        population = (sc.severity, visit(0.0))
        group = (sc.severity, visit(sc.shift))
    else:
        raise ConfigurationError(f"unknown theorem {theorem!r}")
    e_pop, err1 = _expectation(*population)
    e_grp, err2 = _expectation(*group)
    expected = int(math.copysign(1.0, sc.shift)) if sc.shift != 0 else 0

    bound = err1 + err2
    if expected > 0:
        holds = e_grp > e_pop + bound
    elif expected < 0:
        holds = e_grp < e_pop - bound
    else:
        holds = abs(e_grp - e_pop) <= max(TOLERANCE, bound)
    return OracleResult(e_population=e_pop, e_group=e_grp,
                        inequality_holds=holds, expected_sign=expected)


def scenario_grid(theorem: Theorem):
    """The verification grid for one theorem: five shift magnitudes, each
    in both directions, crossed with four noise scales."""
    out = []
    for s in np.round(np.linspace(0.1, 3.0, 5), 3):
        for shift, ns in itertools.product((float(s), -float(s)),
                                           (0.25, 0.7, 1.5, 4.0)):
            if theorem is Theorem.INITIAL_SEVERITY:
                out.append(SeverityScenario(shift=shift, noise_sd=ns,
                                            t=0.0, observed=0.3))
            elif theorem is Theorem.RATE:
                out.append(SeverityScenario(shift=shift, noise_sd=ns,
                                            t=0.5, observed=0.3,
                                            rate=GaussianLatent(0.5, 1.0)))
            else:
                for event in (1, 0):
                    out.append(VisitScenario(shift=shift,
                                             severity=GaussianLatent(0.0, ns),
                                             event=event))
    return out


def verify_theorems():
    """Run the full grid for all three theorems. Returns (all_passed, rows)
    where each row records the scenario and computed expectations."""
    rows = []
    all_ok = True
    for theorem in Theorem:
        for sc in scenario_grid(theorem):
            res = mlrp_bias_oracle(theorem, sc)
            ok = res.inequality_holds
            all_ok = all_ok and ok
            if theorem is Theorem.VISIT_FREQUENCY:
                desc = {"shift": sc.shift, "noise": sc.severity.sd,
                        "event": sc.event}
            else:
                desc = {"shift": sc.shift, "noise": sc.noise_sd, "t": sc.t}
            rows.append({"theorem": theorem.value, **desc,
                         "e_population": res.e_population,
                         "e_group": res.e_group,
                         "expected_sign": res.expected_sign,
                         "holds": ok})
    return all_ok, rows
