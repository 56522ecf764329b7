"""Closed-form single-state scalar analyses: the exact optimal input
correlation, the critical SNR below which it is 1, its infinite-SNR limit,
and the numerical cross-check against the allocation solver."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gaussian import GaussianMacSpec, SolverConfig, solve_weighted
from .markov import MarkovChain

__all__ = [
    "snr_critical",
    "snr_critical_db",
    "rho_infinity",
    "beta_star_high_snr",
    "rho_from_beta",
    "rho_star",
    "CorrelationProfile",
    "correlation_profile_numeric",
]

# These closed forms are derived under the real-signal (1/2) log2 convention;
# the numeric cross-check pins the same convention.
_CONVENTION = "real"


def _link_factor(c12: float, c21: float) -> float:
    """2^(2(c12+c21)), the factor the closed forms share; inf once it
    overflows a float, which gives their values at unbounded links."""
    if c12 < 0 or c21 < 0:
        raise ValueError("link capacities must be nonnegative")
    try:
        return 2.0 ** (2.0 * (c12 + c21))
    except OverflowError:
        return math.inf


def snr_critical(c12: float, c21: float) -> float:
    """Linear SNR below which full correlation (rho = 1) is optimal.

    Equals (2^(2(c12+c21)) - 1) / 4; zero when both links are absent, inf
    where the factor overflows. The difference is formed as
    expm1(2(c12+c21) ln 2), which keeps its relative precision at small
    links, where the subtraction cancels (a relative 3.6e-8 off at
    c12 + c21 = 1e-9).
    """
    if _link_factor(c12, c21) == math.inf:
        return math.inf
    return math.expm1(2.0 * (c12 + c21) * math.log(2.0)) / 4.0


def snr_critical_db(c12: float, c21: float) -> float:
    """snr_critical in dB; -inf when the linear value is zero."""
    lin = snr_critical(c12, c21)
    if lin == 0.0:
        return float("-inf")
    return 10.0 * math.log10(lin)


def rho_infinity(c12: float, c21: float) -> float:
    """Optimal correlation in the infinite-SNR limit,
    sqrt(1 - 2 / (2^(2(c12+c21)) + 1)); nondecreasing in c12 + c21."""
    return math.sqrt(1.0 - 2.0 / (_link_factor(c12, c21) + 1.0))


def beta_star_high_snr(p1: float, p2: float, c12: float, c21: float) -> float:
    """High-SNR private-power fraction at the bound intersection:

    (sqrt(p1) + sqrt(p2))^2 / (2^(2(c12+c21)) (p1 + p2) + 2 sqrt(p1 p2)),
    which reduces to 2 / (2^(2(c12+c21)) + 1) for equal powers.
    """
    if p1 <= 0 or p2 <= 0:
        raise ValueError("powers must be positive")
    num = (math.sqrt(p1) + math.sqrt(p2)) ** 2
    den = _link_factor(c12, c21) * (p1 + p2) + 2.0 * math.sqrt(p1 * p2)
    # mathematically in (0, 1]; clamp the floating-point residue
    return min(max(num / den, 0.0), 1.0)


def rho_from_beta(beta: float) -> float:
    """Correlation from the private-power fraction: rho = sqrt(1 - beta)."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    return math.sqrt(1.0 - beta)


def rho_star(snr: float, c12: float, c21: float) -> float:
    """Exact optimal correlation of the symmetric scalar instance (one state,
    unit gains, power P = snr per user, real convention), c = c12 + c21.

    The sum rate is the maximum over beta in [0, 1] of min(c + (1/2)log2(1 +
    2 beta P), (1/2)log2(1 + 4P - 2 beta P)), met where the rising first term
    crosses the falling second: beta* = min(2(P - P_crit) / (P(2^(2c) + 1)), 1)
    above P_crit = snr_critical(c12, c21), and rho* = sqrt(1 - beta*); rho* = 1
    up to P_crit, and tends to rho_infinity(c12, c21) as P grows.
    """
    if not snr >= 0:
        raise ValueError(f"snr must be nonnegative, got {snr}")
    crit = snr_critical(c12, c21)
    if snr <= crit:
        return 1.0
    return rho_from_beta(min(2.0 * (snr - crit) / (snr * (_link_factor(c12, c21) + 1.0)), 1.0))


@dataclass
class CorrelationProfile:
    """Numerically optimal correlation as a function of SNR at fixed links."""

    snr_db: list[float]
    rho: list[float]
    c12: float
    c21: float

    def __post_init__(self):
        if len(self.snr_db) != len(self.rho):
            raise ValueError("snr_db and rho must have equal length")
        if any(not 0.0 <= r <= 1.0 for r in self.rho):
            raise ValueError("correlations must lie in [0, 1]")


def correlation_profile_numeric(
    c12: float,
    c21: float,
    snr_db: list[float],
    config: SolverConfig | None = None,
) -> CorrelationProfile:
    """Solve the symmetric scalar instance (one state, unit gains, equal
    powers) at each SNR and record rho* = sqrt(1 - gamma/P).

    The sum-rate objective is symmetric in the two encoders, so the solver
    ends with one allocation for both, up to rounding, and encoder 1's
    private fraction is read off.
    `rho_star` is the exact value; this profile is the solver's check
    against it. Every SNR is solved with the one `config`, and the solve
    draws no random start, so no point depends on its place in the grid.
    """
    chain = MarkovChain(["s0"], [[1.0]])
    rhos: list[float] = []
    for s_db in snr_db:
        p = 10.0 ** (s_db / 10.0)
        spec = GaussianMacSpec(chain, [[1.0]], [[1.0]], p, p, d1=0, d2=0, convention=_CONVENTION)
        res, = solve_weighted(spec, [(1.0, 1.0, c12, c21, 0.0)], config)
        power = res.alloc.P1[0, 0]
        beta = res.alloc.gamma1[0, 0] / power if power > 0 else 0.0
        rhos.append(rho_from_beta(min(max(beta, 0.0), 1.0)))
    return CorrelationProfile(list(snr_db), rhos, c12, c21)
