"""Price/performance analysis — the reproduction of the paper's Table 1.

Table 1 of the paper lists late-1998 street prices of Pentium II parts
against Business Winstone and Quake II scores and observes that the
performance/price ratio *falls* sharply toward the high end — i.e. buyers
pay a large premium for the last increments of performance, which is the
paper's §1.4 argument that "small performance improvements matter" and
therefore that customization (which buys performance without buying the
premium bin) is economically interesting.

The published rows are embedded verbatim as the reference dataset; the
module recomputes the two Perf/Price columns, fits the premium curve, and
provides the same analysis for arbitrary (price, performance) tables so
the experiment can also be run on the outputs of our own cost model.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class PricePerformanceRow:
    """One processor SKU: clock, bus, family, price and two benchmark scores."""

    core_mhz: int
    bus_mhz: int
    family: str
    price_usd: float
    business_winstone: float
    quake2_fps: float

    @property
    def winstone_per_dollar(self) -> float:
        return self.business_winstone / self.price_usd

    @property
    def quake_per_dollar(self) -> float:
        return self.quake2_fps / self.price_usd


#: Table 1 of the paper, verbatim (prices: PC Broker Inc, 1998-10-23;
#: performance: Tom's Hardware Guide, same date).
TABLE1_ROWS: List[PricePerformanceRow] = [
    PricePerformanceRow(266, 66, "Klamath", 245.0, 31.0, 47.0),
    PricePerformanceRow(300, 66, "Klamath", 268.0, 33.1, 52.0),
    PricePerformanceRow(333, 66, "Deschutes", 299.0, 35.0, 56.0),
    PricePerformanceRow(350, 100, "Deschutes", 349.0, 36.7, 60.0),
    PricePerformanceRow(400, 100, "Deschutes", 596.0, 39.5, 66.0),
    PricePerformanceRow(450, 100, "Deschutes", 799.0, 41.3, 69.0),
]

#: The Perf/Price columns exactly as printed in the paper (3 decimals).
TABLE1_PUBLISHED_RATIOS: List[Dict[str, float]] = [
    {"winstone_per_dollar": 0.127, "quake_per_dollar": 0.192},
    {"winstone_per_dollar": 0.124, "quake_per_dollar": 0.194},
    {"winstone_per_dollar": 0.117, "quake_per_dollar": 0.187},
    {"winstone_per_dollar": 0.105, "quake_per_dollar": 0.172},
    {"winstone_per_dollar": 0.066, "quake_per_dollar": 0.111},
    {"winstone_per_dollar": 0.052, "quake_per_dollar": 0.086},
]


def compute_table1(rows: Optional[Sequence[PricePerformanceRow]] = None
                   ) -> List[Dict[str, float]]:
    """Recompute Table 1, returning one dict per row (printable as-is)."""
    rows = list(rows) if rows is not None else TABLE1_ROWS
    table: List[Dict[str, float]] = []
    for row in rows:
        table.append({
            "core_mhz": row.core_mhz,
            "bus_mhz": row.bus_mhz,
            "family": row.family,
            "price_usd": row.price_usd,
            "business_winstone": row.business_winstone,
            "quake2_fps": row.quake2_fps,
            "winstone_per_dollar": round(row.winstone_per_dollar, 3),
            "quake_per_dollar": round(row.quake_per_dollar, 3),
        })
    return table


@dataclass
class PremiumAnalysis:
    """Quantifies the high-end premium the table demonstrates."""

    #: ratio of best to worst perf/price across the table (>1 means the
    #: low end is the better deal).
    winstone_ratio_spread: float
    quake_ratio_spread: float
    #: marginal dollars per additional Winstone point, low end vs high end.
    marginal_cost_low: float
    marginal_cost_high: float
    #: price elasticity exponent from a log-log fit price ~ perf**k.
    price_performance_exponent: float


def analyze_premium(rows: Optional[Sequence[PricePerformanceRow]] = None
                    ) -> PremiumAnalysis:
    """Measure how steeply price rises with performance at the high end."""
    rows = list(rows) if rows is not None else TABLE1_ROWS
    if len(rows) < 3:
        raise ValueError("premium analysis needs at least three rows")
    rows = sorted(rows, key=lambda r: r.business_winstone)

    winstone_ratios = [r.winstone_per_dollar for r in rows]
    quake_ratios = [r.quake_per_dollar for r in rows]

    marginal_low = ((rows[1].price_usd - rows[0].price_usd)
                    / max(1e-9, rows[1].business_winstone - rows[0].business_winstone))
    marginal_high = ((rows[-1].price_usd - rows[-2].price_usd)
                     / max(1e-9, rows[-1].business_winstone - rows[-2].business_winstone))

    exponent = statistics.linear_regression(
        [math.log(r.business_winstone) for r in rows],
        [math.log(r.price_usd) for r in rows]).slope

    return PremiumAnalysis(
        winstone_ratio_spread=max(winstone_ratios) / min(winstone_ratios),
        quake_ratio_spread=max(quake_ratios) / min(quake_ratios),
        marginal_cost_low=marginal_low,
        marginal_cost_high=marginal_high,
        price_performance_exponent=exponent,
    )


def matches_published_ratios(tolerance: float = 0.0015) -> bool:
    """Check our recomputed Perf/Price columns against the printed ones."""
    recomputed = compute_table1()
    for ours, published in zip(recomputed, TABLE1_PUBLISHED_RATIOS):
        if abs(ours["winstone_per_dollar"] - published["winstone_per_dollar"]) > tolerance:
            return False
        if abs(ours["quake_per_dollar"] - published["quake_per_dollar"]) > tolerance:
            return False
    return True


def synthetic_table(prices: Sequence[float], performances: Sequence[float],
                    label: str = "custom") -> List[PricePerformanceRow]:
    """Build a price/performance table from model outputs (same analysis)."""
    if len(prices) != len(performances):
        raise ValueError("prices and performances must have the same length")
    return [
        PricePerformanceRow(
            core_mhz=0, bus_mhz=0, family=label,
            price_usd=float(p), business_winstone=float(perf),
            quake2_fps=float(perf),
        )
        for p, perf in zip(prices, performances)
    ]
