"""Deterministic network emulation (the testbed stand-in).

The paper measured on a real 100 Mbps LAN and a real ADSL line, with iperf
generating UDP cross-traffic.  This package models those as deterministic
link models driven by virtual clocks, so the figure-reproduction benchmarks
are fast and repeatable while preserving the shapes that matter (who wins,
where the crossovers are, how adaptation reduces jitter).
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "clock": ["Clock", "WallClock", "VirtualClock"],
    "crosstraffic": ["Phase", "CrossTrafficSchedule"],
    "link": ["LinkModel", "lan_100mbps", "adsl"],
    "scenario": ["Scenario", "microbenchmark_links", "imaging_cross_traffic",
                 "mdbond_cross_traffic", "imaging_scenario",
                 "mdbond_scenario"],
})
