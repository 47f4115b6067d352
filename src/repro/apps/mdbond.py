"""The molecular-dynamics bond server (§IV-C.2).

"a 'bond server' ... constructs a graph, where the vertices represent the
atoms and the edges represent bonds.  This data is available for a sequence
of timesteps. ... The SOAP-binQ quality file is formulated such that the
server sends collective data corresponding to as many timestamps (between 1
and 4) in its response, as indicated by available network resources."

Message design: the application's response type carries a fixed-size window
of 4 timesteps plus a ``count``; the reduced quality types carry 2 or 1.
The ``take_batch`` quality handler slices the window to the destination
type's capacity and fixes up ``count`` — the client-side projection then
pads the missing timesteps with zeroes, and consumers read only ``count``
entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..clock import Clock
from ..core import HandlerRegistry, SoapBinClient, SoapBinService
from ..media import MoleculeTrajectory
from ..pbio import Format, FormatRegistry
from ..transport import Channel

MAX_BATCH = 4

DEFAULT_QUALITY_FILE = """\
attribute rtt
history 3
0.0   0.20 - BondBatch4
0.20  0.45 - BondBatch2
0.45  inf  - BondBatch1
handler BondBatch2 take_batch
handler BondBatch1 take_batch
"""


def bond_formats() -> Dict[str, Format]:
    """Message formats for the bond service (graph per timestep)."""
    formats = {
        "Atom": Format.from_dict(
            "Atom", {"id": "int32", "x": "float64", "y": "float64",
                     "z": "float64"}),
        "Bond": Format.from_dict("Bond", {"a": "int32", "b": "int32"}),
        "Timestep": Format.from_dict(
            "Timestep", {"step": "int32", "atoms": "struct Atom[]",
                         "bonds": "struct Bond[]"}),
        "GetBondsRequest": Format.from_dict(
            "GetBondsRequest", {"start": "int32"}),
    }
    for capacity in (4, 2, 1):
        formats[f"BondBatch{capacity}"] = Format.from_dict(
            f"BondBatch{capacity}",
            {"count": "int32", "timesteps": f"struct Timestep[{capacity}]"})
    return formats


def take_batch_handler(value, src, dst, registry, attrs):
    """Quality handler: keep as many timesteps as the smaller type holds."""
    capacity = dst.field("timesteps").ftype.length
    kept = list(value["timesteps"])[:capacity]
    return {"count": len(kept), "timesteps": kept}


def empty_timestep() -> Dict[str, object]:
    return {"step": 0, "atoms": [], "bonds": []}


class BondServer:
    """Serves sliding windows of trajectory timesteps."""

    def __init__(self, registry: Optional[FormatRegistry] = None,
                 quality_file: Optional[str] = DEFAULT_QUALITY_FILE,
                 n_atoms: int = 100, seed: int = 7,
                 prep_time_fn=None) -> None:
        self.registry = registry if registry is not None else FormatRegistry()
        self.formats = bond_formats()
        for fmt in self.formats.values():
            self.registry.register(fmt)
        handlers = HandlerRegistry()
        handlers.register("take_batch", take_batch_handler)
        self.service = SoapBinService(self.registry,
                                      quality_text=quality_file,
                                      handlers=handlers,
                                      prep_time_fn=prep_time_fn)
        self.service.add_operation("GetBonds",
                                   self.formats["GetBondsRequest"],
                                   self.formats["BondBatch4"],
                                   self._get_bonds)
        self._trajectory = MoleculeTrajectory(n_atoms=n_atoms, seed=seed)
        self._history: List[Dict[str, object]] = []

    @property
    def endpoint(self):
        return self.service.endpoint

    def _timestep_at(self, index: int) -> Dict[str, object]:
        while len(self._history) <= index:
            self._history.append(self._trajectory.timestep())
            self._trajectory.advance()
        return self._history[index]

    def _get_bonds(self, params: Dict[str, object]) -> Dict[str, object]:
        start = int(params["start"])
        if start < 0:
            raise ValueError("start must be non-negative")
        window = [self._timestep_at(start + i) for i in range(MAX_BATCH)]
        return {"count": len(window), "timesteps": window}


class BondClient:
    """Client returning only the genuinely transmitted timesteps."""

    def __init__(self, channel: Channel, registry: FormatRegistry,
                 clock: Optional[Clock] = None) -> None:
        self.formats = bond_formats()
        self._client = SoapBinClient(channel, registry, clock=clock)
        self.cursor = 0

    def fetch(self, start: Optional[int] = None) -> List[Dict[str, object]]:
        """Fetch the next window; returns the real (count-limited) batch."""
        if start is None:
            start = self.cursor
        out = self._client.call("GetBonds", {"start": start},
                                self.formats["GetBondsRequest"],
                                self.formats["BondBatch4"])
        count = int(out["count"])
        batch = list(out["timesteps"])[:count]
        self.cursor = start + max(count, 1)
        return batch

    @property
    def rtt_estimate(self) -> Optional[float]:
        return self._client.estimator.estimate


@dataclass
class MdPoint:
    """One sample of the Fig. 9 series."""

    time: float
    response_time: float
    timesteps_delivered: int
    response_bytes: int


def fixed_policy_quality_file(message_type: str) -> str:
    handler = ("" if message_type == "BondBatch4"
               else f"handler {message_type} take_batch\n")
    return f"attribute rtt\nhistory 1\n0.0 inf - {message_type}\n{handler}"


def run_mdbond_experiment(policy: str, duration: float = 40.0,
                          think_time: float = 0.5,
                          seed: int = 2004) -> List[MdPoint]:
    """Drive the bond client over the Fig. 9 scenario (ADSL + UDP bursts).

    ``policy``: ``"four"`` (always 4 timesteps), ``"one"`` (always 1) or
    ``"adaptive"`` (1-4 by network conditions).
    """
    from ..netsim import mdbond_scenario
    from ..transport import SimChannel

    quality = {
        "four": fixed_policy_quality_file("BondBatch4"),
        "one": fixed_policy_quality_file("BondBatch1"),
        "adaptive": DEFAULT_QUALITY_FILE,
    }[policy]
    scenario = mdbond_scenario(seed=seed)
    clock = scenario.clock
    server = BondServer(quality_file=quality, prep_time_fn=clock.now)
    channel = SimChannel(server.endpoint, scenario.link, clock)
    client = BondClient(channel, server.registry, clock=clock)
    points: List[MdPoint] = []
    while clock.now() < duration:
        start = clock.now()
        batch = client.fetch()
        record = channel.log[-1]
        points.append(MdPoint(time=start,
                              response_time=clock.now() - start,
                              timesteps_delivered=len(batch),
                              response_bytes=record.response_bytes))
        clock.advance(think_time)
    return points
