"""Synthetic workload data: star-field images and molecule trajectories.

The paper's data came from telescopes (Skyserver-like image servers) and
molecular-dynamics simulations; neither is shippable, so these generators
produce deterministic stand-ins with the same shapes and sizes — 640x480x3
raw frames (~0.9 MB) and ~4 KB-per-timestep bond graphs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np


def starfield(width: int = 640, height: int = 480, n_stars: int = 120,
              seed: int = 51) -> np.ndarray:
    """A synthetic low-light astronomy frame (the Skyserver stand-in).

    Dark sky with Poisson-ish noise plus gaussian star blobs of varying
    brightness.  Deterministic per seed.

    A blob reaches 6 sigma from its centre, so each star is drawn over
    that box alone: the same values as a whole-frame pass, without its
    frame-sized temporaries per star (a server's start-up peak, which
    glibc may keep resident for the life of the process).
    """
    rng = np.random.default_rng(seed)
    sky = rng.poisson(6.0, size=(height, width)).astype(np.float64)
    ys, xs = np.ogrid[0:height, 0:width]
    for _ in range(n_stars):
        cx = rng.uniform(0, width)
        cy = rng.uniform(0, height)
        brightness = rng.uniform(40, 255)
        sigma = rng.uniform(0.8, 2.5)
        reach = 6 * sigma
        x0, x1 = max(int(cx - reach), 0), min(int(cx + reach) + 2, width)
        y0, y1 = max(int(cy - reach), 0), min(int(cy + reach) + 2, height)
        d2 = (xs[:, x0:x1] - cx) ** 2 + (ys[y0:y1] - cy) ** 2
        mask = d2 < reach ** 2
        sky[y0:y1, x0:x1][mask] += brightness * np.exp(
            -d2[mask] / (2 * sigma * sigma))
    frame = np.clip(sky, 0, 255).astype(np.uint8)
    return np.repeat(frame[..., None], 3, axis=2)


class MoleculeTrajectory:
    """A deterministic molecular-dynamics trajectory.

    Atoms start on a jittered grid and random-walk between timesteps; bonds
    connect atoms within a cutoff radius, recomputed per timestep (so the
    graph changes over time, as a real bond server's would).

    The default sizing targets the paper's "about 4KB" per timestep: with
    ``n_atoms=100``, one timestep is 100 atoms x (id + x + y + z as
    int32/float64) plus ~140 bonds — just under 4 KB in PBIO form.
    """

    def __init__(self, n_atoms: int = 100, cutoff: float = 0.10,
                 step_size: float = 0.01, seed: int = 7) -> None:
        self.n_atoms = n_atoms
        self.cutoff = cutoff
        self.step_size = step_size
        self._rng = np.random.default_rng(seed)
        side = int(np.ceil(np.sqrt(n_atoms)))
        grid = np.stack(np.meshgrid(np.linspace(0.1, 0.9, side),
                                    np.linspace(0.1, 0.9, side)), axis=-1)
        self._positions = (grid.reshape(-1, 2)[:n_atoms]
                           + self._rng.normal(0, 0.01, (n_atoms, 2)))
        self._z = self._rng.uniform(0.0, 1.0, n_atoms)
        self._step = 0

    def advance(self) -> None:
        """Move every atom one random-walk step (reflecting at the walls)."""
        delta = self._rng.normal(0.0, self.step_size, self._positions.shape)
        self._positions = np.abs(self._positions + delta)
        self._positions = 1.0 - np.abs(1.0 - self._positions)
        self._step += 1

    def timestep(self) -> Dict[str, object]:
        """The current timestep as a bond-server message value."""
        atoms = [{"id": i,
                  "x": float(self._positions[i, 0]),
                  "y": float(self._positions[i, 1]),
                  "z": float(self._z[i])}
                 for i in range(self.n_atoms)]
        bonds = [{"a": a, "b": b} for a, b in self.bonds()]
        return {"step": self._step, "atoms": atoms, "bonds": bonds}

    def bonds(self) -> List[Tuple[int, int]]:
        """Atom pairs within the cutoff radius (the bond graph's edges)."""
        diff = self._positions[:, None, :] - self._positions[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        close = d2 < self.cutoff * self.cutoff
        pairs = np.argwhere(np.triu(close, k=1))
        return [(int(a), int(b)) for a, b in pairs]

    def run(self, n_steps: int) -> List[Dict[str, object]]:
        """Generate ``n_steps`` consecutive timesteps."""
        out = []
        for _ in range(n_steps):
            out.append(self.timestep())
            self.advance()
        return out
