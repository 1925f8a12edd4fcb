"""Convex base domains and seeded interior sampling.

Every sampler respects the domain's interior margin: no produced point lies
closer than ``margin`` to the boundary (measured in Euclidean distance).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadParams, OutOfDomain

KINDS = ("box", "ball", "half-space", "cone", "full-space", "torus")


@dataclass(frozen=True)
class DomainSpec:
    """Base domain of a convex potential.

    kind-specific parameters:
      box        -- params["bounds"]: (n, 2) array of [lo, hi] per axis
      ball       -- params["radius"]: float
      half-space -- params["axes"]: tuple of axis indices constrained to x_i > 0
      cone       -- the planar cone |x1| > |x2| (positive branch sampled)
      full-space -- params.get("exclude_radius", 0.0): open ball removed at 0
      torus      -- unit period in every axis, no boundary
    """

    n: int
    kind: str
    params: dict = field(default_factory=dict)
    margin: float = 1e-6

    def __post_init__(self):
        if self.n < 1:
            raise BadParams(f"dimension must be >= 1, got {self.n}")
        if self.kind not in KINDS:
            raise BadParams(f"unknown domain kind {self.kind!r}")
        if self.margin < 0:
            raise BadParams("margin must be >= 0")

    # -- membership ---------------------------------------------------------

    def boundary_distance(self, x: np.ndarray) -> float:
        """Euclidean distance from x to the domain boundary (inf for torus)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise OutOfDomain(f"point has shape {x.shape}, expected ({self.n},)")
        if self.kind == "box":
            bounds = np.asarray(self.params["bounds"], dtype=float)
            lo = x - bounds[:, 0]
            hi = bounds[:, 1] - x
            return float(min(lo.min(), hi.min()))
        if self.kind == "ball":
            r = float(self.params["radius"])
            return float(r - np.linalg.norm(x))
        if self.kind == "half-space":
            axes = self.params.get("axes", tuple(range(self.n)))
            return float(min(x[a] for a in axes))
        if self.kind == "cone":
            # distance to the lines x1 = +-x2 is (|x1| - |x2|)/sqrt(2)
            return float((abs(x[0]) - abs(x[1])) / np.sqrt(2.0))
        if self.kind == "full-space":
            r0 = float(self.params.get("exclude_radius", 0.0))
            if r0 > 0:
                return float(np.linalg.norm(x) - r0)
            return np.inf
        return np.inf  # torus

    def contains(self, x: np.ndarray) -> bool:
        return self.boundary_distance(x) >= self.margin

    def require(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not self.contains(x):
            raise OutOfDomain(
                f"point {x} outside {self.kind} domain interior (margin {self.margin})"
            )
        return x

    # -- sampling -----------------------------------------------------------

    def sample(self, count: int, seed: int, extent: float | None = None) -> np.ndarray:
        """Deterministic interior samples, shape (count, n).

        ``extent`` shrinks or clips the sampled region:
          ball       -- max radius (default radius - margin)
          box        -- no effect (bounds already finite)
          half-space / cone / full-space -- coordinate cap (default 2.0)
        """
        rng = np.random.default_rng(seed)
        out = np.empty((count, self.n))
        cap = 2.0 if extent is None else float(extent)
        filled = 0
        guard = 0
        while filled < count:
            guard += 1
            if guard > 1000:
                raise BadParams("sampler failed to find interior points")
            block = self._propose(rng, count, cap)
            for row in block:
                if self.contains(row):
                    out[filled] = row
                    filled += 1
                    if filled == count:
                        break
        return out

    def _propose(self, rng: np.random.Generator, count: int, cap: float) -> np.ndarray:
        if self.kind == "box":
            bounds = np.asarray(self.params["bounds"], dtype=float)
            lo = bounds[:, 0] + self.margin
            hi = bounds[:, 1] - self.margin
            return rng.uniform(lo, hi, size=(count, self.n))
        if self.kind == "ball":
            r = float(self.params["radius"])
            rmax = min(cap, r - self.margin) if cap < r else r - self.margin
            z = rng.normal(size=(count, self.n))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            radii = rmax * rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / self.n)
            return z * radii
        if self.kind == "half-space":
            axes = self.params.get("axes", tuple(range(self.n)))
            block = rng.uniform(-cap, cap, size=(count, self.n))
            for a in axes:
                block[:, a] = rng.uniform(2 * self.margin + 0.05, cap, size=count)
            return block
        if self.kind == "cone":
            x1 = rng.uniform(0.5, cap + 0.5, size=count)
            frac = rng.uniform(-0.8, 0.8, size=count)
            x2 = frac * (x1 - np.sqrt(2.0) * self.margin - 0.05)
            return np.stack([x1, x2], axis=1)
        if self.kind == "full-space":
            r0 = float(self.params.get("exclude_radius", 0.0))
            z = rng.normal(size=(count, self.n))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            radii = rng.uniform(r0 + self.margin + 0.05, cap, size=(count, 1))
            return z * radii
        return rng.uniform(0.0, 1.0, size=(count, self.n))  # torus
