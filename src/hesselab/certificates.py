"""Sign certificates produced by curvature scans."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NONPOSITIVE = "NONPOSITIVE"
NONNEGATIVE = "NONNEGATIVE"
MIXED = "MIXED"
DEGENERATE = "DEGENERATE"


@dataclass
class SignCertificate:
    """Verdict of a sign scan with an extremal witness.

    The witness is stored exactly as the configuration (point, vector pair)
    at which the extremum was located.  It reproduces ``extremal_value`` at
    n = 2, and for HSC_POL at every n, whose value is recomputed from the
    returned unit vector; an n >= 3 pair value comes from the alternating
    search and can differ from its witness's in the last digits.
    """

    verdict: str
    extremal_value: float
    witness_point: np.ndarray
    witness_v: np.ndarray | None
    witness_w: np.ndarray | None
    tolerance: float
    samples_scanned: int
    quantity: str = ""
    extra: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [
            f"quantity = {self.quantity}",
            f"verdict = {self.verdict}",
            f"extremal_value = {self.extremal_value!r}",
            f"tolerance = {self.tolerance!r}",
            f"samples_scanned = {self.samples_scanned}",
            f"witness_point = {_vec(self.witness_point)}",
        ]
        if self.witness_v is not None:
            lines.append(f"witness_v = {_vec(self.witness_v)}")
        if self.witness_w is not None:
            lines.append(f"witness_w = {_vec(self.witness_w)}")
        for k in sorted(self.extra):
            lines.append(f"{k} = {self.extra[k]!r}")
        return "\n".join(lines) + "\n"


def _vec(v: np.ndarray) -> str:
    return " ".join(repr(float(c)) for c in np.asarray(v).ravel())


def verdict_from_extrema(vmax: float, vmin: float, tol: float) -> tuple[str, float]:
    """Classify sign from scanned extrema; returns (verdict, reported extremal value)."""
    if vmax <= tol and vmin >= -tol:
        return DEGENERATE, vmax if abs(vmax) >= abs(vmin) else vmin
    if vmax <= tol:
        return NONPOSITIVE, vmax
    if vmin >= -tol:
        return NONNEGATIVE, vmin
    return MIXED, vmax if abs(vmax) >= abs(vmin) else vmin
