"""Vertical lines and strips of the complex plane, in rate coordinates.

A rate ``lam >= 0`` names the vertical line Re(s) = -lam.  An open interval
of rates (lo, hi) names the open strip -hi < Re(s) < -lo.  Rates are kept
separate from raw real parts on purpose: all analysis routines take rates,
while the Laplace helpers (which allow half planes) work with real parts
directly and convert explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, PoleInStrip, PoleOnLine

# relative distance, 1e-8 * (1 + |Re|), within which a pole or eigenvalue
# counts as sitting on a rate line or a strip boundary
TAU_LINE = 1e-8


def _on_band(eigs, lo: float, hi: float):
    """The one on-line rule, for eigenvalues against the closed rate interval
    [lo, hi] (the band -hi <= Re s <= -lo), on one spectrum or on each row of
    a stack of spectra (..., n): returns (count, near) in the stack's shape,
    the count of eigenvalues right of Re s = -lo and the first eigenvalue
    within TAU_LINE * (1 + |Re|) of the band, or NaN where none is."""
    w = np.asarray(eigs, dtype=complex)
    re = w.real
    count = (re > -lo).sum(axis=-1)
    if not w.shape[-1]:
        return count, np.full(count.shape, np.nan, complex)[()]
    tol = TAU_LINE * (1.0 + np.abs(re))
    on = (re >= -hi - tol) & (re <= -lo + tol)
    first = w.reshape(count.size, -1)[np.arange(count.size), on.reshape(count.size, -1).argmax(1)]
    return count, np.where(on.any(axis=-1), first.reshape(count.shape), np.nan)[()]


def _pole_guard(poles, region: Line | Strip) -> int:
    """Count the poles right of a line or closed strip, rejecting one on it
    by the rule of _on_band."""
    lo, hi = (region.lam, region.lam) if isinstance(region, Line) else (region.lo, region.hi)
    count, near = _on_band(poles, lo, hi)
    if not np.isnan(near):
        if isinstance(region, Line):
            raise PoleOnLine("pole %s lies on the line Re(s) = %g" % (near, -lo))
        raise PoleInStrip(
            "pole %s lies in or on the strip Re(s) in [%g, %g]" % (near, -hi, -lo)
        )
    return int(count)


@dataclass(frozen=True)
class Line:
    """Vertical line Re(s) = -lam for a decay rate lam >= 0."""

    lam: float

    def __post_init__(self):
        if not math.isfinite(self.lam):
            raise InvalidInput("line rate must be finite, got %r" % (self.lam,))
        if self.lam < 0:
            raise InvalidInput("line rate must be >= 0, got %g" % self.lam)

    @property
    def real_part(self) -> float:
        """Real part of every point on the line."""
        return -self.lam


@dataclass(frozen=True)
class Strip:
    """Open vertical strip -hi < Re(s) < -lo given by a rate interval."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvalidInput("strip rates must be finite")
        if not 0 <= self.lo < self.hi:
            raise InvalidInput(
                "strip rates must satisfy 0 <= lo < hi, got (%g, %g)"
                % (self.lo, self.hi)
            )

    @property
    def lower_line(self) -> Line:
        """Boundary line at the smaller rate (right edge of the strip)."""
        return Line(self.lo)

    @property
    def upper_line(self) -> Line:
        """Boundary line at the larger rate (left edge of the strip)."""
        return Line(self.hi)

    def interior_rates(self, count: int) -> list[float]:
        """Equally spaced rates strictly inside the interval."""
        if count < 1:
            return []
        step = (self.hi - self.lo) / (count + 1)
        return [self.lo + step * (k + 1) for k in range(count)]
