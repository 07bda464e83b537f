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

# relative distance 1e-8 * (1 + |Re|) within which a pole or eigenvalue counts as
# on a rate line or a strip boundary; _on_band adds n u max|w|, an eigensolver's error
TAU_LINE = 1e-8


def _on_band(eigs, lo, hi):
    """The one on-line rule, for eigenvalues against the closed rate interval
    [lo, hi] (the band -hi <= Re s <= -lo), on one spectrum or on each row of
    a stack of spectra (..., n): returns (count, on), the count of
    eigenvalues right of Re s = -lo, of shape (...), and the mask, of shape
    (..., n), of those within TAU_LINE * (1 + |Re|) + n u max|w| (max|w| <= ||A||) of
    the band.  The rates broadcast too: lo and hi of shape (m, 1) give (m,) and (m, n)."""
    re = np.real(eigs)
    scale = np.abs(eigs).max(axis=-1, keepdims=True, initial=0.0)
    tol = TAU_LINE * (1.0 + np.abs(re)) + re.shape[-1] * np.finfo(float).eps * scale
    return (re > -lo).sum(axis=-1), (re >= -hi - tol) & (re <= -lo + tol)


def _rates(region: Line | Strip) -> tuple[float, float]:
    """The closed rate interval (lo, hi) of a line (lo = hi) or a strip."""
    if isinstance(region, Line):
        return region.lam, region.lam
    if isinstance(region, Strip):
        return region.lo, region.hi
    raise InvalidInput("expected a Strip or Line, got %r" % (region,))


def _pole_guard(poles, region: Line | Strip) -> int:
    """Count the poles right of a line or closed strip, rejecting one on it
    by the rule of _on_band."""
    lo, hi = _rates(region)
    count, on = _on_band(poles, lo, hi)
    if on.any():
        if isinstance(region, Line):
            raise PoleOnLine("pole %s lies on the line Re(s) = %g" % (poles[on][0], -lo))
        raise PoleInStrip(
            "pole %s lies in or on the strip Re(s) in [%g, %g]" % (poles[on][0], -hi, -lo)
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
