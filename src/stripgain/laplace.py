"""Bilateral Laplace transforms of two-sided exponential-polynomial signals.

A signal is a finite sum of terms c * t^k * e^(a t) supported on t > 0
(causal) or t <= 0 (anticausal).  The transform of each term is a rational
function together with a half-plane of convergence; a signal transforms only
when the intersection of those half-planes is a nonempty open vertical band.
The inverse direction is driven entirely by which side of the chosen band
each pole lies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInput,
    NoCommonROC,
    PoleInROC,
    Unsupported,
)
from .rational import (
    PartialFractionTerm,
    Polynomial,
    RationalFunction,
    _real,
    partial_fractions,
    recombine,
)
from .regions import Strip, _on_band

CAUSAL = "causal"
ANTICAUSAL = "anticausal"


@dataclass(frozen=True)
class ROC:
    """Open vertical band re_lo < Re(s) < re_hi; either bound may be infinite."""

    re_lo: float
    re_hi: float

    def __post_init__(self):
        if math.isnan(self.re_lo) or math.isnan(self.re_hi):
            raise InvalidInput("ROC bounds must not be NaN")
        if not self.re_lo < self.re_hi:
            raise InvalidInput(
                "ROC requires re_lo < re_hi, got [%g, %g]" % (self.re_lo, self.re_hi)
            )

    @classmethod
    def from_strip(cls, strip: Strip) -> "ROC":
        """Band of real parts swept by the strip's rates."""
        return cls(-strip.hi, -strip.lo)

    def to_strip(self) -> Strip:
        """Rate interval of a finite, nonpositive band (inverse of from_strip)."""
        if not (math.isfinite(self.re_lo) and math.isfinite(self.re_hi)):
            raise InvalidInput("half-plane ROC has no finite rate interval")
        if self.re_hi > 0:
            raise InvalidInput("ROC crossing Re(s) > 0 maps to a negative rate")
        return Strip(-self.re_hi, -self.re_lo)

    def contains(self, x: float) -> bool:
        return self.re_lo < x < self.re_hi


@dataclass(frozen=True)
class SignalTerm:
    """One piece c * t^power * e^(rate * t) on a single side of t = 0."""

    coefficient: complex
    power: int
    rate: complex
    side: str

    def __post_init__(self):
        if self.side not in (CAUSAL, ANTICAUSAL):
            raise InvalidInput("side must be %r or %r" % (CAUSAL, ANTICAUSAL))
        if not isinstance(self.power, int) or self.power < 0:
            raise InvalidInput("power must be a nonnegative integer")
        c = complex(self.coefficient)
        a = complex(self.rate)
        for z in (c, a):
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise InvalidInput("term parameters must be finite")


@dataclass(frozen=True)
class SignalSpec:
    """Finite two-sided exponential-polynomial signal."""

    terms: tuple[SignalTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if not isinstance(t, SignalTerm):
                raise InvalidInput("SignalSpec terms must be SignalTerm instances")

    def side_terms(self, side: str) -> tuple[SignalTerm, ...]:
        return tuple(t for t in self.terms if t.side == side)


@dataclass(frozen=True)
class LaplacePair:
    """Transform F together with its open band of convergence."""

    F: RationalFunction
    roc: ROC


def forward(spec: SignalSpec) -> LaplacePair:
    """Bilateral transform of a signal.

    Each causal term c t^k e^(a t) maps to c k! / (s - a)^(k+1) converging
    for Re(s) > Re(a); an anticausal term maps to the negated image
    converging for Re(s) < Re(a).  Complex rates must appear in conjugate
    pairs so the combined transform has real coefficients.
    """
    if not isinstance(spec, SignalSpec):
        raise InvalidInput("forward expects a SignalSpec")
    lo = -math.inf
    hi = math.inf
    pf_terms: list[PartialFractionTerm] = []
    for t in spec.terms:
        a = complex(t.rate)
        c = complex(t.coefficient)
        if c == 0:
            continue
        image = c * math.factorial(t.power)
        if t.side == CAUSAL:
            lo = max(lo, a.real)
        else:
            hi = min(hi, a.real)
            image = -image
        pf_terms.append(
            PartialFractionTerm(pole=a, order=t.power + 1, coefficient=image)
        )
    if not lo < hi:
        raise NoCommonROC(
            "causal terms require Re(s) > %g while anticausal terms require "
            "Re(s) < %g" % (lo, hi)
        )
    F = recombine(Polynomial((0.0,)), pf_terms)
    return LaplacePair(F, ROC(lo, hi))


def roc_options(F: RationalFunction) -> tuple[ROC, ...]:
    """All maximal pole-free vertical bands of F, left to right.

    The poles are those partial_fractions expands on (and inverse
    classifies).  A real part on the line of the one before it, by the rule
    of regions._on_band applied, as inverse applies it, to the real parts of
    all the expansion's terms, lies on the same line, so a band runs from
    the largest real part of one line to the smallest of the next; a
    pole-free F yields the whole plane.
    """
    if not isinstance(F, RationalFunction):
        raise InvalidInput("roc_options expects a RationalFunction")
    terms = np.array([t.pole.real for t in partial_fractions(F)[1]])
    re = np.unique(terms)
    if not re.size:
        return (ROC(-math.inf, math.inf),)
    lines = -re[:-1, None]
    new_line = ~(_on_band(terms, lines, lines)[1] & (terms > -lines)).any(axis=1)
    los = [-math.inf, *re[np.r_[new_line, True]].tolist()]
    his = [*re[np.r_[True, new_line]].tolist(), math.inf]
    return tuple(ROC(lo, hi) for lo, hi in zip(los, his))


def inverse(F: RationalFunction, roc: ROC) -> SignalSpec:
    """Invert a strictly proper transform on a chosen band.

    A pole on or left of the band's left edge contributes a causal term, a
    pole on or right of its right edge an anticausal term with negated
    coefficient, "on" by the rule of regions._on_band (a pole on both edges
    of a narrow band is causal); a pole inside the band raises PoleInROC.
    Non-strictly-proper inputs would need impulsive terms and are rejected.
    """
    if not isinstance(F, RationalFunction):
        raise InvalidInput("inverse expects a RationalFunction")
    if not isinstance(roc, ROC):
        raise InvalidInput("inverse expects an ROC")
    if not F.is_strictly_proper:
        raise Unsupported(
            "only strictly proper transforms invert to exponential-polynomial "
            "signals; remove the polynomial part first"
        )
    _, terms = partial_fractions(F)
    re = np.array([t.pole.real for t in terms])
    # the rate intervals [-re_lo, inf] and [-inf, -re_hi] are the closed
    # half planes Re s <= re_lo and Re s >= re_hi
    left = _on_band(re, -roc.re_lo, math.inf)[1].tolist()
    right = _on_band(re, -math.inf, -roc.re_hi)[1].tolist()
    out: list[SignalTerm] = []
    for term, causal, anticausal in zip(terms, left, right):
        if not (causal or anticausal):
            raise PoleInROC(
                "pole %s lies inside the band Re(s) in (%g, %g)"
                % (term.pole, roc.re_lo, roc.re_hi)
            )
        c = term.coefficient / math.factorial(term.order - 1)
        if not causal:
            c = -c
        out.append(
            SignalTerm(
                coefficient=c,
                power=term.order - 1,
                rate=term.pole,
                side=CAUSAL if causal else ANTICAUSAL,
            )
        )
    out.sort(key=lambda t: (t.side, t.rate.real, t.rate.imag, t.power))
    return SignalSpec(tuple(out))


def eval_signal(spec: SignalSpec, t: float) -> float:
    """Pointwise value of a signal; at t = 0 the average of the two one-sided
    limits is returned."""
    if not isinstance(spec, SignalSpec):
        raise InvalidInput("eval_signal expects a SignalSpec")
    if not math.isfinite(t):
        raise InvalidInput("t must be finite")
    if t == 0.0:
        right = sum(
            (complex(q.coefficient) for q in spec.side_terms(CAUSAL) if q.power == 0),
            0j,
        )
        left = sum(
            (complex(q.coefficient) for q in spec.side_terms(ANTICAUSAL) if q.power == 0),
            0j,
        )
        total = 0.5 * (right + left)
        scale = max(abs(right), abs(left))
    else:
        total = 0j
        scale = 0.0
        for q in spec.side_terms(CAUSAL if t > 0 else ANTICAUSAL):
            val = complex(q.coefficient) * (t ** q.power) * np.exp(complex(q.rate) * t)
            total += val
            scale = max(scale, abs(val))
    message = "signal value is not real; complex terms are not conjugate-closed"
    return float(_real(total, scale, message))
