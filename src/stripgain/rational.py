"""Polynomials and scalar rational functions.

Coefficients are stored in ascending order (c[k] multiplies s**k), real only.
Rational functions are normalized to a monic denominator on construction and
near-common roots are cancelled best effort; a cancellation is kept only when
it provably leaves evaluations unchanged to within TAU_EVAL relative, and the
cancelled roots are recorded on the instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
import numpy.polynomial.polynomial as npp

from . import matkernel
from .errors import InvalidInput, NumericalFailure

TAU_ROOT = 1e-8
TAU_GCD = 1e-9
TAU_EVAL = 1e-9

# relative tolerance for merging nearly equal denominator roots into one
# higher-order pole; companion-matrix roots of an m-fold root scatter by
# roughly eps**(1/m), so this covers double and triple poles at desk scale
CLUSTER_TOL = 1e-6


def _trimmed(coeffs: Iterable[float]) -> tuple[float, ...]:
    vals = [float(c) for c in coeffs]
    if not vals:
        raise InvalidInput("coefficient list must be non-empty")
    for c in vals:
        if not math.isfinite(c):
            raise InvalidInput("coefficients must be finite")
    while len(vals) > 1 and vals[-1] == 0.0:
        vals.pop()
    return tuple(vals)


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial in ascending coefficient order."""

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Iterable[float]):
        object.__setattr__(self, "coeffs", _trimmed(coeffs))

    @classmethod
    def from_computed(cls, coeffs: Sequence[float], rel_tol: float = 1e-11) -> "Polynomial":
        """Build from computed data, trimming leading coefficients that are
        pure rounding noise relative to the largest coefficient."""
        arr = [float(c) for c in coeffs]
        top = max((abs(c) for c in arr), default=0.0)
        if top > 0:
            while len(arr) > 1 and abs(arr[-1]) <= rel_tol * top:
                arr.pop()
        return cls(arr)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    @property
    def lead(self) -> float:
        return self.coeffs[-1]

    def __call__(self, s):
        return npp.polyval(s, self.coeffs)

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0.0,))
        return Polynomial(npp.polyder(self.coeffs))

    def scale(self, c: float) -> "Polynomial":
        return Polynomial(np.asarray(self.coeffs) * float(c))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(npp.polymul(self.coeffs, other.coeffs))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(npp.polyadd(self.coeffs, other.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(npp.polysub(self.coeffs, other.coeffs))

    def __neg__(self) -> "Polynomial":
        return self.scale(-1.0)

    def __repr__(self):
        return "Polynomial(%r)" % (list(self.coeffs),)


def poly_roots(p: Polynomial | Sequence[float]) -> np.ndarray:
    """All complex roots of p via companion-matrix eigenvalues.

    Each returned root r is verified against the backward-error model: a
    stable eigensolve returns exact roots of a polynomial with coefficients
    perturbed by O(eps * norm), so |p(r)| may legitimately reach
    TAU_ROOT * (1 + coefficient norm) * max(1, |r|)^degree.  A residual
    beyond that means the companion eigensolve went wrong and raises
    NumericalFailure rather than returning junk.
    """
    poly = p if isinstance(p, Polynomial) else Polynomial(p)
    if poly.is_zero:
        raise InvalidInput("the zero polynomial has no well-defined root set")
    n = poly.degree
    if n == 0:
        return np.zeros(0, dtype=complex)
    monic = np.asarray(poly.coeffs) / poly.lead
    comp = np.zeros((n, n))
    if n > 1:
        comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = -monic[:-1]
    roots = matkernel.eig(comp)
    scale = 1.0 + float(np.linalg.norm(poly.coeffs))
    allowed = TAU_ROOT * scale * np.maximum(1.0, np.abs(roots)) ** n
    resid = np.abs(poly(roots))
    if resid.size and (resid > allowed).any():
        k = int(np.argmax(resid / allowed))
        raise NumericalFailure(
            "root residual %.3e exceeds %.3e" % (resid[k], allowed[k])
        )
    return roots


def _poly_from_roots(roots: Sequence[complex], lead: float) -> Polynomial:
    """Real polynomial with the given (conjugate-closed) root multiset."""
    if len(roots) == 0:
        return Polynomial((lead,))
    coeffs = npp.polyfromroots(np.asarray(roots, dtype=complex)) * lead
    return Polynomial(coeffs.real)


class RationalFunction:
    """Ratio of two real polynomials, monic denominator."""

    def __init__(self, num, den):
        num_p = num if isinstance(num, Polynomial) else Polynomial(num)
        den_p = den if isinstance(den, Polynomial) else Polynomial(den)
        if den_p.is_zero:
            raise InvalidInput("denominator must not be the zero polynomial")
        if num_p.is_zero:
            self.num = Polynomial((0.0,))
            self.den = Polynomial((1.0,))
            self.cancelled: tuple[complex, ...] = ()
            return
        scale = 1.0 / den_p.lead
        self.num, self.den, self.cancelled, poles = _reduce(num_p.scale(scale), den_p.scale(scale))
        if poles is not None:
            poles.setflags(write=False)
            self.__dict__["poles"] = poles  # fills the cached property below

    @property
    def num_degree(self) -> int:
        return self.num.degree

    @property
    def den_degree(self) -> int:
        return self.den.degree

    @property
    def is_proper(self) -> bool:
        return self.num.degree <= self.den.degree

    @property
    def is_strictly_proper(self) -> bool:
        return self.is_zero or self.num.degree < self.den.degree

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @cached_property
    def poles(self) -> np.ndarray:
        """Denominator roots sorted by (real, imag), read-only."""
        roots = poly_roots(self.den) if self.den.degree else np.zeros(0, dtype=complex)
        roots.setflags(write=False)
        return roots

    def eval_unchecked(self, s):
        """Evaluate num(s) / den(s), vectorized, with no check of the distance to a pole."""
        return self.num(s) / self.den(s)

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return RationalFunction(self.num * other.num, self.den * other.den)
        return RationalFunction(self.num.scale(float(other)), self.den)

    __rmul__ = __mul__

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __repr__(self):
        return "RationalFunction(num=%r, den=%r)" % (
            list(self.num.coeffs),
            list(self.den.coeffs),
        )


def _sample_points(num: Polynomial, den: Polynomial) -> np.ndarray:
    radius = 2.0
    for poly in (num, den):
        if poly.degree >= 1:
            monic = np.asarray(poly.coeffs) / poly.lead
            # Cauchy bound on root magnitudes
            radius = max(radius, 1.0 + float(np.max(np.abs(monic[:-1]))))
    angles = 0.37 + np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    return 2.0 * radius * np.exp(1j * angles)


def _reduce(num: Polynomial, den: Polynomial):
    """Cancel near-common roots if doing so is evaluation-neutral; returns
    (num, den, cancelled roots, roots of that den or None if not computed)."""
    if num.degree == 0 or den.degree == 0:
        return num, den, (), None
    roots = poly_roots(den)
    # A root of num that poly_roots accepts within TAU_GCD (1 + |r|) of a pole r
    # leaves |num(r)| below its residual gate, plus that distance times |num'|
    # and the rounding of num(r): at most `gate` (m = deg num, size ~ |c|_1).
    m, size = num.degree, 1.0 + float(np.abs(num.coeffs).sum())
    reach = np.maximum(1.0, np.abs(roots) + TAU_GCD * (1.0 + np.abs(roots)))
    gate = (TAU_ROOT + 2 * m * (TAU_GCD + np.finfo(float).eps)) * size * reach**m
    if (np.abs(num(roots)) > gate).all():  # then nothing can cancel
        return num, den, (), roots
    keep_n = list(poly_roots(num))
    keep_d = []
    cancelled = []
    for r in roots:
        hit = None
        for k, z in enumerate(keep_n):
            if abs(z - r) <= TAU_GCD * (1.0 + abs(r)):
                hit = k
                break
        if hit is None:
            keep_d.append(r)
        else:
            keep_n.pop(hit)
            cancelled.append(r)
    if not cancelled:
        return num, den, (), roots
    new_num = _poly_from_roots(keep_n, num.lead)
    new_den = _poly_from_roots(keep_d, den.lead)
    pts = _sample_points(num, den)
    ref = num(pts) / den(pts)
    red = new_num(pts) / new_den(pts)
    if np.all(np.abs(red - ref) <= TAU_EVAL * (1.0 + np.abs(ref))):
        return new_num, new_den, tuple(cancelled), np.array(keep_d, dtype=complex)
    return num, den, (), roots


@dataclass(frozen=True)
class PartialFractionTerm:
    """Single term coefficient / (s - pole)**order."""

    pole: complex
    order: int
    coefficient: complex


def _cluster_roots(roots: np.ndarray) -> list[tuple[complex, int]]:
    """Group nearly equal roots into (value, multiplicity) pairs."""
    remaining = list(roots)
    clusters: list[list[complex]] = []
    while remaining:
        seed = remaining.pop(0)
        group = [seed]
        tol = CLUSTER_TOL * (1.0 + abs(seed))
        others = []
        for z in remaining:
            if abs(z - seed) <= tol:
                group.append(z)
            else:
                others.append(z)
        remaining = others
        clusters.append(group)
    out = []
    for group in clusters:
        centre = sum(group) / len(group)
        if abs(centre.imag) <= CLUSTER_TOL * (1.0 + abs(centre)):
            centre = complex(centre.real, 0.0)
        out.append((centre, len(group)))
    return out


def _conjugate_pair_up(clusters: list[tuple[complex, int]]) -> list[tuple[complex, int]]:
    """Force exact conjugate symmetry on the clustered pole set."""
    done: list[tuple[complex, int]] = []
    pending = clusters[:]
    while pending:
        pole, mult = pending.pop(0)
        if pole.imag == 0.0:
            done.append((pole, mult))
            continue
        mate = None
        for k, (q, qm) in enumerate(pending):
            if qm == mult and abs(q - pole.conjugate()) <= CLUSTER_TOL * (1.0 + abs(pole)):
                mate = k
                break
        if mate is None:
            # unmatched complex cluster: treat as-is (can happen only for
            # nearly-real poles that rounded to opposite sides)
            done.append((pole, mult))
            continue
        q, qm = pending.pop(mate)
        avg = 0.5 * (pole + q.conjugate())
        if avg.imag < 0:
            avg = avg.conjugate()
        done.append((avg, mult))
        done.append((avg.conjugate(), mult))
    return done


def _deflate(coeffs: np.ndarray, root: complex, times: int) -> np.ndarray:
    """Divide a polynomial by (s - root) repeatedly via synthetic division."""
    work = np.asarray(coeffs, dtype=complex)
    for _ in range(times):
        n = len(work) - 1
        out = np.zeros(n, dtype=complex)
        acc = work[n]
        for k in range(n - 1, -1, -1):
            out[k] = acc
            acc = work[k] + acc * root
        work = out
    return work


def _taylor(coeffs: np.ndarray, centre: complex, count: int) -> np.ndarray:
    """First `count` Taylor coefficients of the polynomial about centre."""
    p = np.polynomial.Polynomial(np.asarray(coeffs, dtype=complex))
    shifted = p(np.polynomial.Polynomial([centre, 1.0]))
    out = np.zeros(count, dtype=complex)
    take = min(count, len(shifted.coef))
    out[:take] = shifted.coef[:take]
    return out


def partial_fractions(G: RationalFunction):
    """Split G into a polynomial part plus first-and-higher-order pole terms.

    Returns (poly_part, terms).  Repeated poles give one term per order from
    1 up to the multiplicity; complex poles of a real G appear in conjugate
    pairs with conjugate coefficients.
    """
    if G.is_zero:
        return Polynomial((0.0,)), []
    if G.den.degree == 0:
        return G.num, []
    quot, rem = npp.polydiv(G.num.coeffs, G.den.coeffs)
    poly_part = Polynomial.from_computed(quot)
    rem_poly = Polynomial.from_computed(rem)
    if rem_poly.is_zero:
        return poly_part, []
    clusters = _conjugate_pair_up(_cluster_roots(G.poles))
    terms: list[PartialFractionTerm] = []
    handled: set[int] = set()
    den_arr = np.asarray(G.den.coeffs, dtype=complex)
    for idx, (pole, mult) in enumerate(clusters):
        if idx in handled:
            continue
        handled.add(idx)
        conj_idx = None
        if pole.imag != 0.0:
            for j, (q, qm) in enumerate(clusters):
                if j not in handled and qm == mult and q == pole.conjugate():
                    conj_idx = j
                    break
        q_coeffs = _deflate(den_arr, pole, mult)
        num_taylor = _taylor(np.asarray(rem_poly.coeffs, dtype=complex), pole, mult)
        q_taylor = _taylor(q_coeffs, pole, mult)
        if abs(q_taylor[0]) == 0.0:
            raise NumericalFailure(
                "pole clustering failed near %s; deflated denominator vanishes" % pole
            )
        h = np.zeros(mult, dtype=complex)
        for j in range(mult):
            acc = num_taylor[j]
            for i in range(j):
                acc -= h[i] * q_taylor[j - i]
            h[j] = acc / q_taylor[0]
        for j in range(mult):
            coeff = h[j]
            order = mult - j
            if pole.imag == 0.0:
                coeff = complex(coeff.real, 0.0) if abs(coeff.imag) <= 1e-9 * (1 + abs(coeff)) else coeff
            terms.append(PartialFractionTerm(pole=pole, order=order, coefficient=coeff))
            if conj_idx is not None:
                terms.append(
                    PartialFractionTerm(
                        pole=pole.conjugate(), order=order, coefficient=coeff.conjugate()
                    )
                )
        if conj_idx is not None:
            handled.add(conj_idx)
    terms.sort(key=lambda t: (t.pole.real, t.pole.imag, t.order))
    return poly_part, terms


def recombine(poly_part: Polynomial, terms: Sequence[PartialFractionTerm]) -> RationalFunction:
    """Sum a partial-fraction expansion back into a single rational function."""
    den = Polynomial((1.0,))
    seen: list[tuple[complex, int]] = []
    for t in terms:
        for k, (pole, order) in enumerate(seen):
            if pole == t.pole:
                seen[k] = (pole, max(order, t.order))
                break
        else:
            seen.append((t.pole, t.order))
    full_roots: list[complex] = []
    for pole, order in seen:
        full_roots.extend([pole] * order)
    den_c = npp.polyfromroots(np.asarray(full_roots, dtype=complex)) if full_roots else np.ones(1, dtype=complex)
    num_c = np.zeros(1, dtype=complex)
    term_scale = max(1.0, float(np.max(np.abs(den_c))))
    for t in terms:
        rest: list[complex] = []
        for pole, order in seen:
            count = order - (t.order if pole == t.pole else 0)
            rest.extend([pole] * count)
        part = npp.polyfromroots(np.asarray(rest, dtype=complex)) if rest else np.ones(1, dtype=complex)
        summand = t.coefficient * part
        term_scale = max(term_scale, float(np.max(np.abs(summand))))
        num_c = npp.polyadd(num_c, summand)
    num_c = npp.polyadd(num_c, npp.polymul(np.asarray(poly_part.coeffs, dtype=complex), den_c))
    imag_scale = max(1.0, float(np.max(np.abs(num_c))), float(np.max(np.abs(den_c))))
    if max(float(np.max(np.abs(num_c.imag))), float(np.max(np.abs(den_c.imag)))) > 1e-8 * imag_scale:
        raise NumericalFailure("recombined expansion is not real; conjugate terms missing")
    # When the summed numerator genuinely drops degree, its top coefficients
    # cancel down to roundoff left over from large intermediate summands, so
    # the noise floor scales with the biggest residue-times-product magnitude
    # seen above, not with the surviving numerator entries.
    noise = 1e-12 * term_scale * max(1, len(terms))
    num_r = np.array(num_c.real)
    while num_r.size > 1 and abs(num_r[-1]) <= noise:
        num_r = num_r[:-1]
    return RationalFunction(
        Polynomial.from_computed(num_r, rel_tol=1e-12),
        Polynomial.from_computed(den_c.real, rel_tol=1e-12),
    )
