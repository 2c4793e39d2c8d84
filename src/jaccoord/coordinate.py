"""Coordinate decision: iterated face reduction, witnesses, and inverses.

A witness is an ordered list of elementary automorphisms whose composition
Phi satisfies P o Phi = x.  Each reduction step reads the hypotenuse face of
the current polynomial; when the face is C*(y^q - a*x^p)^m with p = 1 or
q = 1, one triangular substitution strictly lowers degx + degy.  The
certificate is checked without replaying the reduction: Phi^-1 is rebuilt
from the closed-form inverses of the steps, and x o Phi^-1 must equal P.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple, Union

from .qpoly import RAT_ONE, RAT_ZERO, BiPoly, InputTooLarge, UniPoly, jacobian_det, rat, substitute
from .newton import (
    FaceForm,
    FaceNotBinomialPower,
    PolygonNotTriangle,
    face_binomial_power,
    triangle_face,
)

DEGREE_GUARD = 512  # bound on degx + degy during reduction


class InternalVerificationFailure(RuntimeError):
    """A certificate or internal invariant failed; never report a wrong answer."""


# ---------------------------------------------------------------------------
# elementary automorphisms


@dataclass(frozen=True)
class Linear:
    """(x, y) -> (a x + b y + e, c x + d y + f) with a d - b c != 0."""

    a: object
    b: object
    c: object
    d: object
    e: object
    f: object

    def det(self):
        return self.a * self.d - self.b * self.c

    def components(self) -> Tuple[BiPoly, BiPoly]:
        return (
            BiPoly({(1, 0): self.a, (0, 1): self.b, (0, 0): self.e}),
            BiPoly({(1, 0): self.c, (0, 1): self.d, (0, 0): self.f}),
        )

    def inverse(self) -> "Linear":
        det = self.det()
        ia, ib = self.d / det, -self.b / det
        ic, id_ = -self.c / det, self.a / det
        return Linear(
            ia, ib, ic, id_, -(ia * self.e + ib * self.f), -(ic * self.e + id_ * self.f)
        )


@dataclass(frozen=True)
class TriangularY:
    """(x, y) -> (x, y + phi(x))."""

    phi: UniPoly

    def components(self) -> Tuple[BiPoly, BiPoly]:
        return BiPoly.var_x(), BiPoly.var_y() + self.phi.to_bipoly("x")

    def inverse(self) -> "TriangularY":
        return TriangularY(-self.phi)


@dataclass(frozen=True)
class TriangularX:
    """(x, y) -> (x + psi(y), y)."""

    psi: UniPoly

    def components(self) -> Tuple[BiPoly, BiPoly]:
        return BiPoly.var_x() + self.psi.to_bipoly("y"), BiPoly.var_y()

    def inverse(self) -> "TriangularX":
        return TriangularX(-self.psi)


ElementaryAuto = Union[Linear, TriangularY, TriangularX]


def compose_step(P: BiPoly, step: ElementaryAuto) -> BiPoly:
    """P o step, i.e. substitute the step components into P."""
    sx, sy = step.components()
    return substitute(P, sx, sy)


@dataclass(frozen=True)
class Witness:
    """Phi = steps[0] o steps[1] o ... o steps[-1]; P o Phi = x."""

    steps: Tuple[ElementaryAuto, ...]


def invert(W: Witness) -> Witness:
    """Phi^-1: steps reversed, each step inverted in closed form."""
    return Witness(tuple(s.inverse() for s in reversed(W.steps)))


def apply_witness(W: Witness) -> Tuple[BiPoly, BiPoly]:
    """The polynomial pair (x o Phi, y o Phi) of the map Phi, each
    component folded through the steps by apply_witness_to, so that every
    substitution puts one small step into one growing polynomial."""
    return apply_witness_to(BiPoly.var_x(), W), apply_witness_to(BiPoly.var_y(), W)


def apply_witness_to(P: BiPoly, W: Witness) -> BiPoly:
    """P o Phi, folded step by step (cheap even at high degree)."""
    for step in W.steps:
        P = compose_step(P, step)
    return P


# ---------------------------------------------------------------------------
# obstructions and verdicts


@dataclass(frozen=True)
class FaceExponentsBothExceedOne:
    kind = "FaceExponentsBothExceedOne"
    p: int = 0
    q: int = 0


@dataclass(frozen=True)
class UnivariateNonlinear:
    kind = "UnivariateNonlinear"
    var: str = "x"
    deg: int = 0


@dataclass(frozen=True)
class ConstantPolynomial:
    kind = "ConstantPolynomial"


Obstruction = Union[
    PolygonNotTriangle,
    FaceNotBinomialPower,
    FaceExponentsBothExceedOne,
    UnivariateNonlinear,
    ConstantPolynomial,
]


@dataclass(frozen=True)
class Coordinate:
    outcome = "coordinate"
    witness: Witness
    complement: BiPoly
    jac: object


@dataclass(frozen=True)
class NotCoordinate:
    outcome = "not_coordinate"
    obstruction: Obstruction
    at_stage: BiPoly


CoordinateVerdict = Union[Coordinate, NotCoordinate]


# ---------------------------------------------------------------------------
# reduction


@dataclass(frozen=True)
class ReduceSuccess:
    step: ElementaryAuto
    next: BiPoly
    face: FaceForm


def reduce_step(P: BiPoly) -> Union[ReduceSuccess, Obstruction]:
    """One face reduction; requires degx, degy >= 1 and total degree >= 2.

    q = 1 kills the hypotenuse via y -> y + a x^p (degx drops); p = 1 (with
    q > 1) via x -> x + y^q / a (degy drops).  The tie p = q = 1 takes the
    TriangularY branch for determinism.
    """
    tf = triangle_face(P)
    if isinstance(tf, PolygonNotTriangle):
        return tf
    ff = face_binomial_power(tf)
    if isinstance(ff, FaceNotBinomialPower):
        return ff
    if ff.p != 1 and ff.q != 1:
        return FaceExponentsBothExceedOne(p=ff.p, q=ff.q)
    if ff.q == 1:
        step: ElementaryAuto = TriangularY(UniPoly.monomial(ff.a, ff.p))
    else:
        step = TriangularX(UniPoly.monomial(RAT_ONE / ff.a, ff.q))
    return ReduceSuccess(step=step, next=compose_step(P, step), face=ff)


def _final_linear(P: BiPoly) -> Linear:
    """A linear step L with (alpha x + beta y + gamma) o L = x."""
    alpha, beta, gamma = P.coeff(1, 0), P.coeff(0, 1), P.constant_term()
    if alpha != 0:
        a = RAT_ONE / alpha
        b = -beta / alpha
        return Linear(a, b, RAT_ZERO, RAT_ONE, -gamma / alpha, RAT_ZERO)
    # alpha = 0, beta != 0: route x through the second slot
    return Linear(RAT_ZERO, RAT_ONE, RAT_ONE / beta, RAT_ZERO, RAT_ZERO, -gamma / beta)


def check(P: BiPoly) -> CoordinateVerdict:
    """Decide coordinacy; certify with a witness or a checked obstruction.

    A witness is certified by the exact identity x o Phi^-1 = P, where
    Phi^-1 comes from the closed-form step inverses, and by a nonzero
    constant Jacobian of P and the complement y o Phi^-1.
    """
    steps: List[ElementaryAuto] = []
    cur = P
    while True:
        if cur.is_constant():
            return NotCoordinate(ConstantPolynomial(), cur)
        if cur.total_degree() == 1:
            steps.append(_final_linear(cur))
            break
        dx, dy = cur.degx, cur.degy
        if dx == 0:
            return NotCoordinate(UnivariateNonlinear(var="y", deg=dy), cur)
        if dy == 0:
            return NotCoordinate(UnivariateNonlinear(var="x", deg=dx), cur)
        if dx + dy > DEGREE_GUARD:
            raise InputTooLarge(
                f"degree guard exceeded: degx+degy = {dx + dy} > {DEGREE_GUARD}"
            )
        r = reduce_step(cur)
        if not isinstance(r, ReduceSuccess):
            return NotCoordinate(r, cur)
        steps.append(r.step)
        cur = r.next
    witness = Witness(tuple(steps))
    X, complement = apply_witness(invert(witness))
    if X != P:
        raise InternalVerificationFailure("x o Phi^-1 does not reproduce P")
    jac = jacobian_det(P, complement)
    if not jac.is_constant() or jac.is_zero():
        raise InternalVerificationFailure("jacobian of certified pair not constant")
    return Coordinate(witness=witness, complement=complement, jac=jac.constant_term())


# ---------------------------------------------------------------------------
# random coordinate generator (closed-loop test oracle)


def _rand_rat(rng: random.Random, bound: int, nonzero=False):
    while True:
        num = rng.randint(-bound, bound)
        if nonzero and num == 0:
            continue
        den = rng.randint(1, bound)
        return rat(num, den)


def _rand_unipoly(rng: random.Random, max_deg: int, bound: int) -> UniPoly:
    deg = rng.randint(1, max_deg)
    coeffs = [_rand_rat(rng, bound) for _ in range(deg)]
    coeffs.append(_rand_rat(rng, bound, nonzero=True))
    return UniPoly(coeffs)


def _rand_linear(rng: random.Random, bound: int) -> Linear:
    while True:
        a, b, c, d = (_rand_rat(rng, bound) for _ in range(4))
        if a * d - b * c != 0:
            return Linear(a, b, c, d, _rand_rat(rng, bound), _rand_rat(rng, bound))


def gen_random_coordinate(
    seed: int, steps: int, max_step_deg: int, coeff_bound: int
) -> Tuple[BiPoly, Witness]:
    """Deterministic coordinate polynomial with a ground-truth witness.

    Draws `steps` triangular steps interleaved with invertible linear steps,
    forming an automorphism Phi; returns P = x o Phi^-1 and the witness Phi,
    so that P o Phi = x.  deg P <= max_step_deg ** steps.
    """
    if steps < 1 or max_step_deg < 1 or coeff_bound < 1:
        raise ValueError("steps and bounds must be >= 1")
    rng = random.Random(seed)
    parts: List[ElementaryAuto] = [_rand_linear(rng, coeff_bound)]
    for k in range(steps):
        phi = _rand_unipoly(rng, max_step_deg, coeff_bound)
        if rng.random() < 0.5:
            parts.append(TriangularY(phi))
        else:
            parts.append(TriangularX(phi))
        parts.append(_rand_linear(rng, coeff_bound))
    w_truth = Witness(tuple(parts))
    return apply_witness_to(BiPoly.var_x(), invert(w_truth)), w_truth
