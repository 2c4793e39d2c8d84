"""Theorem-level audits over computed fibre data.

relation_check tests 2g = 1 - h, the quantitative consequence of constancy
of the fibre genus.  theorem3_scan samples fibres of P (random values plus
special-value candidates), summarizes their invariants, and cross-checks the
sample data against the coordinate verdict: a non-coordinate whose sampled
fibres all look irreducible of constant genus, with nothing left unknown and
no irrational special values in play, is flagged loudly as a suspected
implementation bug rather than swallowed.

A scan computes the special values, the verdict and one fibre pencil once per
P.  A sample that is not a candidate skips the squarefree and torus tests, for
the reason fibre_report gives, reads its count off the Ruppert pencil and, but
for c = P(0, 0), its polygon, genus, branches and most faces off P itself.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import List, Tuple, Union

from .qpoly import BiPoly, rat
from .coordinate import Coordinate, CoordinateVerdict, check
from .fibre import (
    ConstantInputError,
    FibreReport,
    SpecialValues,
    Unknown,
    _fibre_pencil,
    _ruppert_pencil,
    fibre_report,
    special_value_candidates,
)


def relation_check(g: int, h: int) -> bool:
    """2g == 1 - h; over nonnegative g and positive h this pins (0, 1)."""
    return 2 * g == 1 - h


@dataclass(frozen=True)
class ReducibleFibre:
    kind = "ReducibleFibre"
    c: object


@dataclass(frozen=True)
class GenusJump:
    kind = "GenusJump"
    c1: object
    c2: object


@dataclass(frozen=True)
class Inconclusive:
    kind = "Inconclusive"
    unknown_cs: Tuple


Violation = Union[None, ReducibleFibre, GenusJump, Inconclusive]


@dataclass(frozen=True)
class ScanReport:
    verdict: CoordinateVerdict
    samples: Tuple[FibreReport, ...]
    special_values: SpecialValues
    generic_genus: object  # int | Unknown
    genus_constant_on_known: bool
    all_sampled_irreducible: bool
    generic_branches: object  # int | Unknown
    h_source_c: object  # Rat | None, which sample supplied h
    violation: Violation
    relation_holds_on_known: bool
    theorem_violation_suspected: bool


def _mode_with_source(pairs: List[Tuple[object, object]]):
    """Most frequent value; ties resolved toward the smaller value.  Returns
    (value, sample c that supplied it) or (Unknown, None)."""
    if not pairs:
        return Unknown("NoData"), None
    counts = Counter(v for v, _ in pairs)
    best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    value = best[0]
    source = min(c for v, c in pairs if v == value)
    return value, source


_SAMPLE_POOL = frozenset(rat(a, b) for a in range(-9, 10) for b in range(1, 5))


def theorem3_scan(P: BiPoly, n_random: int = 8, seed: int = 0) -> ScanReport:
    """Sample fibres of P and audit them against the coordinate verdict."""
    if P.is_constant():
        raise ConstantInputError("theorem3_scan needs a nonconstant P")
    if n_random < 1:
        raise ValueError("n_random must be >= 1")
    rng = random.Random(seed)
    sv = special_value_candidates(P)
    cs = set(sv.rational_candidates)
    fresh = _SAMPLE_POOL - cs
    if n_random > len(fresh):
        raise ValueError(
            f"n_random must be <= {len(fresh)}: the values a/b, |a| <= 9,"
            " 1 <= b <= 4, that are not special value candidates"
        )
    while len(cs) < len(sv.rational_candidates) + n_random:
        cs.add(rat(rng.randint(-9, 9), rng.randint(1, 4)))
    report = _fibre_pencil(P, _ruppert_pencil(P))
    samples = tuple(fibre_report(P, c) if c in sv.rational_candidates else report(c) for c in sorted(cs))
    verdict = check(P)

    known_genus = [(s.genus, s.c) for s in samples if not isinstance(s.genus, Unknown)]
    known_branches = [
        (s.branches_at_infinity, s.c)
        for s in samples
        if not isinstance(s.branches_at_infinity, Unknown)
    ]
    generic_genus, _ = _mode_with_source(known_genus)
    generic_branches, h_source_c = _mode_with_source(known_branches)
    genus_constant = len({v for v, _ in known_genus}) <= 1
    all_irreducible = all(s.abs_factor_count == 1 for s in samples)
    unknown_cs = tuple(
        s.c
        for s in samples
        if isinstance(s.genus, Unknown) or isinstance(s.branches_at_infinity, Unknown)
    )

    violation: Violation = None
    reducible = [s for s in samples if s.abs_factor_count > 1]
    if reducible:
        violation = ReducibleFibre(c=min(s.c for s in reducible))
    elif not genus_constant:
        vals = sorted({v for v, _ in known_genus})
        c1 = min(c for v, c in known_genus if v == vals[0])
        c2 = min(c for v, c in known_genus if v == vals[1])
        violation = GenusJump(c1=c1, c2=c2)
    elif not isinstance(verdict, Coordinate) and (unknown_cs or sv.irrational_witnesses):
        # rational sampling cannot rule out special behaviour at the named
        # unknowns or at irrational special values
        violation = Inconclusive(unknown_cs=unknown_cs)

    relation_ok = all(
        relation_check(s.genus, s.branches_at_infinity) for s in samples if s.c not in unknown_cs
    )
    # a coordinate's known fibre data must be rational (g=0, h=1), the
    # theorem's forward direction; a non-coordinate must show a violation
    if isinstance(verdict, Coordinate):
        suspected = not relation_ok or violation is not None
    else:
        suspected = violation is None

    return ScanReport(
        verdict=verdict,
        samples=samples,
        special_values=sv,
        generic_genus=generic_genus,
        genus_constant_on_known=genus_constant,
        all_sampled_irreducible=all_irreducible,
        generic_branches=generic_branches,
        h_source_c=h_source_c,
        violation=violation,
        relation_holds_on_known=relation_ok,
        theorem_violation_suspected=suspected,
    )
