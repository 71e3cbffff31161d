"""Decision procedures: 1-D canonical forms and isomorphism verdicts, 2-D
family identification and rank-based separation.

Verdicts are three-valued.  Floating point can certify a rational parameter
ratio (continued-fraction gate) but never irrationality, and dimension 2 has
no within-family criterion, so the honest outcome in those cases is
"undetermined" with an explanatory trace.  Fixtures carrying exact parameter
tags are decided symbolically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotRealStructure
from .lattices import DEFAULT_TOL, conjugation
from .scalars import ExactReal, ratio_rationality
from .structures import (
    FAMILIES,
    StructureDescriptor,
    is_real_structure,
    period_group,
    z_rank,
)

ISOMORPHIC = "isomorphic"
NOT_ISOMORPHIC = "not_isomorphic"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class Verdict:
    outcome: str
    reasons: tuple[str, ...]

    def __post_init__(self):
        if self.outcome not in (ISOMORPHIC, NOT_ISOMORPHIC, UNDETERMINED):
            raise ValueError(f"bad outcome {self.outcome!r}")
        if self.outcome == UNDETERMINED and not self.reasons:
            raise ValueError("undetermined verdicts must carry a reason")


@dataclass(frozen=True)
class CanonicalForm1D:
    kind: str  # "id" | "exp" | "sin" | "wp"
    rank: int  # of the period group
    a: float | None = None
    a_exact: ExactReal | None = None


#: the largest denominator `rational_detect` tries.  The rounding error of
#: x = p/q, at most 2^-53 |x|, stays inside the gate DEFAULT_TOL / q^2 while
#: q^2 |x| < 9e6, so p/q is recovered for certain up to q ~ 3e3 when
#: |x| <= 1; above that rounding decides.  For 4000 random reduced p/q in
#: (0, 1) per band, the recovery rate is 71% for q in [3e3, 1e4), 18% in
#: [1e4, 3e4), 3.2% in [3e4, 1e5) and 0.1% in [1e5, 1e6).
MAX_DENOMINATOR = 10**6


def rational_detect(x: float) -> Fraction | None:
    """First continued-fraction convergent p/q of x with
    |x - p/q| < DEFAULT_TOL / q^2.

    Exact arithmetic on the binary value of x; None when no convergent with
    denominator <= MAX_DENOMINATOR passes the gate.
    """
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    fr = Fraction(x)
    gate = Fraction(DEFAULT_TOL)
    h_prev2, k_prev2 = 0, 1
    h_prev, k_prev = 1, 0
    rem = fr
    while True:
        a = math.floor(rem)
        h = a * h_prev + h_prev2
        k = a * k_prev + k_prev2
        if k > MAX_DENOMINATOR:
            return None
        if k > 0 and abs(fr - Fraction(h, k)) < gate / (k * k):
            return Fraction(h, k)
        frac_part = rem - a
        if frac_part == 0:
            return None
        h_prev2, k_prev2, h_prev, k_prev = h_prev, k_prev, h, k
        rem = 1 / frac_part


def _kernel(*rows: tuple[int, int]) -> tuple[int, int]:
    """Primitive integer kernel vector of the rank-1 integer 2 x 2 matrix
    with these rows: orthogonal to its larger row."""
    a, b = max(rows, key=lambda row: abs(row[0]) + abs(row[1]))
    g = math.gcd(a, b)
    return b // g, -a // g


def _canonical_wp_parameter(group) -> float:
    """Normalize a real rank-2 lattice of C to <1, ia>: returns a > 0.

    Conjugation acts on the group's reduced basis (r1, r2) as the integer
    involution S (`conjugation`), with eigenvalues +1 and -1.  The primitive
    kernel vectors x of S - I and y of S + I give the smallest real element
    x1 r1 + x2 r2 and the smallest purely imaginary one y1 r1 + y2 r2, up to
    sign: they span the rectangular sublattice of finite index, and passing
    to it changes the parameter by a rational factor only, which the
    rational-ratio criterion absorbs.  Exact integers, so no gate decides
    which vector is real, at any elongation or skew.
    """
    r1, r2, _ = group.reduced_basis
    (p, q), (r, s) = conjugation(group)[0].tolist()
    x1, x2 = _kernel((p - 1, q), (r, s - 1))
    y1, y2 = _kernel((p + 1, q), (r, s + 1))
    return abs((y1 * r1 + y2 * r2).imag) / abs((x1 * r1 + x2 * r2).real)


def classify_1d(d: StructureDescriptor) -> CanonicalForm1D:
    """Canonical form of a real dim-1 structure: id, exp, sin or wp(<1, ia>).

    Below rank 2 the family is the form: a real alpha keeps exp's period
    2 pi i / alpha on iR and sin's 2 pi / alpha on R.  Rank 2 rescales the
    lattice by its smallest positive real element to the normal form
    <1, ia>, a > 0, with both elements read off the integer matrix S of
    conjugation on the group (`conjugation`), whatever its gate says, since
    `is_real_structure` has judged realness.
    """
    if d.dim != 1:
        raise ValueError("classify_1d requires a dim-1 descriptor")
    if not is_real_structure(d):
        raise NotRealStructure(f"{d.family} structure with non-real data")
    report = period_group(d)
    r = report.rank
    if r < 2:
        return CanonicalForm1D(d.family, r)
    # rank 2, the most a discrete subgroup of C has
    a = _canonical_wp_parameter(report.group)
    a_exact = None
    if d.a_exact is not None and abs(a - d.a.real) <= DEFAULT_TOL * a:
        a_exact = d.a_exact
    return CanonicalForm1D("wp", r, a=a, a_exact=a_exact)


def _wp_ratio_verdict(c1: CanonicalForm1D, c2: CanonicalForm1D) -> Verdict:
    reasons = [
        "period rank: 2 vs 2",
        f"normalized lattices <1, ia> with a = {c1.a:.12g} vs {c2.a:.12g}",
    ]
    if c1.a_exact is not None and c2.a_exact is not None:
        sym = ratio_rationality(c1.a_exact, c2.a_exact)
        if isinstance(sym, Fraction):
            reasons.append(f"parameter ratio exactly {sym} (exact tags)")
            return Verdict(ISOMORPHIC, tuple(reasons))
        if sym == "irrational":
            reasons.append(
                f"parameter ratio {c1.a_exact}/{c2.a_exact} is provably irrational (exact tags)"
            )
            return Verdict(NOT_ISOMORPHIC, tuple(reasons))
        reasons.append(
            f"rationality of {c1.a_exact}/{c2.a_exact} is not decidable from the tags"
        )
    gate = f"{DEFAULT_TOL:g}/q^2"
    # the gate reads the ratio as min/max whatever the argument order: above
    # the range where recovery is certain, rounding decides x and 1/x apart.
    # A ratio within the gate of 0 recovers as 0; max/min is read instead.
    lo, hi = sorted((c1.a, c2.a))
    found = rational_detect(lo / hi)
    if found == 0:
        inverse = rational_detect(hi / lo)
        found = None if inverse is None else 1 / inverse
    if found is not None:
        ratio = found if c1.a <= c2.a else 1 / found
        reasons.append(f"ratio a/b = {ratio} detected rational (continued-fraction gate {gate})")
        return Verdict(ISOMORPHIC, tuple(reasons))
    reasons.append(
        f"no convergent with denominator <= {MAX_DENOMINATOR} passed the "
        f"{gate} gate; floating point cannot certify irrationality"
    )
    return Verdict(UNDETERMINED, tuple(reasons))


def isomorphic_1d(d1: StructureDescriptor, d2: StructureDescriptor) -> Verdict:
    """Isomorphism verdict for two real dim-1 structures."""
    c1 = classify_1d(d1)
    c2 = classify_1d(d2)
    if c1.rank != c2.rank:
        return Verdict(
            NOT_ISOMORPHIC,
            (
                f"period rank: {c1.rank} vs {c2.rank}",
                "period-group rank is an isomorphism invariant",
            ),
        )
    if c1.kind != c2.kind:
        # equal rank 1, exp vs sin
        return Verdict(
            NOT_ISOMORPHIC,
            (
                f"period rank: {c1.rank} vs {c2.rank}",
                "period axis: imaginary (exponential type) vs real (sine type); "
                "a real linear map cannot exchange the axes",
            ),
        )
    if c1.kind != "wp":
        return Verdict(
            ISOMORPHIC, (f"identical canonical form: {c1.kind}",)
        )
    return _wp_ratio_verdict(c1, c2)


@dataclass(frozen=True)
class Family2D:
    index: int  # 1..6
    rank: int


def classify_2d(d: StructureDescriptor) -> Family2D:
    """Family index with its rank witness, the number of period generators
    (z_rank)."""
    if d.dim != 2:
        raise ValueError("classify_2d requires a dim-2 descriptor")
    return Family2D(FAMILIES[d.family].index, z_rank(d))


def compare_2d(d1: StructureDescriptor, d2: StructureDescriptor) -> Verdict:
    """Family-separation verdict for two real dim-2 structures.

    Different families are never isomorphic (rank invariant, plus a
    transcendence obstruction for the two rank-2 families); within one
    family no criterion is available, so the verdict is undetermined.
    """
    for d in (d1, d2):
        if d.dim != 2:
            raise ValueError("compare_2d requires dim-2 descriptors")
        if not is_real_structure(d):
            raise NotRealStructure(f"{d.family} structure with non-real data")
    f1 = classify_2d(d1)
    f2 = classify_2d(d2)
    lo, hi = sorted((f1, f2), key=lambda f: f.index)
    if f1.index == f2.index:
        return Verdict(
            UNDETERMINED,
            (
                f"both structures lie in family {f1.index} (rank {f1.rank})",
                "no within-family isomorphism criterion is available in dimension 2",
            ),
        )
    if f1.rank != f2.rank:
        return Verdict(
            NOT_ISOMORPHIC,
            (
                f"period rank: {lo.rank} (family {lo.index}) vs {hi.rank} (family {hi.index})",
                "period-group rank is an isomorphism invariant",
            ),
        )
    return Verdict(
        NOT_ISOMORPHIC,
        (
            f"equal period rank {f1.rank}, families {lo.index} vs {hi.index}",
            "family separation: the exponential-pair and elliptic rank-2 families "
            "are never isomorphic (transcendence obstruction)",
        ),
    )
