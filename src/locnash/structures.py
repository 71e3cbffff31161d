"""Symbolic descriptors of locally Nash structures on (R,+) and (R^2,+).

Dimension 1 carries the four classical one-variable models (identity,
exponential, sine, Weierstrass wp over <1, ia>); dimension 2 carries the six
families of Painleve's classification of two-variable meromorphic maps with
an algebraic addition theorem, with the abelian family supported through
product lattices realized as wp x wp.

Every descriptor owns an invertible matrix ``alpha`` precomposed with the
model map: the descriptor's map is u -> model(alpha u), so its period group
is alpha^{-1} applied to the model's closed-form period group.  Construction
refuses an alpha whose inverse that pull-back could not apply.

Each family's facts sit in one record of the table ``FAMILIES`` at the end
of this module; validation, period groups, evaluation, serialization,
classification and the addition-theorem search all read that table.  A
coordinate that is a function of one linear form alpha_i . u, as every
coordinate of p1, p2, p3 and p6_product and coordinate 1 of p4 and p5 are,
has an addition relation among f_i(u), f_i(v) and f_i(u+v) alone, and its
record keeps the search to those three.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InternalInconsistency
from .lattices import DEFAULT_TOL, DiscreteSubgroup, Lattice1, is_real
from .scalars import ExactReal
from .weierstrass import get_context

#: the parameter fields of a descriptor, in the order they are serialized;
#: each family requires or allows some of them (``alpha`` is open to all)
PARAMETERS = ("a", "a_exact", "lattice", "lattice2")

_TWO_PI_I = 2j * np.pi


def _identity(n: int) -> tuple[tuple[complex, ...], ...]:
    return tuple(tuple(1.0 + 0j if i == j else 0j for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class AATBox:
    """The search box of one map coordinate's addition relation.

    ``variables`` are the positions, in (f_1(u), ..., f_n(u), f_1(v), ...,
    f_n(v), f_i(u+v)), of the variables the relation needs (None: all
    2n + 1).  A coordinate g(alpha_i . u) needs only f_i(u), f_i(v) and
    f_i(u+v), whatever alpha is.  ``total_degree`` is the relation's total
    degree when it is below what the per-variable box admits; the search then
    keeps only monomials up to it (None: no cap).  ``even`` says that every
    exponent of the relation is even; the search then keeps only monomials
    with even exponents.
    """

    variables: tuple[int, ...] | None = None
    total_degree: int | None = None
    even: bool = False


#: the boxes of 2-D coordinates that are each a function of their own linear
#: form alpha_i . u: f_i(u), f_i(v), f_i(u+v)
_OWN_FORM = (AATBox((0, 2, 4)), AATBox((1, 3, 4)))


@dataclass(frozen=True)
class Family:
    """One family's facts, period generators and model map.

    ``defaults`` pairs each optional field with its default as a function of
    the descriptor (None: absent).  ``a_range`` describes and tests a.
    ``periods(d)`` gives (generator, closed form) pairs of the model's period
    group; ``map(d, *w)`` gives (values, poles) of the model at w = alpha u.
    ``aat`` holds one `AATBox` per map coordinate (by default the one
    coordinate of a 1-D map over all its variables).
    """

    name: str
    dim: int
    rank: int
    index: int | None  # Painleve index 1..6 in dimension 2
    periods: Callable
    map: Callable
    required: tuple[str, ...] = ()
    defaults: tuple[tuple[str, Callable | None], ...] = ()
    a_range: tuple[str, Callable[[complex], bool]] | None = None
    aat: tuple[AATBox, ...] = (AATBox(),)

    @property
    def allowed(self) -> tuple[str, ...]:
        return self.required + tuple(name for name, _ in self.defaults)

    def explicit_fields(self, d: StructureDescriptor) -> list[str]:
        """The parameter fields of d that differ from their defaults."""
        defaults = {name: fn(d) for name, fn in self.defaults if fn is not None}
        return [name for name in PARAMETERS if getattr(d, name) != defaults.get(name)]


@dataclass(frozen=True)
class StructureDescriptor:
    """Family tag plus parameters; immutable and hashable.

    ``alpha`` is anything numpy reads as a dim x dim complex matrix (a
    scalar in dimension 1, None for the identity); it is stored as a tuple
    of tuples of complex."""

    dim: int
    family: str
    a: complex | None = None
    lattice: Lattice1 | None = None
    lattice2: Lattice1 | None = None
    alpha: tuple[tuple[complex, ...], ...] | None = None
    a_exact: ExactReal | None = None

    def __post_init__(self):
        fam = FAMILIES.get(self.family)
        if fam is None or fam.dim != self.dim:
            raise ValueError(f"unknown dim-{self.dim} family {self.family!r}")
        alpha = np.atleast_2d(np.asarray(
            self.alpha if self.alpha is not None else _identity(self.dim), dtype=complex
        ))
        if alpha.shape != (self.dim, self.dim):
            raise ValueError(f"alpha must be {self.dim}x{self.dim}")
        object.__setattr__(self, "alpha", tuple(map(tuple, alpha.tolist())))
        if not self.alpha_is_identity:
            _check_invertible(self.alpha_matrix)

        for name in PARAMETERS:
            if getattr(self, name) is None:
                if name in fam.required:
                    raise ValueError(f"{self.family} needs {name}")
            elif name not in fam.allowed:
                raise ValueError(f"{self.family} does not use {name}")
        if self.a is not None:
            object.__setattr__(self, "a", complex(self.a))
            if fam.a_range is not None and not fam.a_range[1](self.a):
                raise ValueError(f"{self.family} needs {fam.a_range[0]}")
        for name, default in fam.defaults:
            if default is not None and getattr(self, name) is None:
                object.__setattr__(self, name, default(self))
        if self.a_exact is not None:
            if abs(self.a_exact.value() - self.a.real) > DEFAULT_TOL * abs(self.a):
                raise ValueError("a_exact disagrees with the numeric parameter a")

    @property
    def alpha_matrix(self) -> np.ndarray:
        return np.array(self.alpha, dtype=complex)

    @property
    def alpha_is_identity(self) -> bool:
        return self.alpha == _identity(self.dim)


# -- constructors -----------------------------------------------------------

def identity_map(alpha=None) -> StructureDescriptor:
    return StructureDescriptor(1, "id", alpha=alpha)


def exp_map(alpha=None) -> StructureDescriptor:
    return StructureDescriptor(1, "exp", alpha=alpha)


def sin_map(alpha=None) -> StructureDescriptor:
    return StructureDescriptor(1, "sin", alpha=alpha)


def wp_real(a: float, alpha=None, a_exact: ExactReal | None = None) -> StructureDescriptor:
    return StructureDescriptor(1, "wp_real", a=a, alpha=alpha, a_exact=a_exact)


def painleve(
    family: str,
    a: complex | None = None,
    lattice: Lattice1 | None = None,
    lattice2: Lattice1 | None = None,
    alpha=None,
) -> StructureDescriptor:
    return StructureDescriptor(2, family, a=a, lattice=lattice, lattice2=lattice2, alpha=alpha)


def _check_invertible(alpha: np.ndarray) -> None:
    """ValueError unless `period_group` can pull back by alpha: its inverse
    exists, is finite and has a condition number of at most 1/DEFAULT_TOL.
    This is the one conditioning gate of alpha; the pull-back tests no other."""
    try:
        inv = np.linalg.inv(alpha)
    except np.linalg.LinAlgError:
        raise ValueError("alpha is singular") from None
    if not np.all(np.isfinite(inv)):
        raise ValueError("the inverse of alpha is not finite")
    cond = np.linalg.cond(inv)
    if not cond <= 1.0 / DEFAULT_TOL:
        raise ValueError(f"alpha's condition number {cond:.3e} exceeds 1/DEFAULT_TOL")


def _rectangular(d: StructureDescriptor) -> Lattice1:
    """wp_real's default lattice <1, ia>."""
    return Lattice1(1.0, d.a.real * 1j)


# -- period groups -----------------------------------------------------------

@dataclass(frozen=True)
class PeriodGroupReport:
    group: DiscreteSubgroup
    rank: int
    closed_form: tuple[str, ...]


def _fixed(*pairs):
    """Period generators that do not depend on the parameters."""
    return lambda d: pairs


def _wp_real_periods(d: StructureDescriptor):
    lat = d.lattice
    forms = ("1", "i*a") if (lat.omega1, lat.omega2) == (1, d.a.real * 1j) else ("omega1", "omega2")
    return ((lat.omega1,), forms[0]), ((lat.omega2,), forms[1])


def _elliptic_periods(d: StructureDescriptor):
    """(omega_k, a eta_k) of p4 and p5, with eta_k = 2 zeta(omega_k/2) on the
    lattice's own generators (not computed when a = 0)."""
    lat, a = d.lattice, d.a
    eta = np.zeros(2, dtype=complex) if a == 0 else 2.0 * np.asarray(get_context(lat).eta_half)
    return (
        ((lat.omega1, a * eta[0]), "(omega1, 2*a*zeta(omega1/2))"),
        ((lat.omega2, a * eta[1]), "(omega2, 2*a*zeta(omega2/2))"),
    )


def _p5_periods(d: StructureDescriptor):
    return _elliptic_periods(d) + (((0j, _TWO_PI_I), "(0, 2*pi*i)"),)


def _p6_periods(d: StructureDescriptor):
    l1, l2 = d.lattice, d.lattice2
    return (
        ((l1.omega1, 0j), "(omega1_1, 0)"),
        ((l1.omega2, 0j), "(omega1_2, 0)"),
        ((0j, l2.omega1), "(0, omega2_1)"),
        ((0j, l2.omega2), "(0, omega2_2)"),
    )


def period_group(d: StructureDescriptor) -> PeriodGroupReport:
    """Closed-form period group of the descriptor's map, pulled back by alpha."""
    pairs = FAMILIES[d.family].periods(d)
    gens = tuple(gen for gen, _ in pairs)
    forms = tuple(form for _, form in pairs)
    if not d.alpha_is_identity:
        M = np.linalg.inv(d.alpha_matrix)
        try:
            with np.errstate(over="raise", invalid="raise"):
                gens = tuple(tuple(M @ np.asarray(g, dtype=complex)) for g in gens)
        except FloatingPointError:
            lattices = [f"<{lat.omega1:.17g}, {lat.omega2:.17g}>"
                        for lat in (d.lattice, d.lattice2) if lat is not None]
            source = "the periods of lattice " + " x ".join(lattices) if lattices else "the periods"
            raise ValueError(f"{source} pulled back by alpha^-1 leave the double range") from None
        forms = tuple(f"alpha^-1 {f}" for f in forms)
    group = DiscreteSubgroup(d.dim, gens)
    return PeriodGroupReport(group, group.rank, forms)


def z_rank(d: StructureDescriptor) -> int:
    """Rank of the period group; cross-checked against the family table."""
    r = period_group(d).rank
    want = FAMILIES[d.family].rank
    if r != want:
        raise InternalInconsistency(f"computed rank {r} for family {d.family}, expected {want}")
    return r


# -- map evaluation -----------------------------------------------------------

@dataclass(frozen=True)
class MapValue:
    values: tuple[complex, ...]
    poles: tuple[bool, ...]


def _entire(*fns):
    """Model taking one entire function per coordinate (None: the identity)."""
    def model(d, *w):
        values = tuple(x if fn is None else fn(x) for fn, x in zip(fns, w))
        return values, tuple(np.zeros(x.shape, dtype=bool) for x in w)
    return model


def _wp_on(*fields):
    """Model taking wp over the lattice in the field named for each coordinate."""
    def model(d, *w):
        out = [get_context(getattr(d, f)).wp_many(x) for f, x in zip(fields, w)]
        return tuple(v for v, _, _ in out), tuple(p for _, _, p in out)
    return model


def _p4_map(d: StructureDescriptor, w1, w2):
    ctx = get_context(d.lattice)
    v1, _, p1 = ctx.wp_many(w1)
    if d.a == 0:
        return (v1, w2), (p1, np.zeros(w2.shape, dtype=bool))
    z, _, pz = ctx.zeta_many(w1)
    return (v1, w2 - d.a * z), (p1, pz)


def _p5_map(d: StructureDescriptor, w1, w2):
    ctx = get_context(d.lattice)
    v1, _, p1 = ctx.wp_many(w1)
    num, _, _ = ctx.sigma_many(w1 - d.a)
    den, _, _ = ctx.sigma_many(w1)
    pole2 = np.abs(den) == 0.0
    # sigma vanishes exactly on the lattice; guard the division
    safe = np.where(pole2, 1.0, den)
    v2 = num / safe * np.exp(w2)
    v2 = np.where(pole2, np.nan + 1j * np.nan, v2)
    pole2 = pole2 | p1
    return (v1, v2), (p1, pole2)


def map_batch(
    d: StructureDescriptor,
    *coords,
):
    """Vectorized evaluation of the descriptor's map at alpha * (coords).

    Returns (values, poles): tuples of one complex array and one bool array
    per map coordinate.
    """
    if len(coords) != d.dim:
        raise ValueError(f"expected {d.dim} coordinate arrays")
    arrs = [np.atleast_1d(np.asarray(c, dtype=complex)) for c in coords]
    A = d.alpha_matrix
    if d.dim == 1:
        w = (A[0, 0] * arrs[0],)
    else:
        w = (A[0, 0] * arrs[0] + A[0, 1] * arrs[1], A[1, 0] * arrs[0] + A[1, 1] * arrs[1])
    return FAMILIES[d.family].map(d, *w)


def evaluate_map(
    d: StructureDescriptor,
    point,
) -> MapValue:
    """Evaluate the descriptor's map at one point of C^dim (a scalar in C)."""
    vals, poles = map_batch(d, *np.atleast_1d(np.asarray(point, dtype=complex)))
    return MapValue(
        tuple(complex(v[0]) for v in vals), tuple(bool(p[0]) for p in poles)
    )


def is_real_structure(d: StructureDescriptor) -> bool:
    """True iff alpha is real and every embedded lattice/parameter is conjugation-stable.

    Alpha's imaginary part is measured against its largest entry, and a's
    against |a|, so the test depends on neither scale.
    """
    A = d.alpha_matrix
    if np.max(np.abs(A.imag)) > DEFAULT_TOL * np.max(np.abs(A)):
        return False
    for lat in (d.lattice, d.lattice2):
        if lat is not None and not is_real(lat.to_subgroup()):
            return False
    if d.a is not None and abs(d.a.imag) > DEFAULT_TOL * abs(d.a):
        return False
    return True


# -- the family table -----------------------------------------------------------

#: one record per family: name, dim, period rank, 2-D index, closed-form period
#: generators, model map, then the fields it requires or allows and the box of
#: each coordinate's addition relation
FAMILIES: dict[str, Family] = {f.name: f for f in (
    Family("id", 1, 0, None, _fixed(), _entire(None)),
    Family("exp", 1, 1, None, _fixed(((_TWO_PI_I,), "2*pi*i")), _entire(np.exp)),
    # X, Y, Z = sin u, sin v, sin(u+v) satisfy (Z^2 + X^2 - Y^2)^2 = 4 X^2 Z^2 (1 - Y^2),
    # of per-variable degree 4 and total degree 6.  (u, v) -> (-u, -v), u -> u + pi and
    # v -> v + pi give every sign change of (X, Y, Z), so the surface is invariant
    # under each; the relation is irreducible, hence even in every variable
    Family("sin", 1, 1, None, _fixed(((2.0 * np.pi + 0j,), "2*pi")), _entire(np.sin),
           aat=(AATBox(total_degree=6, even=True),)),
    Family("wp_real", 1, 2, None, _wp_real_periods, _wp_on("lattice"), required=("a",),
           defaults=(("a_exact", None), ("lattice", _rectangular)),
           a_range=("a real parameter a > 0", lambda a: a.imag == 0 and a.real > 0)),
    Family("p1", 2, 0, 1, _fixed(), _entire(None, None), aat=_OWN_FORM),
    Family("p2", 2, 1, 2, _fixed(((_TWO_PI_I, 0j), "(2*pi*i, 0)")), _entire(np.exp, None),
           aat=_OWN_FORM),
    Family("p3", 2, 2, 3, _fixed(((_TWO_PI_I, 0j), "(2*pi*i, 0)"),
                                 ((0j, _TWO_PI_I), "(0, 2*pi*i)")), _entire(np.exp, np.exp),
           aat=_OWN_FORM),
    # coordinate 2 of p4 (a = 1) and p5 involves both linear forms: it searches every variable
    Family("p4", 2, 2, 4, _elliptic_periods, _p4_map, required=("a", "lattice"),
           a_range=("a = 0 or a = 1", lambda a: a in (0, 1)), aat=(_OWN_FORM[0], AATBox())),
    Family("p5", 2, 3, 5, _p5_periods, _p5_map, required=("a", "lattice"),
           aat=(_OWN_FORM[0], AATBox())),
    Family("p6_product", 2, 4, 6, _p6_periods, _wp_on("lattice", "lattice2"),
           required=("lattice", "lattice2"), aat=_OWN_FORM),
)}
