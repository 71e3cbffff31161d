"""Symbolic descriptors of locally Nash structures on (R,+) and (R^2,+).

Dimension 1 carries the four classical one-variable models (identity,
exponential, sine, Weierstrass wp over <1, ia>); dimension 2 carries the six
families of Painleve's classification of two-variable meromorphic maps with
an algebraic addition theorem, with the abelian family supported through
product lattices realized as wp x wp.

Every descriptor owns an invertible matrix ``alpha`` precomposed with the
model map: the descriptor's map is u -> model(alpha u), so its period group
is alpha^{-1} applied to the model's closed-form period group.

Each family's facts sit in one record of the table ``FAMILIES`` at the end
of this module; validation, period groups, evaluation, serialization and
classification all read that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InternalInconsistency, SingularMatrix
from .lattices import (
    DEFAULT_TOL,
    DiscreteSubgroup,
    Lattice1,
    is_real,
    transform,
)
from .scalars import ExactReal
from .weierstrass import get_context

#: the parameter fields of a descriptor, in the order they are serialized;
#: each family requires or allows some of them (``alpha`` is open to all)
PARAMETERS = ("a", "a_exact", "lattice", "lattice2")

_TWO_PI_I = 2j * np.pi


def _identity(n: int) -> tuple[tuple[complex, ...], ...]:
    return tuple(tuple(1.0 + 0j if i == j else 0j for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class Family:
    """One family's facts, period generators and model map.

    ``defaults`` pairs each optional field with its default as a function of
    the descriptor (None: absent).  ``a_range`` describes and tests a.
    ``periods(d)`` gives (generator, closed form) pairs of the model's period
    group; ``map(d, *w)`` gives (values, poles) of the model at w = alpha u.
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

    @property
    def allowed(self) -> tuple[str, ...]:
        return self.required + tuple(name for name, _ in self.defaults)

    def explicit_fields(self, d: StructureDescriptor) -> list[str]:
        """The parameter fields of d that differ from their defaults."""
        defaults = {name: fn(d) for name, fn in self.defaults if fn is not None}
        return [name for name in PARAMETERS if getattr(d, name) != defaults.get(name)]


@dataclass(frozen=True)
class StructureDescriptor:
    """Family tag plus parameters; immutable and hashable."""

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
        alpha = self.alpha if self.alpha is not None else _identity(self.dim)
        alpha = tuple(tuple(complex(x) for x in row) for row in alpha)
        if len(alpha) != self.dim or any(len(r) != self.dim for r in alpha):
            raise ValueError("alpha must be a dim x dim matrix")
        object.__setattr__(self, "alpha", alpha)

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
            if abs(self.a_exact.value() - self.a.real) > 1e-9 * (1 + abs(self.a)):
                raise ValueError("a_exact disagrees with the numeric parameter a")

    @property
    def alpha_matrix(self) -> np.ndarray:
        return np.array(self.alpha, dtype=complex)

    @property
    def alpha_is_identity(self) -> bool:
        return self.alpha == _identity(self.dim)


# -- constructors -----------------------------------------------------------

def identity_map(alpha=None) -> StructureDescriptor:
    return StructureDescriptor(1, "id", alpha=_as_alpha(alpha, 1))


def exp_map(alpha=None) -> StructureDescriptor:
    return StructureDescriptor(1, "exp", alpha=_as_alpha(alpha, 1))


def sin_map(alpha=None) -> StructureDescriptor:
    return StructureDescriptor(1, "sin", alpha=_as_alpha(alpha, 1))


def wp_real(a: float, alpha=None, a_exact: ExactReal | None = None) -> StructureDescriptor:
    return StructureDescriptor(1, "wp_real", a=a, alpha=_as_alpha(alpha, 1), a_exact=a_exact)


def painleve(
    family: str,
    a: complex | None = None,
    lattice: Lattice1 | None = None,
    lattice2: Lattice1 | None = None,
    alpha=None,
) -> StructureDescriptor:
    return StructureDescriptor(
        2, family, a=a, lattice=lattice, lattice2=lattice2, alpha=_as_alpha(alpha, 2)
    )


def _as_alpha(alpha, dim: int):
    if alpha is None:
        return None
    arr = np.atleast_2d(np.asarray(alpha, dtype=complex))
    if arr.shape == (1, 1) and dim == 1:
        return ((complex(arr[0, 0]),),)
    if arr.shape != (dim, dim):
        raise ValueError(f"alpha must be {dim}x{dim}")
    return tuple(tuple(complex(x) for x in row) for row in arr)


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
    forms = ("1", "i*a") if lat == _rectangular(d) else ("omega1", "omega2")
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


def period_group(
    d: StructureDescriptor,
    tol: float = DEFAULT_TOL,
) -> PeriodGroupReport:
    """Closed-form period group of the descriptor's map, pulled back by alpha."""
    pairs = FAMILIES[d.family].periods(d)
    forms = [form for _, form in pairs]
    group = DiscreteSubgroup(d.dim, tuple(gen for gen, _ in pairs), tol)
    if not d.alpha_is_identity:
        try:
            inv = np.linalg.inv(d.alpha_matrix)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix(f"alpha is singular: {exc}") from exc
        if not np.all(np.isfinite(inv)):
            raise SingularMatrix("the inverse of alpha overflows")
        group = transform(group, inv)
        forms = [f"alpha^-1 {f}" for f in forms]
    return PeriodGroupReport(group, group.rank, tuple(forms))


def z_rank(
    d: StructureDescriptor,
    tol: float = DEFAULT_TOL,
) -> int:
    """Rank of the period group; cross-checked against the family table."""
    r = period_group(d, tol).rank
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


def is_real_structure(d: StructureDescriptor, tol: float = DEFAULT_TOL) -> bool:
    """True iff alpha is real and every embedded lattice/parameter is conjugation-stable.

    Alpha's imaginary part is measured against its largest entry, so the
    test does not depend on alpha's scale.
    """
    A = d.alpha_matrix
    if np.max(np.abs(A.imag)) > tol * np.max(np.abs(A)):
        return False
    for lat in (d.lattice, d.lattice2):
        if lat is not None and not is_real(lat.to_subgroup(tol)):
            return False
    if d.a is not None and abs(d.a.imag) > tol * (1.0 + abs(d.a)):
        return False
    return True


# -- the family table -----------------------------------------------------------

#: one record per family: name, dim, period rank, 2-D index, closed-form period
#: generators, model map, then the fields it requires or allows
FAMILIES: dict[str, Family] = {f.name: f for f in (
    Family("id", 1, 0, None, _fixed(), _entire(None)),
    Family("exp", 1, 1, None, _fixed(((_TWO_PI_I,), "2*pi*i")), _entire(np.exp)),
    Family("sin", 1, 1, None, _fixed(((2.0 * np.pi + 0j,), "2*pi")), _entire(np.sin)),
    Family("wp_real", 1, 2, None, _wp_real_periods, _wp_on("lattice"), required=("a",),
           defaults=(("a_exact", None), ("lattice", _rectangular)),
           a_range=("a real parameter a > 0", lambda a: a.imag == 0 and a.real > 0)),
    Family("p1", 2, 0, 1, _fixed(), _entire(None, None)),
    Family("p2", 2, 1, 2, _fixed(((_TWO_PI_I, 0j), "(2*pi*i, 0)")), _entire(np.exp, None)),
    Family("p3", 2, 2, 3, _fixed(((_TWO_PI_I, 0j), "(2*pi*i, 0)"),
                                 ((0j, _TWO_PI_I), "(0, 2*pi*i)")), _entire(np.exp, np.exp)),
    Family("p4", 2, 2, 4, _elliptic_periods, _p4_map, required=("a", "lattice"),
           a_range=("a = 0 or a = 1", lambda a: a in (0, 1))),
    Family("p5", 2, 3, 5, _p5_periods, _p5_map, required=("a", "lattice")),
    Family("p6_product", 2, 4, 6, _p6_periods, _wp_on("lattice", "lattice2"),
           required=("lattice", "lattice2")),
)}

#: closed-form period-group ranks per family
FAMILY_RANK = {name: f.rank for name, f in FAMILIES.items()}
