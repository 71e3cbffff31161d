"""Symbolic descriptors of locally Nash structures on (R,+) and (R^2,+).

Dimension 1 carries the four classical one-variable models (identity,
exponential, sine, Weierstrass wp over <1, ia>); dimension 2 carries the six
families of Painleve's classification of two-variable meromorphic maps with
an algebraic addition theorem, with the abelian family supported through
product lattices realized as wp x wp.

Every descriptor owns an invertible matrix ``alpha`` precomposed with the
model map: the descriptor's map is u -> model(alpha u), so its period group
is alpha^{-1} applied to the model's closed-form period group.
"""

from __future__ import annotations

from dataclasses import dataclass

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

FAMILIES_1D = ("id", "exp", "sin", "wp_real")
FAMILIES_2D = ("p1", "p2", "p3", "p4", "p5", "p6_product")

#: closed-form period-group ranks per family
FAMILY_RANK = {
    "id": 0, "exp": 1, "sin": 1, "wp_real": 2,
    "p1": 0, "p2": 1, "p3": 2, "p4": 2, "p5": 3, "p6_product": 4,
}

_TWO_PI_I = 2j * np.pi


def _identity(n: int) -> tuple[tuple[complex, ...], ...]:
    return tuple(tuple(1.0 + 0j if i == j else 0j for j in range(n)) for i in range(n))


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
        fams = FAMILIES_1D if self.dim == 1 else FAMILIES_2D
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.family not in fams:
            raise ValueError(f"unknown dim-{self.dim} family {self.family!r}")
        alpha = self.alpha if self.alpha is not None else _identity(self.dim)
        alpha = tuple(tuple(complex(x) for x in row) for row in alpha)
        if len(alpha) != self.dim or any(len(r) != self.dim for r in alpha):
            raise ValueError("alpha must be a dim x dim matrix")
        object.__setattr__(self, "alpha", alpha)

        if self.family == "wp_real":
            if self.a is None or complex(self.a).imag != 0 or complex(self.a).real <= 0:
                raise ValueError("wp_real needs a real parameter a > 0")
            a = complex(self.a).real
            object.__setattr__(self, "a", complex(a))
            if self.lattice is None:
                object.__setattr__(self, "lattice", Lattice1(1.0, a * 1j))
        elif self.family == "p4":
            if self.a not in (0, 1, 0j, 1 + 0j):
                raise ValueError("p4 parameter a must be 0 or 1")
            object.__setattr__(self, "a", complex(self.a))
            if self.lattice is None:
                raise ValueError("p4 needs a lattice")
        elif self.family == "p5":
            if self.a is None:
                raise ValueError("p5 needs a complex parameter a")
            object.__setattr__(self, "a", complex(self.a))
            if self.lattice is None:
                raise ValueError("p5 needs a lattice")
        elif self.family == "p6_product":
            if self.lattice is None or self.lattice2 is None:
                raise ValueError("p6_product needs two lattices")
        if self.a_exact is not None:
            if self.a is None or abs(self.a_exact.value() - complex(self.a).real) > 1e-9 * (
                1 + abs(self.a)
            ):
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


# -- period groups -----------------------------------------------------------

@dataclass(frozen=True)
class PeriodGroupReport:
    group: DiscreteSubgroup
    rank: int
    closed_form: tuple[str, ...]


def _eta(lattice: Lattice1):
    """(2 zeta(omega1/2), 2 zeta(omega2/2)) for the lattice's own generators."""
    return 2.0 * np.asarray(get_context(lattice).eta_half)


def period_group(
    d: StructureDescriptor,
    tol: float = DEFAULT_TOL,
) -> PeriodGroupReport:
    """Closed-form period group of the descriptor's map, pulled back by alpha."""
    fam = d.family
    gens: list[tuple[complex, ...]]
    forms: list[str]
    if fam == "id" or fam == "p1":
        gens, forms = [], []
    elif fam == "exp":
        gens, forms = [(_TWO_PI_I,)], ["2*pi*i"]
    elif fam == "sin":
        gens, forms = [(2.0 * np.pi + 0j,)], ["2*pi"]
    elif fam == "wp_real":
        lat = d.lattice
        gens = [(lat.omega1,), (lat.omega2,)]
        forms = ["1", "i*a"]
    elif fam == "p2":
        gens, forms = [(_TWO_PI_I, 0j)], ["(2*pi*i, 0)"]
    elif fam == "p3":
        gens = [(_TWO_PI_I, 0j), (0j, _TWO_PI_I)]
        forms = ["(2*pi*i, 0)", "(0, 2*pi*i)"]
    elif fam in ("p4", "p5"):
        lat = d.lattice
        a = d.a
        if a == 0:
            eta = np.zeros(2, dtype=complex)
        else:
            eta = _eta(lat)
        gens = [
            (lat.omega1, a * eta[0]),
            (lat.omega2, a * eta[1]),
        ]
        forms = [
            "(omega1, 2*a*zeta(omega1/2))",
            "(omega2, 2*a*zeta(omega2/2))",
        ]
        if fam == "p5":
            gens.append((0j, _TWO_PI_I))
            forms.append("(0, 2*pi*i)")
    elif fam == "p6_product":
        l1, l2 = d.lattice, d.lattice2
        gens = [
            (l1.omega1, 0j),
            (l1.omega2, 0j),
            (0j, l2.omega1),
            (0j, l2.omega2),
        ]
        forms = ["(omega1_1, 0)", "(omega1_2, 0)", "(0, omega2_1)", "(0, omega2_2)"]
    else:  # pragma: no cover
        raise ValueError(fam)

    group = DiscreteSubgroup(d.dim, tuple(gens), tol)
    if not d.alpha_is_identity:
        try:
            inv = np.linalg.inv(d.alpha_matrix)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix(f"alpha is singular: {exc}") from exc
        group = transform(group, inv)
        forms = [f"alpha^-1 {f}" for f in forms]
    return PeriodGroupReport(group, group.rank, tuple(forms))


def z_rank(
    d: StructureDescriptor,
    tol: float = DEFAULT_TOL,
) -> int:
    """Rank of the period group; cross-checked against the family table."""
    r = period_group(d, tol).rank
    if r != FAMILY_RANK[d.family]:
        raise InternalInconsistency(
            f"computed rank {r} for family {d.family}, expected {FAMILY_RANK[d.family]}"
        )
    return r


# -- map evaluation -----------------------------------------------------------

@dataclass(frozen=True)
class MapValue:
    values: tuple[complex, ...]
    poles: tuple[bool, ...]


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
        w1 = A[0, 0] * arrs[0]
        w2 = None
    else:
        w1 = A[0, 0] * arrs[0] + A[0, 1] * arrs[1]
        w2 = A[1, 0] * arrs[0] + A[1, 1] * arrs[1]
    shape = w1.shape
    no_pole = np.zeros(shape, dtype=bool)

    fam = d.family
    if fam == "id":
        return (w1,), (no_pole,)
    if fam == "exp":
        return (np.exp(w1),), (no_pole,)
    if fam == "sin":
        return (np.sin(w1),), (no_pole,)
    if fam == "wp_real":
        v, _, p = get_context(d.lattice).wp_many(w1)
        return (v,), (p,)
    if fam == "p1":
        return (w1, w2), (no_pole, no_pole.copy())
    if fam == "p2":
        return (np.exp(w1), w2), (no_pole, no_pole.copy())
    if fam == "p3":
        return (np.exp(w1), np.exp(w2)), (no_pole, no_pole.copy())
    if fam == "p4":
        ctx = get_context(d.lattice)
        v1, _, p1 = ctx.wp_many(w1)
        if d.a == 0:
            return (v1, w2), (p1, no_pole)
        z, _, pz = ctx.zeta_many(w1)
        return (v1, w2 - d.a * z), (p1, pz)
    if fam == "p5":
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
    if fam == "p6_product":
        va, _, pa = get_context(d.lattice).wp_many(w1)
        vb, _, pb = get_context(d.lattice2).wp_many(w2)
        return (va, vb), (pa, pb)
    raise ValueError(fam)  # pragma: no cover


def evaluate_map(
    d: StructureDescriptor,
    point,
) -> MapValue:
    """Evaluate the descriptor's map at one point of C^dim."""
    if d.dim == 1:
        coords = (complex(point) if np.isscalar(point) or isinstance(point, complex) else complex(point[0]),)
    else:
        coords = (complex(point[0]), complex(point[1]))
    vals, poles = map_batch(d, *coords)
    return MapValue(
        tuple(complex(v[0]) for v in vals), tuple(bool(p[0]) for p in poles)
    )


def is_real_structure(d: StructureDescriptor, tol: float = DEFAULT_TOL) -> bool:
    """True iff alpha is real and every embedded lattice/parameter is conjugation-stable."""
    A = d.alpha_matrix
    if np.max(np.abs(A.imag)) > tol * (1.0 + np.max(np.abs(A))):
        return False
    for lat in (d.lattice, d.lattice2):
        if lat is not None and not is_real(lat.to_subgroup(tol)):
            return False
    if d.family == "p5" and abs(complex(d.a).imag) > tol * (1.0 + abs(d.a)):
        return False
    return True
