"""Algebra of discrete subgroups of (C^n, +), n in {1, 2}.

Generators are double-precision complex vectors.  Membership and
sublattice tests go through a real least-squares solve followed by
nearest-integer rounding with residual gates at a uniform relative
tolerance.  Index and coset representatives come from the integer
transition matrix between the two reduced bases, rounded under the same
tolerance (the rounding gate is also their sublattice test) and
triangularised over Z (Hermite normal form, Cohen, A Course in
Computational Algebraic Number Theory, section 2.4): the index is the
product of its diagonal H_ii, and the integer points c with 0 <= c_i < H_ii
are one per coset.  The common real sublattice reads its multiplier off the
rational approximations of the transition matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateGenerators,
    InternalInconsistency,
    NonIntegerTransition,
    SingularMatrix,
)

DEFAULT_TOL = 1e-9

Vector = tuple[complex, ...]


def as_vector(x, dim: int) -> Vector:
    """Normalize a scalar / sequence to a tuple of `dim` finite complex numbers."""
    if np.isscalar(x) or isinstance(x, complex):
        vec = (complex(x),)
    else:
        vec = tuple(complex(c) for c in x)
    if len(vec) != dim:
        raise ValueError(f"expected a point of C^{dim}, got {x!r}")
    if not all(np.isfinite(c.real) and np.isfinite(c.imag) for c in vec):
        raise ValueError(f"non-finite component in {x!r}")
    return vec


def _embed(vectors: Sequence[Vector], dim: int) -> np.ndarray:
    """Real 2n x r matrix whose columns are the (Re, Im) parts of the vectors."""
    mat = np.zeros((2 * dim, len(vectors)))
    for j, v in enumerate(vectors):
        for k in range(dim):
            mat[2 * k, j] = v[k].real
            mat[2 * k + 1, j] = v[k].imag
    return mat


def _embed_point(x: Vector) -> np.ndarray:
    out = np.empty(2 * len(x))
    for k, c in enumerate(x):
        out[2 * k] = c.real
        out[2 * k + 1] = c.imag
    return out


@dataclass(frozen=True)
class DiscreteSubgroup:
    """Finitely generated discrete subgroup of (C^dim, +).

    The generators must be linearly independent over R; dependent input is
    rejected at construction rather than silently reduced.
    """

    dim: int
    generators: tuple[Vector, ...]
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        gens = tuple(as_vector(g, self.dim) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        r = len(gens)
        if r > 2 * self.dim:
            raise DegenerateGenerators(
                f"{r} generators exceed the maximal rank {2 * self.dim}"
            )
        if r:
            mat = _embed(gens, self.dim)
            sv = np.linalg.svd(mat, compute_uv=False)
            if sv[-1] <= self.tol * sv[0] or sv[0] == 0.0:
                raise DegenerateGenerators(
                    f"generators are R-dependent at tol={self.tol:g}"
                )

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def basis_matrix(self) -> np.ndarray:
        return _embed(self.generators, self.dim)


def subgroup(gens: Iterable, dim: int | None = None, tol: float = DEFAULT_TOL) -> DiscreteSubgroup:
    """Convenience constructor; infers the dimension from the first generator."""
    gens = list(gens)
    if dim is None:
        if not gens:
            raise ValueError("cannot infer dimension of the trivial subgroup")
        first = gens[0]
        dim = 1 if (np.isscalar(first) or isinstance(first, complex)) else len(first)
    return DiscreteSubgroup(dim, tuple(as_vector(g, dim) for g in gens), tol)


def integer_coefficients(G: DiscreteSubgroup, x) -> tuple[np.ndarray, bool]:
    """Solve x = sum m_i * g_i for integer m_i.

    Returns (m, ok) with m the rounded coefficient vector; ok is True when
    every least-squares coefficient is within tolerance of an integer and the
    integer reconstruction matches x.
    """
    vec = as_vector(x, G.dim)
    target = _embed_point(vec)
    if G.rank == 0:
        ok = float(np.linalg.norm(target)) <= G.tol * (1.0 + np.linalg.norm(target))
        return np.zeros(0), ok
    mat = G.basis_matrix
    coeff, *_ = np.linalg.lstsq(mat, target, rcond=None)
    ints = np.round(coeff)
    coeff_ok = np.all(np.abs(coeff - ints) <= G.tol * (1.0 + np.abs(ints)))
    resid = float(np.linalg.norm(mat @ ints - target))
    ok = bool(coeff_ok) and resid <= G.tol * (1.0 + float(np.linalg.norm(target)))
    return ints.astype(np.int64), ok


def contains(G: DiscreteSubgroup, x) -> bool:
    """Membership of x in G, decided via integer coefficient recovery."""
    return integer_coefficients(G, x)[1]


def is_real(G: DiscreteSubgroup) -> bool:
    """True iff G is closed under componentwise complex conjugation."""
    return all(
        contains(G, tuple(c.conjugate() for c in g)) for g in G.generators
    )


def is_sublattice(G1: DiscreteSubgroup, G2: DiscreteSubgroup) -> bool:
    """True iff every generator of G1 lies in G2."""
    if G1.dim != G2.dim:
        raise ValueError("dimension mismatch")
    return all(contains(G2, g) for g in G1.generators)


def gauss_reduced_basis(w1: complex, w2: complex) -> tuple[complex, complex, np.ndarray]:
    """Lagrange/Gauss reduction of a rank-2 basis of C.

    Returns (r1, r2, U) with (r1, r2) a shortest basis, U the integer
    matrix such that r_i = U[i,0]*w1 + U[i,1]*w2, det U = +-1.
    """
    a, b = complex(w1), complex(w2)
    ua, ub = np.array([1, 0], dtype=np.int64), np.array([0, 1], dtype=np.int64)
    if abs(a) < abs(b):
        a, b, ua, ub = b, a, ub, ua
    for _ in range(256):
        t = round((a * b.conjugate()).real / abs(b) ** 2)
        a, ua = a - t * b, ua - t * ub
        if abs(a) >= abs(b):
            break
        a, b, ua, ub = b, a, ub, ua
    else:  # pragma: no cover
        raise InternalInconsistency("Gauss reduction did not terminate")
    return b, a, np.vstack([ub, ua])


def _reduced_basis(G: DiscreteSubgroup) -> np.ndarray:
    """G's basis matrix, Gauss-reduced for rank-2 dim-1 groups to control
    conditioning."""
    if G.dim == 1 and G.rank == 2:
        r1, r2, _ = gauss_reduced_basis(G.generators[0][0], G.generators[1][0])
        return _embed(((r1,), (r2,)), 1)
    return G.basis_matrix


def _transition(
    G1: DiscreteSubgroup, G2: DiscreteSubgroup
) -> tuple[np.ndarray, np.ndarray]:
    """G2's reduced basis matrix B, and the integer matrix T whose column j
    holds the coefficients over B of generator j of G1's reduced basis.

    G1 <= G2 exactly when T is integral, so the integer gate on T is the
    sublattice test: it raises NonIntegerTransition, a NotASublattice.
    """
    if G1.dim != G2.dim:
        raise ValueError("dimension mismatch")
    full = 2 * G1.dim
    if G1.rank != full or G2.rank != full:
        raise ValueError("index requires full lattices on both sides")
    B = _reduced_basis(G2)
    M = np.linalg.solve(B, _reduced_basis(G1))
    T = np.round(M)
    if np.max(np.abs(M - T)) > G1.tol * (1.0 + np.max(np.abs(T))):
        raise NonIntegerTransition(
            "first group is not contained in the second: transition matrix "
            f"off integers by {np.max(np.abs(M - T)):.3e}"
        )
    return B, T.astype(np.int64)


def _hermite_diagonal(T: np.ndarray) -> list[int]:
    """Diagonal of the Hermite form H of the columns of the integer matrix T.

    Unimodular row operations on the transposed matrix triangularise it:
    H is upper triangular with positive diagonal and its rows span the same
    subgroup of Z^k as T's columns, so the box 0 <= c_i < H_ii is a complete
    residue system modulo that subgroup.  The entries above the diagonal are
    not reduced, since nothing reads them.
    """
    H = T.T.tolist()
    k = len(H)
    for col in range(k):
        # Euclid on the column: move the smallest nonzero entry to the pivot
        # row and reduce the rows below it until they vanish in this column
        while True:
            live = [i for i in range(col, k) if H[i][col]]
            if not live:
                raise InternalInconsistency(
                    "vanishing determinant for full-rank lattices"
                )
            piv = min(live, key=lambda i: abs(H[i][col]))
            H[col], H[piv] = H[piv], H[col]
            if len(live) == 1:
                break
            p = H[col][col]
            for i in range(col + 1, k):
                f = H[i][col] // p
                if f:
                    H[i] = [x - f * y for x, y in zip(H[i], H[col])]
    return [abs(H[i][i]) for i in range(k)]


def index(G1: DiscreteSubgroup, G2: DiscreteSubgroup) -> int:
    """Index [G2 : G1] for full-rank sublattices G1 <= G2 of C^dim."""
    _, T = _transition(G1, G2)
    return math.prod(_hermite_diagonal(T))


def coset_representatives(G1: DiscreteSubgroup, G2: DiscreteSubgroup) -> list[Vector]:
    """Representatives of G2/G1, exactly index-many, pairwise non-congruent.

    In coordinates over G2's reduced basis, G1 is spanned by the columns of
    the transition matrix T, so the integer points c of the box
    0 <= c_i < H_ii of T's Hermite form are one per coset.  Each c is moved
    by an integer combination of T's columns into the fundamental box of
    G1's reduced basis, still in integers, and then mapped through G2's
    basis.
    """
    B, T = _transition(G1, G2)
    box = np.array(
        list(itertools.product(*map(range, _hermite_diagonal(T)))), dtype=np.int64
    ).T
    shift = np.floor(np.linalg.solve(T.astype(float), box) + 1e-12).astype(np.int64)
    pts = B @ (box - T @ shift)
    return [
        tuple(complex(pts[2 * k, j], pts[2 * k + 1, j]) for k in range(G1.dim))
        for j in range(pts.shape[1])
    ]


def transform(G: DiscreteSubgroup, alpha_inv) -> DiscreteSubgroup:
    """Image of G under the given invertible matrix (applied to each generator).

    The argument is the matrix actually applied; callers tracking periods of
    a precomposed map pass the inverse of their coordinate change here.
    """
    M = np.atleast_2d(np.asarray(alpha_inv, dtype=complex))
    if M.shape != (G.dim, G.dim):
        raise ValueError(f"matrix shape {M.shape} does not match dim {G.dim}")
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > 1.0 / G.tol:
        raise SingularMatrix(f"condition number {cond:.3e} exceeds 1/tol")
    gens = tuple(tuple(M @ np.asarray(g, dtype=complex)) for g in G.generators)
    return DiscreteSubgroup(G.dim, gens, G.tol)


def common_real_sublattice(
    G1: DiscreteSubgroup, G2: DiscreteSubgroup, a_max: int = 10_000
) -> tuple[DiscreteSubgroup, int] | None:
    """Smallest positive integer a with a*G1 <= G2, as (a*G1, a); None if none <= a_max.

    Each entry of the transition matrix C (G1's generators over G2's basis)
    is read as its nearest fraction with denominator <= a_max, and a is the
    lcm of those denominators; a*C must then pass the integer gate at
    G1.tol.  Existence of the multiplier is a theorem, its size is not, so
    the operation is totalized with an explicit not-found value.
    """
    for G in (G1, G2):
        if G.dim != 1 or G.rank != 2:
            raise ValueError("requires full lattices of C")
        if not is_real(G):
            raise ValueError("requires real lattices")
    C = np.linalg.solve(_reduced_basis(G2), G1.basis_matrix)
    a = math.lcm(
        *(Fraction(c).limit_denominator(a_max).denominator for c in C.flat)
    )
    if a > a_max:
        return None
    scaled = a * C
    ints = np.round(scaled)
    if not np.all(np.abs(scaled - ints) <= G1.tol * (1.0 + np.abs(ints))):
        return None
    scaled_group = DiscreteSubgroup(
        1, tuple(tuple(a * c for c in g) for g in G1.generators), G1.tol
    )
    return scaled_group, a


@dataclass(frozen=True)
class Rank1Axis:
    """Axis classification of a rank-1 subgroup of C: its generator is real,
    purely imaginary, or neither."""

    kind: str  # "real" | "imag" | "none"
    value: float | None = None


def real_rank1_form(G: DiscreteSubgroup) -> Rank1Axis:
    """Classify a rank-1 subgroup of C as <a>_Z, <ia>_Z or neither."""
    if G.dim != 1 or G.rank != 1:
        raise ValueError("requires a rank-1 subgroup of C")
    g = G.generators[0][0]
    mag = abs(g)
    if abs(g.imag) <= G.tol * mag:
        return Rank1Axis("real", abs(g.real))
    if abs(g.real) <= G.tol * mag:
        return Rank1Axis("imag", abs(g.imag))
    return Rank1Axis("none", None)


@dataclass(frozen=True)
class Lattice1:
    """Full lattice of (C, +) given by an ordered generator pair.

    Orientation is normalized so that Im(omega2/omega1) > 0.
    """

    omega1: complex
    omega2: complex

    def __post_init__(self):
        w1, w2 = complex(self.omega1), complex(self.omega2)
        for w in (w1, w2):
            if not (np.isfinite(w.real) and np.isfinite(w.imag)):
                raise ValueError("non-finite lattice generator")
        area = (w1.conjugate() * w2).imag
        if abs(area) <= 1e-12 * abs(w1) * abs(w2) or w1 == 0 or w2 == 0:
            raise DegenerateGenerators(
                f"generators {w1}, {w2} are R-dependent"
            )
        if area < 0:
            w2 = -w2
        object.__setattr__(self, "omega1", w1)
        object.__setattr__(self, "omega2", w2)

    @property
    def covolume(self) -> float:
        return float((self.omega1.conjugate() * self.omega2).imag)

    @property
    def scale(self) -> float:
        return max(abs(self.omega1), abs(self.omega2))

    def conjugate(self) -> "Lattice1":
        return Lattice1(self.omega1.conjugate(), self.omega2.conjugate())

    def scaled(self, c: complex) -> "Lattice1":
        if c == 0:
            raise ValueError("zero scaling")
        return Lattice1(c * self.omega1, c * self.omega2)

    def to_subgroup(self, tol: float = DEFAULT_TOL) -> DiscreteSubgroup:
        return DiscreteSubgroup(1, ((self.omega1,), (self.omega2,)), tol)


def lattice1_from_subgroup(G: DiscreteSubgroup) -> Lattice1:
    if G.dim != 1 or G.rank != 2:
        raise ValueError("requires a full lattice of C")
    return Lattice1(G.generators[0][0], G.generators[1][0])
