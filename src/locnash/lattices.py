"""Algebra of discrete subgroups of (C^n, +), n in {1, 2}.

Generators are double-precision complex vectors; a rank-2 group of C is
Gauss-reduced once, at construction, and validated on its reduced basis,
which every consumer reads (`reduced_basis`); a `Lattice1` is one such group,
oriented.
One fixed tolerance, DEFAULT_TOL, bounds the condition number of the
generators at construction; nothing sets another.  Every integrality
verdict passes one gate (`_integral`), a backward-error bound with no
tolerance, on coefficients rounded from the pseudo-inverse of the group's
reduced basis (built on its first such test), whose vectors the reduction
forms exactly and rounds once.  Complex conjugation acts on a real group
as an integer matrix S on that basis, conj(R) = R S with S^2 = I
(`conjugation`); the realness test is its gate, and its kernels
ker(S - I), ker(S + I) hold the real and the purely imaginary points.
Index and cosets come from the integer transition matrix
onto the second group's reduced basis, triangularised over Z (Hermite
normal form, Cohen, A Course in Computational Algebraic Number Theory,
section 2.4): the index is the product of its diagonal H_ii, and the integer
points c with 0 <= c_i < H_ii are one per coset.  The common real sublattice
reads its multiplier off the rational approximations of the transition
matrix.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateGenerators, InternalInconsistency, NotASublattice

#: the relative tolerance of every test that is not an integrality verdict
DEFAULT_TOL = 1e-9
#: `_integral`'s K.  A sum of k <= 4 terms t_i b_i formed in double is off by
#: at most gamma_k sum |t_i| |b_i| in each real coordinate, gamma_k = k u / (1 -
#: k u), u = eps / 2 (Higham, Accuracy and Stability of Numerical Algorithms,
#: section 3.1); with gamma_5 for forming B t - x here that is 4.5 eps, and 16
#: leaves a factor above 3 for members formed in a few more operations.
GATE_K = 16.0
#: the most cosets `coset_representatives` enumerates
MAX_COSETS = 2**20
#: the largest multiplier `common_real_sublattice` looks for
MAX_MULTIPLIER = 10_000
_EPS = float(np.finfo(float).eps)
_column_norms = functools.partial(np.hypot.reduce, axis=0)
_IDENTITY = tuple(np.eye(r, dtype=np.int64) for r in range(5))  # U of a basis kept as given

Vector = tuple[complex, ...]


def as_vector(x, dim: int) -> Vector:
    """Normalize a scalar / sequence to a tuple of `dim` finite complex numbers."""
    # tuples, the common case, skip the slower scalar test
    scalar = not isinstance(x, tuple) and (np.isscalar(x) or isinstance(x, complex))
    vec = (complex(x),) if scalar else tuple(map(complex, x))
    if len(vec) != dim:
        raise ValueError(f"expected a point of C^{dim}, got {x!r}")
    if not all(map(cmath.isfinite, vec)):
        raise ValueError(f"non-finite component in {x!r}")
    return vec


def _embed(vectors: Sequence[Vector], dim: int) -> np.ndarray:
    """Real 2n x r matrix whose columns are the (Re, Im) parts of the vectors."""
    return np.array(vectors, dtype=complex).reshape(len(vectors), dim).view(float).T.copy()


@dataclass(frozen=True)
class DiscreteSubgroup:
    """Finitely generated discrete subgroup of (C^dim, +).

    The generators must be linearly independent over R; dependent input is
    rejected at construction rather than silently reduced.  A rank-2 group
    of C is tested on its Gauss-reduced basis, which it keeps (`_reduction`).
    """

    dim: int
    generators: tuple[Vector, ...]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        gens = tuple(as_vector(g, self.dim) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        r = len(gens)
        if r > 2 * self.dim:
            raise DegenerateGenerators(
                f"{r} generators exceed the maximal rank {2 * self.dim}"
            )
        if self.dim == 1 and r == 2:
            r1, r2, U = gauss_reduced_basis(gens[0][0], gens[1][0])
            reduced = ((r1,), (r2,))
        else:
            reduced, U = gens, _IDENTITY[r]
        mat = _embed(reduced, self.dim)
        if r:
            sv = np.linalg.svd(mat, compute_uv=False)
            if sv[-1] <= DEFAULT_TOL * sv[0] or sv[0] == 0.0:
                raise DegenerateGenerators(
                    f"generators are R-dependent at DEFAULT_TOL = {DEFAULT_TOL:g}"
                )
        # not a field, like _solver: eq, hash and repr read the generators
        object.__setattr__(self, "_reduction", (mat, U))  # rows of U: over gens

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def basis_matrix(self) -> np.ndarray:
        return _embed(self.generators, self.dim)

    @property
    def reduced_basis(self) -> tuple[complex, complex, np.ndarray]:
        """(r1, r2, U) of a rank-2 group of C, r_i = U[i,0] g_1 + U[i,1] g_2."""
        (x1, x2), (y1, y2) = self._reduction[0].tolist()  # else a ValueError
        return complex(x1, y1), complex(x2, y2), self._reduction[1]

    @functools.cached_property
    def _solver(self) -> tuple[np.ndarray, np.ndarray]:
        """The reduced basis matrix and its pseudo-inverse V S^-1 U^T, built
        on the first integrality test; groups that test none never pay for
        them."""
        mat = self._reduction[0]
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        return mat, (vt.T / s) @ u.T


def subgroup(gens: Iterable, dim: int | None = None) -> DiscreteSubgroup:
    """Convenience constructor; infers the dimension from the first generator."""
    gens = list(gens)
    if dim is None:
        if not gens:
            raise ValueError("cannot infer dimension of the trivial subgroup")
        first = gens[0]
        dim = 1 if (np.isscalar(first) or isinstance(first, complex)) else len(first)
    return DiscreteSubgroup(dim, tuple(gens))


def _integral(B: np.ndarray, X: np.ndarray, T: np.ndarray, cap: float | None = None) -> np.ndarray:
    """Per column x of X, whether x is B t, t the same column of the
    integer-valued T, up to rounding: |B t - x| <= K eps (sum |t_i| |b_i| +
    |x|), K = GATE_K, and that bound is at most cap.  A point off the group
    misses by a lattice distance."""
    gap = _column_norms(B @ T - X)
    bound = GATE_K * _EPS * (np.abs(T).T @ _column_norms(B) + _column_norms(X))
    return gap <= bound if cap is None else (gap <= bound) & (bound <= cap)


def _coefficients(G: DiscreteSubgroup, X: np.ndarray) -> tuple[np.ndarray, bool]:
    """Rounded coefficients T over G's reduced basis of the columns of the
    real 2n x k X (or of one point), and whether they pass the integer gate.

    The gate is on the reduced basis, which holds each vector to half an
    ulp.  A point formed from the given generators carries their rounding
    too, so a point that fails there is gated on them as well, with m =
    U^T T, while that bound stays GATE_K times below the shortest vector:
    on a skew basis it grows past any lattice distance.  The trivial group
    holds 0 alone."""
    if G.rank == 0:
        return np.zeros((0,) + X.shape[1:]), not X.any()
    mat, pinv = G._solver
    T = np.round(pinv @ X)
    ok = _integral(mat, X, T)
    if ok.all():
        return T, True
    if (U := G._reduction[1]) is not _IDENTITY[G.rank]:
        ok |= _integral(G.basis_matrix, X, U.T @ T, _column_norms(mat).min() / GATE_K)
    return T, bool(ok.all())


def _point(G: DiscreteSubgroup, x) -> np.ndarray:
    """A point of C^n as a real 2n-vector."""
    return np.array(as_vector(x, G.dim), dtype=complex).view(float)


def integer_coefficients(G: DiscreteSubgroup, x) -> tuple[np.ndarray, bool]:
    """Solve x = sum m_i * g_i for integer m_i: (m, True when m passes the gate).

    A member's m is U^T T; a non-member's is rounded in the given
    coordinates, since rounding does not commute with U."""
    X = _point(G, x)
    T, ok = _coefficients(G, X)
    U = G._reduction[1]
    if not (ok or G.rank == 0):
        T = G._solver[1] @ X  # unrounded, over the reduced basis
    return np.round(U.T @ T).astype(np.int64), ok


def contains(G: DiscreteSubgroup, x) -> bool:
    """Membership of x in G, decided via integer coefficient recovery."""
    return _coefficients(G, _point(G, x))[1]


def conjugation(G: DiscreteSubgroup) -> tuple[np.ndarray, bool]:
    """Componentwise complex conjugation on G, as (S, ok): S is the integer
    matrix with conj(R) = R S, R the columns of G's reduced basis, and ok
    whether the conjugates pass the integer gate, that is whether G is real.

    The conjugates of the generators have rounded coefficients T over R, and
    R = (generators) U^T, so conj(R) = R T U^T and S = T U^T.  When G is
    real, S^2 = I, and ker(S - I), ker(S + I) hold the coefficients of G's
    real and purely imaginary points."""
    T, ok = _coefficients(G, _embed([[c.conjugate() for c in g] for g in G.generators], G.dim))
    return T.astype(np.int64) @ G._reduction[1].T, ok


def is_real(G: DiscreteSubgroup) -> bool:
    """True iff G is closed under componentwise complex conjugation."""
    return conjugation(G)[1]


def is_sublattice(G1: DiscreteSubgroup, G2: DiscreteSubgroup) -> bool:
    """True iff every generator of G1 lies in G2."""
    if G1.dim != G2.dim:
        raise ValueError("dimension mismatch")
    return _coefficients(G2, G1.basis_matrix)[1]


def gauss_reduced_basis(w1: complex, w2: complex) -> tuple[complex, complex, np.ndarray]:
    """Lagrange/Gauss reduction of a rank-2 basis of C.

    Returns (r1, r2, U) with (r1, r2) a shortest basis, U the integer
    matrix such that r_i = U[i,0]*w1 + U[i,1]*w2, det U = +-1.  The pair is
    reduced as a copy scaled by a power of two, which is exact, so that its
    largest component lies in [1/2, 1): |b|^2 neither overflows nor
    underflows at any scale.  A step a - t b is formed exactly from the
    scaled pair and its row of U, and rounded once, so however much it
    cancels (on a skew pair) the basis holds no rounding of earlier steps.
    """
    w1, w2 = complex(w1), complex(w2)
    a0, b0, k = _scaled_pair(w1, w2)
    a, b, ua, ub = a0, b0, (1, 0), (0, 1)
    if abs(a) < abs(b):
        a, b, ua, ub = b, a, ub, ua
    for _ in range(256):
        nb = abs(b) ** 2
        if not nb:  # a zero generator, a step that cancels exactly, or one
            # so short against the other that its square underflows
            raise DegenerateGenerators(f"generators {w1}, {w2} are R-dependent")
        t = round((a * b.conjugate()).real / nb)
        if t:
            ua = (ua[0] - t * ub[0], ua[1] - t * ub[1])
            a = _combination(ua, a0, b0)
        if abs(a) >= abs(b):
            break
        a, b, ua, ub = b, a, ub, ua
    else:  # pragma: no cover
        raise InternalInconsistency("Gauss reduction did not terminate")
    if max(map(abs, ua + ub)) >= 2**63:
        raise DegenerateGenerators(
            f"generators {w1}, {w2} reduce only by a change of basis past 64-bit integers"
        )
    return _ldexp(b, -k), _ldexp(a, -k), np.array([ub, ua], dtype=np.int64)


def _combination(u: tuple[int, int], w1: complex, w2: complex) -> complex:
    """u[0] w1 + u[1] w2 rounded once: a double is a dyadic rational n / d,
    so the sum is exact in Python integers, and their true division rounds it."""
    parts = []
    for x, y in ((w1.real, w2.real), (w1.imag, w2.imag)):
        (nx, dx), (ny, dy) = x.as_integer_ratio(), y.as_integer_ratio()
        parts.append((u[0] * nx * dy + u[1] * ny * dx) / (dx * dy))
    return complex(*parts)


def _ldexp(z: complex, k: int) -> complex:
    """z 2^k, exact inside the double range."""
    return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))


def _scaled_pair(w1: complex, w2: complex) -> tuple[complex, complex, int]:
    """(w1 2^k, w2 2^k, k), k such that the largest component lies in [1/2, 1)."""
    k = -math.frexp(max(abs(w1.real), abs(w1.imag), abs(w2.real), abs(w2.imag)))[1]
    return _ldexp(w1, k), _ldexp(w2, k), k


def _transition(
    G1: DiscreteSubgroup, G2: DiscreteSubgroup
) -> tuple[np.ndarray, np.ndarray]:
    """G2's reduced basis matrix B, and the integer matrix T (of Python
    ints, so no entry wraps) whose column j holds the coefficients over B of
    generator j of G1's reduced basis.

    T and its gate are `is_sublattice`'s (`_coefficients`), so the two
    cannot disagree; a failure raises NotASublattice.  G1's U then moves T
    to G1's reduced basis, in integers.
    """
    if G1.dim != G2.dim:
        raise ValueError("dimension mismatch")
    full = 2 * G1.dim
    if G1.rank != full or G2.rank != full:
        raise ValueError("index requires full lattices on both sides")
    T, ok = _coefficients(G2, G1.basis_matrix)
    if not ok:
        raise NotASublattice(
            "first group is not contained in the second: its generators are "
            "no integer combinations of the second's basis"
        )
    return G2._reduction[0], np.frompyfunc(int, 1, 1)(T) @ G1._reduction[1].T.astype(object)


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
    """Index [G2 : G1] for full-rank sublattices G1 <= G2 of C^dim, exact."""
    _, T = _transition(G1, G2)
    return math.prod(_hermite_diagonal(T))


def coset_representatives(G1: DiscreteSubgroup, G2: DiscreteSubgroup) -> list[Vector]:
    """Representatives of G2/G1, exactly index-many, pairwise non-congruent.

    In coordinates over G2's reduced basis, G1 is spanned by the columns of
    the transition matrix T, so the integer points c of the box
    0 <= c_i < H_ii of T's Hermite form are one per coset.  Each c is moved
    by an integer combination of T's columns into the fundamental box of
    G1's reduced basis, still in integers, and then mapped through G2's
    basis.  An index above MAX_COSETS raises ValueError before any is built.
    """
    B, T = _transition(G1, G2)
    diag = _hermite_diagonal(T)
    if (n := math.prod(diag)) > MAX_COSETS:
        raise ValueError(f"index {n} exceeds the {MAX_COSETS} cosets enumerated at most")
    T = T.astype(np.int64)
    box = np.array(list(itertools.product(*map(range, diag))), dtype=np.int64).T
    shift = np.floor(np.linalg.solve(T.astype(float), box) + 1e-12).astype(np.int64)
    pts = B @ (box - T @ shift)
    return [
        tuple(complex(pts[2 * k, j], pts[2 * k + 1, j]) for k in range(G1.dim))
        for j in range(pts.shape[1])
    ]


def common_real_sublattice(
    G1: DiscreteSubgroup, G2: DiscreteSubgroup
) -> tuple[DiscreteSubgroup, int] | None:
    """Smallest a >= 1 with a*G1 <= G2, as (a*G1, a); None if none <= MAX_MULTIPLIER.

    Each entry of the transition matrix C (G1's generators over G2's reduced
    basis, unrounded) is read as its nearest fraction with denominator <=
    MAX_MULTIPLIER, and a is the lcm of those denominators; a*G1 must then
    pass `_coefficients`' gate.  Existence of the multiplier is a theorem, its
    size is not, so the operation is totalized with an explicit not-found value.
    """
    for G in (G1, G2):
        if G.dim != 1 or G.rank != 2:
            raise ValueError("requires full lattices of C")
        if not is_real(G):
            raise ValueError("requires real lattices")
    X = G1.basis_matrix
    C = G2._solver[1] @ X
    a = math.lcm(*(Fraction(c).limit_denominator(MAX_MULTIPLIER).denominator for c in C.flat))
    if a > MAX_MULTIPLIER or not _coefficients(G2, a * X)[1]:
        return None
    return DiscreteSubgroup(1, tuple(tuple(a * c for c in g) for g in G1.generators)), a


class Lattice1(DiscreteSubgroup):
    """Full lattice of (C, +) given by an ordered generator pair: the
    rank-2 group on (omega1, omega2), oriented so that Im(omega2/omega1) > 0
    by negating omega2 if needed.  The group alone judges the pair, and
    equality and hashing are the group's."""

    def __init__(self, omega1: complex, omega2: complex):
        w1, w2 = complex(omega1), complex(omega2)
        a, b, _ = _scaled_pair(w1, w2)  # so the sign neither underflows nor overflows
        if (a.conjugate() * b).imag < 0:
            w2 = -w2
        super().__init__(1, ((w1,), (w2,)))

    @property
    def omega1(self) -> complex:
        return self.generators[0][0]

    @property
    def omega2(self) -> complex:
        return self.generators[1][0]

    def scaled(self, c: complex) -> "Lattice1":
        if c == 0:
            raise ValueError("zero scaling")
        return Lattice1(c * self.omega1, c * self.omega2)
