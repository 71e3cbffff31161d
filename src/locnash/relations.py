"""Numerical discovery of algebraic relations among sampled functions.

A relation is a polynomial P with P(f_1(w), ..., f_k(w)) = 0 on a sampling
domain.  Detection builds the monomial evaluation matrix at random points,
column-normalizes it, and splits the singular spectrum at its largest
consecutive ratio; an accepted certificate must clear both the spectral-gap
threshold and a validation residual on a disjoint sample set.  The gates are
fixed: no call sets them.

The spectrum and the right singular vectors come from the SVD of the
triangular factor R of a QR factorization of the normalized matrix (Chan,
ACM TOMS 8, 1982); the left singular vectors are never formed.  Every
matrix has at least twice as many rows as columns, so LAPACK's divide and
conquer SVD of the full matrix takes the same QR first: the singular
values and right singular vectors match it bit for bit.

Degrees are bounded PER VARIABLE: the basis at degree d is
{X^e : max_i e_i <= d}, ordered graded-lexicographically.  verify_aat cuts
each coordinate's box by the coordinate's record in the family table: to the
monomials in the variables its relation needs (f_i(u), f_i(v), f_i(u+v) for
a function of one linear form alpha_i . u; the other exponents are 0), to
{X^e : sum_i e_i <= t} when the record gives the total degree t of the
minimal relation, and to even exponents when the record says the relation is
even in every variable, so that only the even degrees are tried: monomials
outside the cut appear in no relation and only cost the SVD.  The cut keeps
the graded-lex order, and the certificate records it.  Certificates are
unit-norm coefficient vectors with the phase of the largest coefficient
normalized to be real positive.  When the nullspace at the found degree has
dimension > 1 (monomial multiples of the minimal relation fit the same
degree box), the certificate is the element with the graded-lex minimal
leading monomial, i.e. the minimal relation itself.

A row sampler maps coordinate arrays to a (batch, arity) complex array; rows
with a NaN entry are rejected.  verify_aat evaluates its map once at u, v and
u+v per batch; find_relation stacks its column samplers into rows.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InsufficientSamples
from .scalars import fmt
from .structures import FAMILIES, AATBox, StructureDescriptor, map_batch
from .weierstrass import get_context

DEFAULT_GAP_THRESHOLD = 1e6  # least accepted ratio of consecutive singular values
DEFAULT_RES_TOL = 1e-6  # validation residual must stay below this
DEFAULT_BOX = 1.5  # samples draw real and imaginary parts from [-box, box]
# Magnitude cap realizing the "exclude pole neighborhoods" sampling policy:
# |wp| <= 30 keeps samples ~0.2 away from poles.  A loose cap lets single
# near-pole rows dominate high-degree monomial columns, which both erodes the
# singular gap and amplifies evaluation error in the validation residual by
# |value|^(degree-1); 30 passes a 30-seed robustness scan on every fixture.
DEFAULT_VALUE_CAP = 30.0
_MAX_MATRIX_BYTES = 512 * 2**20  # one complex128 monomial matrix

Sampler = Callable[..., np.ndarray]


@functools.cache
def _exponent_table(arity: int, degree: int, total: int | None = None,
                    variables: tuple[int, ...] | None = None, even: bool = False) -> np.ndarray:
    """monomial_exponents as a read-only (monomials, arity) integer array,
    keeping only the rows with sum <= total when a total cap is given, only
    those whose exponents outside the given increasing variable positions are
    0 (None: all), and only even exponents when asked.  The cuts leave the
    graded-lex order unchanged."""
    cols = range(arity) if variables is None else variables
    exps = itertools.product(range(0, degree + 1, 2 if even else 1), repeat=len(cols))
    if total is not None:
        exps = (e for e in exps if sum(e) <= total)
    searched = sorted(exps, key=lambda e: (sum(e), tuple(-x for x in e)))
    table = np.zeros((len(searched), arity), dtype=np.intp)
    table[:, cols] = searched
    table.flags.writeable = False
    return table


def monomial_exponents(arity: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples with every entry <= degree, in graded-lex order."""
    return [tuple(e) for e in _exponent_table(arity, degree).tolist()]


@dataclass(frozen=True)
class RelationCertificate:
    """Unit-norm polynomial certificate with validation evidence."""

    variable_arity: int
    max_degree: int
    exponents: tuple[tuple[int, ...], ...]
    coefficients: tuple[complex, ...]
    residual: float
    singular_gap: float
    max_total_degree: int | None = None
    variables: tuple[int, ...] | None = None  # the positions searched, when not all
    even: bool = False  # only even exponents were searched

    def coefficient_of(self, expo: Sequence[int]) -> complex:
        key = tuple(expo)
        for e, c in zip(self.exponents, self.coefficients):
            if e == key:
                return c
        return 0j

    def support(self) -> list[tuple[tuple[int, ...], complex]]:
        """Terms with |coeff| above 1e-8 * max|coeff|."""
        top = max(abs(c) for c in self.coefficients)
        return [
            (e, c)
            for e, c in zip(self.exponents, self.coefficients)
            if abs(c) > 1e-8 * top
        ]

    def serialize(self) -> str:
        lines = [
            "relation_certificate",
            f"arity = {self.variable_arity}",
            f"degree = {self.max_degree}",
        ]
        if self.max_total_degree is not None:
            lines.append(f"total_degree = {self.max_total_degree}")
        if self.even:
            lines.append("exponents = even")
        if self.variables is not None:
            lines.append("variables = " + ", ".join(f"X{k + 1}" for k in self.variables))
        lines += [
            f"residual = {fmt(self.residual)}",
            f"singular_gap = {fmt(self.singular_gap)}",
        ]
        for e, c in zip(self.exponents, self.coefficients):
            key = ",".join(str(k) for k in e)
            lines.append(f"term ({key}) = {fmt(c.real)} {fmt(c.imag)}")
        return "\n".join(lines) + "\n"


def format_polynomial(cert: RelationCertificate, names: Sequence[str] | None = None) -> str:
    """Short human-readable form showing only the supported terms."""
    names = names or [f"X{i + 1}" for i in range(cert.variable_arity)]
    parts = []
    for e, c in cert.support():
        mono = "*".join(
            (f"{names[i]}" if k == 1 else f"{names[i]}^{k}")
            for i, k in enumerate(e)
            if k > 0
        )
        coeff = f"{c.real:+.6g}" if abs(c.imag) < 1e-9 * abs(c) or c.imag == 0 else f"+({c.real:.6g}{c.imag:+.6g}i)"
        parts.append(f"{coeff}{'*' + mono if mono else ''}")
    return " ".join(parts)


def _monomial_matrix(values: np.ndarray, exponents) -> np.ndarray:
    """Columns prod_k values[:, k] ** e_k, one per exponent row, C-ordered.

    Factors multiply in variable order, so every entry equals the column-wise
    product bit for bit; C order keeps the column norms' summation order.  A
    variable whose exponent is 0 in every row contributes only factors 1.0
    and is skipped.
    """
    E = np.asarray(exponents, dtype=np.intp)
    dmax = int(E.max(initial=0))
    M = None
    for k in np.flatnonzero(E.any(axis=0)):
        powers = np.vander(values[:, k], dmax + 1, increasing=True)[:, E[:, k]]
        M = powers if M is None else M * powers
    if M is None:  # the constant monomial alone
        return np.ones((len(values), len(E)), dtype=complex)
    return np.ascontiguousarray(M)


def _minimal_leading(null_basis: np.ndarray) -> np.ndarray:
    """Nullspace element with the graded-lex minimal leading monomial.

    Eliminates from the highest monomial row downward, retiring one basis
    column per row with an entry of at least 1e-7.
    """
    B = null_basis.copy()
    active = list(range(B.shape[1]))
    for row in range(B.shape[0] - 1, -1, -1):
        if len(active) == 1:
            break
        vals = np.abs(B[row, active])
        if vals.max() < 1e-7:
            continue
        pivot = active[int(np.argmax(vals))]
        pval = B[row, pivot]
        for col in [c for c in active if c != pivot]:
            B[:, col] -= (B[row, col] / pval) * B[:, pivot]
        active.remove(pivot)
    v = B[:, active[0]]
    return v / np.linalg.norm(v)


def _normalize_phase(c: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(c)))
    phase = c[idx] / abs(c[idx])
    out = c / phase
    out[idx] = abs(c[idx])  # exact real positive pivot
    return out


def _singular_spectrum(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors of A, from A's QR factor R.

    For n >= 2m rows LAPACK's SVD of A factors A = QR and bidiagonalises R
    itself, so this gives its s and vh bit for bit; starting from R skips
    only forming U.
    """
    R = np.linalg.qr(A, mode="r")
    return np.linalg.svd(R, full_matrices=False)[1:]


class _SamplePool:
    """Incrementally grown pool of finite sample rows from one row sampler.

    Rows where the sampler returns a non-finite entry are dropped.  Growth is
    deterministic for a fixed generator state and request sequence.
    """

    def __init__(self, rows, arity, domain_dim, rng):
        self.sample = rows
        self.domain_dim = domain_dim
        self.rng = rng
        self.rows = np.empty((0, arity), dtype=complex)
        self.attempts = 0

    def ensure(self, size: int) -> np.ndarray:
        while len(self.rows) < size:
            if self.attempts > 60 * size + 1024:
                raise InsufficientSamples(
                    f"collected {len(self.rows)}/{size} samples "
                    f"after {self.attempts} draws"
                )
            batch = max(256, size - len(self.rows))
            coords = [
                self.rng.uniform(-DEFAULT_BOX, DEFAULT_BOX, batch)
                + 1j * self.rng.uniform(-DEFAULT_BOX, DEFAULT_BOX, batch)
                for _ in range(self.domain_dim)
            ]
            self.attempts += batch
            vals = self.sample(*coords)
            good = np.all(np.isfinite(vals), axis=1)
            self.rows = np.concatenate([self.rows, vals[good]], axis=0)
        return self.rows


def find_relation(
    samplers: Sequence[Sampler],
    max_degree: int,
    n_samples: int = 64,
    seed: int = 0,
    *,
    domain_dim: int = 1,
) -> RelationCertificate | None:
    """Lowest-degree polynomial relation among the samplers, or None.

    Tries per-variable degrees 1..max_degree in order and returns the first
    certificate clearing both the singular-gap threshold and the validation
    residual on a disjoint sample set.  None means "no relation found at
    this degree bound", never a proof of independence.

    n_samples is a floor: every degree trains (and separately validates) on
    at least twice its monomial count.
    """
    def rows(*coords):
        return np.stack([np.asarray(s(*coords), dtype=complex) for s in samplers], axis=1)

    return _search(rows, len(samplers), max_degree, n_samples, np.random.default_rng(seed),
                   domain_dim)


def _box_size(arity: int, degree: int, total: int | None,
              variables: tuple[int, ...] | None = None, even: bool = False) -> int:
    """len(_exponent_table(arity, degree, total, variables, even)), counted
    without the table."""
    searched = arity if variables is None else len(variables)
    cap = searched * degree if total is None else min(total, searched * degree)
    exps = range(0, degree + 1, 2 if even else 1)
    counts = [1] + [0] * cap  # counts[s]: exponent prefixes with sum s
    for _ in range(searched):
        counts = [sum(counts[s - e] for e in exps if e <= s) for s in range(cap + 1)]
    return sum(counts)


def _search(rows, arity, max_degree, n_samples, rng, domain_dim,
            total=None, variables=None, even=False) -> RelationCertificate | None:
    """find_relation's degree loop over the rows of a row sampler.  With a
    total cap, every degree's box keeps only the monomials of total degree
    <= total; with variable positions, only the monomials in those variables
    (the rows keep every column, and a row with a NaN anywhere is dropped);
    with even, only even exponents, so the loop tries the even degrees alone
    (an odd degree's box is the one below it)."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    if arity < 1:
        raise ValueError("need at least one sampler")
    m = _box_size(arity, max_degree, total, variables, even)
    n_rows = max(n_samples, 2 * m)  # the largest training matrix is n_rows x m
    if 16 * n_rows * m > _MAX_MATRIX_BYTES:
        raise ValueError(f"{m} monomials at degree {max_degree} over {n_rows} rows exceed "
                         f"the desk-scale limit of {_MAX_MATRIX_BYTES >> 20} MiB")
    pool_src = _SamplePool(rows, arity, domain_dim, rng)

    step = 2 if even else 1
    for degree in range(step, max_degree + 1, step):
        E = _exponent_table(arity, degree, total, variables, even)
        m = len(E)
        n_train = max(n_samples, 2 * m)
        pool = pool_src.ensure(2 * n_train)
        A = _monomial_matrix(pool[:n_train], E)
        norms = np.linalg.norm(A, axis=0)
        norms[norms == 0.0] = 1.0
        s, vh = _singular_spectrum(A / norms)
        with np.errstate(divide="ignore"):
            ratios = np.where(s[1:] > 0.0, s[:-1] / s[1:], np.inf)
        split = int(np.argmax(ratios))
        gap = float(ratios[split])
        if not gap >= DEFAULT_GAP_THRESHOLD:
            continue
        null_basis = vh[split + 1 :, :].conj().T  # m x r
        c_scaled = _minimal_leading(null_basis)
        V = _monomial_matrix(pool[n_train : 2 * n_train], E) / norms
        residual = float(np.max(np.abs(V @ c_scaled)))
        if residual >= DEFAULT_RES_TOL:
            continue
        c_orig = c_scaled / norms
        c_orig = c_orig / np.linalg.norm(c_orig)
        c_orig = _normalize_phase(c_orig)
        return RelationCertificate(
            variable_arity=arity,
            max_degree=degree,
            exponents=tuple(map(tuple, E.tolist())),
            coefficients=tuple(complex(x) for x in c_orig),
            residual=residual,
            singular_gap=gap,
            max_total_degree=total,
            variables=variables,
            even=even,
        )
    return None


# -- samplers built from descriptors ------------------------------------------

def _reject(values, poles) -> np.ndarray:
    """values as a new complex array, NaN at poles, at non-finite values and
    above DEFAULT_VALUE_CAP."""
    v = np.array(values, dtype=complex)
    v[poles | ~np.isfinite(v) | (np.abs(v) > DEFAULT_VALUE_CAP)] = complex("nan")
    return v


def map_sampler(d: StructureDescriptor, shift: complex = 0j) -> Sampler:
    """A dim-1 descriptor's map as a sampler, u -> f(u + shift)."""
    if d.dim != 1:
        raise ValueError("map_sampler handles dim-1 descriptors")

    def sampler(u):
        vals, poles = map_batch(d, u if shift == 0 else np.asarray(u, dtype=complex) + shift)
        return _reject(vals[0], poles[0])

    return sampler


def wp_sampler(lattice) -> Sampler:
    """wp over the given lattice as a sampler with pole / magnitude rejection."""
    ctx = get_context(lattice)

    def sampler(u):
        v, _, poles = ctx.wp_many(np.asarray(u, dtype=complex))
        return _reject(v, poles)

    return sampler


def _aat_rows(d: StructureDescriptor, coord: int):
    """Row sampler f_1(u)...f_n(u), f_1(v)...f_n(v), f_coord(u+v) over 2n
    coordinates: u is the first n, v the last n."""
    n = d.dim

    def rows(*coords):
        u, v = coords[:n], coords[n:]
        (fu, pu), (fv, pv) = map_batch(d, *u), map_batch(d, *v)
        fuv, puv = map_batch(d, *(a + b for a, b in zip(u, v)))
        cols = [_reject(f[j], p[j]) for f, p in ((fu, pu), (fv, pv)) for j in range(n)]
        return np.stack(cols + [_reject(fuv[coord], puv[coord])], axis=1)

    return rows


# -- higher-level checks -------------------------------------------------------

@dataclass(frozen=True)
class AATReport:
    """Per-coordinate addition-theorem certificates for one descriptor, and
    the boxes searched: the per-variable degree, and each coordinate's
    `AATBox` (its variables and total-degree cap)."""

    success: bool
    certificates: tuple[RelationCertificate | None, ...]
    max_degree: int
    boxes: tuple[AATBox, ...]

    @property
    def found_degrees(self) -> tuple[int | None, ...]:
        return tuple(c.max_degree if c else None for c in self.certificates)


def verify_aat(
    d: StructureDescriptor,
    max_degree: int,
    n_samples: int = 64,
    seed: int = 0,
) -> AATReport:
    """Numerical algebraic-addition-theorem certificate for the descriptor.

    For each map coordinate i, searches for a relation among
    f_1(u)...f_n(u), f_1(v)...f_n(v), f_i(u+v), in the box of the
    coordinate's `AATBox` in the family's record: only monomials in its
    variables, and of at most its total degree.  A relation among some of
    the variables is one among all of them.  Success on every coordinate
    constitutes the certificate.
    """
    certs = [_aat_search(d, coord, max_degree, n_samples, seed) for coord in range(d.dim)]
    return AATReport(all(c is not None for c in certs), tuple(certs), max_degree,
                     FAMILIES[d.family].aat)


def _aat_search(d, coord, max_degree, n_samples, seed) -> RelationCertificate | None:
    """verify_aat's search for one map coordinate, in the coordinate's box."""
    n, box = d.dim, FAMILIES[d.family].aat[coord]
    return _search(_aat_rows(d, coord), 2 * n + 1, max_degree, n_samples,
                   np.random.default_rng(seed + coord), 2 * n, box.total_degree, box.variables,
                   box.even)


def dependent(
    sampler1: Sampler,
    sampler2: Sampler,
    max_degree: int,
    n_samples: int = 64,
    seed: int = 0,
) -> tuple[bool, RelationCertificate | None]:
    """Two-variable algebraic-dependence test.

    False means "no relation found at this degree bound"; it is not a proof
    of independence.
    """
    cert = find_relation([sampler1, sampler2], max_degree, n_samples, seed)
    return cert is not None, cert


def translate_algebraicity_check(
    d: StructureDescriptor,
    shift: complex,
    max_degree: int,
    n_samples: int = 64,
    seed: int = 0,
) -> RelationCertificate | None:
    """Certificate that u -> f(u + shift) is algebraic over the unshifted map
    (dim-1 descriptors only, as map_sampler checks)."""
    return find_relation([map_sampler(d), map_sampler(d, shift)], max_degree, n_samples, seed)
