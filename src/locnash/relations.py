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
each coordinate's box by the coordinate's `AATBox` in the family table (its
variables, total-degree cap and even exponents): monomials outside the cut
appear in no relation and only cost the SVD.  The cut keeps the graded-lex
order, and the certificate records its box.  The box also records the
per-variable degree of the coordinate's minimal relation, where its degree
loop starts.  The sampled points' closure is an irreducible hypersurface,
so every relation is a multiple of the minimal one and no smaller box holds
one.  find_relation, dependent and
translate_algebraicity_check start at degree 1.  A box of more than 4096
monomials is refused before sampling: its matrix would pass 512 MiB.
Certificates are unit-norm coefficient vectors with the phase of the largest
coefficient normalized to be real positive.  When the nullspace at the found
degree has dimension > 1 (monomial multiples of the minimal relation fit the
same degree box), the certificate is the element with the graded-lex minimal
leading monomial, i.e. the minimal relation itself.

A row sampler maps coordinate arrays to a (batch, arity) complex array; rows
with a NaN entry are rejected.  find_relation stacks its column samplers into
rows.  verify_aat and translate_algebraicity_check sample the model map F at
w = alpha u, where u -> alpha u is a bijection, so F's relations are the
map's: verify_aat evaluates F once at w, w' and w+w' per batch.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
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
#: the most monomials m whose matrix, with at least 2m rows, fits the budget
_MAX_MONOMIALS = math.isqrt(_MAX_MATRIX_BYTES // 32)

Sampler = Callable[..., np.ndarray]


def _exponents_summing_to(s: int, k: int, top: int, step: int):
    """Length-k tuples of multiples of step in [0, top] with sum s, in
    descending lexicographic order; s is a multiple of step."""
    if k == 0:
        yield ()
        return
    for e in range(min(s, top), max(0, s - (k - 1) * top) - 1, -step):
        for rest in _exponents_summing_to(s - e, k - 1, top, step):
            yield (e,) + rest


@functools.cache
def _exponent_table(arity: int, degree: int, box: AATBox = AATBox()) -> np.ndarray:
    """The monomials of the per-variable degree box cut by `box`, as a
    read-only (monomials, arity) integer array in graded-lex order.

    Rows are generated one total degree at a time; past _MAX_MONOMIALS rows
    the box is refused with a ValueError.
    """
    cols = range(arity) if box.variables is None else box.variables
    step = 2 if box.even else 1
    top = degree - degree % step  # the largest exponent in the box
    cap = len(cols) * top if box.total_degree is None else min(box.total_degree, len(cols) * top)
    searched = list(itertools.islice(itertools.chain.from_iterable(
        _exponents_summing_to(s, len(cols), top, step) for s in range(0, cap + 1, step)),
        _MAX_MONOMIALS + 1))
    if len(searched) > _MAX_MONOMIALS:
        raise ValueError(f"more than {_MAX_MONOMIALS} monomials at degree {degree} exceed "
                         f"the desk-scale limit of {_MAX_MATRIX_BYTES >> 20} MiB")
    table = np.zeros((len(searched), arity), dtype=np.intp)
    table[:, cols] = searched
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class RelationCertificate:
    """Unit-norm polynomial certificate with validation evidence."""

    variable_arity: int
    max_degree: int
    coefficients: tuple[complex, ...]
    residual: float
    singular_gap: float
    box: AATBox = AATBox()  # the cut of the per-variable degree box searched

    @property
    def exponents(self) -> tuple[tuple[int, ...], ...]:
        """The searched monomials, in the order of the coefficients."""
        return tuple(map(tuple, _exponent_table(self.variable_arity, self.max_degree,
                                                self.box).tolist()))

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
        if self.box.total_degree is not None:
            lines.append(f"total_degree = {self.box.total_degree}")
        if self.box.even:
            lines.append("exponents = even")
        if self.box.variables is not None:
            lines.append("variables = " + ", ".join(f"X{k + 1}" for k in self.box.variables))
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
                    f"collected {len(self.rows)}/{size} samples after {self.attempts} draws of "
                    f"real and imaginary parts uniform in [-{DEFAULT_BOX}, {DEFAULT_BOX}] per "
                    "coordinate, rejecting rows with a NaN entry (the built-in samplers' poles, "
                    f"non-finite values and |value| > {DEFAULT_VALUE_CAP:g})"
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


def _search(rows, arity, max_degree, n_samples, rng, domain_dim,
            box=AATBox()) -> RelationCertificate | None:
    """find_relation's degree loop over the rows of a row sampler, each
    degree's monomials cut by `box` (the rows keep every column, and a row
    with a NaN anywhere is dropped).  The loop starts at box.degree, the
    per-variable degree of the minimal relation: no smaller box holds a
    relation.  An even box tries the even degrees alone, from the first at
    or above box.degree: an odd degree's box is the one below it."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    if arity < 1:
        raise ValueError("need at least one sampler")
    m = len(_exponent_table(arity, max_degree, box))
    n_rows = max(n_samples, 2 * m)  # the largest training matrix is n_rows x m
    if 16 * n_rows * m > _MAX_MATRIX_BYTES:
        raise ValueError(f"{m} monomials at degree {max_degree} over {n_rows} rows exceed "
                         f"the desk-scale limit of {_MAX_MATRIX_BYTES >> 20} MiB")
    pool_src = _SamplePool(rows, arity, domain_dim, rng)

    step = 2 if box.even else 1
    for degree in range(box.degree + box.degree % step, max_degree + 1, step):
        E = _exponent_table(arity, degree, box)
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
            coefficients=tuple(complex(x) for x in c_orig),
            residual=residual,
            singular_gap=gap,
            box=box,
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
    """Row sampler F_1(w)...F_n(w), F_1(w')...F_n(w'), F_coord(w+w') of the
    model map F over 2n model coordinates: w is the first n, w' the last n."""
    n, model = d.dim, FAMILIES[d.family].map

    def rows(*coords):
        w, w2 = coords[:n], coords[n:]
        (fu, pu), (fv, pv) = model(d, *w), model(d, *w2)
        fuv, puv = model(d, *(a + b for a, b in zip(w, w2)))
        cols = [_reject(f[j], p[j]) for f, p in ((fu, pu), (fv, pv)) for j in range(n)]
        return np.stack(cols + [_reject(fuv[coord], puv[coord])], axis=1)

    return rows


# -- higher-level checks -------------------------------------------------------

@dataclass(frozen=True)
class AATReport:
    """Per-coordinate addition-theorem certificates for one descriptor, and
    the boxes searched: the per-variable degree, and each coordinate's
    `AATBox`."""

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
    coordinate's `AATBox` in the family's record.  A relation among some of
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
                   np.random.default_rng(seed + coord), 2 * n, box)


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
    (dim-1 descriptors only, as map_sampler checks): F(w + alpha shift) over
    F(w) for the model map F."""
    m = replace(d, alpha=None)
    return find_relation([map_sampler(m), map_sampler(m, d.alpha[0][0] * shift)], max_degree,
                         n_samples, seed)
