"""Oracles for the test suite.

The mpmath reference evaluates sigma/zeta/wp/wp' and eta from mpmath's
jtheta at 30 digits on the basis as given, membership is decided by
brute-force enumeration, and the Eisenstein invariants come from plain
hard-cutoff lattice sums; none of these shares code with the package.  The
double precision q-series reference uses the same expansions as the
package's evaluator, so it checks consistency, not correctness.  The
pulled-back period group is a reference of arithmetic, not of values: it
builds the model's group and then applies alpha^-1 as a second step, and
each family's period rank is written out in `PERIOD_RANK`.  The
fresh-row residual holds a relation certificate to rows it never saw, in
every column of its row sampler, whatever box the search was cut to.
"""

from __future__ import annotations

import dataclasses
import functools

import mpmath as mp
import numpy as np

from locnash.lattices import DiscreteSubgroup, Lattice1
from locnash.relations import _monomial_matrix, _SamplePool
from locnash.structures import period_group


def mpmath_reference(lat: Lattice1, dps: int = 30):
    """kind -> callable z -> complex, for kind in wp, wp_prime, zeta, sigma,
    and "eta" -> callable () -> (eta1, eta2) = (2 zeta(w1/2), 2 zeta(w2/2)),
    each taken from the theta quotient at its own half-period, so neither
    reads Legendre's relation.

    With w1 = lat.omega1, q = exp(i pi omega2 / w1), v = pi z / w1 and
    L = log theta1(v):

        sigma = (w1/pi) exp(e1 z^2 / (2 w1)) theta1(v) / theta1'(0)
        zeta  = e1 z / w1 + (pi/w1) L'
        wp    = -zeta',  wp' = -zeta''

    where e1 = 2 zeta(w1/2) = -(pi^2/w1) c and c = theta1^(3)(0) / (3 theta1'(0)).
    Nothing is reduced: theta1 is entire and |q| < 1 in every basis.
    """
    with mp.workdps(dps):
        w1 = mp.mpc(lat.omega1)
        q = mp.exp(1j * mp.pi * mp.mpc(lat.omega2) / w1)
        t1p0 = mp.jtheta(1, 0, q, 1)
        c = mp.jtheta(1, 0, q, 3) / (3 * t1p0)
        e1 = -(mp.pi**2 / w1) * c
        k = mp.pi / w1

    def log_derivatives(z):
        t = [mp.jtheta(1, k * z, q, j) for j in range(4)]
        l1, l2, l3 = t[1] / t[0], t[2] / t[0], t[3] / t[0]
        return l1, l2 - l1**2, l3 - 3 * l1 * l2 + 2 * l1**3

    def value(kind, z):
        with mp.workdps(dps):
            z = mp.mpc(z)
            if kind == "sigma":
                return complex((w1 / mp.pi) * mp.exp(e1 * z**2 / (2 * w1))
                               * mp.jtheta(1, k * z, q) / t1p0)
            if kind == "zeta":
                # the first log-derivative alone: higher theta derivatives
                # cost more as |q| nears 1 in a skew basis
                log_d1 = mp.jtheta(1, k * z, q, 1) / mp.jtheta(1, k * z, q)
                return complex(e1 * z / w1 + k * log_d1)
            d1, d2, d3 = log_derivatives(z)
            if kind == "wp":
                return complex(k**2 * (c - d2))
            if kind == "wp_prime":
                return complex(-(k**3) * d3)
            raise ValueError(kind)

    def eta():
        return tuple(2 * value("zeta", w / 2) for w in (lat.omega1, lat.omega2))

    refs = {kind: functools.partial(value, kind) for kind in ("wp", "wp_prime", "zeta", "sigma")}
    return refs | {"eta": eta}


def qseries_reference(lat: Lattice1, nterms: int = 200):
    """(zeta_ref, wp_ref) callables plus (g2, g3, eta1) for the lattice.

    eta1 is 2*zeta(omega1/2).  Valid for arguments with |Im(z/omega1)|
    well inside Im(tau); fine for points of the fundamental cell.
    """
    w1, w2 = lat.omega1, lat.omega2
    tau = w2 / w1
    qb = np.exp(2j * np.pi * tau)
    n = np.arange(1, nterms + 1)
    qn = qb**n
    E2 = 1 - 24 * np.sum(n * qn / (1 - qn))
    E4 = 1 + 240 * np.sum(n**3 * qn / (1 - qn))
    E6 = 1 - 504 * np.sum(n**5 * qn / (1 - qn))
    g2 = (4 * np.pi**4 / 3) * E4 / w1**4
    g3 = (8 * np.pi**6 / 27) * E6 / w1**6
    eta1_tau = (np.pi**2 / 3) * E2

    # q^n sin/cos(2 pi n x) computed as exp(2 pi i n (tau +- x)) so both
    # factors decay together; valid for |Im x| < Im tau (the fundamental cell)
    def _epm(x):
        ep = np.exp(2j * np.pi * n * (tau + x))
        em = np.exp(2j * np.pi * n * (tau - x))
        return ep, em

    def zeta_ref(z: complex) -> complex:
        x = z / w1
        ep, em = _epm(x)
        s = np.sum((ep - em) / (2j * (1 - qn)))
        return (eta1_tau * x + np.pi / np.tan(np.pi * x) + 4 * np.pi * s) / w1

    def wp_ref(z: complex) -> complex:
        x = z / w1
        ep, em = _epm(x)
        s = np.sum(n * (ep + em) / (2 * (1 - qn)))
        return (-eta1_tau + np.pi**2 / np.sin(np.pi * x) ** 2 - 8 * np.pi**2 * s) / w1**2

    return zeta_ref, wp_ref, g2, g3, eta1_tau / w1


def eisenstein_oracle(lat: Lattice1, factor: float = 400.0):
    """g2 = 60 sum 1/w^4 and g3 = 140 sum 1/w^6 by plain truncated sums."""
    w1, w2 = lat.omega1, lat.omega2
    R = factor * max(abs(w1), abs(w2))
    area = (w1.conjugate() * w2).imag
    m_max = int(np.ceil(R * abs(w2) / area)) + 2
    n_max = int(np.ceil(R * abs(w1) / area)) + 2
    M, N = np.meshgrid(
        np.arange(-m_max, m_max + 1), np.arange(-n_max, n_max + 1), indexing="ij"
    )
    pts = M * w1 + N * w2
    keep = ((M != 0) | (N != 0)) & (np.abs(pts) <= R)
    w = pts[keep]
    return 60.0 * np.sum(w**-4.0), 140.0 * np.sum(w**-6.0)


def brute_contains(G, x, box: int = 50, tol: float = 1e-9) -> bool:
    """Membership by enumerating integer combinations with |m_i| <= box."""
    gens = G.generators
    vec = np.asarray(x if not np.isscalar(x) else [x], dtype=complex)
    if not gens:
        return bool(np.linalg.norm(vec) <= tol)
    scale = 1.0 + float(np.linalg.norm(vec))
    grids = np.meshgrid(*[np.arange(-box, box + 1)] * len(gens), indexing="ij")
    total = np.zeros(grids[0].shape + vec.shape, dtype=complex)
    for g_coeff, gen in zip(grids, gens):
        total += g_coeff[..., None] * np.asarray(gen, dtype=complex)
    dist = np.abs(total - vec).sum(axis=-1)
    return bool(dist.min() <= tol * scale)


#: the rank of each family's period group as the paper gives it, held apart
#: from the code that computes it
PERIOD_RANK = {"id": 0, "exp": 1, "sin": 1, "wp_real": 2,
               "p1": 0, "p2": 1, "p3": 2, "p4": 2, "p5": 3, "p6_product": 4}


def pulled_back_period_group(d) -> tuple[DiscreteSubgroup, tuple[str, ...]]:
    """(group, closed forms) of d's period group in two steps: the group of
    d's model (d with the identity alpha), then np.linalg.inv(alpha) @ g
    applied to each of its generators g and a second group built on them."""
    model = period_group(dataclasses.replace(d, alpha=None))
    if d.alpha_is_identity:
        return model.group, model.closed_form
    M = np.linalg.inv(d.alpha_matrix)
    gens = tuple(tuple(M @ np.asarray(g, dtype=complex)) for g in model.group.generators)
    return DiscreteSubgroup(d.dim, gens), tuple(f"alpha^-1 {f}" for f in model.closed_form)


def random_real_invertible(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        A = rng.uniform(-2.0, 2.0, (n, n))
        if abs(np.linalg.det(A)) > 0.2:
            return A.astype(complex)


def central_diff(f, z: complex, h: float = 1e-5) -> complex:
    return (f(z + h) - f(z - h)) / (2 * h)


def fresh_row_residual(cert, rows, domain_dim: int, seed: int, n: int = 128) -> float:
    """The certificate's largest residual on n fresh rows of the row sampler
    (all cert.variable_arity columns, drawn from a generator of its own), in
    the column-normalized basis the search validates in."""
    pool = _SamplePool(rows, cert.variable_arity, domain_dim, np.random.default_rng([seed, 1]))
    M = _monomial_matrix(pool.ensure(n)[:n], cert.exponents)
    c = np.array(cert.coefficients)
    return float(np.max(np.abs(M @ c)) / np.linalg.norm(c * np.linalg.norm(M, axis=0)))
