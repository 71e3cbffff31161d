"""Numerical evaluation of the Weierstrass sigma, zeta, wp, wp' functions.

Method (DLMF 20.2, 23.6): read the lattice's Gauss-reduced basis (r1, r2),
made once by its group, flipping r2 so that tau = r2/r1 has Im tau > 0.
Then tau lies in the fundamental domain and the nome q = exp(i pi tau) has
|q| <= exp(-pi sqrt(3)/2) ~ 0.066 for every lattice, whatever basis it was
given in.  Arguments are reduced into the centered cell,
u = u_red + m r1 + n r2, and with v = pi u_red / r1:

    zeta(u)  = eta1 u / r1 + (pi/r1) (log theta1)'(v)
    wp(u)    = -eta1 / r1 - (pi/r1)^2 (log theta1)''(v)
    wp'(u)   = -(pi/r1)^3 (log theta1)'''(v)
    sigma(u) = (r1/pi) exp(eta1 u^2 / (2 r1)) theta1(v) / theta1'(0)

where eta1 = 2 zeta(r1/2) = pi^2 E2(tau) / (3 r1) with the Eisenstein series
E2.  The log-derivatives of theta1 are a cot / csc^2 term plus Fourier series
in p = q^2 exp(+-2iv), and sigma uses the theta1 product; every series term is
bounded by n^k |q|^n on the centered cell.  eta2 = 2 zeta(r2/2) needs no
series: at v = pi tau / 2 the two p are q^3 and q, so the zeta series
telescopes, sum c_n (q^3n - q^n) = -sum q^n, and cot(v) - 2i S = -i.  That
leaves eta2 = eta1 tau - 2 pi i / r1 for any eta1, which is Legendre's relation
eta1 r2 - eta2 r1 = 2 pi i (DLMF 23.2.14), and the context takes eta2 from it.
Both constants are then carried to the lattice's own generators, where the
Legendre gate measures the rounding of that change of basis and its
orientation; it cannot test eta1.
Quasi-periodicity (the eta shift) carries the values back to u.

Each context takes the fewest terms whose geometric tail bound is below
_TAIL_TARGET (at most 17, at the hexagonal lattice), so no truncation knob is
left.  ``est_error`` is that tail bound scaled to each function, plus a
rounding floor proportional to the magnitudes summed and to the argument
reduction's lever |u| / |u_red|: a bound up to rounding.

Construction computes eagerly only what the eta constants and the Legendre
gate read: the reduced basis and its orientation, the nome and term count,
q^2n and c_n = 1 / (1 - q^2n), eta1, eta2 from Legendre's relation, eta_half
and the gate; it evaluates no theta series.  The argument reduction matrix,
the series weights n c_n and n^2 c_n, the sigma product's shifted powers and
normalisation, and every error bound (the tail bounds of zeta, wp, wp', log
sigma and eta1, and the bound on the eta shift) are built on first use, so a
period group, which reads only eta, pays for none of them.  Evaluation on a
lattice whose shortest vector is below _MIN_SCALE (about 5.6e-103) is
refused, since the scale (pi/|r1|)^3 of wp' would leave the double range;
such a lattice still gets its context, its eta constants and period groups.
Construction itself refuses a lattice whose eta constants, of size about
1/|r1|, leave the double range (shortest vector below about 2e-308).
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np

from .lattices import (
    DiscreteSubgroup,
    Lattice1,
    coset_representatives,
    lattice1_from_subgroup,
)

#: bound on the dropped series tail, relative to (pi / |r1|)^k
_TAIL_TARGET = 1e-17
#: the construction gate on the Legendre relation
LEGENDRE_TOL = 1e-8
_EPS = float(np.finfo(float).eps)
_DBL_MAX = float(np.finfo(float).max)
_LOG_DBL_MAX = float(np.log(_DBL_MAX))
#: about the least |r1| at which (pi/|r1|)^3 stays inside the double range
_MIN_SCALE = float(np.pi / np.cbrt(np.finfo(float).max))


@dataclass(frozen=True)
class EvalResult:
    """A single function value with an error bound and a pole flag.

    When pole_flag is set the value and bound are NaN.
    """

    value: complex
    est_error: float
    pole_flag: bool


def _tail(k: int, terms: int, rho: float) -> float:
    """Geometric bound on sum_{n > terms} n^k rho^n."""
    ratio = ((terms + 2) / (terms + 1)) ** k * rho
    return (terms + 1) ** k * rho ** (terms + 1) / (1.0 - ratio)


def _half_angle(v: np.ndarray):
    """(s, w, 1 - w) with s = sign(Im v) and w = exp(2isv), so |w| <= 1."""
    s = np.where(v.imag >= 0, 1.0, -1.0)
    x = 2j * s * v
    return s, np.exp(x), -np.expm1(x)


def _eta_out_of_range(lattice: Lattice1, r1: complex) -> ValueError:
    return ValueError(
        f"lattice <{lattice.omega1:.17g}, {lattice.omega2:.17g}> is too small for its "
        f"eta constants: at shortest vector {abs(r1):.3g} they leave the double range"
    )


class WeierstrassContext:
    """Evaluation context for one lattice: reduced basis, nome, eta constants.

    Construction computes what the eta constants and the Legendre gate read;
    the tables that only evaluation reads (argument reduction, the series
    weights for wp and wp', the sigma product and the error bounds) are
    completed on first use and then never change.  Concurrent first use
    computes identical values, so contexts may be shared freely across
    threads and evaluation batches partitioned between workers.
    """

    def __init__(self, lattice: Lattice1):
        self.lattice = lattice
        r1, r2, U = lattice.to_subgroup().reduced_basis
        (a, b), (c, d) = U.tolist()
        if (r2 / r1).imag < 0:
            r2, c, d = -r2, -c, -d
        self._r1, self._r2 = r1, r2
        self.pole_tol = 1e-8 * abs(r2)

        self._pi_tau = np.pi * r2 / r1
        rho = self._rho = float(np.exp(-self._pi_tau.imag))  # |q|
        terms = 1
        while 16.0 * _tail(2, terms, rho) / (1.0 - rho * rho) > _TAIL_TARGET:
            terms += 1
        self.n_terms = terms
        n = self._n = np.arange(1, terms + 1)
        q2n = self._q2n = np.exp(2j * n * self._pi_tau)
        c_n = self._c_n = 1.0 / (1.0 - q2n)
        self._k = np.pi / r1
        e2_tau = 1.0 - 24.0 * np.sum(n * q2n * c_n)
        pi2_e2 = np.pi**2 * e2_tau
        if not abs(pi2_e2) < 2.99 * abs(r1) * _DBL_MAX:  # eta1 would overflow, with a warning
            raise _eta_out_of_range(lattice, r1)
        self._eta1 = pi2_e2 / (3.0 * r1)

        # eta2 from Legendre's relation eta1 r2 - eta2 r1 = 2 pi i on the
        # oriented reduced basis, then both constants solved back to the
        # lattice's own generators through the unimodular change of basis
        eta1 = complex(self._eta1)
        eta2 = (eta1 * r2 - 2j * np.pi) / r1
        self._eta_red = np.array([eta1, eta2])
        det = a * d - b * c  # eta_red = U @ eta_orig and U^-1 = det * adj(U)
        e1 = det * (d * eta1 - b * eta2)
        e2 = det * (a * eta2 - c * eta1)
        if not (cmath.isfinite(e1) and cmath.isfinite(e2)):  # Python complex: no warning
            raise _eta_out_of_range(lattice, r1)
        self.eta_half = (e1 / 2.0, e2 / 2.0)

        legendre = e1 * lattice.omega2 - e2 * lattice.omega1
        self.legendre_defect = min(abs(legendre - 2j * np.pi), abs(legendre + 2j * np.pi))
        if self.legendre_defect > LEGENDRE_TOL:
            raise ValueError(
                f"Legendre defect {self.legendre_defect:.3e} exceeds {LEGENDRE_TOL:g}"
            )

    # -- tables completed on first use -----------------------------------------

    def _tails(self, k: int) -> float:
        """Bound on the dropped terms of the theta series with n^k weights."""
        rho = self._rho
        return _tail(k, self.n_terms, rho) / (1.0 - rho * rho)

    @functools.cached_property
    def _eta1_tail(self) -> float:
        """Bound on the dropped terms of eta1's E2 series in q^2."""
        rho = self._rho
        return 8.0 * np.pi**2 / abs(self._r1) * _tail(1, self.n_terms, rho * rho) / (1.0 - rho * rho)

    @functools.cached_property
    def _tail_zeta(self) -> float:
        return 4.0 * abs(self._k) * self._tails(0)

    @functools.cached_property
    def _eta_est(self) -> float:
        """Error bound of eta_red[1] = 2 zeta(r2/2), which each period of a
        zeta or sigma shift carries.

        It also bounds eta_red[1] as Legendre's relation gives it: that error is
        |tau| err(eta1) plus rounding, inside twice the |tau/2| _eta1_tail and
        the magnitude terms below."""
        half = np.array([self._r2 / 2.0])
        _, mag = self._zeta_red(half)
        return 2.0 * float((self._zeta_tail(half) + mag * self._rounding(half, half, 1))[0])

    @functools.cached_property
    def _binv(self) -> np.ndarray:
        """The argument reduction's inverse basis, read first by every
        evaluation, so a lattice too small to evaluate is refused here."""
        r1, r2 = self._r1, self._r2
        if abs(r1) < _MIN_SCALE:
            raise ValueError(f"lattice too small to evaluate: shortest vector {abs(r1):.3g} "
                             f"is below {_MIN_SCALE:.2g}, where (pi/|r1|)^3 leaves the double range")
        det = r1.real * r2.imag - r2.real * r1.imag
        return np.array([[r2.imag, -r2.real], [-r1.imag, r1.real]]) / det

    @functools.cached_property
    def _weights(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """n^k c_n for k = 0, 1, 2."""
        n, c_n = self._n, self._c_n
        return (c_n, n * c_n, n * n * c_n)

    @functools.cached_property
    def _q2n_shift(self) -> np.ndarray:
        return np.concatenate([[1.0], self._q2n[:-1]])

    @functools.cached_property
    def _log_norm(self) -> complex:
        return np.log(self._r1 / np.pi) - 2.0 * np.sum(np.log1p(-self._q2n))

    @functools.cached_property
    def _tail_wp(self) -> float:
        return 8.0 * abs(self._k) ** 2 * self._tails(1) + self._eta1_tail / abs(self._r1)

    @functools.cached_property
    def _tail_wp_prime(self) -> float:
        return 16.0 * abs(self._k) ** 3 * self._tails(2)

    @functools.cached_property
    def _tail_logsigma(self) -> float:
        """Bound on the dropped factors of the theta1 product, in log sigma."""
        rho = self._rho
        return 4.0 * rho ** (2 * self.n_terms + 1) / ((1.0 - rho) * (1.0 - rho * rho))

    def _zeta_tail(self, ur: np.ndarray) -> np.ndarray:
        return self._tail_zeta + np.abs(ur / self._r1) * self._eta1_tail

    # -- argument reduction ------------------------------------------------

    def reduce_point(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reduce into the centered cell of the reduced basis: u = u_red + m r1 + n r2.

        A point whose coefficient over the basis reaches 2^52 is refused: a
        double that large holds no fraction to round, so u_red is lost."""
        u = np.asarray(u, dtype=complex)
        c1 = self._binv[0, 0] * u.real + self._binv[0, 1] * u.imag
        c2 = self._binv[1, 0] * u.real + self._binv[1, 1] * u.imag
        far = np.maximum(np.abs(c1), np.abs(c2)) >= 2.0**52
        if far.any():
            raise ValueError(f"cannot reduce u = {complex(u[far][0])}: its coefficient over the "
                             "lattice's reduced basis is 2^52 or more, where a double keeps no fraction")
        m = np.round(c1)
        n = np.round(c2)
        u_red = u - m * self._r1 - n * self._r2
        return u_red, m.astype(np.int64), n.astype(np.int64)

    # -- theta series on reduced arguments ------------------------------------

    def _series(self, v: np.ndarray, sign: float, k: int):
        """sum_n n^k c_n (p_+^n + sign p_-^n) with p_+- = q^2 exp(+-2iv), and a
        bound on the sum of the terms' moduli (each term is at most 2^k |q|
        times the one before it)."""
        p = np.exp(2j * (self._pi_tau + np.concatenate([v, -v])))
        weights = self._weights[k] if k else self._c_n
        # a stride-0 view: materialising the repeated p costs up to 3x on
        # large batches, where the series dominates
        shape = (p.size, self.n_terms)
        sums = np.multiply.accumulate(np.broadcast_to(p[:, None], shape), axis=1) @ weights
        m = v.size
        first = np.abs(p[:m]) + np.abs(p[m:])
        return sums[:m] + sign * sums[m:], 1.5 * abs(weights[0]) * first

    def _rounding(self, u: np.ndarray, ur: np.ndarray, order: int) -> np.ndarray:
        """Relative rounding error per unit of summed magnitude: the exponents
        of the theta terms reach |2 (pi tau + v)|, and reducing u to u_red
        costs eps |u|, magnified by the order of the pole and the exponentials."""
        lever = np.abs(u) * (order / np.abs(ur) + 8.0 * abs(self._k))
        return 4.0 * _EPS * (1.0 + 4.0 * abs(self._pi_tau) + lever)

    def _zeta_red(self, ur: np.ndarray):
        v = self._k * ur
        s, w, omw = _half_angle(v)
        cot = -1j * s * (1.0 + w) / omw
        S, S_mag = self._series(v, -1.0, 0)
        lead = self._eta1 * ur / self._r1
        val = lead + self._k * (cot - 2j * S)
        mag = np.abs(lead) + abs(self._k) * (np.abs(cot) + 2.0 * S_mag)
        return val, mag

    # -- one method per function: (values, est_error) at points off the lattice --

    def _wp(self, u, ur, m, n):
        v = self._k * ur
        _, w, omw = _half_angle(v)
        csc2 = -4.0 * w / (omw * omw)
        S, S_mag = self._series(v, 1.0, 1)
        k2 = self._k * self._k
        val = k2 * (csc2 - 4.0 * S) - self._eta1 / self._r1
        mag = abs(k2) * (np.abs(csc2) + 4.0 * S_mag) + abs(self._eta1 / self._r1)
        return val, self._tail_wp + mag * self._rounding(u, ur, 2)

    def _wp_prime(self, u, ur, m, n):
        v = self._k * ur
        s, w, omw = _half_angle(v)
        csc2_cot = 4j * s * w * (1.0 + w) / omw**3
        S, S_mag = self._series(v, -1.0, 2)
        k3 = self._k**3
        val = -k3 * (2.0 * csc2_cot + 8j * S)
        mag = abs(k3) * (2.0 * np.abs(csc2_cot) + 8.0 * S_mag)
        return val, self._tail_wp_prime + mag * self._rounding(u, ur, 3)

    def _zeta(self, u, ur, m, n):
        val, mag = self._zeta_red(ur)
        shift = m * self._eta_red[0] + n * self._eta_red[1]
        e = (self._zeta_tail(ur) + (mag + np.abs(shift)) * self._rounding(u, ur, 1)
             + (np.abs(m) + np.abs(n)) * self._eta_est)
        return val + shift, e

    def _log_sigma(self, u, ur, m, n):
        """log sigma(u) up to a multiple of 2 pi i, and a bound on its error."""
        # log sigma(u_red) up to a multiple of 2 pi i, and the magnitude summed
        v = self._k * ur
        s, _, omw = _half_angle(v)
        # q^2n exp(+-2iv) as exp(2i(pi tau +- v)) q^(2n - 2): no factor overflows
        first = np.exp(2j * (self._pi_tau + np.stack([v, -v], axis=1)))
        terms = 1.0 - first[:, :, None] * self._q2n_shift
        prod = np.prod(terms[:, 0] * terms[:, 1], axis=1)
        gauss = self._eta1 * ur * ur / (2.0 * self._r1)
        log_sin = np.log(0.5j * s * omw) - 1j * s * v
        log_s = self._log_norm + gauss + log_sin + np.log(prod)
        mag = 1.0 + np.abs(self._log_norm) + np.abs(gauss) + np.abs(log_sin)
        # quasi-periodicity carries sigma(u_red) back to u
        eta_shift = m * self._eta_red[0] + n * self._eta_red[1]
        omega = m * self._r1 + n * self._r2
        expo = eta_shift * (ur + 0.5 * omega)
        # the sign (-1)^(m + n + mn), folded into the exponent
        odd = (m + n + m * n) % 2
        log_err = (
            self._tail_logsigma
            + np.abs(ur) ** 2 * self._eta1_tail / (2.0 * abs(self._r1))
            + (np.abs(m) + np.abs(n)) * self._eta_est * np.abs(ur + 0.5 * omega)
            + (mag + np.abs(expo)) * self._rounding(u, ur, 1)
        )
        return log_s + expo + 1j * np.pi * odd, log_err

    def _sigma(self, u, ur, m, n):
        log_v, log_err = self._log_sigma(u, ur, m, n)
        fits = log_v.real <= _LOG_DBL_MAX  # else inf, with an infinite error
        val = np.exp(np.where(fits, log_v, np.inf))
        return val, np.abs(val) * np.where(fits, log_err, np.inf)

    # -- public batch evaluators --------------------------------------------

    def _eval_batch(self, u, fn, zero: complex | None = None):
        """fn at each point of u; poles (NaN values and bounds) within pole_tol
        of the lattice, or, for an entire function (sigma, log sigma), the
        value `zero` exactly on it, with a bound of 0."""
        u = np.asarray(u, dtype=complex)
        scalar_in = u.ndim == 0
        u = np.atleast_1d(u)
        u_red, m, n = self.reduce_point(u)
        if zero is not None:
            poles = np.zeros(u.shape, bool)
            ok = u_red != 0
            values = np.full(u.shape, zero, dtype=complex)
            est = np.zeros(u.shape)
        else:
            poles = np.abs(u_red) < self.pole_tol
            ok = ~poles
            values = np.full(u.shape, np.nan, dtype=complex)
            est = np.full(u.shape, np.nan)
        if np.any(ok):
            values[ok], est[ok] = fn(u[ok], u_red[ok], m[ok], n[ok])
        if scalar_in:
            return values[0], float(est[0]), bool(poles[0])
        return values, est, poles

    def wp_many(self, u):
        return self._eval_batch(u, self._wp)

    def wp_prime_many(self, u):
        return self._eval_batch(u, self._wp_prime)

    def zeta_many(self, u):
        return self._eval_batch(u, self._zeta)

    def sigma_many(self, u):
        return self._eval_batch(u, self._sigma, zero=0j)

    def log_sigma_many(self, u):
        """log sigma up to a multiple of 2 pi i, where sigma itself may leave
        the double range; -inf on the lattice."""
        return self._eval_batch(u, self._log_sigma, zero=complex(-np.inf, 0.0))

    def wp(self, u: complex) -> EvalResult:
        return EvalResult(*self._eval_batch(complex(u), self._wp))

    def wp_prime(self, u: complex) -> EvalResult:
        return EvalResult(*self._eval_batch(complex(u), self._wp_prime))

    def zeta(self, u: complex) -> EvalResult:
        return EvalResult(*self._eval_batch(complex(u), self._zeta))

    def sigma(self, u: complex) -> EvalResult:
        """sigma is entire; the pole flag is always False."""
        return EvalResult(*self._eval_batch(complex(u), self._sigma, zero=0j))


@functools.lru_cache(maxsize=64)
def get_context(lattice: Lattice1) -> WeierstrassContext:
    """Shared, cached context per lattice."""
    return WeierstrassContext(lattice)


def sample_reduced(
    lattice: Lattice1,
    count: int,
    rng: np.random.Generator,
    margin: float = 0.45,
    min_dist: float = 0.05,
) -> np.ndarray:
    """Random points in the centered fundamental cell, away from the origin pole."""
    r1, r2, _ = lattice.to_subgroup().reduced_basis
    floor = min_dist * min(abs(r1), abs(r2))
    out = []
    while len(out) < count:
        c = rng.uniform(-margin, margin, size=(2,))
        z = c[0] * r1 + c[1] * r2
        if abs(z) >= floor:
            out.append(z)
    return np.array(out)


def conjugate_lattice_check(
    ctx: WeierstrassContext, samples
) -> float:
    """Max residual of wp over the conjugate lattice vs the conjugated values."""
    samples = np.asarray(samples, dtype=complex)
    ctx_conj = get_context(ctx.lattice.conjugate())
    lhs, _, poles_l = ctx_conj.wp_many(samples)
    rhs, _, poles_r = ctx.wp_many(np.conj(samples))
    keep = ~(poles_l | poles_r)
    if not np.any(keep):
        raise ValueError("all samples hit poles")
    return float(np.max(np.abs(lhs[keep] - np.conj(rhs[keep]))))


def coset_sum_check(
    G1: DiscreteSubgroup,
    G2: DiscreteSubgroup,
    samples,
) -> float:
    """Max of |wp_{G2}(u) - sum_i wp_{G1}(u + a_i)| over the samples.

    The difference is the constant -sum_{a_i not in G1} wp_{G1}(a_i).  It
    vanishes for homothetic pairs (G1 = a*G2, where the nonzero
    representatives are the half-periods and the half-period values sum to
    zero), so only there does the returned value measure numerical error.
    Raises NotASublattice unless G1 <= G2.
    """
    samples = np.asarray(samples, dtype=complex)
    reps = coset_representatives(G1, G2)
    ctx1 = get_context(lattice1_from_subgroup(G1))
    ctx2 = get_context(lattice1_from_subgroup(G2))
    total = np.zeros(samples.shape, dtype=complex)
    bad = np.zeros(samples.shape, dtype=bool)
    for (a,) in reps:
        vals, _, poles = ctx1.wp_many(samples + a)
        total += np.where(poles, 0.0, vals)
        bad |= poles
    target, _, poles2 = ctx2.wp_many(samples)
    keep = ~(bad | poles2)
    if not np.any(keep):
        raise ValueError("all samples hit poles")
    return float(np.max(np.abs(target[keep] - total[keep])))
