"""Independent reference values for the Weierstrass functions, from mpmath.

The lattice is Gauss-reduced here (in mpmath arithmetic, sharing no code
with locnash) so that tau = W2/W1 lies in the fundamental domain and the
nome q = exp(i pi tau) has |q| <= exp(-pi sqrt(3)/2).  With v = pi z / W1:

    sigma(z) = (W1/pi) exp(E1 z^2 / (2 W1)) theta1(v) / theta1'(0)
    zeta(z)  = E1 z / W1 + (pi/W1) (log theta1)'(v)
    wp(z)    = (pi/W1)^2 [-(log theta1)''(v) + theta1'''(0) / (3 theta1'(0))]
    wp'(z)   = -(pi/W1)^3 (log theta1)'''(v)

where E1 = 2 zeta(W1/2) = -(pi^2/W1) theta1'''(0) / (3 theta1'(0)).  Arguments
are not reduced into a cell: theta1 is entire, so every point is evaluated
directly.  Each oracle checks itself at construction: the Legendre relation
E1 W2 - E2 W1 = 2 pi i, and the differential equation
wp'^2 = 4 wp^3 - g2 wp - g3 with g2, g3 from the Eisenstein q-series.
"""

from __future__ import annotations

import mpmath as mp

DPS = 30


class OracleSelfCheckError(RuntimeError):
    """The reference failed one of its own identities."""


def _reduce(w1: mp.mpc, w2: mp.mpc):
    """Lagrange reduction: (r1, r2, U) with r_i = U[i][0] w1 + U[i][1] w2."""
    a, b = w1, w2
    ua, ub = [1, 0], [0, 1]
    if abs(a) < abs(b):
        a, b, ua, ub = b, a, ub, ua
    while True:
        t = int(mp.nint(mp.re(a * mp.conj(b)) / abs(b) ** 2))
        a = a - t * b
        ua = [ua[0] - t * ub[0], ua[1] - t * ub[1]]
        if abs(a) >= abs(b):
            break
        a, b, ua, ub = b, a, ub, ua
    if mp.im(a / b) < 0:
        a, ua = -a, [-ua[0], -ua[1]]
    return b, a, (ub, ua)


class LatticeOracle:
    """Reference sigma, zeta, wp, wp' and eta constants for one lattice <w1, w2>."""

    def __init__(self, w1: complex, w2: complex):
        with mp.workdps(DPS):
            self.w1, self.w2 = mp.mpc(w1), mp.mpc(w2)
            self.W1, self.W2, self.U = _reduce(self.w1, self.w2)
            self.tau = self.W2 / self.W1
            self.q = mp.exp(1j * mp.pi * self.tau)
            t1p0 = mp.jtheta(1, 0, self.q, 1)
            self._c = mp.jtheta(1, 0, self.q, 3) / (3 * t1p0)
            self._t1p0 = t1p0
            self.E1 = -(mp.pi**2 / self.W1) * self._c
            self.E2 = 2 * self._zeta(self.W2 / 2)
            self._self_check()

    # -- theta-function formulas ---------------------------------------------

    def _thetas(self, z, order: int):
        v = mp.pi * z / self.W1
        return [mp.jtheta(1, v, self.q, k) for k in range(order + 1)]

    def _zeta(self, z):
        t0, t1 = self._thetas(z, 1)
        return self.E1 * z / self.W1 + (mp.pi / self.W1) * t1 / t0

    def _wp_pair(self, z):
        t0, t1, t2, t3 = self._thetas(z, 3)
        l1, l2, l3 = t1 / t0, t2 / t0, t3 / t0
        k = mp.pi / self.W1
        wp = k**2 * (-(l2 - l1**2) + self._c)
        wpp = -(k**3) * (l3 - 3 * l1 * l2 + 2 * l1**3)
        return wp, wpp

    def _self_check(self) -> None:
        legendre = self.E1 * self.W2 - self.E2 * self.W1 - 2j * mp.pi
        if abs(legendre) > mp.mpf(10) ** (-(DPS - 8)):
            raise OracleSelfCheckError(f"Legendre defect {mp.nstr(abs(legendre), 5)}")
        g2, g3 = self.invariants()
        for z in (self.W1 * mp.mpf("0.31") + self.W2 * mp.mpf("0.17"),
                  self.W1 * mp.mpf("-0.23") + self.W2 * mp.mpf("0.41")):
            wp, wpp = self._wp_pair(z)
            de = wpp**2 - (4 * wp**3 - g2 * wp - g3)
            if abs(de) > mp.mpf(10) ** (-(DPS - 10)) * (1 + abs(wpp) ** 2):
                raise OracleSelfCheckError(f"differential equation defect {mp.nstr(abs(de), 5)}")

    # -- public values ---------------------------------------------------------

    def invariants(self):
        """(g2, g3) from the Eisenstein q-series in q2 = exp(2 pi i tau)."""
        with mp.workdps(DPS):
            q2 = self.q**2
            s3 = mp.nsum(lambda n: n**3 * q2**n / (1 - q2**n), [1, mp.inf])
            s5 = mp.nsum(lambda n: n**5 * q2**n / (1 - q2**n), [1, mp.inf])
            e4, e6 = 1 + 240 * s3, 1 - 504 * s5
            return ((4 * mp.pi**4 / 3) * e4 / self.W1**4,
                    (8 * mp.pi**6 / 27) * e6 / self.W1**6)

    def eta(self) -> tuple[complex, complex]:
        """(2 zeta(w1/2), 2 zeta(w2/2)) for the generators as given."""
        (a1, b1), (a2, b2) = self.U
        # r_i = U[i] . (w1, w2); invert the unimodular U to express w_i in r_i
        det = a1 * b2 - a2 * b1
        inv = ((b2 * det, -b1 * det), (-a2 * det, a1 * det))
        with mp.workdps(DPS):
            return tuple(complex(inv[i][0] * self.E1 + inv[i][1] * self.E2) for i in range(2))

    def _reduce_point(self, z):
        x = z / self.W1
        n = mp.nint(mp.im(x) / mp.im(self.tau))
        m = mp.nint(mp.re(x - n * self.tau))
        return z - m * self.W1 - n * self.W2

    def is_lattice_point(self, z: complex, tol: float = 1e-9) -> bool:
        with mp.workdps(DPS):
            return abs(self._reduce_point(mp.mpc(z))) <= tol * abs(self.W1)

    def value(self, kind: str, z: complex) -> complex:
        """kind in {wp, wp_prime, zeta, sigma}; the caller excludes lattice points
        for the three meromorphic functions."""
        with mp.workdps(DPS):
            z = mp.mpc(z)
            if kind == "sigma":
                t0 = self._thetas(z, 0)[0]
                return complex((self.W1 / mp.pi) * mp.exp(self.E1 * z**2 / (2 * self.W1))
                               * t0 / self._t1p0)
            if kind == "zeta":
                return complex(self._zeta(z))
            if kind in ("wp", "wp_prime"):
                z = self._reduce_point(z)  # wp and wp' are periodic
            if kind == "wp":
                t0, t1, t2 = self._thetas(z, 2)
                l1, l2 = t1 / t0, t2 / t0
                return complex((mp.pi / self.W1) ** 2 * (-(l2 - l1**2) + self._c))
            if kind == "wp_prime":
                return complex(self._wp_pair(z)[1])
            raise ValueError(kind)
