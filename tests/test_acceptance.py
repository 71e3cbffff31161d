"""Acceptance suite: one test per criterion, default configuration throughout.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion.  Criterion 3 is expected to fail on its second lattice pair: the
coset-sum identity carries a nonzero additive constant for non-homothetic
sublattice pairs (wp_{<1,i>} - [wp_{<1,2i>}(.) + wp_{<1,2i>}(. + i)] is the
constant -wp_{<1,2i>}(i) = 3.4375929090..., verified against the eta-constant
prediction and the direct half-period value).  The criterion is asserted as
stated rather than weakened.
"""

import numpy as np

import helpers
from locnash.classify import ISOMORPHIC, NOT_ISOMORPHIC, isomorphic_1d
from locnash.cli import build_parser, main
from locnash.lattices import Lattice1, subgroup
from locnash.relations import dependent, find_relation, verify_aat, wp_sampler
from locnash.scalars import ExactReal
from locnash.structures import (
    StructureDescriptor,
    exp_map,
    identity_map,
    map_batch,
    painleve,
    period_group,
    sin_map,
    wp_real,
    z_rank,
)
from locnash.weierstrass import (
    conjugate_lattice_check,
    coset_sum_check,
    get_context,
    sample_reduced,
)

CFG = build_parser().parse_args(["periods", "-"])  # acceptance runs the default flags

SQ = Lattice1(1, 1j)
RECT = Lattice1(1, 2j)
HEX = Lattice1(1, np.exp(1j * np.pi / 3))
THREE_LATTICES = (SQ, RECT, HEX)

FIXTURES_2D = {
    "p1": painleve("p1"),
    "p2": painleve("p2"),
    "p3": painleve("p3"),
    "p4": painleve("p4", a=1, lattice=SQ),
    "p5": painleve("p5", a=0.3, lattice=SQ),
    "p6_product": painleve("p6_product", lattice=SQ, lattice2=RECT),
}
FIXTURES_1D = {
    "id": identity_map(),
    "exp": exp_map(),
    "sin": sin_map(),
    "wp_real": wp_real(2.0),
}


def _ctx(lat):
    return get_context(lat)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_quasi_periodicity():
    rng = np.random.default_rng(CFG.seed)
    worst_zeta = worst_sigma = 0.0
    for lat in THREE_LATTICES:
        ctx = _ctx(lat)
        zs = sample_reduced(lat, 50, rng)
        base_z, _, _ = ctx.zeta_many(zs)
        base_s, _, _ = ctx.sigma_many(zs)
        for i, w in enumerate((lat.omega1, lat.omega2)):
            sz, _, _ = ctx.zeta_many(zs + w)
            worst_zeta = max(worst_zeta, float(np.max(np.abs(sz - base_z - ctx.eta[i]))))
            ss, _, _ = ctx.sigma_many(zs + w)
            rhs = -base_s * np.exp(ctx.eta[i] * (zs + w / 2))
            worst_sigma = max(worst_sigma, float(np.max(np.abs(ss - rhs) / np.abs(ss))))
    ok = worst_zeta < 1e-8 and worst_sigma < 1e-7
    _report(1, "quasi-periodicity", ok,
            f"zeta residual {worst_zeta:.2e} < 1e-8, sigma relative {worst_sigma:.2e} < 1e-7")
    assert worst_zeta < 1e-8
    assert worst_sigma < 1e-7


def test_criterion_02_conjugation():
    rng = np.random.default_rng(CFG.seed)
    worst = 0.0
    for lat in THREE_LATTICES:
        zs = sample_reduced(lat, 30, rng)
        worst = max(worst, conjugate_lattice_check(_ctx(lat), zs))
    ok = worst < 1e-8
    _report(2, "conjugation", ok, f"max residual {worst:.2e} < 1e-8")
    assert ok


def test_criterion_03_coset_sum():
    rng = np.random.default_rng(CFG.seed)
    zs = sample_reduced(SQ, 30, rng)
    pairs = {
        "(<2,2i>,<1,i>)": (subgroup([2, 2j]), subgroup([1, 1j])),
        "(<1,2i>,<1,i>)": (subgroup([1, 2j]), subgroup([1, 1j])),
    }
    results = {
        name: coset_sum_check(g1, g2, zs)
        for name, (g1, g2) in pairs.items()
    }
    ok = all(r < 1e-6 for r in results.values())
    detail = ", ".join(f"{name} residual {r:.3e}" for name, r in results.items())
    _report(3, "coset-sum with zero constant", ok, detail + " vs 1e-6")
    for name, r in results.items():
        assert r < 1e-6, (
            f"coset pair {name}: residual {r:.10g}; the difference is the constant "
            f"-wp_sub(half period), nonzero for non-homothetic pairs; see this "
            f"module's docstring and README 'One acceptance test fails by design'"
        )


def test_criterion_04_period_table_fixes_maps():
    rng = np.random.default_rng(CFG.seed)
    worst = 0.0
    for fam, d in {**FIXTURES_2D, **FIXTURES_1D}.items():
        rep = period_group(d)
        n = d.dim
        pts = [rng.uniform(-0.45, 0.45, 50) + 1j * rng.uniform(-0.45, 0.45, 50)
               for _ in range(n)]
        base_v, base_p = map_batch(d, *pts)
        for gen in rep.group.generators:
            v, p = map_batch(d, *[pts[k] + gen[k] for k in range(n)])
            for k in range(n):
                keep = ~(base_p[k] | p[k])
                worst = max(worst, float(np.max(np.abs(v[k][keep] - base_v[k][keep]))))
    eta_dev = abs(_ctx(SQ).eta[0] - np.pi)
    ok = worst < 1e-7 and eta_dev < 1e-8
    _report(4, "period table", ok,
            f"map-fixing residual {worst:.2e} < 1e-7, |2 zeta(1/2) - pi| = {eta_dev:.2e} < 1e-8")
    assert worst < 1e-7
    assert eta_dev < 1e-8


def test_criterion_05_rank_table():
    rng = np.random.default_rng(CFG.seed)
    failures = 0
    total = 0
    for _ in range(20):
        a = float(rng.uniform(0.2, 3.0))
        lat = Lattice1(1.0, complex(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 2.0)))
        lat2 = Lattice1(1.0, complex(0.0, rng.uniform(0.5, 2.5)))
        draws = {
            "id": identity_map(), "exp": exp_map(), "sin": sin_map(),
            "wp_real": wp_real(a),
            "p1": painleve("p1"), "p2": painleve("p2"), "p3": painleve("p3"),
            "p4": painleve("p4", a=int(rng.integers(0, 2)), lattice=lat),
            "p5": painleve("p5", a=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                           lattice=lat),
            "p6_product": painleve("p6_product", lattice=lat, lattice2=lat2),
        }
        for fam, d in draws.items():
            total += 1
            if z_rank(d) != helpers.PERIOD_RANK[fam]:
                failures += 1
    ok = failures == 0
    _report(5, "Z-rank table", ok, f"{failures} failures in {total} draws")
    assert ok


def test_criterion_06_one_dimensional_classification():
    checks = []

    v = isomorphic_1d(wp_real(1.0), wp_real(2.0))
    checks.append(("wp<1,i> ~ wp<1,2i>", v.outcome == ISOMORPHIC
                   and any("1/2" in r for r in v.reasons)))
    v = isomorphic_1d(exp_map(), sin_map())
    checks.append(("exp vs sin", v.outcome == NOT_ISOMORPHIC))
    v = isomorphic_1d(
        wp_real(1.0, a_exact=ExactReal(1)),
        wp_real(np.pi, a_exact=ExactReal(1, "pi")),
    )
    checks.append(("wp<1,i> vs wp<1,pi i> (exact tags)", v.outcome == NOT_ISOMORPHIC))
    fixtures = [identity_map(), exp_map(), sin_map(), wp_real(1.0)]
    ranks = [0, 1, 1, 2]
    cross_ok = True
    for i, d1 in enumerate(fixtures):
        for j, d2 in enumerate(fixtures):
            if ranks[i] != ranks[j]:
                cross_ok &= isomorphic_1d(d1, d2).outcome == NOT_ISOMORPHIC
    checks.append(("all rank-mismatched pairs", cross_ok))

    ok = all(c for _, c in checks)
    _report(6, "1-D classification", ok,
            "; ".join(f"{name}: {'ok' if c else 'FAIL'}" for name, c in checks))
    assert ok


def test_criterion_07_rank_invariance_under_alpha():
    rng = np.random.default_rng(CFG.seed)
    failures = 0
    for fam, d in {**FIXTURES_2D, **FIXTURES_1D}.items():
        base = helpers.PERIOD_RANK[fam]
        for _ in range(20):
            A = helpers.random_real_invertible(rng, d.dim)
            d2 = StructureDescriptor(
                d.dim, d.family, a=d.a, lattice=d.lattice, lattice2=d.lattice2,
                alpha=tuple(tuple(x for x in row) for row in A),
            )
            if z_rank(d2) != base:
                failures += 1
    ok = failures == 0
    _report(7, "rank invariance under alpha", ok,
            f"{failures} failures in {20 * 10} transformed descriptors")
    assert ok


def test_criterion_08_aat_certificates():
    checks = []

    rep = verify_aat(identity_map(), 1, seed=CFG.seed)
    c = rep.certificates[0]
    checks.append((f"id deg {c.max_degree} resid {c.residual:.1e}",
                   rep.success and c.max_degree == 1 and c.residual < 1e-12))
    rep = verify_aat(exp_map(), 2, seed=CFG.seed)
    c = rep.certificates[0]
    checks.append((f"exp deg {c.max_degree} resid {c.residual:.1e}",
                   rep.success and c.residual < 1e-10))
    rep = verify_aat(sin_map(), 4, seed=CFG.seed)
    c = rep.certificates[0]
    checks.append((f"sin deg {c.max_degree}", rep.success and c.max_degree <= 4))
    rep = verify_aat(wp_real(1.0), 6, seed=CFG.seed)
    c = rep.certificates[0]
    checks.append((f"wp deg {c.max_degree} resid {c.residual:.1e}",
                   rep.success and c.max_degree <= 6 and c.residual < 1e-6))

    # differential equation with the truncated Eisenstein oracle
    lat = RECT
    ctx = _ctx(lat)

    def wpp(u):
        v, _, p = ctx.wp_prime_many(np.asarray(u, dtype=complex))
        v = np.array(v)
        v[p | (np.abs(v) > 1e3)] = complex("nan")
        return v

    cert = find_relation(
        [wp_sampler(lat), wpp],
        3, seed=CFG.seed, domain_dim=1,
    )
    g2o, g3o = helpers.eisenstein_oracle(lat)
    de_ok = cert is not None and cert.residual < 1e-6
    if de_ok:
        c22 = cert.coefficient_of((0, 2))
        g2c = cert.coefficient_of((1, 0)) / c22
        g3c = cert.coefficient_of((0, 0)) / c22
        rel2 = abs(g2c - g2o) / abs(g2o)
        rel3 = abs(g3c - g3o) / abs(g3o)
        de_ok = rel2 < 1e-6 and rel3 < 1e-6
        checks.append((f"wp DE: g2 rel {rel2:.1e}, g3 rel {rel3:.1e}", de_ok))
    else:
        checks.append(("wp DE: no certificate", False))

    ok = all(c for _, c in checks)
    _report(8, "AAT certificates", ok, "; ".join(name for name, _ in checks))
    assert ok


def test_criterion_09_dependence_detection():
    pos, _ = dependent(wp_sampler(SQ), wp_sampler(Lattice1(2, 2j)),
                       CFG.max_degree, seed=CFG.seed)
    neg1, _ = dependent(wp_sampler(SQ), wp_sampler(Lattice1(1, np.pi * 1j)),
                        8, seed=CFG.seed)
    neg2, _ = dependent(lambda u: u, lambda u: np.exp(u), 8, seed=CFG.seed)
    ok = pos and not neg1 and not neg2
    _report(9, "dependence detection", ok,
            f"sublattice pair {pos}, incommensurable {neg1}, (u, e^u) {neg2}")
    assert ok


def test_criterion_10_determinism(tmp_path):
    wp1 = tmp_path / "wp1.desc"
    wp1.write_text("dim = 1\nfamily = wp_real\na = 1\n")
    wp2 = tmp_path / "wp2.desc"
    wp2.write_text("dim = 1\nfamily = wp_real\na = 2\n")
    exp_d = tmp_path / "exp.desc"
    exp_d.write_text("dim = 1\nfamily = exp\n")

    commands = [
        ["compare", str(wp1), str(wp2)],
        ["verify-aat", str(exp_d), "--max-degree", "2"],
        ["check-identities", "--lattice", "lattice(1,1i)"],
        ["eval", "--lattice", "lattice(1,1i)", "--fn", "wp", "--grid", "-0.5:0.5:0.25"],
    ]
    identical = True
    for k, cmd in enumerate(commands):
        outs = []
        for run in (1, 2):
            path = tmp_path / f"r{k}_{run}.txt"
            main([*cmd, "--out", str(path), "--seed", str(CFG.seed)])
            outs.append(path.read_bytes())
        identical &= outs[0] == outs[1]
    _report(10, "determinism", identical,
            f"{len(commands)} command pairs byte-compared")
    assert identical
