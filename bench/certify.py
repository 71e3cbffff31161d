"""Workload ``certify``: relation certificates, each task with its expected outcome.

The elementary families (id, exp, sin, p1-p3) skip the evaluator, so the
sample pool and the monomial SVD do the work; the elliptic ones spend their
time in the samplers, and the five-variable p4 case repeats ``map_batch``
for every sampler.  The seed sets the scalings and the sampling seeds.
Expected degrees are those of the classical relations
(sum, product and angle-addition rules; the wp addition theorem; the
degree-4 relation between wp on <1, i> and on <2, 2i>; wp'^2 = 4 wp^3 - ...).
"""

from __future__ import annotations

import os

import numpy as np

from locnash import Lattice1, StructureDescriptor, exp_map, identity_map, painleve, sin_map, wp_real
from locnash.descriptors import serialize_descriptor

from common import Check, Task, cli_task, oracle_for, report_fields, write_text

SQ = Lattice1(1, 1j)
RECT = Lattice1(1, 2j)
N_SAMPLES = 64
CHEAP_REPEAT = 5


def _cert_digest(cert) -> str:
    if cert is None:
        return "None"
    return repr((cert.max_degree, cert.exponents, cert.coefficients, cert.residual,
                 cert.singular_gap))


def _aat_task(task_id, d, max_degree, expect, seed, repeat=1):
    def run(api):
        return api.verify_aat(d, max_degree, N_SAMPLES, seed)

    def check(rep):
        if not rep.success or rep.found_degrees != expect:
            return Check(f"found degrees {rep.found_degrees}, expected {expect}")
        return Check()

    def digest(rep):
        return repr([_cert_digest(c) for c in rep.certificates])

    return Task(task_id, d.dim, run, check, digest, repeat=repeat)


def _dependent_task(task_id, make_samplers, max_degree, expect, seed, repeat=1):
    """expect: the per-variable degree of the relation, or None for no relation."""

    def run(api):
        s1, s2 = make_samplers(api)
        return api.dependent(s1, s2, max_degree, N_SAMPLES, seed)

    def check(out):
        found, cert = out
        degree = cert.max_degree if cert is not None else None
        if found != (expect is not None) or degree != expect:
            return Check(f"dependent -> {found} at degree {degree}, expected {expect}")
        return Check()

    return Task(task_id, 1, run, check, lambda out: _cert_digest(out[1]), repeat=repeat)


def build(rng, workdir: str, tiny: bool = False):
    seeds = iter(int(s) for s in rng.integers(0, 2**31, 256))

    def scale():
        return float(rng.uniform(0.6, 1.2))

    def diag():
        return np.diag(rng.uniform(0.6, 1.2, 2))

    # cheap searches: no evaluator and no context cache, so they repeat back
    # to back for a steadier median; the pool and the SVD do the work.  The
    # degree-4 sin searches (about 20 ms) are over half of the tasks, so the
    # median and the p90 tail both fall among them rather than among the
    # millisecond searches, whose timings spread twice as much
    r = CHEAP_REPEAT
    tasks = []
    for k in range(1 if tiny else 6):
        tasks += [
            _aat_task(f"aat/id-{k}", identity_map(scale()), 1, (1,), next(seeds), r),
            _aat_task(f"aat/exp-{k}", exp_map(scale()), 2, (1,), next(seeds), r),
            _aat_task(f"aat/p1-{k}", painleve("p1", alpha=diag()), 1, (1, 1), next(seeds), r),
            _aat_task(f"aat/p2-{k}", painleve("p2", alpha=diag()), 1, (1, 1), next(seeds), r),
            _aat_task(f"aat/p3-{k}", painleve("p3", alpha=diag()), 1, (1, 1), next(seeds), r),
        ]
    for k in range(1 if tiny else 55):
        tasks.append(_aat_task(f"aat/sin-{k}", sin_map(scale()), 4, (4,), next(seeds), 2))
    for k in range(1 if tiny else 5):
        tasks.append(_dependent_task(f"dependent/u-exp-{k}", lambda api: (lambda u: u, np.exp),
                                     8, None, next(seeds), r))
    tasks += _cli_tasks(workdir, tiny, seeds)
    # a fixed sampling seed, as in acceptance criterion 8: the g2/g3 error read
    # off this certificate is the workload's max_rel_err, and over sampling
    # seeds it spreads by more than any usable bound
    tasks.append(_differential_equation_task(RECT, 0))
    if tiny:
        return tasks
    # evaluator-bound searches, a fixed set so that every pass costs the same;
    # with the others, 101 tasks, so the tail is p90
    tasks.append(_aat_task("aat/p4-a0", painleve("p4", a=0, lattice=SQ), 2, (2, 1), next(seeds)))
    for a in (0.8, 1.25):
        tasks.append(_aat_task(f"aat/wp_real-{a}", wp_real(a), 6, (2,), next(seeds)))
    tasks += [
        _dependent_task("dependent/sublattice",
                        lambda api: (api.wp_sampler(SQ), api.wp_sampler(Lattice1(2, 2j))),
                        8, 4, next(seeds)),
        _dependent_task("dependent/incommensurable",
                        lambda api: (api.wp_sampler(SQ), api.wp_sampler(Lattice1(1, np.pi * 1j))),
                        8, None, next(seeds)),
        _translate_task(1.0, 0.5, next(seeds)),
    ]
    return tasks


def _translate_task(a: float, shift: complex, seed):
    """wp(u + half period) is a Moebius function of wp(u): degree 1."""
    d = wp_real(a)

    def run(api):
        return api.translate_algebraicity_check(d, shift, 2, N_SAMPLES, seed)

    def check(cert):
        if cert is None or cert.max_degree != 1:
            return Check(f"translate certificate {cert and cert.max_degree}, expected degree 1")
        return Check()

    return Task(f"translate/wp_real-{a}-{shift}", 1, run, check, _cert_digest)


def _differential_equation_task(lat: Lattice1, seed):
    """The cubic relation between wp and wp'; g2 and g3 read off its
    coefficients are compared with the oracle's Eisenstein values."""
    oracles: dict = {}

    def run(api):
        ctx = api.get_context(lat)

        def wpp(u):
            v, _, p = ctx.wp_prime_many(np.asarray(u, dtype=complex))
            v = np.array(v)
            v[p | (np.abs(v) > 1e3)] = complex("nan")
            return v

        return api.find_relation([api.wp_sampler(lat), wpp], 3, N_SAMPLES, seed,
                                 domain_dim=1)

    def check(cert):
        if cert is None or cert.max_degree != 3:
            return Check(f"differential equation at degree {cert and cert.max_degree}, expected 3")
        g = [complex(x) for x in oracle_for(oracles, lat.omega1, lat.omega2).invariants()]
        c22 = cert.coefficient_of((0, 2))
        found = (cert.coefficient_of((1, 0)) / c22, cert.coefficient_of((0, 0)) / c22)
        err = max(abs(f - r) / abs(r) for f, r in zip(found, g))
        if not err < 1e-6:  # acceptance criterion 8
            return Check(f"g2/g3 relative error {err:.3e}", err)
        return Check(None, err)

    return Task(f"relation/wp-differential-equation-{lat.omega2.imag:g}i", 1, run, check,
                _cert_digest)


def _cli_tasks(workdir: str, tiny: bool, seeds):
    """``locnash verify-aat`` reports: certificates and one negative result."""
    cases = [("exp", StructureDescriptor(1, "exp"), 2, 0, ("1",))]
    if not tiny:
        cases += [
            ("sin", sin_map(0.75), 4, 0, ("4",)),
            ("p2", painleve("p2", alpha=[[1, 0.5], [0, 1]]), 1, 0, ("1", "1")),
            ("wp_real-deg1", wp_real(1.0), 1, 1, (None,)),
        ]
    tasks = []
    for name, d, max_degree, code, degrees in cases:
        desc = write_text(os.path.join(workdir, f"aat-{name}.desc"), serialize_descriptor(d))
        out = os.path.join(workdir, f"aat-{name}.txt")

        def check_text(texts, degrees=degrees, code=code):
            f = report_fields(texts[0])
            if f.get("success") != str(1 - code):
                return Check(f"success = {f.get('success')}")
            for i, deg in enumerate(degrees, start=1):
                line = f.get(f"coordinate_{i}", "")
                want = "no relation found" if deg is None else f"degree {deg},"
                if not line.startswith(want):
                    return Check(f"coordinate_{i} = {line}")
            return Check()

        argv = ["verify-aat", desc, "--max-degree", str(max_degree),
                "--seed", str(next(seeds)), "--out", out]
        # wp_real evaluates wp through the context cache, so it does not repeat
        repeat = 1 if d.family == "wp_real" else CHEAP_REPEAT
        tasks.append(cli_task(f"cli/verify-aat-{name}", argv, [out], code, check_text,
                              work=d.dim, repeat=repeat))
    return tasks
