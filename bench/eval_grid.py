"""Workload ``eval-grid``: ``locnash eval`` on grids, as a user runs it.

Every task is one ``cli.main(["eval", ...])`` writing CSV to the work
directory.  The ``get_context`` cache is cleared before each task because
each CLI call is a fresh process for a user.  Grids contain the origin (a
pole row) and reach past the centred cell (argument reduction).  The number
of evaluated points of each task is fixed, so the mix of cheap and expensive
points, and with it the throughput, does not depend on the seed; the seed
places the skew-lattice and map grids and picks the map parameters.
"""

from __future__ import annotations

import csv
import io
import math
import os
from itertools import product

import numpy as np

from locnash.weierstrass import get_context

from common import (VALUE_TOL, Check, cli_task, fmt_complex, lattice_literal, oracle_for,
                    rel_err, write_text)

HEX = complex(0.5, math.sqrt(3) / 2)
#: name -> (omega1, omega2, grid points per axis, grids per function)
LATTICES = {
    "square": (1, 1j, 7, 2),
    "rect": (1, 2j, 7, 2),
    "hex": (1, HEX, 7, 2),
    "tall": (1, 5j, 7, 2),
    # <1, i> written in a skew basis: same values, 26x the summed points
    "skew": (1, 5 + 1j, 4, 1),
}
STEP = 0.3
#: CLI --fn name -> oracle function
FNS = {"wp": "wp", "wp-prime": "wp_prime", "zeta": "zeta", "sigma": "sigma"}
HEADER = "re_u,im_u,re_val,im_val,est_err,pole"


def _grid(n: int, j: int) -> tuple[str, np.ndarray]:
    """n x n grid with step 0.3 whose j-th point on each axis is the origin.
    No other grid point is a lattice point of the lattices here, so every
    task has one pole row and the same number of evaluated points."""
    lo, hi = -j * STEP, (n - 1 - j) * STEP
    return f"{lo!r}:{hi!r}:{STEP!r}", lo + STEP * np.arange(n)


def _parse_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or ",".join(rows[0]) != HEADER:
        raise ValueError("bad CSV header")
    pts, vals, poles = [], [], []
    for r in rows[1:]:
        pts.append(complex(float(r[0]), float(r[1])))
        poles.append(r[5] == "1")
        vals.append(complex("nan") if r[5] == "1" else complex(float(r[2]), float(r[3])))
    return np.array(pts), np.array(vals), np.array(poles)


def _compare(pts, vals, poles, expected, label: str) -> Check:
    """expected(z) -> (reference value or None at a pole, tolerance)."""
    worst = 0.0
    for z, v, p in zip(pts, vals, poles):
        ref, tol = expected(z)
        if ref is None:
            if not p:
                return Check(f"{label}: no pole flag at lattice point {z}")
            continue
        if p:
            return Check(f"{label}: spurious pole flag at {z}")
        e = rel_err(v, ref)
        worst = max(worst, e)
        if not e <= tol:
            return Check(f"{label}: relative error {e:.3e} > {tol:g} at {z}", worst)
    return Check(None, worst)


def build(rng, workdir: str, tiny: bool = False):
    oracles: dict = {}
    tasks = []
    lattices = {k: LATTICES[k] for k in ("square", "skew")} if tiny else LATTICES
    fns = ("wp", "sigma") if tiny else tuple(FNS)
    cases = [(lname, w1, w2, n, grids, fn, k) for lname, (w1, w2, n, grids) in lattices.items()
             for fn in fns for k in range(grids)]
    for lname, w1, w2, n, grids, fn, k in cases:
        kind = FNS[fn]
        # the two grids of a lattice are fixed and reach 1.5 + 1.5i and its
        # negative, points of the cell where wp' vanishes and the largest
        # errors lie; the skew lattice's single grid is placed by the seed
        j = (1, n - 2)[k] if grids == 2 else int(rng.integers(1, n - 1))
        spec, xs = _grid(n, j)
        out = os.path.join(workdir, f"{lname}-{fn}-{k}.csv")
        argv = ["eval", "--lattice", lattice_literal(w1, w2), "--fn", fn,
                "--grid", spec, "--out", out]
        label = f"grid/{lname}/{fn}-{k}"

        def check_text(texts, key=(w1, w2), kind=kind, xs=xs, label=label):
            pts, vals, poles = _parse_csv(texts[0])
            if not _same_grid(pts, xs):
                return Check(f"{label}: grid points differ from the requested grid")
            o = oracle_for(oracles, *key)

            def expected(z):
                if kind != "sigma" and o.is_lattice_point(z):
                    return None, 0.0
                return o.value(kind, z), VALUE_TOL[kind]

            return _compare(pts, vals, poles, expected, label)

        tasks.append(cli_task(label, argv, [out], 0, check_text, work=n * n,
                              prepare=get_context.cache_clear))
    return tasks + _descriptor_tasks(rng, workdir, oracles, tiny)


def _same_grid(pts, xs) -> bool:
    """The CSV rows are the requested grid, x outer and y inner."""
    want = np.array([complex(x, y) for x in xs for y in xs])
    return len(pts) == len(want) and np.max(np.abs(pts - want)) <= 1e-12


def _alpha(rng) -> np.ndarray:
    while True:
        A = rng.uniform(-1.0, 1.0, (2, 2))
        if abs(np.linalg.det(A)) > 0.3:
            return A


def _descriptor_tasks(rng, workdir: str, oracles, tiny: bool):
    sq, rect = (1, 1j), (1, 2j)
    a5 = float(rng.uniform(0.2, 0.5))

    # family -> (descriptor fields, per map coordinate: (function, lattice, the
    # coordinate's value given (w1, w2) = alpha (x, y) and the function))
    specs = {
        "p4": ({"a": 1, "lattice": sq}, (
            ("wp", sq, lambda w1, w2, f: f(w1)),
            ("zeta", sq, lambda w1, w2, f: w2 - f(w1)))),
        "p5": ({"a": a5, "lattice": rect}, (
            ("wp", rect, lambda w1, w2, f: f(w1)),
            ("sigma", rect, lambda w1, w2, f: f(w1 - a5) / f(w1) * np.exp(w2)))),
        "p6_product": ({"lattice": sq, "lattice2": rect}, (
            ("wp", sq, lambda w1, w2, f: f(w1)),
            ("wp", rect, lambda w1, w2, f: f(w2)))),
    }
    if tiny:
        specs = {"p4": specs["p4"]}
    tasks = []
    n = 7
    for (fam, (params, coords)), g in product(specs.items(), range(2)):
        A = _alpha(rng)
        lines = ["dim = 2", f"family = {fam}"]
        if "a" in params:
            lines.append(f"a = {params['a']!r}")
        for key in ("lattice", "lattice2"):
            if key in params:
                lines.append(f"{key} = {lattice_literal(*params[key])}")
        lines.append("alpha = " + ", ".join(fmt_complex(x) for x in A.ravel()))
        desc = write_text(os.path.join(workdir, f"{fam}-{g}.desc"), "\n".join(lines) + "\n")
        spec, xs = _grid(n, int(rng.integers(1, n - 1)))
        stem = os.path.join(workdir, f"map-{fam}-{g}")
        outs = [f"{stem}_c1.csv", f"{stem}_c2.csv"]
        argv = ["eval", "--descriptor", desc, "--grid", spec, "--out", stem + ".csv"]

        def check_text(texts, A=A, coords=coords, fam=fam, xs=xs):
            worst = 0.0
            for k, (pts, vals, poles) in enumerate(_parse_csv(t) for t in texts):
                if not _same_grid(pts, xs):
                    return Check(f"map/{fam}: grid points differ from the requested grid")

                def expected(z, k=k):
                    w1 = A[0, 0] * z.real + A[0, 1] * z.imag
                    w2 = A[1, 0] * z.real + A[1, 1] * z.imag
                    kind, lat, value = coords[k]
                    o = oracle_for(oracles, *lat)
                    # every coordinate has its poles where w1 (w2 for p6's second) is a lattice point
                    arg = w2 if (fam, k) == ("p6_product", 1) else w1
                    if o.is_lattice_point(arg):
                        return None, 0.0
                    tol = VALUE_TOL[kind] * (2 if kind == "sigma" else 1)
                    return value(w1, w2, lambda u: o.value(kind, u)), tol

                c = _compare(pts, vals, poles, expected, f"map/{fam}/c{k + 1}")
                if c.error:
                    return c
                worst = max(worst, c.rel_err)
            return Check(None, worst)

        tasks.append(cli_task(f"map/{fam}-{g}", argv, outs, 0, check_text, work=n * n,
                              prepare=get_context.cache_clear))
    return tasks
