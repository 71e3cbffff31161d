"""Command-line front end.

Subcommands: eval, periods, classify, compare, verify-aat, check-identities.
Exit codes: 0 success / positive result; 1 negative result (not isomorphic,
no relation found, identity residual above threshold); 2 parse error;
3 numeric failure; 4 undetermined verdict.

The shared flags --max-degree, --seed and --out are the whole run
configuration; there is no config file or environment variable.  Reports
are deterministic for fixed flags: every report embeds the result-affecting
flags as its [config] block, floats print with 17 significant digits, and
nothing time- or path-dependent is emitted.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys

import numpy as np

from . import __version__
from .classify import (
    NOT_ISOMORPHIC,
    UNDETERMINED,
    classify_1d,
    classify_2d,
    compare_2d,
    isomorphic_1d,
)
from .descriptors import load_descriptor, parse_lattice1, serialize_descriptor
from .errors import LocNashError, ParseError
from .lattices import DiscreteSubgroup
from .relations import format_polynomial, verify_aat
from .scalars import FLOAT_SPEC, fmt
from .structures import map_batch, period_group
from .weierstrass import (
    coset_sum_check,
    conjugate_lattice_check,
    get_context,
    sample_reduced,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_UNDETERMINED = 4
_MAX_GRID_AXIS = 512  # eval holds the square of this in points, about 0.7 kB each


def _write(text: str, out_path: str | None) -> None:
    if out_path and out_path != "-":
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo_s, hi_s, step_s = spec.split(":")
        lo, hi, step = float(lo_s), float(hi_s), float(step_s)
    except ValueError as exc:
        raise ParseError(f"bad grid spec {spec!r}, expected lo:hi:step") from exc
    # nan passes every comparison below unnoticed, so finiteness comes first
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
        raise ParseError(f"bad grid spec {spec!r}")
    span = (hi - lo) / step  # inf when the step is tiny against the range
    if not span < _MAX_GRID_AXIS - 0.5:  # round(span) + 1 points per axis
        raise ParseError(f"bad grid spec {spec!r}: more than {_MAX_GRID_AXIS} points per axis")
    return lo + step * np.arange(int(round(span)) + 1)


def _report(name: str, args: argparse.Namespace, blocks: dict[str, list[str]]) -> None:
    """Write a text report: the title, the [config] block, then one [tag]
    block per entry of `blocks`, in order.  [config] holds the
    result-affecting flags only, since the output path would break
    byte-for-byte reproducibility."""
    lines = [f"locnash {name} report", "[config]",
             f"max_degree = {args.max_degree}", f"seed = {args.seed}"]
    for tag, body in blocks.items():
        lines.append(f"[{tag}]")
        lines.extend(body)
    _write("\n".join(lines) + "\n", args.output_path)


# -- eval ---------------------------------------------------------------------

_EVAL_FNS = ("wp", "wp-prime", "zeta", "sigma")


_FLOAT = "{:" + FLOAT_SPEC + "}"
_POLE_ROW = f"{_FLOAT},{_FLOAT},,,,1"
_VALUE_ROW = f"{_FLOAT},{_FLOAT},{_FLOAT},{_FLOAT},{_FLOAT},0"
_VALUE_ROW_NO_EST = f"{_FLOAT},{_FLOAT},{_FLOAT},{_FLOAT},,0"


def _csv_rows(
    points: np.ndarray, values: np.ndarray, est: np.ndarray | None, poles: np.ndarray
) -> str:
    """est=None leaves the est_err field empty (map evaluations carry no estimate)."""
    lines = ["re_u,im_u,re_val,im_val,est_err,pole"]
    ests = [None] * len(points) if est is None else est.tolist()
    for z, v, e, p in zip(points.tolist(), values.tolist(), ests, poles.tolist()):
        if p:
            lines.append(_POLE_ROW.format(z.real, z.imag))
        elif e is None:
            lines.append(_VALUE_ROW_NO_EST.format(z.real, z.imag, v.real, v.imag))
        else:
            lines.append(_VALUE_ROW.format(z.real, z.imag, v.real, v.imag, e))
    return "\n".join(lines) + "\n"


def cmd_eval(args) -> int:
    if args.descriptor and args.fn:
        raise ParseError("--fn applies to --lattice only; a descriptor's map is fixed")
    xs = _parse_grid(args.grid)
    out = args.output_path
    if args.lattice:
        lat = parse_lattice1(args.lattice)
        ctx = get_context(lat)
        pts = np.array([complex(x, y) for x in xs for y in xs])
        fn = {
            "wp": ctx.wp_many,
            "wp-prime": ctx.wp_prime_many,
            "zeta": ctx.zeta_many,
            "sigma": ctx.sigma_many,
        }[args.fn or "wp"]
        grids = {out: fn(pts)}
    elif (d := load_descriptor(args.descriptor)).dim == 1:
        pts = np.array([complex(x, y) for x in xs for y in xs])
        vals, poles = map_batch(d, pts)
        grids = {out: (vals[0], None, poles[0])}
    else:
        # dim 2: the grid spans real coordinates (x, y); one CSV per map coordinate
        if not out or out == "-":
            raise ParseError("dim-2 descriptors need --out (one CSV per coordinate)")
        U = np.array([complex(x, 0) for x in xs for _ in xs])
        V = np.array([complex(y, 0) for _ in xs for y in xs])
        vals, poles = map_batch(d, U, V)
        stem = out[:-4] if out.endswith(".csv") else out
        pts = U + 1j * V.real
        grids = {f"{stem}_c{k + 1}.csv": (vals[k], None, poles[k]) for k in range(2)}
    # a non-pole value past the double range (sigma) stops the command before any write
    for values, _, poles in grids.values():
        bad = np.flatnonzero(~(poles | np.isfinite(values)))
        if bad.size:
            raise ValueError(f"value at u = {complex(pts[bad[0]])} is not finite")
    for path, (values, est, poles) in grids.items():
        _write(_csv_rows(pts, values, est, poles), path)
    return EXIT_OK


# -- periods / classify / compare ----------------------------------------------

def _group_lines(G: DiscreteSubgroup) -> list[str]:
    lines = [f"rank = {G.rank}"]
    for i, g in enumerate(G.generators, start=1):
        comps = "; ".join(f"{fmt(c.real)} {fmt(c.imag)}" for c in g)
        lines.append(f"generator_{i} = {comps}")
    return lines


def cmd_periods(args) -> int:
    d = load_descriptor(args.descriptor)
    rep = period_group(d)
    result = _group_lines(rep.group)
    result += [f"closed_form_{i} = {form}" for i, form in enumerate(rep.closed_form, start=1)]
    _report("periods", args,
            {"descriptor": serialize_descriptor(d).splitlines(), "result": result})
    return EXIT_OK


def cmd_classify(args) -> int:
    d = load_descriptor(args.descriptor)
    if d.dim == 1:
        form = classify_1d(d)
        result = [f"canonical_form = {form.kind}"]
        if form.a is not None:
            result.append(f"a = {fmt(form.a)}")
        if form.a_exact is not None:
            result.append(f"a_exact = {form.a_exact}")
        result.append(f"rank = {form.rank}")
    else:
        fam = classify_2d(d)
        result = [f"family = {fam.index}", f"rank = {fam.rank}"]
    _report("classify", args,
            {"descriptor": serialize_descriptor(d).splitlines(), "result": result})
    return EXIT_OK


def cmd_compare(args) -> int:
    d1 = load_descriptor(args.descriptor1)
    d2 = load_descriptor(args.descriptor2)
    if d1.dim != d2.dim:
        raise ParseError("descriptors have different dimensions")
    if d1.dim == 1:
        verdict = isomorphic_1d(d1, d2)
    else:
        verdict = compare_2d(d1, d2)
    result = [f"verdict = {verdict.outcome}"]
    result += [f"reason_{i} = {r}" for i, r in enumerate(verdict.reasons, start=1)]
    _report("compare", args, {"descriptor_1": serialize_descriptor(d1).splitlines(),
                              "descriptor_2": serialize_descriptor(d2).splitlines(),
                              "result": result})
    if verdict.outcome == NOT_ISOMORPHIC:
        return EXIT_NEGATIVE
    if verdict.outcome == UNDETERMINED:
        return EXIT_UNDETERMINED
    return EXIT_OK


def cmd_verify_aat(args) -> int:
    d = load_descriptor(args.descriptor)
    report = verify_aat(d, args.max_degree, seed=args.seed)
    result = [f"success = {int(report.success)}"]  # each [certificate] sits inside it
    names = (
        [f"f{j + 1}(u)" for j in range(d.dim)]
        + [f"f{j + 1}(v)" for j in range(d.dim)]
        + ["f(u+v)"]
    )
    for i, (cert, box) in enumerate(zip(report.certificates, report.boxes), start=1):
        names[-1] = f"f{i}(u+v)"
        if box.variables is not None:
            result.append(f"variables_{i} = " + ", ".join(names[k] for k in box.variables))
        if cert is None:
            cap = "" if box.total_degree is None else f", total degree <= {box.total_degree}"
            cap += ", even exponents" if box.even else ""
            result.append(f"coordinate_{i} = no relation found at degree {report.max_degree}{cap}")
            continue
        result.append(f"coordinate_{i} = degree {cert.max_degree}, "
                      f"residual {fmt(cert.residual)}, gap {fmt(cert.singular_gap)}")
        result.append(f"relation_{i} = {format_polynomial(cert, names)}")
        result.append("[certificate]")
        result.extend(cert.serialize().rstrip().splitlines())
    _report("verify-aat", args,
            {"descriptor": serialize_descriptor(d).splitlines(), "result": result})
    return EXIT_OK if report.success else EXIT_NEGATIVE


# -- check-identities -----------------------------------------------------------

def cmd_check_identities(args) -> int:
    lat = parse_lattice1(args.lattice)
    ctx = get_context(lat)
    rng = np.random.default_rng(args.seed)
    zs = sample_reduced(lat, 30, rng)
    checks: list[tuple[str, float, float]] = []

    eta = ctx.eta
    r1, r2, U = lat.reduced_basis
    # a pole of order k scales as |r1|^-k, so its residuals times |r1|^k read in
    # units of the shortest vector, whatever the scale; sigma's are relative
    unit = abs(r1)
    # the rounding of sigma's exponent eta (z + w/2) grows with the generator
    # w, so sigma is checked on the Gauss-reduced pair unless the given pair is
    # already as short; eta is Z-linear on the lattice, so it maps through U
    if max(abs(lat.omega1), abs(lat.omega2)) <= abs(r2):
        sigma_pairs = list(zip((lat.omega1, lat.omega2), eta))
    else:
        sigma_pairs = list(zip((r1, r2), U @ np.array(eta)))
    for i, w in enumerate((lat.omega1, lat.omega2)):
        shifted, _, _ = ctx.zeta_many(zs + w)
        base, _, _ = ctx.zeta_many(zs)
        res = float(np.max(np.abs(shifted - base - eta[i]))) * unit
        checks.append((f"zeta_quasi_periodicity_omega{i + 1}", res, 1e-8))
        # sigma(z + w) = -sigma(z) exp(eta (z + w/2)), compared in log space,
        # where sigma(z + w) cannot underflow: d = log(rhs / lhs) - i pi is
        # a multiple of 2 pi i when the two agree, and |d| mod 2 pi i is
        # their relative error to first order
        w_s, eta_s = sigma_pairs[i]
        log_shift, _, _ = ctx.log_sigma_many(zs + w_s)
        log_base, _, _ = ctx.log_sigma_many(zs)
        d = log_base + eta_s * (zs + w_s / 2.0) - log_shift
        rel = float(np.max(np.abs(d.real + 1j * (np.remainder(d.imag, 2 * np.pi) - np.pi))))
        checks.append((f"sigma_quasi_periodicity_omega{i + 1}", rel, 1e-7))

    checks.append(("conjugation", conjugate_lattice_check(ctx, zs) * unit**2, 1e-8))

    checks.append(("coset_sum_doubled_sublattice",
                   coset_sum_check(lat.scaled(2), lat, zs) * unit**2, 1e-6))

    base, _, _ = ctx.wp_many(zs)
    for label, c in (("2", 2.0 + 0j), ("1+i", 1.0 + 1j)):
        ctx_c = get_context(lat.scaled(c))
        scaled, _, _ = ctx_c.wp_many(c * zs)
        res = float(np.max(np.abs(scaled - base / c**2))) * unit**2
        checks.append((f"scaling_law_c_{label}", res, 1e-8))

    checks.append(("legendre_relation", ctx.legendre_defect, ctx.legendre_tol))

    result = [f"{name} = {fmt(res)} (threshold {fmt(thr)}) {'PASS' if res < thr else 'FAIL'}"
              for name, res, thr in checks]
    all_pass = all(res < thr for _, res, thr in checks)
    result.append(f"all_pass = {int(all_pass)}")
    _report("check-identities", args, {
        "lattice": [f"omega{k} = {fmt(w.real)} {fmt(w.imag)}"
                    for k, w in ((1, lat.omega1), (2, lat.omega2))],
        "result": result,
    })
    return EXIT_OK if all_pass else EXIT_NEGATIVE


# -- argument parsing ------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared by later ones
    (parse_args leaves it unchanged)."""
    # no prefix of a flag parses, so one added later cannot change a command line
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--max-degree", type=int, dest="max_degree", default=8)
    common.add_argument("--out", dest="output_path", help="output path (default stdout)")

    p = argparse.ArgumentParser(prog="locnash", description=__doc__, allow_abbrev=False)
    p.add_argument("--version", action="version", version=f"locnash {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, parents=[common], allow_abbrev=False)

    pe = add("eval", help="grid evaluation to CSV")
    src = pe.add_mutually_exclusive_group(required=True)
    src.add_argument("--lattice", help='lattice literal, e.g. "lattice(1, 1i)"')
    src.add_argument("--descriptor", help="descriptor file")
    pe.add_argument("--fn", choices=_EVAL_FNS, help="function on --lattice (default wp)")
    pe.add_argument("--grid", required=True, help="lo:hi:step for both axes")
    pe.set_defaults(func=cmd_eval)

    pp = add("periods", help="period group of a descriptor")
    pp.add_argument("descriptor")
    pp.set_defaults(func=cmd_periods)

    pc = add("classify", help="canonical form / family")
    pc.add_argument("descriptor")
    pc.set_defaults(func=cmd_classify)

    pm = add("compare", help="isomorphism verdict")
    pm.add_argument("descriptor1")
    pm.add_argument("descriptor2")
    pm.set_defaults(func=cmd_compare)

    pv = add("verify-aat", help="addition-theorem certificates")
    pv.add_argument("descriptor")
    pv.set_defaults(func=cmd_verify_aat)

    pi = add("check-identities",
             help="quasi-periodicity, conjugation, coset and scaling checks")
    pi.add_argument("--lattice", required=True)
    pi.set_defaults(func=cmd_check_identities)
    return p


def _merge_dash_values(argv: list[str]) -> list[str]:
    """Join '--grid -0.9:0.9:0.1' into '--grid=-0.9:0.9:0.1' so argparse does
    not mistake the leading-dash value for an option."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--grid" and i + 1 < len(argv):
            out.append(f"--grid={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_merge_dash_values(list(argv if argv is not None else sys.argv[1:])))
    try:
        if args.max_degree <= 0:
            raise ParseError("bad run configuration: max_degree must be positive")
        if args.seed < 0:
            raise ParseError("bad run configuration: seed must be >= 0")
        if (out := args.output_path) and out != "-":
            # every file a command writes (dim-2 eval's two CSVs too) lies in
            # this directory: a bad one raises what open would, before the work
            folder = os.path.dirname(out) or "."
            code = (errno.ENOENT if not os.path.isdir(folder)
                    else 0 if os.access(folder, os.W_OK | os.X_OK) else errno.EACCES)
            if code:
                raise OSError(code, os.strerror(code), out)
        return args.func(args)
    except ParseError as exc:
        print(f"locnash: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"locnash: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (LocNashError, ArithmeticError) as exc:  # a float past the double range, too
        print(f"locnash: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"locnash: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
