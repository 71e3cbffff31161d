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
import functools
import math
import sys
from dataclasses import dataclass

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
from .lattices import DiscreteSubgroup, subgroup
from .relations import format_polynomial, verify_aat
from .scalars import FLOAT_SPEC, fmt
from .structures import map_batch, period_group
from .weierstrass import (
    LEGENDRE_TOL,
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


@dataclass(frozen=True)
class RunConfig:
    """The run settings, one field per shared flag."""

    max_degree: int = 8
    seed: int = 0
    output_path: str | None = None

    def __post_init__(self):
        if self.max_degree <= 0:
            raise ParseError("bad run configuration: max_degree must be positive")
        if self.seed < 0:
            raise ParseError("bad run configuration: seed must be >= 0")


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


def _report_head(name: str, cfg: RunConfig) -> list[str]:
    """The title and the [config] block: the result-affecting fields only,
    since the output path would break byte-for-byte reproducibility."""
    return [f"locnash {name} report", "[config]",
            f"max_degree = {cfg.max_degree}", f"seed = {cfg.seed}"]


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


def cmd_eval(args, cfg: RunConfig) -> int:
    if args.descriptor and args.fn:
        raise ParseError("--fn applies to --lattice only; a descriptor's map is fixed")
    xs = _parse_grid(args.grid)
    out = cfg.output_path
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


def cmd_periods(args, cfg: RunConfig) -> int:
    d = load_descriptor(args.descriptor)
    rep = period_group(d)
    lines = _report_head("periods", cfg)
    lines.append("[descriptor]")
    lines.extend(serialize_descriptor(d).rstrip().splitlines())
    lines.append("[result]")
    lines.extend(_group_lines(rep.group))
    for i, form in enumerate(rep.closed_form, start=1):
        lines.append(f"closed_form_{i} = {form}")
    _write("\n".join(lines) + "\n", cfg.output_path)
    return EXIT_OK


def cmd_classify(args, cfg: RunConfig) -> int:
    d = load_descriptor(args.descriptor)
    lines = _report_head("classify", cfg)
    lines.append("[descriptor]")
    lines.extend(serialize_descriptor(d).rstrip().splitlines())
    lines.append("[result]")
    if d.dim == 1:
        form = classify_1d(d)
        lines.append(f"canonical_form = {form.kind}")
        if form.a is not None:
            lines.append(f"a = {fmt(form.a)}")
        if form.a_exact is not None:
            lines.append(f"a_exact = {form.a_exact}")
        lines.append(f"rank = {form.rank}")
    else:
        fam = classify_2d(d)
        lines.append(f"family = {fam.index}")
        lines.append(f"rank = {fam.rank}")
    _write("\n".join(lines) + "\n", cfg.output_path)
    return EXIT_OK


def cmd_compare(args, cfg: RunConfig) -> int:
    d1 = load_descriptor(args.descriptor1)
    d2 = load_descriptor(args.descriptor2)
    if d1.dim != d2.dim:
        raise ParseError("descriptors have different dimensions")
    if d1.dim == 1:
        verdict = isomorphic_1d(d1, d2)
    else:
        verdict = compare_2d(d1, d2)
    lines = _report_head("compare", cfg)
    for tag, d in (("descriptor_1", d1), ("descriptor_2", d2)):
        lines.append(f"[{tag}]")
        lines.extend(serialize_descriptor(d).rstrip().splitlines())
    lines.append("[result]")
    lines.append(f"verdict = {verdict.outcome}")
    for i, r in enumerate(verdict.reasons, start=1):
        lines.append(f"reason_{i} = {r}")
    _write("\n".join(lines) + "\n", cfg.output_path)
    if verdict.outcome == NOT_ISOMORPHIC:
        return EXIT_NEGATIVE
    if verdict.outcome == UNDETERMINED:
        return EXIT_UNDETERMINED
    return EXIT_OK


def cmd_verify_aat(args, cfg: RunConfig) -> int:
    d = load_descriptor(args.descriptor)
    report = verify_aat(d, cfg.max_degree, seed=cfg.seed)
    lines = _report_head("verify-aat", cfg)
    lines.append("[descriptor]")
    lines.extend(serialize_descriptor(d).rstrip().splitlines())
    lines.append("[result]")
    lines.append(f"success = {int(report.success)}")
    names = (
        [f"f{j + 1}(u)" for j in range(d.dim)]
        + [f"f{j + 1}(v)" for j in range(d.dim)]
        + ["f(u+v)"]
    )
    for i, (cert, box) in enumerate(zip(report.certificates, report.boxes), start=1):
        names[-1] = f"f{i}(u+v)"
        if box.variables is not None:
            lines.append(f"variables_{i} = " + ", ".join(names[k] for k in box.variables))
        if cert is None:
            cap = "" if box.total_degree is None else f", total degree <= {box.total_degree}"
            cap += ", even exponents" if box.even else ""
            lines.append(f"coordinate_{i} = no relation found at degree {report.max_degree}{cap}")
            continue
        lines.append(f"coordinate_{i} = degree {cert.max_degree}, "
                     f"residual {fmt(cert.residual)}, gap {fmt(cert.singular_gap)}")
        lines.append(f"relation_{i} = {format_polynomial(cert, names)}")
        lines.append("[certificate]")
        lines.extend(cert.serialize().rstrip().splitlines())
    _write("\n".join(lines) + "\n", cfg.output_path)
    return EXIT_OK if report.success else EXIT_NEGATIVE


# -- check-identities -----------------------------------------------------------

def cmd_check_identities(args, cfg: RunConfig) -> int:
    lat = parse_lattice1(args.lattice)
    ctx = get_context(lat)
    rng = np.random.default_rng(cfg.seed)
    zs = sample_reduced(lat, 30, rng)
    checks: list[tuple[str, float, float]] = []

    eta = [2.0 * e for e in ctx.eta_half]
    # the rounding of sigma's exponent eta (z + w/2) grows with the generator
    # w, so sigma is checked on the Gauss-reduced pair unless the given pair is
    # already as short; eta is Z-linear on the lattice, so it maps through U
    r1, r2, U = lat.to_subgroup().reduced_basis
    if max(abs(lat.omega1), abs(lat.omega2)) <= abs(r2):
        sigma_pairs = list(zip((lat.omega1, lat.omega2), eta))
    else:
        sigma_pairs = list(zip((r1, r2), U @ np.array(eta)))
    for i, w in enumerate((lat.omega1, lat.omega2)):
        shifted, _, _ = ctx.zeta_many(zs + w)
        base, _, _ = ctx.zeta_many(zs)
        res = float(np.max(np.abs(shifted - base - eta[i])))
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

    checks.append(("conjugation", conjugate_lattice_check(ctx, zs), 1e-8))

    doubled = subgroup([2 * lat.omega1, 2 * lat.omega2])
    checks.append(
        ("coset_sum_doubled_sublattice", coset_sum_check(doubled, lat.to_subgroup(), zs), 1e-6)
    )

    base, _, _ = ctx.wp_many(zs)
    for label, c in (("2", 2.0 + 0j), ("1+i", 1.0 + 1j)):
        ctx_c = get_context(lat.scaled(c))
        scaled, _, _ = ctx_c.wp_many(c * zs)
        res = float(np.max(np.abs(scaled - base / c**2)))
        checks.append((f"scaling_law_c_{label}", res, 1e-8))

    checks.append(("legendre_relation", ctx.legendre_defect, LEGENDRE_TOL))

    lines = _report_head("check-identities", cfg)
    lines.append("[lattice]")
    lines.append(f"omega1 = {fmt(lat.omega1.real)} {fmt(lat.omega1.imag)}")
    lines.append(f"omega2 = {fmt(lat.omega2.real)} {fmt(lat.omega2.imag)}")
    lines.append("[result]")
    all_pass = True
    for name, res, thr in checks:
        ok = res < thr
        all_pass &= ok
        lines.append(f"{name} = {fmt(res)} (threshold {fmt(thr)}) {'PASS' if ok else 'FAIL'}")
    lines.append(f"all_pass = {int(all_pass)}")
    _write("\n".join(lines) + "\n", cfg.output_path)
    return EXIT_OK if all_pass else EXIT_NEGATIVE


# -- argument parsing ------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared by later ones
    (parse_args leaves it unchanged)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=RunConfig.seed)
    common.add_argument("--max-degree", type=int, dest="max_degree",
                        default=RunConfig.max_degree)
    common.add_argument("--out", dest="output_path", help="output path (default stdout)")

    p = argparse.ArgumentParser(prog="locnash", description=__doc__)
    p.add_argument("--version", action="version", version=f"locnash {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", parents=[common], help="grid evaluation to CSV")
    src = pe.add_mutually_exclusive_group(required=True)
    src.add_argument("--lattice", help='lattice literal, e.g. "lattice(1, 1i)"')
    src.add_argument("--descriptor", help="descriptor file")
    pe.add_argument("--fn", choices=_EVAL_FNS, help="function on --lattice (default wp)")
    pe.add_argument("--grid", required=True, help="lo:hi:step for both axes")
    pe.set_defaults(func=cmd_eval)

    pp = sub.add_parser("periods", parents=[common], help="period group of a descriptor")
    pp.add_argument("descriptor")
    pp.set_defaults(func=cmd_periods)

    pc = sub.add_parser("classify", parents=[common], help="canonical form / family")
    pc.add_argument("descriptor")
    pc.set_defaults(func=cmd_classify)

    pm = sub.add_parser("compare", parents=[common], help="isomorphism verdict")
    pm.add_argument("descriptor1")
    pm.add_argument("descriptor2")
    pm.set_defaults(func=cmd_compare)

    pv = sub.add_parser("verify-aat", parents=[common],
                        help="addition-theorem certificates")
    pv.add_argument("descriptor")
    pv.set_defaults(func=cmd_verify_aat)

    pi = sub.add_parser("check-identities", parents=[common],
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
        cfg = RunConfig(args.max_degree, args.seed, args.output_path)
        return args.func(args, cfg)
    except ParseError as exc:
        print(f"locnash: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, FileNotFoundError) as exc:
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
