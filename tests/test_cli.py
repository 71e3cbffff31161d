import argparse
import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from locnash import cli
from locnash.cli import RunConfig, _csv_rows, _parse_grid, build_parser, main
from locnash.descriptors import parse_descriptor
from locnash.errors import ParseError
from locnash.scalars import fmt
from locnash.lattices import DEFAULT_TOL
from locnash.structures import FAMILIES, map_batch, painleve, period_group, wp_real

EXP = "dim = 1\nfamily = exp\n"
SIN = "dim = 1\nfamily = sin\n"
WP1 = "dim = 1\nfamily = wp_real\na = 1\n"
WP2 = "dim = 1\nfamily = wp_real\na = 2\n"
P4 = "dim = 2\nfamily = p4\na = 1\nlattice = lattice(1, 1i)\n"
P5 = "dim = 2\nfamily = p5\na = 0.3\nlattice = lattice(1, 2i)\n"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def desc(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_eval_grid_shape_and_pole_rows(tmp_path):
    out = tmp_path / "grid.csv"
    rc = main(["eval", "--lattice", "lattice(1,1i)", "--fn", "wp",
               "--grid", "-0.9:0.9:0.1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re_u,im_u,re_val,im_val,est_err,pole"
    assert len(lines) == 1 + 19 * 19
    pole_rows = [l for l in lines[1:] if l.endswith(",1")]
    assert len(pole_rows) == 1  # only the origin in this window
    assert pole_rows[0].split(",")[2:5] == ["", "", ""]
    # 17-significant-digit floats round-trip
    a_row = lines[1].split(",")
    assert float(a_row[0]) == -0.9


def test_eval_sigma_has_no_poles(tmp_path):
    out = tmp_path / "s.csv"
    rc = main(["eval", "--lattice", "lattice(1,1i)", "--fn", "sigma",
               "--grid", "-0.5:0.5:0.5", "--out", str(out)])
    assert rc == 0
    assert all(l.endswith(",0") for l in out.read_text().splitlines()[1:])


def test_eval_sigma_past_double_range_exits_3(tmp_path, capsys):
    out = tmp_path / "s.csv"
    rc = main(["eval", "--lattice", "lattice(0.3, 0.39i)", "--fn", "sigma",
               "--grid", "7.9:8.1:0.2", "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    assert "(7.9+7.9j) is not finite" in capsys.readouterr().err


def test_eval_descriptor_dim2_writes_per_coordinate(tmp_path):
    p4 = desc(tmp_path, "p4.desc", P4)
    out = tmp_path / "p4.csv"
    rc = main(["eval", "--descriptor", p4, "--grid", "0:0.4:0.2",
               "--out", str(out)])
    assert rc == 0
    for k in (1, 2):
        f = tmp_path / f"p4_c{k}.csv"
        assert f.exists()
        lines = f.read_text().splitlines()
        assert len(lines) == 1 + 9
        # wp(u) has a pole along the u = 0 grid line
        assert sum(1 for l in lines[1:] if l.endswith(",1")) == 3


def test_eval_lattice_defaults_to_wp(tmp_path):
    default, wp = tmp_path / "default.csv", tmp_path / "wp.csv"
    base = ["eval", "--lattice", "lattice(1,1i)", "--grid", "-0.5:0.5:0.25"]
    assert main(base + ["--out", str(default)]) == 0
    assert main(base + ["--fn", "wp", "--out", str(wp)]) == 0
    assert default.read_bytes() == wp.read_bytes()


@pytest.mark.parametrize("fn", ["wp", "sigma"])
def test_eval_descriptor_with_fn_exits_2(tmp_path, capsys, fn):
    out = tmp_path / "e.csv"
    rc = main(["eval", "--descriptor", desc(tmp_path, "e.desc", EXP), "--fn", fn,
               "--grid", "0:0.4:0.2", "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "--fn applies to --lattice only" in capsys.readouterr().err


def test_eval_bad_grid_exits_2(tmp_path):
    assert main(["eval", "--lattice", "lattice(1,1i)", "--grid", "oops"]) == 2


@pytest.mark.parametrize("grid", ["0:inf:0.1", "0:1e300:1e-300", "nan:1:0.1", "0:1:nan", "0:1:inf"])
def test_eval_non_finite_grid_exits_2(grid, capsys):
    # an infinite point count used to escape as OverflowError, nan bounds and
    # steps as a numeric failure
    assert main(["eval", "--lattice", "lattice(1,1i)", "--grid", grid]) == 2
    assert "bad grid spec" in capsys.readouterr().err


def test_eval_grid_cap_exits_2(tmp_path, capsys, monkeypatch):
    # 10^4 points per axis would be 10^8 grid points; evaluation raises here,
    # so a missing cap fails the test without allocating the grid
    def no_context(lattice):
        raise AssertionError("the grid reached evaluation")

    monkeypatch.setattr(cli, "get_context", no_context)
    out = tmp_path / "big.csv"
    assert main(["eval", "--lattice", "lattice(1,1i)", "--grid", "0:1:1e-4",
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert "more than 512 points per axis" in capsys.readouterr().err
    assert len(_parse_grid("0:511:1")) == 512
    with pytest.raises(ParseError):
        _parse_grid("0:512:1")


def test_eval_descriptor_dim1_rows_match_map_batch(tmp_path):
    out = tmp_path / "wp.csv"
    rc = main(["eval", "--descriptor", desc(tmp_path, "wp.desc", WP1),
               "--grid", "-0.5:0.5:0.25", "--out", str(out)])
    assert rc == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    xs = np.linspace(-0.5, 0.5, 5)
    pts = np.array([complex(x, y) for x in xs for y in xs])
    vals, poles = map_batch(wp_real(1.0), pts)
    assert len(rows) == 25 and sum(poles[0]) == 1  # the origin
    for row, z, v, p in zip(rows, pts, vals[0], poles[0]):
        assert (float(row[0]), float(row[1])) == (z.real, z.imag)
        assert row[4] == "" and row[5] == ("1" if p else "0")
        if not p:
            assert (float(row[2]), float(row[3])) == (v.real, v.imag)


def test_eval_descriptor_dim2_needs_out(tmp_path, capsys):
    assert main(["eval", "--descriptor", desc(tmp_path, "p4.desc", P4),
                 "--grid", "0:0.4:0.2"]) == 2
    assert "need --out" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eval", "--lattice", "lattice(1, 2)", "--grid", "0:1:1"],
    ["check-identities", "--lattice", "lattice(1, 2)"],
    ["check-identities", "--lattice", "lattice(1)"],
    ["eval", "--lattice", "lattice((1, 0), (0, 1))", "--grid", "0:1:1"],
    ["classify", "desc:lattice(1, 2)"],
    ["classify", "desc:lattice(1)"],
    ["eval", "--lattice", "lattice(1e400, 1i)", "--grid", "0:1:1"],
    ["classify", "desc:lattice(1e400, 1i)"],
], ids=["eval-degenerate", "check-identities-degenerate", "check-identities-rank-1",
        "eval-dim-2", "descriptor-degenerate", "descriptor-rank-1", "eval-non-finite",
        "descriptor-non-finite"])
def test_bad_lattice_literal_exits_2(tmp_path, capsys, argv):
    # "desc:L" stands for a p4 descriptor file whose lattice field is L
    argv = [desc(tmp_path, "bad.desc", P4.replace("lattice(1, 1i)", a[5:]))
            if a.startswith("desc:") else a for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    # one reader for --lattice and descriptor fields, worded for both
    assert "parse error" in err and "descriptor" not in err


def test_repeated_calls_in_one_process(tmp_path):
    """The parser is built once; later calls give the same exit codes and bytes."""
    p4 = desc(tmp_path, "p4.desc", P4)
    e = desc(tmp_path, "e.desc", EXP)

    def one_round(k):
        d = tmp_path / f"round{k}"
        d.mkdir()
        calls = [
            (["eval", "--lattice", "lattice(1,1i)", "--fn", "zeta",
              "--grid", "-0.6:0.6:0.3", "--out", str(d / "grid.csv")], ["grid.csv"]),
            (["eval", "--descriptor", p4, "--grid", "-0.4:0.4:0.2",
              "--out", str(d / "p4.csv")], ["p4_c1.csv", "p4_c2.csv"]),
            (["eval", "--lattice", "lattice(1, 2)", "--grid", "0:1:1",
              "--out", str(d / "bad.csv")], []),
            (["classify", p4, "--out", str(d / "classify.txt")], ["classify.txt"]),
            (["verify-aat", e, "--max-degree", "2", "--out", str(d / "aat.txt")],
             ["aat.txt"]),
        ]
        return [(main(argv), [(d / f).read_bytes() for f in files]) for argv, files in calls]

    first, second = one_round(0), one_round(1)
    assert [code for code, _ in first] == [0, 0, 2, 0, 0]
    assert first == second
    assert build_parser() is build_parser()


_floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -2.5e-320, np.inf, -np.inf, np.nan, 1e308, -1e308])


@given(
    rows=st.lists(st.tuples(_floats, _floats, _floats, _floats, _floats, st.booleans()),
                  min_size=1, max_size=12),
    with_est=st.booleans(),
)
def test_csv_rows_fields_use_fmt(rows, with_est):
    cols = list(zip(*rows))
    points = np.empty(len(rows), dtype=complex)
    points.real, points.imag = cols[0], cols[1]
    values = np.empty(len(rows), dtype=complex)
    values.real, values.imag = cols[2], cols[3]
    est = np.array(cols[4]) if with_est else None
    poles = np.array(cols[5], dtype=bool)

    lines = _csv_rows(points, values, est, poles).split("\n")
    assert lines[0] == "re_u,im_u,re_val,im_val,est_err,pole"
    assert lines[-1] == "" and len(lines) == len(rows) + 2
    for (zr, zi, vr, vi, e, p), line in zip(rows, lines[1:]):
        # fmt of a numpy scalar, as the row loop once printed it, is fmt of the float
        assert all(fmt(np.float64(x)) == fmt(x) for x in (zr, zi, vr, vi, e))
        if p:
            assert line == f"{fmt(zr)},{fmt(zi)},,,,1"
        else:
            est_field = fmt(e) if with_est else ""
            assert line == f"{fmt(zr)},{fmt(zi)},{fmt(vr)},{fmt(vi)},{est_field},0"

def test_periods_report(tmp_path, capsys):
    p4 = desc(tmp_path, "p4.desc", P4)
    assert main(["periods", p4]) == 0
    out = capsys.readouterr().out
    assert "rank = 2" in out
    assert "closed_form_1 = (omega1, 2*a*zeta(omega1/2))" in out
    assert "[config]" in out


def test_classify_1d_and_2d(tmp_path, capsys):
    wp2 = desc(tmp_path, "wp2.desc", WP2)
    assert main(["classify", wp2]) == 0
    out = capsys.readouterr().out
    assert "canonical_form = wp" in out and "rank = 2" in out
    p5 = desc(tmp_path, "p5.desc", P5)
    assert main(["classify", p5]) == 0
    out = capsys.readouterr().out
    assert "family = 5" in out and "rank = 3" in out


def test_compare_exit_codes(tmp_path):
    e = desc(tmp_path, "e.desc", EXP)
    s = desc(tmp_path, "s.desc", SIN)
    w1 = desc(tmp_path, "w1.desc", WP1)
    w2 = desc(tmp_path, "w2.desc", WP2)
    p4 = desc(tmp_path, "p4.desc", P4)
    p5 = desc(tmp_path, "p5.desc", P5)
    null = str(tmp_path / "r.txt")
    assert main(["compare", w1, w2, "--out", null]) == 0
    assert main(["compare", e, s, "--out", null]) == 1
    assert main(["compare", p4, p5, "--out", null]) == 1
    assert main(["compare", p4, p4, "--out", null]) == 4
    assert main(["compare", e, p4, "--out", null]) == 2  # dim mismatch


def test_compare_report_contains_reasons(tmp_path, capsys):
    e = desc(tmp_path, "e.desc", EXP)
    s = desc(tmp_path, "s.desc", SIN)
    assert main(["compare", e, s]) == 1
    out = capsys.readouterr().out
    assert "verdict = not_isomorphic" in out
    assert "reason_1 = period rank: 1 vs 1" in out


def test_verify_aat_exit_codes(tmp_path):
    e = desc(tmp_path, "e.desc", EXP)
    s = desc(tmp_path, "s.desc", SIN)
    null = str(tmp_path / "r.txt")
    assert main(["verify-aat", e, "--max-degree", "2", "--out", null]) == 0
    # degree bound too low for the sine relation: honest negative
    assert main(["verify-aat", s, "--max-degree", "2", "--out", null]) == 1


@pytest.mark.parametrize("text, degree, line", [
    (SIN, 3, "coordinate_1 = no relation found at degree 3, total degree <= 6, even exponents"),
    (WP1, 1, "coordinate_1 = no relation found at degree 1"),
], ids=["sin-capped", "wp_real-uncapped"])
def test_verify_aat_negative_report_names_the_box(tmp_path, capsys, text, degree, line):
    d = desc(tmp_path, "d.desc", text)
    assert main(["verify-aat", d, "--max-degree", str(degree)]) == 1
    assert line in capsys.readouterr().out.splitlines()


def test_verify_aat_report_shows_relation(tmp_path, capsys):
    e = desc(tmp_path, "e.desc", EXP)
    assert main(["verify-aat", e, "--max-degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "success = 1" in out
    assert "relation_1" in out and "f1(u)*f1(v)" in out.replace(" ", "") or "X" not in out


@pytest.mark.parametrize(
    "lattice", ["lattice(1,1i)", "lattice(1, 60+1i)"], ids=["square", "skew-60"]
)
def test_check_identities_pass(tmp_path, capsys, lattice):
    assert main(["check-identities", "--lattice", lattice]) == 0
    out = capsys.readouterr().out
    assert "all_pass = 1" in out
    assert "zeta_quasi_periodicity_omega1" in out
    assert "scaling_law_c_1+i" in out


@pytest.mark.filterwarnings("error")
def test_check_identities_sigma_underflow(capsys):
    """On <0.3+0.1i, 2+7i> sigma(z + w) leaves the double range below, where
    exp underflows to 0; the log-space check passes with no warning."""
    assert main(["check-identities", "--lattice", "lattice(0.3+0.1i, 2+7i)"]) == 0
    out = capsys.readouterr().out
    assert "all_pass = 1" in out and "nan" not in out
    for i in (1, 2):
        name = f"sigma_quasi_periodicity_omega{i} = "
        line = next(x for x in out.splitlines() if x.startswith(name))
        assert float(line.split()[2]) < 1e-12


def test_reports_byte_identical(tmp_path):
    p4 = desc(tmp_path, "p4.desc", P4)
    out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    assert main(["classify", p4, "--out", str(out1)]) == 0
    assert main(["classify", p4, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_file_is_not_read(tmp_path, monkeypatch):
    """The flags are the whole run configuration: a file named by
    LOCNASH_CONFIG, once a source of settings, changes no byte of a report."""
    e = desc(tmp_path, "e.desc", EXP)
    plain, with_env = tmp_path / "plain.txt", tmp_path / "env.txt"
    assert main(["verify-aat", e, "--max-degree", "2", "--out", str(plain)]) == 0
    monkeypatch.setenv("LOCNASH_CONFIG", desc(tmp_path, "run.cfg", "seed = 7\n"))
    assert main(["verify-aat", e, "--max-degree", "2", "--out", str(with_env)]) == 0
    assert with_env.read_bytes() == plain.read_bytes()
    assert "\nseed = 0\n" in plain.read_text()


def test_missing_descriptor_exits_2(tmp_path):
    assert main(["classify", str(tmp_path / "nope.desc")]) == 2


def test_bad_descriptor_field_exits_2(tmp_path):
    bad = desc(tmp_path, "bad.desc", "dim = 1\nfamily = exp\nbogus = 1\n")
    assert main(["classify", bad]) == 2


@pytest.mark.parametrize("flags", [
    ["--max-degree", "-3"],
    ["--max-degree", "0"],
    ["--seed", "-5"],
])
def test_invalid_run_config_exits_2(tmp_path, capsys, flags):
    argv = ["verify-aat", desc(tmp_path, "e.desc", EXP)] + flags
    assert main(argv) == 2
    assert "parse error: bad run configuration" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--tol", "1e-9"), ("--max-denominator", "1000000"),
    ("--config", "run.cfg"), ("--n-samples", "64"),
])
def test_tol_flag_is_a_usage_error(tmp_path, flag, value):
    # the tolerance, the denominator cap and the sample floor are constants,
    # not settings, and there is no config file
    with pytest.raises(SystemExit) as exc:
        main(["verify-aat", desc(tmp_path, "e.desc", EXP), flag, value])
    assert exc.value.code == 2


def test_shared_flags_match_run_config_fields():
    """main builds RunConfig from the shared flags, so a shared flag without
    a field would parse and then be ignored."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    shared = set.intersection(*({a.dest for a in p._actions} for p in sub.choices.values()))
    assert shared - {"help"} == {f.name for f in dataclasses.fields(RunConfig)}


def test_config_block_fields(tmp_path, capsys):
    assert main(["classify", desc(tmp_path, "e.desc", EXP)]) == 0
    out = capsys.readouterr().out
    block = out.split("[config]\n", 1)[1].split("\n[", 1)[0].splitlines()
    assert [line.split(" = ")[0] for line in block] == [
        "max_degree", "seed"]


def test_classify_elongated_wp_real(tmp_path, capsys):
    # <1, 2000i> is far from R-dependent at the fixed tolerance 1e-9
    wp = desc(tmp_path, "wp.desc", "dim = 1\nfamily = wp_real\na = 2000\n")
    assert main(["classify", wp]) == 0
    out = capsys.readouterr().out
    assert "canonical_form = wp" in out and "\na = 2000\n" in out


@pytest.mark.parametrize("text", [
    "dim = 1\nfamily = exp\nlattice = lattice(1, 1i)\n",
    "dim = 1\nfamily = exp\na = 3\nlattice = lattice(1, 1i)\n",
    "dim = 2\nfamily = p1\na = 1\n",
    P4 + "lattice2 = lattice(1, 2i)\n",
])
def test_unused_descriptor_field_exits_2(tmp_path, capsys, text):
    assert main(["classify", desc(tmp_path, "d.desc", text)]) == 2
    assert "does not use" in capsys.readouterr().err


@pytest.mark.parametrize("s", ["1e-160", "1e-200"])
def test_eval_past_double_range_exits_3(tmp_path, s):
    """(pi/|r1|)^3 on lattice(s, si) leaves the double range: evaluation
    refuses the lattice, a numeric failure (exit 3) named once, with no
    traceback and no numpy warning.  Run as a process, as a user would."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "locnash", "eval", "--lattice", f"lattice({s}, {s}i)",
         "--grid", "0.1:0.2:0.1", "--out", str(tmp_path / "g.csv")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr == (f"locnash: lattice too small to evaluate: shortest vector {s} "
                           "is below 5.6e-103, where (pi/|r1|)^3 leaves the double range\n")
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("s", ["1e-19", "1e-100"])
def test_eval_point_past_reduction_limit_exits_3(tmp_path, s):
    """0.1 + 0.1i lies more than 2^52 periods out on lattice(s, si): the
    argument reduction refuses it, exit 3 with one line, no traceback and no
    numpy warning, and no CSV is written."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = tmp_path / "g.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "locnash", "eval", "--lattice", f"lattice({s}, {s}i)",
         "--fn", "wp", "--grid", "0.1:0.2:0.1", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr == ("locnash: cannot reduce u = (0.1+0.1j): its coefficient over the "
                           "lattice's reduced basis is 2^52 or more, where a double keeps no "
                           "fraction\n")
    assert not out.exists()


def test_periods_overflowing_alpha_inverse_exits_2(tmp_path, capsys):
    d = desc(tmp_path, "e.desc", EXP + "alpha = 5e-324\n")
    assert main(["periods", d]) == 2
    assert "parse error: the inverse of alpha is not finite" in capsys.readouterr().err


#: a document of each family, less its alpha
DOCUMENTS = {
    "id": "dim = 1\nfamily = id\n", "exp": EXP, "sin": SIN, "wp_real": WP1,
    "p1": "dim = 2\nfamily = p1\n", "p2": "dim = 2\nfamily = p2\n",
    "p3": "dim = 2\nfamily = p3\n", "p4": P4, "p5": P5,
    "p6_product": "dim = 2\nfamily = p6_product\nlattice = lattice(1, 1i)\n"
                  "lattice2 = lattice(1, 2i)\n",
}


@st.composite
def singular_alphas(draw):
    """A family with a singular real alpha: 0 in dim 1, an outer product
    u v^T in dim 2."""
    family = draw(st.sampled_from(sorted(DOCUMENTS)))
    if FAMILIES[family].dim == 1:
        return family, ((draw(st.sampled_from([0.0, -0.0])),),)
    u, v = (draw(st.tuples(st.floats(-4, 4), st.floats(-4, 4))) for _ in range(2))
    return family, tuple(tuple(x * y for y in v) for x in u)


@given(singular_alphas())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_singular_alpha_refused_at_construction_and_parse(tmp_path, capsys, case):
    family, alpha = case
    base = parse_descriptor(DOCUMENTS[family])
    with pytest.raises(ValueError):
        dataclasses.replace(base, alpha=alpha)
    flat = ", ".join(fmt(x) for row in alpha for x in row)
    d = desc(tmp_path, "singular.desc", DOCUMENTS[family] + f"alpha = {flat}\n")
    assert main(["verify-aat", d, "--max-degree", "1"]) == 2
    out, err = capsys.readouterr()
    assert "success = 1" not in out and "parse error" in err


def test_rank1_p3_alpha_exits_2(tmp_path, capsys):
    d = desc(tmp_path, "p3.desc", DOCUMENTS["p3"] + "alpha = 1, 0, 1, 0\n")
    for cmd in ("verify-aat", "periods", "classify"):
        assert main([cmd, d]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "parse error: alpha is singular" in err


ROTATION = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])


@pytest.mark.parametrize("s", [1e-10, 0.999e-9, 1.001e-9, 1e-8])
@pytest.mark.parametrize("rotate", [False, True], ids=["diag", "rotated"])
@pytest.mark.parametrize("family", ["p2", "p3"])
def test_alpha_conditioning_boundary(tmp_path, capsys, family, rotate, s):
    """alpha = diag(1, s) or R diag(1, s) has condition number 1/s.  Past
    1/DEFAULT_TOL construction refuses it (exit 2); inside, the period group
    builds, p3's generators at the same bound."""
    alpha = (ROTATION if rotate else np.eye(2)) @ np.diag([1.0, s])
    text = DOCUMENTS[family] + "alpha = " + ", ".join(fmt(x) for x in alpha.flat) + "\n"
    d = desc(tmp_path, "alpha.desc", text)
    if s < DEFAULT_TOL:
        with pytest.raises(ValueError, match="condition number"):
            painleve(family, alpha=alpha)
        assert main(["periods", d]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "parse error" in err and "condition number" in err
    else:
        assert period_group(painleve(family, alpha=alpha)).rank == FAMILIES[family].rank
        assert main(["periods", d]) == 0


def test_p6_product_degenerate_pull_back_exits_3(tmp_path, capsys):
    """<1, 10000i> x <1, i> under alpha = diag(1, 1e6): alpha passes its
    conditioning gate, the pulled-back generators (1, 0), (10000i, 0),
    (0, 1e-6), (0, 1e-6 i) are R-dependent at DEFAULT_TOL."""
    d = desc(tmp_path, "p6.desc", "dim = 2\nfamily = p6_product\nlattice = lattice(1, 10000i)\n"
             "lattice2 = lattice(1, 1i)\nalpha = 1, 0, 0, 1000000\n")
    assert main(["periods", d]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "DegenerateGenerators" in err


@pytest.mark.filterwarnings("error")
def test_subnormal_lattice_eta_refused(tmp_path, capsys):
    """On <1e-310, 1e-310 i> the eta constants, of size 1/|r1|, leave the
    double range: the context refuses the lattice with one message, before
    any alpha pull-back, and no warning.  <1e-200, 1e-200 i> keeps its
    report."""
    tiny = "dim = 2\nfamily = p4\na = 1\nlattice = lattice(1e-310, 1e-310i)\n"
    for text in (tiny, tiny + "alpha = 1, 0.3, 0.2, 1\n"):
        assert main(["periods", desc(tmp_path, "tiny.desc", text)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "locnash: lattice <9.9999999999999694e-311+0j, 0+9.9999999999999694e-311j> is too "
            "small for its eta constants: at shortest vector 1e-310 they leave the double range\n")
    small = desc(tmp_path, "small.desc", tiny.replace("e-310", "e-200"))
    assert main(["periods", small]) == 0
    assert capsys.readouterr().out == """locnash periods report
[config]
max_degree = 8
seed = 0
[descriptor]
dim = 2
family = p4
a = 1
lattice = lattice(9.9999999999999998e-201, 9.9999999999999998e-201i)
[result]
rank = 2
generator_1 = 9.9999999999999998e-201 0; 3.1415926535897936e+200 0
generator_2 = 0 9.9999999999999998e-201; 0 -3.1415926535897929e+200
closed_form_1 = (omega1, 2*a*zeta(omega1/2))
closed_form_2 = (omega2, 2*a*zeta(omega2/2))
"""


@pytest.mark.filterwarnings("error")
def test_pull_back_out_of_range_refused(tmp_path, capsys):
    """On <3e-308, 3e-308 i> the context builds (its eta constants are about
    1e308), but alpha^-1 carries them past the double range: one message
    naming the lattice, exit 3, and no warning."""
    text = ("dim = 2\nfamily = p4\na = 1\nlattice = lattice(3e-308, 3e-308i)\n"
            "alpha = 0.5, 0.3, 0.2, 0.5\n")
    assert main(["periods", desc(tmp_path, "edge.desc", text)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "locnash: the periods of lattice <3.0000000000000002e-308+0j, "
        "0+3.0000000000000002e-308j> pulled back by alpha^-1 leave the double range\n")


def test_classify_skew_lattice_report(tmp_path, capsys):
    # <1, k + i> and <1 + k^2 + ki, k + i> are the square lattice: their
    # given bases have condition numbers about k^2 and k^4, the reduced one 1
    for pair in ("1, 100000+1i", "1, 1e12+1i", "9000001+3000i, 3000+1i"):
        wp = desc(tmp_path, "wp.desc", WP2 + f"lattice = lattice({pair})\n")
        assert main(["classify", wp]) == 0
        out = capsys.readouterr().out
        assert "canonical_form = wp" in out and "\na = 1\n" in out


def test_classify_skew_real_lattice_at_large_a(tmp_path, capsys):
    """A rectangular lattice written in a skew basis whose reduced vectors
    carry rounding off either axis: conjugation's integer matrix still reads
    its parameter."""
    wp = desc(tmp_path, "wp.desc", "dim = 1\nfamily = wp_real\na = 835.045271913747\n"
              "lattice = lattice(39-106050.74953304586i, -35+95195.160998167165i)\n")
    assert main(["classify", wp]) == 0
    fields = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines()
                  if " = " in line)
    assert fields["canonical_form"] == "wp"
    assert float(fields["a"]) == pytest.approx(835.045271913747, rel=1e-9)


def test_wp_real_explicit_lattice_report(tmp_path, capsys):
    wp = desc(tmp_path, "wp.desc", WP2 + "lattice = lattice(1, 1i)\n")
    assert main(["classify", wp]) == 0
    out = capsys.readouterr().out
    assert "lattice = lattice(1, 1i)" in out and "\na = 1\n" in out
    assert main(["periods", wp]) == 0
    out = capsys.readouterr().out
    assert "closed_form_1 = omega1" in out and "closed_form_2 = omega2" in out


def test_p6_product_verify_aat_certifies_with_no_flags(tmp_path, capsys):
    """Each p6_product coordinate searches f_i(u), f_i(v), f_i(u+v) alone, so
    the default --max-degree 8 stays inside the matrix guard (over all five
    variables, degree 8 has 9^5 monomials, past it)."""
    d = desc(tmp_path, "p6.desc", DOCUMENTS["p6_product"] + "alpha = 1, 0.3, 0.2, 1\n")
    assert main(["verify-aat", d]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "max_degree = 8" in lines and "success = 1" in lines
    for i in (1, 2):
        assert f"variables_{i} = f{i}(u), f{i}(v), f{i}(u+v)" in lines
        assert any(line.startswith(f"coordinate_{i} = degree 2, residual ") for line in lines)
    assert lines.count("variables = X1, X3, X5") == lines.count("variables = X2, X4, X5") == 1
