import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from locnash.cli import _csv_rows, build_parser, main
from locnash.config import fmt

EXP = "dim = 1\nfamily = exp\n"
SIN = "dim = 1\nfamily = sin\n"
WP1 = "dim = 1\nfamily = wp_real\na = 1\n"
WP2 = "dim = 1\nfamily = wp_real\na = 2\n"
P4 = "dim = 2\nfamily = p4\na = 1\nlattice = lattice(1, 1i)\n"
P5 = "dim = 2\nfamily = p5\na = 0.3\nlattice = lattice(1, 2i)\n"


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


def test_eval_bad_grid_exits_2(tmp_path):
    assert main(["eval", "--lattice", "lattice(1,1i)", "--grid", "oops"]) == 2


@pytest.mark.parametrize("argv", [
    ["eval", "--lattice", "lattice(1, 2)", "--grid", "0:1:1"],
    ["check-identities", "--lattice", "lattice(1, 2)"],
    ["check-identities", "--lattice", "lattice(1)"],
    ["eval", "--lattice", "lattice((1, 0), (0, 1))", "--grid", "0:1:1"],
    ["classify", "desc:lattice(1, 2)"],
    ["classify", "desc:lattice(1)"],
], ids=["eval-degenerate", "check-identities-degenerate", "check-identities-rank-1",
        "eval-dim-2", "descriptor-degenerate", "descriptor-rank-1"])
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


def test_reports_byte_identical(tmp_path):
    p4 = desc(tmp_path, "p4.desc", P4)
    out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    assert main(["classify", p4, "--out", str(out1)]) == 0
    assert main(["classify", p4, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_file_and_flag_precedence(tmp_path, capsys, monkeypatch):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("seed = 42\nmax_degree = 3\n")
    e = desc(tmp_path, "e.desc", EXP)
    assert main(["verify-aat", e, "--config", str(cfgfile)]) == 0
    out = capsys.readouterr().out
    assert "seed = 42" in out and "max_degree = 3" in out
    # flags override the file
    assert main(["verify-aat", e, "--config", str(cfgfile), "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "seed = 7" in out
    # environment variable supplies the default config path
    monkeypatch.setenv("LOCNASH_CONFIG", str(cfgfile))
    assert main(["verify-aat", e]) == 0
    out = capsys.readouterr().out
    assert "seed = 42" in out


def test_unknown_config_key_exits_2(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("wibble = 3\n")
    assert main(["classify", "whatever.desc", "--config", str(cfgfile)]) == 2


def test_missing_descriptor_exits_2(tmp_path):
    assert main(["classify", str(tmp_path / "nope.desc")]) == 2


def test_bad_descriptor_field_exits_2(tmp_path):
    bad = desc(tmp_path, "bad.desc", "dim = 1\nfamily = exp\nbogus = 1\n")
    assert main(["classify", bad]) == 2


@pytest.mark.parametrize("flags, config", [
    (["--n-samples", "0"], None),
    (["--max-denominator", "0"], None),
    (["--max-degree", "0"], None),
    (["--seed", "-5"], None),
    (["--tol", "nan"], None),
    (["--tol", "inf"], None),
    ([], "tol = -1\n"),
    ([], "tol = nan\n"),
    ([], "seed = 1\nseed = 2\n"),
    ([], "output_path =\n"),
    ([], "n_samples = 2.5\n"),
])
def test_invalid_run_config_exits_2(tmp_path, capsys, flags, config):
    argv = ["verify-aat", desc(tmp_path, "e.desc", EXP)] + flags
    if config is not None:
        argv += ["--config", desc(tmp_path, "run.cfg", config)]
    assert main(argv) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "dim = 1\nfamily = exp\nlattice = lattice(1, 1i)\n",
    "dim = 1\nfamily = exp\na = 3\nlattice = lattice(1, 1i)\n",
    "dim = 2\nfamily = p1\na = 1\n",
    P4 + "lattice2 = lattice(1, 2i)\n",
])
def test_unused_descriptor_field_exits_2(tmp_path, capsys, text):
    assert main(["classify", desc(tmp_path, "d.desc", text)]) == 2
    assert "does not use" in capsys.readouterr().err


def test_periods_overflowing_alpha_inverse_exits_3(tmp_path, capsys):
    d = desc(tmp_path, "e.desc", EXP + "alpha = 5e-324\n")
    assert main(["periods", d]) == 3
    assert "SingularMatrix" in capsys.readouterr().err


def test_wp_real_explicit_lattice_report(tmp_path, capsys):
    wp = desc(tmp_path, "wp.desc", WP2 + "lattice = lattice(1, 1i)\n")
    assert main(["classify", wp]) == 0
    out = capsys.readouterr().out
    assert "lattice = lattice(1, 1i)" in out and "\na = 1\n" in out
    assert main(["periods", wp]) == 0
    out = capsys.readouterr().out
    assert "closed_form_1 = omega1" in out and "closed_form_2 = omega2" in out
