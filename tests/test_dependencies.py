"""The package needs numpy only: mpmath, sympy and scipy serve the tests and
the benchmark oracle, never the package itself."""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# imports locnash, writes one eval grid and certifies exp's addition theorem
# at degree 1 with the three modules blocked by a meta-path finder
SCRIPT = textwrap.dedent("""
    import sys

    BLOCKED = {"mpmath", "sympy", "scipy"}


    class Blocker:
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] in BLOCKED:
                raise ModuleNotFoundError(f"{name} is blocked", name=name)
            return None


    sys.meta_path.insert(0, Blocker())
    try:
        import mpmath  # installed for the tests, so this shows the blocker works
    except ModuleNotFoundError:
        pass
    else:
        raise AssertionError("mpmath was not blocked")

    import locnash
    assert "argparse" not in sys.modules
    from locnash.cli import main
    from locnash.relations import verify_aat
    from locnash.structures import exp_map

    out = sys.argv[1]
    assert main(["eval", "--lattice", "lattice(1, 1i)", "--fn", "wp",
                 "--grid", "-0.5:0.5:0.25", "--out", out]) == 0
    assert verify_aat(exp_map(), 1).success
    assert not BLOCKED & {name.partition(".")[0] for name in sys.modules}
    print("ok")
""")


def test_package_runs_without_mpmath_sympy_scipy(tmp_path):
    out = tmp_path / "grid.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(out)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
    assert len(out.read_text().splitlines()) == 1 + 5 * 5
