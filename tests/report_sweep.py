"""Byte-identity sweep of the command line: run a fixed list of `locnash`
command lines against a checkout and print one JSON line per run.

    python tests/report_sweep.py [CHECKOUT] > sweep.jsonl

CHECKOUT defaults to the repository holding this script; its ``src`` is put
first on PYTHONPATH.  Each run gets a fresh temporary directory, holding the
descriptor files, as its working directory, so every path on a command line
is a basename.  A line gives the argv, the exit code and one sha256 over the
exit code, stdout, stderr and each file the run wrote (name and bytes).  Two
checkouts that print the same line for a run gave the same reports byte for
byte, so ``diff`` of two sweeps lists the runs a change touched.  pytest
does not collect this file; tests/test_cli.py checks that every command line
here parses.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

# the two lattices whose skew bases meet rounding limits: a basis of exact
# integers far from reduced, and one whose second generator is about 4e7
SKEW_EXACT = "lattice(8997001+9003001i, 2999+3001i)"
SKEW_LONG = "lattice(0.37+0.11i, 37000004.1883+11040002.0637i)"

DESCRIPTORS = {
    "id": "dim = 1\nfamily = id\n",
    "exp": "dim = 1\nfamily = exp\n",
    "exp-a": "dim = 1\nfamily = exp\nalpha = 0.7\n",
    "sin": "dim = 1\nfamily = sin\n",
    "sin-a": "dim = 1\nfamily = sin\nalpha = -2.5\n",
    "wp1": "dim = 1\nfamily = wp_real\na = 1\n",
    "wp2": "dim = 1\nfamily = wp_real\na = 2\n",
    "wp-a": "dim = 1\nfamily = wp_real\na = 0.5\nalpha = 1.3\n",
    "wp-skew": f"dim = 1\nfamily = wp_real\na = 1\nlattice = {SKEW_EXACT}\n",
    "wp-long": f"dim = 1\nfamily = wp_real\na = 1\nlattice = {SKEW_LONG}\n",
    "p1": "dim = 2\nfamily = p1\n",
    "p2": "dim = 2\nfamily = p2\n",
    "p3": "dim = 2\nfamily = p3\n",
    "p4": "dim = 2\nfamily = p4\na = 1\nlattice = lattice(1, 1i)\n",
    "p4-0": "dim = 2\nfamily = p4\na = 0\nlattice = lattice(1, 2i)\n",
    "p4-skew": f"dim = 2\nfamily = p4\na = 1\nlattice = {SKEW_EXACT}\n",
    "p5": "dim = 2\nfamily = p5\na = 0.3\nlattice = lattice(1, 2i)\n",
    "p5-long": f"dim = 2\nfamily = p5\na = 0.3\nlattice = {SKEW_LONG}\n",
    "p5-60": "dim = 2\nfamily = p5\na = 0.3-0.2i\nlattice = lattice(1, 60+1i)\n",
    "p6": "dim = 2\nfamily = p6_product\nlattice = lattice(1, 1i)\nlattice2 = lattice(1, 2i)\n",
}

LATTICES = (
    "lattice(1, 1i)", "lattice(1, 2i)", "lattice(1, 0.5+0.8660254037844386i)",
    "lattice(1, 5+1i)", "lattice(1, 60+1i)", "lattice(0.3+0.1i, 2+7i)",
    "lattice(1e-5, 1e-5i)", "lattice(2, -2i)", "lattice(9000001+3000i, 3000+1i)",
    SKEW_EXACT, SKEW_LONG,
)

COMPARE = (
    ("exp", "exp-a"), ("exp", "sin"), ("id", "exp"), ("sin", "sin-a"), ("wp1", "wp2"),
    ("wp1", "wp-a"), ("sin", "wp1"), ("id", "id"), ("wp1", "wp-skew"), ("p4", "p5"),
    ("p4", "p4-0"), ("p1", "p2"), ("p3", "p6"),
)

VERIFY = (
    ("id", 1), ("exp", 2), ("exp-a", 2), ("sin", 4), ("wp1", 2), ("wp-skew", 2),
    ("p1", 1), ("p2", 2), ("p3", 2), ("p4-0", 2), ("p6", 2),
)

DESCRIPTOR_EVAL = ("exp", "sin-a", "wp1", "wp-skew", "p2", "p4", "p5", "p6")


def command_lines() -> list[list[str]]:
    """The argv of every run, descriptor files named `<key>.desc`."""
    runs = [[cmd, f"{key}.desc"] for key in DESCRIPTORS for cmd in ("periods", "classify")]
    runs += [["compare", f"{a}.desc", f"{b}.desc"] for a, b in COMPARE]
    runs += [["verify-aat", f"{key}.desc", "--max-degree", str(deg)] for key, deg in VERIFY]
    for lat in LATTICES:
        runs.append(["check-identities", "--lattice", lat])
        runs += [["eval", "--lattice", lat, "--fn", fn, "--grid", "-0.9:0.9:0.3", "--out", "grid.csv"]
                 for fn in ("wp", "wp-prime", "zeta", "sigma")]
    runs += [["eval", "--descriptor", f"{key}.desc", "--grid", "-0.5:0.5:0.25", "--out", "grid.csv"]
             for key in DESCRIPTOR_EVAL]
    return runs


def run(argv: list[str], src: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        for key, text in DESCRIPTORS.items():
            with open(os.path.join(tmp, f"{key}.desc"), "w", encoding="utf-8") as fh:
                fh.write(text)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "locnash", *argv], cwd=tmp, env=env,
                              capture_output=True)
        h = hashlib.sha256(f"{proc.returncode}\n".encode())
        h.update(proc.stdout)
        h.update(b"\0stderr\0" + proc.stderr)
        for name in sorted(os.listdir(tmp)):
            if not name.endswith(".desc"):
                with open(os.path.join(tmp, name), "rb") as fh:
                    h.update(f"\0{name}\0".encode() + fh.read())
    return {"argv": argv, "exit": proc.returncode, "sha256": h.hexdigest()}


def main() -> None:
    checkout = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))
    src = os.path.join(os.path.abspath(checkout), "src")
    for argv in command_lines():
        print(json.dumps(run(argv, src)), flush=True)


if __name__ == "__main__":
    main()
