"""The README's Python example runs as written against the package."""

import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_example_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        (example,) = re.findall(r"^```python\n(.*?)^```", fh.read(), flags=re.M | re.S)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", example], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert abs(complex(lines[1]) - math.pi) < 1e-12
    assert lines[-1].startswith("isomorphic") and "1/2" in lines[-1]
