import os

# before numpy is imported: one BLAS thread, as in bench/run.py; spinning BLAS
# threads slow the suite several times over next to one busy core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from locnash.lattices import Lattice1


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def square():
    return Lattice1(1.0, 1j)


@pytest.fixture(scope="session")
def rect():
    return Lattice1(1.0, 2j)


@pytest.fixture(scope="session")
def hexagonal():
    return Lattice1(1.0, np.exp(1j * np.pi / 3))
