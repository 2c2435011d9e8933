import math

import numpy as np
import pytest
from hypothesis import strategies as st

from mpemba_qsim.states import BlochVector


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_ket(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density_matrix(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_bloch(rng):
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    return BlochVector(*(d * rng.uniform() ** (1.0 / 3.0)))


@st.composite
def bloch_vectors(draw):
    rx, ry, rz = (draw(st.floats(-1.0, 1.0)) for _ in range(3))
    norm = math.sqrt(rx * rx + ry * ry + rz * rz)
    scale = draw(st.floats(0.0, 1.0)) / norm if norm > 1.0 else 1.0
    return BlochVector(rx * scale, ry * scale, rz * scale)
