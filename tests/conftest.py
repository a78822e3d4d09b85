import numpy as np
import pytest

from pwdpd.basis import region_blocks
from pwdpd.plant import ArrayPlant, PaModel
from pwdpd.signals import IqSignal


def identity_coupling(n, taps=1):
    c = np.zeros((n, n, taps), dtype=np.complex128)
    for i in range(n):
        c[i, i, 0] = 1.0
    return c


def single_element_plant(table, kind="memoryless_poly", sat=np.inf, coupling_strength=0.0):
    pa = PaModel(kind, table, saturation_level=sat)
    return ArrayPlant((pa,), np.ones(1, dtype=complex), identity_coupling(1),
                      np.ones((1, 1), dtype=complex), coupling_strength=coupling_strength)


def random_signal(n, rms=0.5, seed=0, sample_rate=1.0):
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * (rms / np.sqrt(2))
    return IqSignal(x, sample_rate)


def dense_basis(spec, x):
    """The masked N x K*B1 basis matrix of x: region k's column block holds the
    base set on the rows whose envelope falls in region k and zeros elsewhere.
    A test oracle; the package only streams its region blocks."""
    values = np.zeros((x.size, spec.n_regions, spec.n_basis_single), dtype=np.complex128)
    for k, rows, psi in region_blocks(spec, x):
        values[rows, k] = psi
    return values.reshape(x.size, -1)


def whiten(dense, factor):
    """Region k's columns of a dense basis matrix times (L_k^H)^-1, for the
    K x B1 x B1 stack of lower-triangular factors L; with L L^H the sample
    Gram, the result has the identity as its sample Gram."""
    n, k = dense.shape[0], factor.shape[0]
    cols = dense.reshape(n, k, -1).transpose(1, 2, 0)  # K x B1 x N, region k's Psi_k^T
    return np.linalg.solve(factor.conj(), cols).transpose(2, 0, 1).reshape(n, -1)


class PlantLoop:
    """Minimal closed-loop source over a plant with Gaussian blocks."""

    def __init__(self, plant, rms=0.3, seed=0, fixed_data=False, sample_rate=1.0):
        self.plant = plant
        self.rms = rms
        self.seed = seed
        self.fixed_data = fixed_data
        self.sample_rate = sample_rate
        self._k = 0

    def next_block(self, n):
        if not self.fixed_data:
            self._k += 1
        return random_signal(n, self.rms, self.seed + self._k, self.sample_rate)

    def transmit(self, x):
        from pwdpd.plant import array_forward, observation_receive
        return observation_receive(self.plant, array_forward(self.plant, x))


@pytest.fixture
def cubic_plant():
    return single_element_plant({(1, 0): 1.0, (3, 0): -0.12 + 0.03j})
