import tracemalloc

import numpy as np
import pytest

from pwdpd.basis import region_blocks
from pwdpd.dpd import DpdModel, estimate_gain
from pwdpd.ila import _postinverse_fit
from pwdpd.plant import ArrayPlant, PaModel, array_forward, observation_receive
from pwdpd.presets import load_plant_preset, preset_params
from pwdpd.scenarios import (SimulatedLoop, _base_spec, derive_partition, evaluate,
                             evaluation_seed, partition_seed, training_seed)
from pwdpd.signals import IqSignal


def identity_coupling(n, taps=1):
    c = np.zeros((n, n, taps), dtype=np.complex128)
    for i in range(n):
        c[i, i, 0] = 1.0
    return c


def single_element_plant(table, kind="memory_poly", sat=np.inf, coupling_strength=0.0):
    pa = PaModel(kind, table, saturation_level=sat)
    return ArrayPlant((pa,), identity_coupling(1), np.ones((1, 1), dtype=complex),
                      coupling_strength=coupling_strength)


def random_signal(n, rms=0.5, seed=0, sample_rate=1.0):
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * (rms / np.sqrt(2))
    return IqSignal(x, sample_rate)


def traced_peak(fn, *args):
    """Peak bytes allocated while fn(*args) runs, as tracemalloc counts them
    (numpy buffers included); what was live before the call is not counted."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


def ilc_oracle_aclr(seed, block=60000, passes=60, mu=0.3):
    """Learner-free yardstick of what each basis can reach on array8-deep at
    bundle seed `seed`; a test oracle with no package counterpart.

    Iterative learning control (Chani-Cahuana, Landin, Fager and Eriksson,
    IEEE TMTT 2016) finds the ideal PA input u* of one noise-free block of the
    PW-CL training draw (training_seed(seed, 1)) with no model:
    u <- u - mu e / ghat, with e = z - ghat a1 and ghat re-estimated on each
    pass. Loaded per-region least squares (ila._postinverse_fit) then fits the
    basis on a1 to u* - a1, on the bundle's Taylor partition, and
    scenarios.evaluate scores that gamma on fresh data at evaluation_seed(seed).
    Returns the ACLR in dBc of the PW (Taylor partition) and the
    single-polynomial basis, and the last pass's error power relative to
    ghat a1 in dB."""
    plant, preset = load_plant_preset("array8-deep"), preset_params("array8-deep")
    a1 = SimulatedLoop(plant, preset, training_seed(seed, 1)).next_block(block)
    u = a1.samples
    for _ in range(passes):
        z = observation_receive(plant, array_forward(plant, a1.with_samples(u)))
        ghat = estimate_gain(a1, z)
        e = z.samples - ghat * a1.samples
        u = u - mu * e / ghat
    residual_db = 10 * np.log10(np.mean(np.abs(e) ** 2) / (abs(ghat) ** 2 * a1.power))
    spec = _base_spec()
    part = derive_partition(plant, preset, partition_seed(seed))[0]
    aclr = {}
    for name, fit_spec in (("pw", spec.with_partition(part)), ("single", spec)):
        gamma = _postinverse_fit(fit_spec, a1.samples, u - a1.samples)
        aclr[name] = evaluate(plant, preset, DpdModel(gamma, fit_spec),
                              evaluation_seed(seed)).metrics["aclr_dbc"]
    return aclr["pw"], aclr["single"], residual_db


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
