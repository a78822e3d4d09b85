"""Named plant presets, waveform defaults, and scenario parameter sets.

The plant constants below are desk-scale calibrations: "array8-deep" is an
8-element memory-polynomial array driven into deep compression (no-DPD
observation ACLR around 25 dBc at its drive level, Taylor partitioning with
Q=5, e=0.01 landing at K=3); "array8-backoff" is the same hardware at 3 dB
lower drive; "doherty-n3" is a single strongly amplitude-dependent two-branch
PA on a 20 MHz carrier where single-polynomial DPD visibly underperforms.
"""

from __future__ import annotations

import json
import math
from importlib import resources

import numpy as np

from .errors import ConfigError
from .plant import ArrayPlant, PaModel

PLANT_PRESETS = ("array8-deep", "array8-backoff", "doherty-n3")

# drive level (waveform RMS at the plant input), ACLR channel bandwidth,
# crest-factor-reduction settings, and the matching OFDM numerology
PRESET_PARAMS = {
    "array8-deep": {
        "drive_rms": 0.56,
        "channel_bw": 400e6,
        "cfr_target_papr_db": 6.5,
        "cfr_iterations": 10,
        "noise_floor_dbc": -54.0,
        "ofdm": dict(subcarrier_spacing=120e3, fft_size=4096, active_subcarriers=3168,
                     oversampling=5, constellation="64QAM", cp_fraction=0.07,
                     wola_taper_samples=256),
    },
    "array8-backoff": {
        "drive_rms": 0.56 / math.sqrt(2),
        "channel_bw": 400e6,
        "cfr_target_papr_db": 6.5,
        "cfr_iterations": 10,
        "noise_floor_dbc": -54.0,
        "ofdm": dict(subcarrier_spacing=120e3, fft_size=4096, active_subcarriers=3168,
                     oversampling=5, constellation="64QAM", cp_fraction=0.07,
                     wola_taper_samples=256),
    },
    "doherty-n3": {
        "drive_rms": 0.52,
        "channel_bw": 20e6,
        "cfr_target_papr_db": 6.5,
        "cfr_iterations": 10,
        "noise_floor_dbc": -54.0,
        "ofdm": dict(subcarrier_spacing=15e3, fft_size=2048, active_subcarriers=1272,
                     oversampling=4, constellation="64QAM", cp_fraction=0.07,
                     wola_taper_samples=64),
    },
}


def _nearest_neighbor_coupling(n_elements: int, reach: int = 2) -> np.ndarray:
    """2-tap coupling FIRs with 1/|i-l| magnitude out to the given reach."""
    taps = 2
    coupling = np.zeros((n_elements, n_elements, taps), dtype=np.complex128)
    for i in range(n_elements):
        coupling[i, i, 0] = 1.0
        for l in range(n_elements):
            d = abs(i - l)
            if l == i or d > reach:
                continue
            coupling[i, l, 0] = (1.0 / d) * np.exp(-1j * 0.7 * d)
            coupling[i, l, 1] = (0.35 / d) * np.exp(-1j * (0.7 * d + 0.9))
    return coupling


def build_array8_deep() -> ArrayPlant:
    """8-element memory-polynomial array with +-10% coefficient spread."""
    rng = np.random.default_rng(2024)
    base = {
        (1, 0): 1.0 + 0.0j,
        (1, 1): 0.055 * np.exp(0.9j),
        (1, 2): 0.012 * np.exp(-2.0j),
        (3, 0): -0.42 + 0.11j,
        (3, 1): 0.017 * np.exp(1.9j),
        (5, 0): 0.140 - 0.050j,
        (7, 0): -0.020 + 0.007j,
    }
    elements = []
    for _ in range(8):
        table = {key: coef * (1 + 0.1 * rng.uniform(-1, 1)) for key, coef in base.items()}
        elements.append(PaModel("memory_poly", table, saturation_level=1.15))
    n = len(elements)
    branch = np.zeros((n, 2), dtype=np.complex128)
    branch[:, 0] = 1.0
    branch[:, 1] = 0.12 * np.exp(1j * 0.4)
    plant = ArrayPlant(
        elements=tuple(elements),
        weights=np.ones(n, dtype=np.complex128),
        coupling=_nearest_neighbor_coupling(n),
        branch_filters=branch,
        channel=np.ones(n, dtype=np.complex128),
        coupling_strength=0.02,
        angle_coupling_slope=2.0,
    )
    return plant


def build_doherty_n3() -> ArrayPlant:
    """Single two-branch PA with a gain step across the amplitude crossover."""
    main = {
        (1, 0): 1.0 + 0.0j,
        (1, 1): 0.04 * np.exp(0.7j),
        (3, 0): -0.055 + 0.02j,
        (5, 0): 0.004 - 0.003j,
    }
    aux = {
        (1, 0): 1.22 - 0.05j,
        (1, 1): 0.04 * np.exp(0.7j),
        (3, 0): -0.32 + 0.07j,
        (5, 0): 0.045 - 0.02j,
    }
    pa = PaModel("doherty_like",
                 {"main": main, "aux": aux, "crossover": 0.5, "blend_width": 0.07},
                 saturation_level=1.0)
    ident = np.zeros((1, 1, 1), dtype=np.complex128)
    ident[0, 0, 0] = 1.0
    return ArrayPlant(
        elements=(pa,),
        weights=np.ones(1, dtype=np.complex128),
        coupling=ident,
        branch_filters=np.ones((1, 1), dtype=np.complex128),
        channel=np.ones(1, dtype=np.complex128),
        coupling_strength=0.0,
    )


_BUILDERS = {
    "array8-deep": build_array8_deep,
    "array8-backoff": build_array8_deep,  # same hardware, lower drive
    "doherty-n3": build_doherty_n3,
}

# presets that share another preset's hardware file; PRESET_PARAMS sets the drive
_PLANT_FILES = {"array8-backoff": "array8-deep"}


def load_plant_preset(name: str) -> ArrayPlant:
    """Load a named plant preset from the shipped JSON description."""
    if name not in PLANT_PRESETS:
        raise ConfigError(f"unknown plant preset {name!r}; have {PLANT_PRESETS}")
    ref = resources.files("pwdpd").joinpath(f"presets/plants/{_PLANT_FILES.get(name, name)}.json")
    return ArrayPlant.from_dict(json.loads(ref.read_text()))


def preset_params(name: str) -> dict:
    if name not in PRESET_PARAMS:
        raise ConfigError(f"unknown plant preset {name!r}; have {PLANT_PRESETS}")
    return json.loads(json.dumps(PRESET_PARAMS[name]))  # deep copy
