"""Named plant presets, waveform defaults, and scenario parameter sets.

Each plant is defined once, by its JSON file under presets/plants/. The
plants are desk-scale calibrations: "array8-deep" is an 8-element
memory-polynomial array driven into deep compression (no-DPD observation
ACLR around 25 dBc at its drive level, Taylor partitioning with Q=5, e=0.01
landing at K=3); its per-element coefficients were drawn with a +-10 %
spread around one memory polynomial (numpy default_rng seed 2024).
"doherty-n3" is a single strongly amplitude-dependent two-branch PA on a
20 MHz carrier where single-polynomial DPD visibly underperforms. "linear8"
is an ideal 8-element linear array (the sanity plant): each element a
memory_poly table holding the one unit term at order 1, tap 0, with no
limiter and no coupling. It runs on the array8-deep waveform, at a low drive
with neither CFR nor receiver noise.
"""

from __future__ import annotations

import copy
from importlib import resources

from .errors import ConfigError, read_json
from .plant import ArrayPlant

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
PRESET_PARAMS["linear8"] = dict(PRESET_PARAMS["array8-deep"], drive_rms=0.25,
                                cfr_target_papr_db=None, noise_floor_dbc=None)
PLANT_PRESETS = tuple(PRESET_PARAMS)


def load_plant_preset(name: str) -> ArrayPlant:
    """Load a named plant preset from the shipped JSON description."""
    if name not in PLANT_PRESETS:
        raise ConfigError(f"unknown plant preset {name!r}; have {PLANT_PRESETS}")
    ref = resources.files("pwdpd").joinpath(f"presets/plants/{name}.json")
    return read_json(ref, ArrayPlant.from_dict)


def preset_params(name: str) -> dict:
    if name not in PRESET_PARAMS:
        raise ConfigError(f"unknown plant preset {name!r}; have {PLANT_PRESETS}")
    return copy.deepcopy(PRESET_PARAMS[name])
