"""Piecewise closed-loop digital predistortion workbench."""

__version__ = "0.1.0"  # before the submodule imports, which may read it

from .basis import BasisSpec, BfTerm, enumerate_bfs, precompute_covariance
from .complexity import ComplexityParams, flops, full_ledger, reference_params
from .dpd import (DpdModel, LearnConfig, TraceRecord, distortion_power_identity,
                  error_signal, estimate_gain, learn, predistort, prune_select)
from .errors import ConfigError, DegenerateRegionError, DemodulationError, DivergenceError
from .ila import ila_learn
from .metrics import aclr_single_direction, aclr_trp, beam_pattern, evm, nmse, psd
from .partition import AmAmModel, RegionPartition, fit_amam, kmeans_partition, partition_regions
from .plant import ArrayPlant, PaModel, array_forward, load_plant, observation_receive, save_plant, steer
from .signals import IqSignal, read_iq, write_iq
from .waveform import OfdmConfig, crest_factor_reduce, demodulate_ofdm, generate_ofdm, papr_ccdf
