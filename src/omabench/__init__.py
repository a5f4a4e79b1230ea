"""Noise-robustness workbench for output-only modal identification.

Simulates transient vibration of single-span beams, corrupts the records
with RMS-scaled Gaussian noise, identifies modal parameters with peak
picking, frequency domain decomposition and stochastic subspace
identification, and benchmarks identification quality over a Monte Carlo
campaign.
"""

import os

# One BLAS thread per process, set before numpy loads so the serial path and
# forked pool workers alike run single-threaded BLAS: the thread count changes
# the rounding of the results and oversubscribes the cores under a pool.  An
# explicit setting in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .beam import (BeamModel, GlobalSystem, ModalSolution, SUPPORTS,
                   analytical_frequencies, assemble_model, characteristic_roots,
                   modal_analysis, transient_response)
from .dsp import (IdentificationError, MultiChannelRecord, SpectralEstimatorOptions,
                  SpectralMatrix, band_limited_force, csd_matrix, derive_seed, psd)
from .freqdom import (AnpsdCurve, IdentifiedMode, IdentifiedModeSet, Peak,
                      PeakOptions, align_to_real, anpsd, fdd_identify,
                      pick_peaks, pp_identify, unit_normalize)
from .harness import (BeamConfig, BenchmarkReport, CampaignConfig, DEFAULT_SEED,
                      ModeOutcome, MethodResult, RunResult, default_beams,
                      identify_record, run_campaign, run_single, simulate_beam,
                      summarize_and_tables)
from .metrics import PairingOptions, mac, pair_to_reference, relative_error
from .noise import corrupt, noise_level_to_snr_db
from .ssi import (SsiOptions, StabilizationDiagram, build_hankel, realize_modes,
                  ssi_identify, stabilization)

__version__ = "0.1.0"
