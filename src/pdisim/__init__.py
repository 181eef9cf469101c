"""pdisim: phase-shifting point-diffraction interferometry at few photons.

Simulates interferograms from programmable wavefronts, injects Poisson shot
noise and sub-electron Gaussian readout noise, reconstructs wrapped phase
maps, and quantifies reconstruction quality (qudit fidelity, phase-error
statistics) over illumination/noise grids.
"""

from .circular import circ_dist, circ_mean, circ_std, resultant_length, wrap
from .errors import (ConfigError, DegenerateReferenceError, DomainError,
                     EstimationError, PdisimError, SamplingError, ShapeError)
from .field import (ComplexField, GridSpec, QuditState, SlitLayout,
                    equal_step_state, field_from_phase_map, mean_field)
from .forward import InterferogramSet, PsiConfig, simulate_interferograms
from .sensor import (NoiseParams, apply_noise, rng_stream, sample_noise,
                     sigma_from_nsamp)
from .reconstruct import (ReconstructionResult, c0_analytic, c0_empirical,
                          extract_phase)
from .qudit import (BinningPolicy, FidelityStats, bootstrap_fidelity,
                    extract_state, fidelity)
from .experiments import (ContinuousCase, LensScene,
                          PhaseErrorStats, QuditScene, SweepGrid,
                          continuous_experiment, continuous_threads,
                          fidelity_sweep, phase_error_stats, sweep_threads)
from .config import PhmapScene, RunConfig, parse_config, serialize_config

__version__ = "0.1.0"
