"""Quench dynamics and dynamical topological characterization of
layered two-band stacks."""

__version__ = "0.1.0"

from .errors import (DegenerateFieldError, DegenerateSpectrumError, GaplessError,
                     InconsistentSampleError, LayerQuenchError, NonConvergenceError,
                     NonQuantizedWindingError, SingularPointError, TrivialRegimeError,
                     UnsupportedStackingError, UsageError)
from .models import (LayeredConfig, Cell, PAULI, anticommutator_table, build_layered,
                     coupling_matrix, haldane_field, hamiltonian_terms,
                     interlayer_alternating, interlayer_chain, monolayer_field,
                     qwz_field, sampling_cell)
from .spectra import (SineModes, SpectrumSample, abba_transform, analytic_levels,
                      analytic_positive_levels, degeneracy_groups, eigvec_identities,
                      level_labels, numeric_levels, numeric_spectrum, sine_modes,
                      subsystem_fields)
from .quench import (gtasp_abba, global_observable, mixed_state, polarization_profile,
                     pure_state, pure_state_check, singular_mask, subspace_observable,
                     tasp_closed_form, time_averaged_expectation,
                     time_integrated_expectation)
from .bisfield import (BisContour, TaspGrid, characterize, component_zero_curves,
                       dynamical_field, extract_bis, sample_grid, winding)
from .topology import (PhaseDiagram, TransitionCurve, TransitionSet, chern_fhs,
                       chern_two_band, phase_diagram, segment_crosses_transition,
                       subsystem_field_fn, total_chern_abba, transition_lines_abba)
from .hopping import (HoppingEstimate, ba_reference_magnitudes, estimate_t_abba,
                      estimate_t_ba)
