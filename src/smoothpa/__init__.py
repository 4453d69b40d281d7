"""Sequential probability assignment under log-loss against smooth adaptive
adversaries: learners, oracles, couplings, diagnostics, and a sweep harness."""

from .core import GameTrace, log_loss, run_game
from .errors import (ConfigError, InfiniteLossError, NumericalAssertionError,
                     SmoothnessError)
from .hypotheses import Hypothesis, RegionFamily, evaluate, mle_oracle, offline_best_loss
from .adversary import AdversaryPolicy, SmoothDistribution, adversary_from_spec, validate_smooth
from .coupling import rejection_couple_batch
from .learners import (FtplLearner, KtLearner, MixtureLearner, UniformLearner, epsilon_cover,
                       learner_from_spec)
from .diagnostics import (RademacherEstimate, chi_square_bruteforce, chi_square_closed_form,
                          nml_value, rademacher_estimate, theorem_bound)
from .harness import ExperimentConfig, derive_seed, fit_scaling, parse_config, run

__version__ = "0.1.0"
