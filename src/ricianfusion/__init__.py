"""Channel-aware decision fusion for sensor networks over Rician MIMO links.

Simulates K one-bit sensors transmitting simultaneously to an N-antenna
fusion center, with optional subspace jamming, and evaluates a family of
fusion statistics by Monte Carlo: exact likelihood ratios, moment-matched
quadratic rules, widely-linear rules and jammer-projecting GLRTs.
"""

from .scenario import (DeploymentConfig, JammerScenario, WsnScenario,
                       JAMMER_PRESETS, PRESETS, db_to_lin, generate_jammer,
                       generate_wsn, lin_to_db, load_scenario, preset_config,
                       save_scenario, steering_vector)
from .signal_model import (H0, H1, MAX_ENUM_K, SecondOrderChar,
                           UnsupportedSizeError, crandn, draw_decisions,
                           draw_jammed, draw_psi, draw_received,
                           enumerate_decisions, real_coords, second_order_char)
from .fusion_rules import (FREE_RULES, JAM_RULES, RULES, DegenerateWeightsError,
                           Rule, RuleContext, evaluate, igmm_rule, is_rule,
                           llr, make_context, nlos_rule, wl_rule, wl_weights)
from .jamming_rules import (FloorSolver, JammerWorkspace, build_workspace, igmm_glrt,
                            is_glrt, nlos_glrt, nlos_piecewise_reference, solve_sigma_poly)
from .montecarlo import (CSV_COLUMNS, DEFAULT_LEVELS, ROC_COLUMNS,
                         CalibratedTest, Engine, EquivalenceResult, McEstimate,
                         calibrate_threshold, draw_deployment,
                         equivalence_check, estimate_pd0, roc_points, sweep,
                         upper_quantile, write_csv)

__version__ = "0.1.0"
