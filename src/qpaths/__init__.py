"""Path-amplitude analysis of pre- and post-selected quantum systems.

With no Hamiltonian, a transition from a prepared state to a detected
state splits over any basis into one amplitude per basis path.  This
package decomposes such transitions, builds the pathway networks that
accurate intermediate measurements induce, models finite-accuracy
Gaussian meters in closed form, and evaluates weak values, alongside an
independent numerical oracle, a built-in scenario library, a scenario
file format, and a command-line interface.
"""

from .errors import (DimensionMismatch, MeterStatisticsUndefined,
                     NonProjectorError, PostSelectionImpossible, QPathsError,
                     ScenarioParseError, UnknownNameError, WeakValueUndefined,
                     ZeroStateError)
from .statespace import DiagonalObservable, KetState, StateSpace, expectation
from .pathsum import PathDecomposition, amplitude_table, decompose
from .measurement import (PathwayClass, PathwayNetwork, ProductRuleReport,
                          SumRuleReport, all_outcomes_probability,
                          build_network, certain_reading,
                          conditional_reading_distribution,
                          product_rule_report, sum_rule_report)
from .meter import (MeterModel, WeakValueResult, mean_reading,
                    reading_amplitude, scaled_widths, weak_limit_convergence,
                    weak_value)
from .oracle import (CheckResult, grid_mean_reading, projective_joint,
                     verification_checks)
from .scenarios import (RESERVED_NAMES, Scenario, built_in, built_in_library,
                        epsilon_grid, hardy, hardy_epsilon, three_box)
from .scenario_io import (QueryDirective, ScenarioDocument, load_path, parse,
                          serialize, validate)

__version__ = "0.1.0"

__all__ = [
    "CheckResult", "DiagonalObservable",
    "DimensionMismatch", "KetState", "MeterModel", "MeterStatisticsUndefined",
    "NonProjectorError", "PathDecomposition",
    "PathwayClass", "PathwayNetwork", "PostSelectionImpossible",
    "ProductRuleReport", "QPathsError", "QueryDirective",
    "RESERVED_NAMES", "Scenario", "ScenarioDocument", "ScenarioParseError",
    "StateSpace", "SumRuleReport", "UnknownNameError", "WeakValueResult",
    "WeakValueUndefined", "ZeroStateError",
    "all_outcomes_probability", "amplitude_table", "build_network",
    "built_in", "built_in_library", "certain_reading",
    "conditional_reading_distribution", "decompose", "epsilon_grid",
    "expectation", "grid_mean_reading", "hardy",
    "hardy_epsilon", "load_path", "mean_reading", "parse",
    "product_rule_report", "projective_joint", "reading_amplitude",
    "scaled_widths", "serialize", "sum_rule_report", "three_box",
    "validate", "verification_checks",
    "weak_limit_convergence", "weak_value",
]
