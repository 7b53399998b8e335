"""Reputation-based master-worker computing: simulator and exact oracle."""

from .model import (ConfigError, ExactState, RoleChange, RoundOutcome,
                    SystemConfig, WorkerSpec, WorkerType)
from .reputation import (NoReputation, Type1, Type2, Type3,
                         check_property1, find_property2_counterexample,
                         scheme_from_name)
from .engine import run_simulation
from .oracle import (OracleBoundError, Reach, TransitionDistribution,
                     compare_engine_distribution, enumerate_transitions,
                     find_escape, reach_probability)
from .metrics import ScenarioSummary, detect_convergence, reputation_ratio
from .scenarios import (all_cheat_trap, all_honest_set, get_scenario,
                        list_scenarios, mixed_roster, run_scenario,
                        trap_is_closed, trap_reach_probability)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
