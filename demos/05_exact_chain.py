"""The simulator as a Markov chain, checked exactly.

For small rosters every round is a finite random choice: which subset
cheats, whether the master audits, and (rarely) a tie coin.  The oracle
enumerates these branches through the same transition kernel the sampling
engine uses, which lets us do three things no amount of sampling can:

1. compute exact reachability probabilities,
2. certify that a set of states is closed (inescapable), and
3. test the engine's sampler against the exact distribution.
"""
from repsim import (SystemConfig, WorkerSpec, all_cheat_trap,
                    compare_engine_distribution, check_closed,
                    enumerate_transitions, reach_probability,
                    state_from_config, OracleBoundError)
from repsim.reputation import Type2

cfg = SystemConfig(workers=[WorkerSpec(p_c0=p) for p in (0.3, 0.5, 0.8)],
                   scheme=Type2()).validate()
start = state_from_config(cfg)

dist = enumerate_transitions(cfg, start)
print(f"one round from the start state branches {len(dist.successors)} ways"
      f" (total mass {dist.total():.12f})")

# -- the audit floor matters: without it, all-cheat is a trap ---------------
trap_cfg, trap, trapped = all_cheat_trap()
closed = check_closed(trap_cfg, [trap], trapped)
print(f"with p_a pinned at 0, the all-cheat state is closed: {closed}")

try:
    p = reach_probability(trap_cfg, state_from_config(trap_cfg), trapped,
                          horizon=200, max_states=5000)
    kind = "exactly"
except OracleBoundError as exc:
    p, kind = exc.lower_bound, "at least"
print(f"starting from p_c = 0.5 everywhere, the trap is reached with "
      f"probability {kind} {p:.3f} within 200 rounds")

# -- and the engine really samples this distribution ------------------------
report = compare_engine_distribution(cfg, start, samples=100_000)
print(f"engine vs. exact distribution: chi2 = {report.statistic:.2f}, "
      f"p = {report.p_value:.3f} over {report.bins} bins -> "
      f"{'consistent' if report.passed else 'MISMATCH'}")
