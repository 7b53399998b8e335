"""The simulator as a Markov chain, checked exactly.

For small rosters every round is a finite random choice: which subset
cheats, whether the master audits, and (rarely) a tie coin.  The oracle
enumerates these branches from the engine's own rule functions, which lets
us do three things no amount of sampling can:

1. compute exact reachability probabilities,
2. certify that a set of states is closed (inescapable), and
3. test the engine's sampler against the exact distribution.
"""
from repsim import (compare_engine_distribution, enumerate_transitions,
                    mixed_roster, trap_is_closed, trap_reach_probability)

cfg = mixed_roster()
start = cfg.initial_state()

dist = enumerate_transitions(cfg, start)
print(f"one round from the start state branches {len(dist.successors)} ways"
      f" (total mass {dist.total():.12f})")

# -- the audit floor matters: without it, all-cheat is a trap ---------------
print(f"with p_a pinned at 0, the all-cheat state is closed: {trap_is_closed()}")

reach = trap_reach_probability()
print(f"starting from p_c = 0.5 everywhere, the trap is reached with probability "
      f"{'exactly' if reach.lower == reach.upper else 'at least'} {reach.lower:.3f}"
      f" within 200 rounds")

# -- and the engine really samples this distribution ------------------------
report = compare_engine_distribution(cfg, start, samples=100_000)
print(f"engine vs. exact distribution: chi2 = {report.statistic:.2f}, "
      f"p = {report.p_value:.3f} over {report.bins} bins -> "
      f"{'consistent' if report.passed else 'MISMATCH'}")
