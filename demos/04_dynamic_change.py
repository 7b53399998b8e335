"""Half the roster defects at round 500.

Nine rational workers converge to honesty; at round 500 workers 0-4 turn
malicious, keeping the reputations they earned.  Whether the system even
notices depends on how the switched camp's aggregate reputation compares
with the loyal camp's at that moment.  When the vote does break, the loyal
workers learn to cheat as well and p_a climbs to 1 under either scheme;
how fast it comes back down depends on how fast the scheme tears the
defectors' reputations back down.
"""
import numpy as np

from repsim import detect_convergence, get_scenario, run_scenario

for scheme in ("type1", "type2"):
    name = f"dynamic500-{scheme}"
    cfg = get_scenario(name)
    columns = run_scenario(name)[0].columns
    reconv = [detect_convergence(columns[s], cfg.p_a_min, start=500)
              for s in sorted(columns)]
    broken = [s for s in sorted(columns) if not columns[s]["correct"][500:].all()]
    hit = [c for c in reconv if c is not None]
    print(f"{scheme}: disruption actually seen in {len(broken)}/10 seeds; "
          f"re-convergence {len(hit)}/10, mean round {np.mean(hit):.0f}")
    print(f"   per-seed: {reconv}")

print()
print("a '500' entry means the defectors were already outweighed when they")
print("switched, so the vote never broke; an entry just past 500 means it")
print("broke for a few rounds without lifting p_a off its floor.  when it")
print("does break, both schemes ride p_a up to 1 while all nine cheat; they")
print("differ in the descent.  the exponential scheme halves the defectors'")
print("reputations with every audit, while the linear ratio shrinks them only")
print("like 1/aud, so it needs many more audits to get back to the floor.")
