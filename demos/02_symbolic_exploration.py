#!/usr/bin/env python3
"""Symbolic exploration on a guarded fixture: first show that concrete-only
execution goes nowhere, then discover the environment bytes iteratively and
reach the guarded code with a path condition explaining how."""

from usbvet import fwkit, queries, solver, symexec

image, manifest = fwkit.generate_fixture(
    fwkit.FixtureSpec(template="branchy", guard_count=3))
target = manifest.target_sites["guarded"]
print(f"fixture: ISR reads 3 environment bytes behind chained guards; "
      f"target at 0x{target:04x}")

cfg = symexec.ExplorationConfig(seed=1, block_repeat_threshold=24,
                                targets=frozenset({target}))

print("\n--- run 1: nothing symbolic ---")
res = symexec.execute(image, symexec.SymbolicPolicy(), cfg)
print(f"coverage {len(res.coverage)} instructions, target reached: "
      f"{target in res.target_hits}")

print("\n--- iterative discovery of symbolic locations ---")
found = queries.find_symbolic_locations(image, tau=3,
                                        config=symexec.ExplorationConfig(seed=1))
for rec in found.log:
    where = (f"{rec.added[0]}[0x{rec.added[1]:04x}]" if rec.added
             else "(fixpoint)")
    print(f"  {rec.source} iteration {rec.iteration}: {where}")

print("\n--- run 2: discovered set symbolic ---")
policy = symexec.SymbolicPolicy(found.locations)
res = symexec.execute(image, policy, cfg)
hit = res.target_hits[target]
print(f"coverage {len(res.coverage)} instructions, target reached: True")
print("path condition at the hit:")
for expr, site, note in hit.state.path:
    print(f"  0x{site:04x} [{note}] {solver.to_text(expr)}")
