"""Reading and writing the topological memory through a probe qubit.

Run:  python demos/memory_roundtrip.py
"""

import numpy as np

from anyonsim import lattice as lat
from anyonsim import protocols as pr
from anyonsim import statevector as sv
from anyonsim import tableau as tb
from anyonsim.pauli import logical_strings

lattice = lat.planar(2)
probe = lattice.n_edges
(lz, lx), = logical_strings(lattice)

# 1. SWAP a probe state into the code and back out.
print("swap_in / swap_out roundtrips:")
for state in (("Z", 1), ("X", 1), ("Y", -1)):
    t = tb.prepare_ground_state(lattice, 0, n_ancillas=1)
    pr.swap_in(lattice, t, probe_state=state)
    logical = {"Z": lz, "X": lx}
    stored = {name: tb.expectation_pauli(t, op) for name, op in logical.items()}
    pr.swap_out(lattice, t)
    bloch = pr.probe_bloch(t, probe)
    print(f"  probe {state[0]}{state[1]:+d}: logical <Z~>,<X~> = "
          f"({stored['Z']:+d},{stored['X']:+d}) while stored; recovered "
          f"{state[0]} = {bloch[state[0]]:+d}")

# 2. Rotate the encoded qubit without unloading it: gate teleportation.
memory = sv.from_tableau(tb.prepare_ground_state(lattice, 0))
theta = 0.7
rng = np.random.default_rng(1)
rotated, outcome = pr.teleport_rotation(lattice, memory.clone(), "X", theta,
                                        rng=rng)
reference = memory.clone()
sv.apply_pauli_exponential(reference, lx, theta)
fidelity = abs(sv.inner_product(rotated, reference))
print(f"\nteleported exp(i {theta} X~): measurement outcome {outcome:+d}, "
      f"fidelity to the direct rotation = {fidelity:.12f}")

# 3. The same rotation a third way: the probe-free geometric phase gate.
report = pr.verify_geometric_gate(pr.GeometricGateSpec(0.5, theta / 2 / 0.5))
print(f"geometric displacement sequence realizes exp(i theta S) with "
      f"theta = {report.rotation_angle:+.3f} "
      f"(|alpha*beta| = {report.rotation_claimed_product:.3f})")
print(f"conditional gate Lambda[S] needs |alpha*beta| = "
      f"{pr.verify_geometric_gate(pr.GeometricGateSpec(1.0, 1.0)).required_product:.6f}"
      f" (= pi/4)")
