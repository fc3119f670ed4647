"""Anyon diffusion under Gaussian-correlated noise and its echo suppression.

Reproduces the qualitative content of the fringe-contrast-vs-delay figure:
free decay, and progressively better protection with 1, 4, 10 pairs of
global time-reversal pulses.  Writes echo_contrast.csv next to this script;
plots a PNG when matplotlib is importable.

Run:  python demos/echo_contrast.py          (about half a minute)
"""

import pathlib

import numpy as np

from anyonsim import diffusion as df
from anyonsim import lattice as lat

lattice = lat.torus(4)
model = df.NoiseModel(xi_h=1.0, tau_c=10.0, dt=0.05, duration=13.0)
taus = [0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 12.0]
family = [("none", 0), ("z_pairs", 1), ("z_pairs", 4), ("z_pairs", 10)]

print("two x-particles, xi_h = 1, tau_c = 10, 120 trials ...")
estimates = df.contrast_curve(lattice, model, family, taus, n_trials=120,
                              n_particles=2, seed=20)

header = "tau " + " ".join(f"{e.schedule:>12s}" for e in estimates)
print(header)
for i, tau in enumerate(taus):
    row = " ".join(f"{e.mean[i]:12.4f}" for e in estimates)
    print(f"{tau:4.1f} {row}")

out = pathlib.Path(__file__).with_name("echo_contrast.csv")
with out.open("w") as fh:
    fh.write("tau,mean_contrast,stderr,n_trials,schedule\n")
    for est in estimates:
        for tau, mean, err in zip(est.tau, est.mean, est.stderr):
            fh.write(f"{tau},{mean},{err},{est.n_trials},{est.schedule}\n")
print(f"\nwrote {out}")

# exact refocusing of a static field, the idealized limit of the echo train:
# a one-sample realization, whose last (only) sample holds for all times
field = np.random.default_rng(0).normal(size=lattice.n_edges)
static = df.NoiseRealization(field[:, None], 1.0)
sched = df.build_echo_schedule("z_pairs", 6.0, 2)
s = df.evolve_anyon(lattice, static, sched, 5, "x", dt=0.05)[5]
print(f"static field, z_pairs(2): |survival| = {abs(s):.12f} (exact refocus)")

# independent check of the echo suppression: the second-order filter
# integral of the pulse train (note the 1/n^2 dependence for equal spacing)
from anyonsim.oracle import echo_filter_variance
tau = 6.0
for n in (1, 2, 4, 10):
    var = echo_filter_variance(tau, n, model.xi_h, model.tau_c)
    print(f"filter variance at tau={tau}, n={n}: {var:.4f} "
          f"(n^2 * var = {n * n * var:.4f})")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    pass
else:
    fig, ax = plt.subplots(figsize=(6, 4))
    styles = {"none": "k:", "z_pairs(1)": "r-.", "z_pairs(4)": "g--",
              "z_pairs(10)": "b-"}
    for est in estimates:
        ax.errorbar(est.tau, est.mean, est.stderr,
                    fmt=styles.get(est.schedule, "-"), label=est.schedule)
    ax.set_xlabel("delay tau")
    ax.set_ylabel("fringe contrast")
    ax.set_ylim(0, 1.05)
    ax.legend()
    fig.tight_layout()
    png = pathlib.Path(__file__).with_name("echo_contrast.png")
    fig.savefig(png, dpi=150)
    print(f"wrote {png}")
