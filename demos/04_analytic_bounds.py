"""Compare the analytic channel curves with Monte Carlo measurements.

Prints the no-sneak-path probability against a sampled estimate, then
the BER lower bound next to the measured middle-point BER across a
noise sweep.
"""

import numpy as np

from sneakpath import analysis
from sneakpath.channel import ChannelParams

print("probability that a cell sees no active sneak path (N=16, q=0.5):")
print(f"{'p_f':>8s} {'analytic':>10s} {'sampled':>10s}")
for p_f in (1e-3, 1e-2, 1e-1):
    params = ChannelParams(p_f=p_f)
    exact = analysis.p_nonsp(params, 0.5)
    sampled = analysis.simulate_nonsp_fraction(params, 0.5, 100_000, seed=5)
    print(f"{p_f:8.0e} {exact:10.4f} {sampled:10.4f}")

print("\nmiddle-point BER vs the two-term lower bound (p_f = 1e-3):")
print(f"{'sigma':>6s} {'bound':>10s} {'measured':>10s}")
for sigma in (10.0, 20.0, 30.0, 40.0, 60.0):
    params = ChannelParams(sigma=sigma, p_f=1e-3)
    bound = analysis.ber_lower_bound(params, 0.5)
    est = analysis.estimate_ber(
        analysis.Scenario(analysis.MIDPOINT, params), 400, 13)
    print(f"{sigma:6.0f} {bound:10.2e} {est.ber:10.2e}")

print("\nThe gap at low noise is the sneak-path floor: the bound assumes a "
      "detector that knows\nwhich cells are affected, while the middle point "
      "misreads every 200-ohm cell.")
