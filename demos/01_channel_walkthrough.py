"""Walk through the crossbar read channel on a small array.

Shows how a single failed selector opens a sneak path, how that path
drags an HRS read down to the parasitic level, and how Gaussian read
noise sits on top of everything.
"""

import numpy as np

from sneakpath.channel import (
    ChannelParams,
    compute_sneak_mask,
    count_possible_sneak_paths,
    read_array,
    transmit,
)

rng = np.random.default_rng(7)

# A 4x4 array with a deliberate rectangle of '1's around the HRS cell (0, 0).
a = np.array([
    [0, 1, 0, 0],
    [1, 1, 0, 0],
    [0, 0, 1, 0],
    [0, 0, 0, 1],
])
print("stored bits:")
print(a)
print(f"possible sneak paths (any selector may fail): "
      f"{count_possible_sneak_paths(a)}")

# Fail exactly the selector at the rectangle's far corner (1, 1).
fails = np.zeros_like(a)
fails[1, 1] = 1
mask = compute_sneak_mask(a, fails)
print("\ncells whose read is corrupted with selector (1,1) failed (HRS cells only):")
print(mask)

# Noise-free reads make the corruption visible as a 200-ohm level.
quiet = ChannelParams(n=4, sigma=0.0, p_f=0.0)
print("\nnoise-free resistance reads (ohm):")
print(read_array(a, mask, quiet, rng))
print(f"parasitic HRS level: {quiet.r0_sp:.0f} ohm "
      f"(parallel combination of {quiet.r0:.0f} and {quiet.r_sp:.0f})")

# The full channel: random selector failures plus Gaussian read noise.
noisy = ChannelParams(n=4, sigma=30.0, p_f=0.3)
fails, mask, reads = transmit(a, noisy, rng, rng)
print(f"\none noisy transmission at sigma={noisy.sigma:g}, p_f={noisy.p_f:g}:")
print("failed selectors:")
print(fails)
print("reads (ohm):")
print(np.round(reads, 1))
mid = (noisy.r0 + noisy.r1) / 2
errors = ((reads < mid).astype(int) != a).sum()
print(f"middle-point detection at {mid:.0f} ohm makes {errors} bit error(s)")
