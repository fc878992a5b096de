"""Sweep the code rate and watch the BER fall.

Lower-rate configurations spend more augmentation bits per sub-array,
which gives the encoder more candidates to choose from and fewer sneak
paths survive.  Uses the derived-threshold pipeline so no training is
needed; runs in well under a minute.
"""

from sneakpath import analysis
from sneakpath.channel import ChannelParams
from sneakpath.cli import RATE_CONFIGS
from sneakpath.codec import CodecConfig

params = ChannelParams(sigma=30.0, p_f=1e-3)
r_th = 170.0  # ohms; resolves the 200-ohm parasitic level
trials = 800

print(f"{'rate':>6s} {'(M, l)':>8s} {'density':>8s} {'BER':>10s}")
for token, (m, l) in RATE_CONFIGS.items():
    codec = CodecConfig.make(m, l)
    scn = analysis.Scenario(analysis.PIPELINE_THRESHOLD, params, codec=codec, threshold=r_th)
    density = analysis.empirical_one_density(scn, 0)
    est = analysis.estimate_ber(scn, trials, 21)
    print(f"{token:>6s} {f'({m}, {l})':>8s} {density:8.3f} {est.ber:10.2e}")

uncoded = analysis.estimate_ber(
    analysis.Scenario(analysis.MIDPOINT, params), trials, 21)
print(f"\nuncoded middle-point reference: {uncoded.ber:.2e}")
