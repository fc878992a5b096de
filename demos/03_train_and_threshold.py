"""Train a small detection network and distill it into a threshold.

A reduced-scale version of the full experiment: train on sneak-path
affected arrays, compare detection against the plain middle-point
rule, then derive the fixed threshold that best imitates the network
and show it performs almost as well.  Runs in a couple of minutes.
"""

import numpy as np

from sneakpath import analysis, mlp
from sneakpath.channel import ChannelParams
from sneakpath.codec import CodecConfig

params = ChannelParams(sigma=30.0, p_f=1e-3)
codec = CodecConfig.make(8, 4)

print("generating a training set of sneak-path-affected coded arrays ...")
dataset = mlp.generate_dataset(params, codec, 6_000, mlp.AFFECTED_ONLY, seed=1)

model = mlp.init_model(params.n ** 2, seed=1, normalizer=1.0 / params.r0)
trace = mlp.train(model, dataset, mlp.TrainConfig(epochs=100, seed=1))
print(f"trained 100 epochs, loss {trace[0]:.3f} -> {trace[-1]:.3f}")

print("\nderiving the imitation threshold from the network's decisions ...")
search = mlp.calibrate_threshold(model, params, codec, 200, seed=2)
print(f"best fixed threshold: {search.r_th_spi:.0f} ohm "
      f"(middle point would be {params.midpoint:.0f} ohm)")

trials = 1_500
runs = {
    "uncoded middle-point": analysis.Scenario(analysis.MIDPOINT, params),
    "coded + network": analysis.Scenario(
        analysis.PIPELINE_DL, params, codec=codec, model=model),
    "coded + derived threshold": analysis.Scenario(
        analysis.PIPELINE_THRESHOLD, params, codec=codec, threshold=search.r_th_spi),
}
print(f"\nBER over {trials} arrays:")
for name, scn in runs.items():
    est = analysis.estimate_ber(scn, trials, 9)
    print(f"  {name:27s} {est.ber:.5f} +- {est.ci95:.5f}")
