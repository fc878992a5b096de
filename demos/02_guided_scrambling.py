"""Show the guided-scrambling codec picking a sneak-path-friendly word.

Each sub-array is augmented with l index bits, every augmented variant
is scrambled, and the variant with the fewest possible sneak paths is
stored.  Decoding descrambles and drops the index bits, so no side
table is needed.
"""

import numpy as np

from sneakpath import codec as gs
from sneakpath.channel import count_possible_sneak_paths
from sneakpath.codec import CodecConfig

cfg = CodecConfig.make(8, 4)
print(f"sub-array {cfg.m}x{cfg.m}, {cfg.l} augmentation bits, "
      f"rate {cfg.rate:.4f}, scrambler exponents {cfg.poly}")

rng = np.random.default_rng(3)
user = (rng.random(cfg.user_bits) < 0.5).astype(np.int64)

cands = gs.candidate_set(user, cfg)
scores = gs.score_candidates(cands, cfg)
print("\npossible-sneak-path count of each scrambled candidate:")
print(scores)

stored = gs.encode_array(user, cfg, cfg.m)  # one m x m sub-array
# The selected index is not stored apart: it is the descrambled tile's trailing l bits.
index_bits = gs.descramble(stored, cfg.poly).reshape(-1)[cfg.user_bits:]
index = int("".join(map(str, index_bits)), 2)
print(f"selected index {index} with "
      f"{count_possible_sneak_paths(stored)} possible paths "
      f"(raw data word has "
      f"{count_possible_sneak_paths(gs.augment(user, 0, cfg))})")

decoded = gs.decode_array(stored, cfg)
print(f"decode recovers the user bits exactly: {np.array_equal(decoded, user)}")

# Averaged over many words, selection also thins out the '1' density.
words = (rng.random((300, cfg.user_bits)) < 0.5).astype(np.int64)
chosen_paths = []
ones = 0
for w in words:
    e = gs.encode_array(w, cfg, cfg.m)
    chosen_paths.append(count_possible_sneak_paths(e))
    ones += e.sum()
raw_paths = [count_possible_sneak_paths(gs.augment(w, 0, cfg)) for w in words]
print(f"\nover {len(words)} random words:")
print(f"  mean possible paths, raw word:      {np.mean(raw_paths):7.1f}")
print(f"  mean possible paths, selected word: {np.mean(chosen_paths):7.1f}")
print(f"  stored '1' density: {ones / (len(words) * cfg.m * cfg.m):.3f}")
