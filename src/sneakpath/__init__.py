"""Sneak-path channel lab: crossbar simulation, constrained coding, detection.

Import by module: ``sneakpath.channel``, ``codec``, ``detectors``, ``mlp``,
``analysis``, ``rng`` and ``cli``; the package itself exports no names.
"""

__version__ = "0.1.0"
