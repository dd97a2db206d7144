"""Swarm construction by prediction-reward neuroevolution on a torus grid.

Robots on a wraparound grid push blocks; paired action/prediction networks
are evolved with the only reward being the accuracy of each robot's own
sensor predictions. The package covers the world geometry and snapshot
format, the batched deterministic simulation engine, the genetic algorithm,
post-evaluation metrics including block-structure classification, and a
batch experiment CLI. Import from the submodules.
"""

__version__ = "0.1.0"
