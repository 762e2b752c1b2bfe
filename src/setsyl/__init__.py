"""Decision procedures for multi-level syllogistic set theory.

The package decides conjunctions over =, subset, membership, union,
intersection, difference, and the empty set by reduction to a normal form
of memberships, differences and disequalities and a place-based model
search; checks its own convexity
claims against an exhaustive rank-bounded oracle; replays the
model-enlargement construction behind those claims; and combines the set
solver with linear rational arithmetic and a theory of cons cells by
equality propagation.
"""

__version__ = "0.1.0"
