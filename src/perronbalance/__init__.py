"""Certified extremal analysis of the Perron-vector balance ratio.

The balance ratio of a connected graph is the squared 1-norm over the
squared 2-norm of its Perron vector.  This package computes certified
enclosures of the ratio with exact rational arithmetic and mechanically
re-establishes which graphs and trees minimize it: the 4-clique with a
pendant path among connected graphs, and the 5-star with a pendant path
among trees.
"""

__version__ = "0.1.0"
