"""Exact tree algebra for phylogenetics: edge-weighted rooted trees with
grafting and normal forms, the orthant decomposition of tree space with
its metric, and evaluation of trees against finite-state Markov models."""

from .trees import PlanarTree
from .operads import PhyloTree, WeightedTree, normal_form, phylo_act, phylo_compose

__all__ = [
    "PlanarTree",
    "PhyloTree",
    "WeightedTree",
    "normal_form",
    "phylo_act",
    "phylo_compose",
]
