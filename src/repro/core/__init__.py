"""Core BIRCH implementation: CF algebra, CF-tree, and the phase drivers."""

from repro.core.birch import Birch, BirchResult
from repro.core.checkpoint import load_checkpoint, write_checkpoint
from repro.core.diagnostics import TreeDiagnostics, diagnose, render_outline
from repro.core.config import BirchConfig
from repro.core.distances import Metric
from repro.core.merge import merge_trees
from repro.core.features import CF, StableCF
from repro.core.tree import CFTree

__all__ = [
    "Birch",
    "BirchConfig",
    "BirchResult",
    "CF",
    "StableCF",
    "CFTree",
    "Metric",
    "merge_trees",
    "TreeDiagnostics",
    "diagnose",
    "render_outline",
    "load_checkpoint",
    "write_checkpoint",
]
