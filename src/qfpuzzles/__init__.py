"""Exact combinatorics of puzzles, Markov diagrams and zeta functions.

The package is organised around a handful of small, exact data structures:

* :mod:`qfpuzzles.puzzle` -- leveled piece sets with refinement (``i``) and
  dynamics (``f``) maps, the dyadic combinatorial metric and covering-number
  entropy estimators.
* :mod:`qfpuzzles.reducibility` -- reducibility verdicts,
  irreducible piece enumeration and determinacy.
* :mod:`qfpuzzles.diagram` -- the Markov diagram on irreducible pieces,
  path/piece correspondences, SCCs and loop-count entropy estimators.
* :mod:`qfpuzzles.graphs` -- finite presentations of countable directed
  graphs (loop graphs, adjacency graphs, level transition graphs), indexed
  once, and the exact path-counting routines behind every zeta computation.
* :mod:`qfpuzzles.series` / :mod:`qfpuzzles.zeta` -- truncated formal power
  series over exact rationals and the zeta-function layer built on them.
* :mod:`qfpuzzles.coupled` -- exact box dynamics for coupled quadratic maps
  and puzzle extraction from cylinder refinements.

Arithmetic is exact: integral values stay ``int`` (integer series, coupled
iterates, orbit polynomials over one denominator), the rest is
:class:`fractions.Fraction`, and no float enters retained data.  Estimates
(entropy rates) are the only floats produced and are always labeled as such.
"""

from qfpuzzles.puzzle import (
    DyadicDistance,
    Puzzle,
    ValidationReport,
    covering_number,
    distance,
    dual,
    from_refinement,
    from_subshift,
    sequence_entropy,
)
from qfpuzzles.reducibility import (
    ReducibilityAnalyzer,
    ReducibilityVerdict,
    Status,
)
from qfpuzzles.series import PowerSeries
from qfpuzzles.graphs import GraphTruncation, complete_graph, gamma_n, loop_graph, sft_graph
from qfpuzzles.diagram import MarkovDiagram, build_diagram

__version__ = "0.1.0"

__all__ = [
    "DyadicDistance",
    "GraphTruncation",
    "MarkovDiagram",
    "PowerSeries",
    "Puzzle",
    "ReducibilityAnalyzer",
    "ReducibilityVerdict",
    "Status",
    "ValidationReport",
    "build_diagram",
    "complete_graph",
    "covering_number",
    "distance",
    "dual",
    "from_refinement",
    "from_subshift",
    "gamma_n",
    "loop_graph",
    "sequence_entropy",
    "sft_graph",
]
