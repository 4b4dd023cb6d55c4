"""Horn inequalities, Littlewood-Richardson coefficients, and exact
spectra of line graphs of bipartite graphs.

Everything is exact unless explicitly numeric: partitions and LR
coefficients are integer combinatorics, characteristic polynomials are
computed over arbitrary-precision integers, and floating point only
enters for sampled Hermitian spectra and Ramanujan bounds on
non-integral graphs.
"""

from .errors import FormatError, InputError, TheoremViolation
from .graphs import (
    BipartiteGraph,
    ExactSpectrum,
    Graph,
    bipartite_complement,
    char_poly_exact,
    clique_number,
    complete_bipartite,
    connected_bipartite_graphs,
    degree_partitions,
    diameter,
    disjoint_union,
    even_cycle,
    exact_spectrum,
    integer_spectrum,
    line_graph,
    matching,
    numeric_spectrum,
)
from .horn import (
    IndexTriple,
    find_horn_violation,
    generate_t,
    generate_u,
    horn_compatible,
    sample_necessity,
    weyl_bounds,
)
from .lr import lr_coefficient, lr_positive
from .partitions import Partition, enumerate_partitions
from .spectra import (
    CandidateSet,
    RamanujanVerdict,
    SpectrumReport,
    analyze_line_graph,
    classify_regular_ramanujan_case,
    enumerate_p,
    moment_c,
    moment_d,
    ramanujan_verdict,
)

__version__ = "0.1.0"

# The kernels are exact pure Python; e2ebench records this name with each run.
kernel_backend = "pure"

__all__ = [
    "BipartiteGraph",
    "CandidateSet",
    "ExactSpectrum",
    "FormatError",
    "Graph",
    "IndexTriple",
    "InputError",
    "Partition",
    "RamanujanVerdict",
    "SpectrumReport",
    "TheoremViolation",
    "analyze_line_graph",
    "bipartite_complement",
    "char_poly_exact",
    "classify_regular_ramanujan_case",
    "clique_number",
    "complete_bipartite",
    "connected_bipartite_graphs",
    "degree_partitions",
    "diameter",
    "disjoint_union",
    "enumerate_p",
    "enumerate_partitions",
    "even_cycle",
    "exact_spectrum",
    "find_horn_violation",
    "generate_t",
    "generate_u",
    "horn_compatible",
    "integer_spectrum",
    "kernel_backend",
    "line_graph",
    "lr_coefficient",
    "lr_positive",
    "matching",
    "moment_c",
    "moment_d",
    "numeric_spectrum",
    "ramanujan_verdict",
    "sample_necessity",
    "weyl_bounds",
]
