"""Workbench for rainbow and k-unique Turan problems on small trees:
graph families, proper-coloring search, k-spectra, bound evaluators, and
exhaustively verified certificates."""

from ._kernels import BACKEND as KERNEL_BACKEND
from .graphs import (Graph, Embedding, graph_from_edges, make_path, make_cycle,
                     make_complete, make_double_star, make_broom,
                     make_caterpillar, make_perfect_kary, enumerate_embeddings,
                     canonical_key, diameter)
from .coloring import (EdgeColoring, ColorClassProfile, BudgetExhausted,
                       is_proper, proper_coloring, enumerate_proper_colorings,
                       one_factorization, color_class_profile)
from .detect import UniquenessReport, find_k_unique
from .spectrum import (KSpectrum, compute_spectrum, ds_spectrum_closed_form,
                       full_spectrum_criterion, witness_family, round_up_k,
                       find_qualifying_coloring)
from .bounds import (BoundReport, AugmentedTree, erdos_sos_coefficient,
                     ds_k_unique_bounds, ds_rainbow_bounds, ds22_bounds,
                     ds_1_odd_exact, augment_double_star, augment_caterpillar,
                     caterpillar_bounds, caterpillar_coefficient_literal,
                     augment_binary, binary_coefficients, augment_kary,
                     kary_coefficients)
from .search import (AvoiderResult, exists_avoiding_coloring, brute_extremal,
                     graphs_up_to_iso, verify_k6_rainbow_free,
                     verify_k6_universal_3unique, verify_k2s4_construction,
                     verify_reduction, recheck_certificate, RAINBOW)
from .certs import Certificate, save_certificate, load_certificate

__version__ = "0.1.0"
