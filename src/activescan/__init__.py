"""Active-community detection in large directed graphs.

Pipeline: rank vertices by a locality statistic with a bound-based
trimming search, build a Jaccard similarity matrix over the top-Q
vertices, and cluster it spectrally. A stochastic block model harness
evaluates the pipeline with ROC/AUC and Adjusted Rand Index protocols.
"""

from .graph import (EdgeListParseError, Graph, induced_edge_count, load_edge_list,
                    neighborhood, read_binary, write_binary, write_edge_list)
from .locality import (LocalityScore, VertexMarker, est_lstat1, est_lstat2,
                       local_stat, psi_all, psi_k)
from .sbm import (AriResult, EvalCurve, LabeledGraph, RocResult, SBMParams,
                  ari, expected_edge_count, generate_sbm, monte_carlo_ari,
                  monte_carlo_roc, paper_params, params_from_json,
                  params_to_json, roc_auc)
from .seeds import derive_seed
from .similarity import (SimilarityMatrix, build_similarity_matrix, jaccard,
                         read_similarity_csv, write_similarity_csv)
from .spectral import (MdsResult, SpectralDiagnostics, auto_sigma, classical_mds,
                       estimate_num_clusters, model_selection_affinity,
                       normalized_affinity_spectrum, rbf_affinity, spectral_cluster)
from .trimming import (TopQResult, read_trim_report, topQ_lstat,
                       topQ_lstat_parallel, write_trim_report)

__version__ = "0.1.0"

__all__ = [
    "AriResult", "EdgeListParseError", "EvalCurve",
    "Graph", "LabeledGraph", "LocalityScore", "MdsResult", "RocResult",
    "SBMParams", "SimilarityMatrix", "SpectralDiagnostics", "TopQResult",
    "VertexMarker", "ari", "auto_sigma",
    "build_similarity_matrix", "classical_mds", "derive_seed",
    "est_lstat1", "est_lstat2", "estimate_num_clusters",
    "expected_edge_count", "generate_sbm", "induced_edge_count", "jaccard",
    "load_edge_list", "local_stat", "model_selection_affinity",
    "monte_carlo_ari", "monte_carlo_roc",
    "neighborhood", "normalized_affinity_spectrum", "paper_params",
    "params_from_json", "params_to_json", "psi_all", "psi_k", "rbf_affinity",
    "read_binary", "read_similarity_csv", "read_trim_report", "roc_auc",
    "spectral_cluster", "topQ_lstat", "topQ_lstat_parallel",
    "write_binary", "write_edge_list", "write_similarity_csv",
    "write_trim_report",
]
