"""Exact entanglement analysis for feed-forward neural-network quantum states.

Desk-scale (n <= 24 spins by default) toolchain: computation graphs and
feature reduction, dense statevectors, subregion entropies and Schmidt
ranks, Chebyshev auxiliary states, and the explicit entropy-bound chain.
"""

from .core import AffineFeature, RngStream, Subregion, feature_supnorm
from .activations import Activation, parse_activation
from .graph import (
    ComputationGraph,
    Node,
    ReducedForm,
    feature_reduce,
    from_json,
    load_graph,
    save_graph,
    to_json,
)
from .statevector import Statevector, from_amplitudes, load_nqsv, materialize, save_nqsv, two_norm_distance
from .entanglement import (
    BipartitionMatrix,
    EntropyResult,
    bipartition,
    entropy,
    fannes_audenaert_bound,
    subregion_entropy,
)
from .approx import (
    BoundReport,
    ChebyshevApprox,
    auxiliary_state,
    cheb_fit_multi,
    full_bound_report,
    rank_bound,
)
from .analytic import dicke_entropy, dicke_entropy_asymptotic, dicke_spectrum, page_value
from .ansatz import (
    CosnetSpec,
    DickeSpec,
    MlpSpec,
    SnnqsSpec,
    TransformerSpec,
    ansatz_from_config,
    build_cosnet,
    build_dicke,
    build_mlp,
    build_snnqs,
    build_transformer,
)
from .experiments import ExperimentConfig, SweepResult, run_sweep

__version__ = "0.1.0"
