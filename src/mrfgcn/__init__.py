"""Semi-supervised node classification with a GCN-backed pairwise MRF.

A two-layer GCN supplies per-node unary log-factors; connected label
pairs share a symmetric compatibility matrix scaled per edge. Training
alternates closed-form mean-field E-steps with piecewise M-steps over
star-shaped subgraphs.
"""

from .data import (Dataset, Split, generate_synthetic, load_citation,
                   load_dataset, load_generic, planetoid_split, ratio_split,
                   row_normalize_features, save_generic)
from .factors import PairwiseParams, Redistribution, objective_and_gradients
from .gcn import GcnParams, backward, init_params, supervised_loss_and_grad
from .graph import Graph, build_graph, homophily_beta, normalized_adjacency_operator
from .oracle import (exact_elbo, exact_log_partition, exact_observed_ll,
                     exact_posterior_marginals)
from .selfcheck import mean_field_site_update
from .training import (Proposal, TrainConfig, TrainReport, TrainResult,
                       evaluate, m_step, predict, train)

__version__ = "0.1.0"
