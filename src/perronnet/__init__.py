"""Perron-root communicability and edge sensitivity for multilayer networks."""

from importlib import resources

from .communicability import (CommunicabilityReport, Eigentensors, exp0,
                              eigentensors, hub_authority_communicability,
                              marginal_layer_centralities,
                              perron_communicability, total_communicability0,
                              versatility)
from .eigen import PerronTriple, condition_number, perron, perron_dense_oracle
from .errors import (ConvergenceError, DenseCapError, InfeasibleError,
                     InputError, ParseError, PerronNetError)
from .model import (EdgeKey, Network, apply_edge_delta, assemble_dense,
                    assemble_sparse, flat_index, is_strongly_connected,
                    load_multilayer, load_multiplex, supra_operator,
                    unflatten_index)
from .recommend import (ExperimentRow, RankedEdge, perturbation_experiment,
                        rank_insertions, rank_removals)
from .sensitivity import (SensitivityMatrix, first_order_delta_rho,
                          sensitivity_entry, sensitivity_matrix,
                          sensitivity_matrix_multiplex, spectral_impact,
                          structured_condition_number,
                          structured_sensitivity_matrix, structured_wilkinson,
                          symmetric_sensitivity_entry, wilkinson)

__version__ = "0.1.0"


def demo_network_path():
    """Path of the bundled 12-node demo multilayer edge list."""
    return resources.files(__package__) / "data" / "demo_multilayer.edges"


def load_demo_network() -> Network:
    """The bundled directed demo network: N=4 nodes, L=3 layers."""
    return load_multilayer(demo_network_path(), directed=True)
