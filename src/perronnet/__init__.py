"""Perron-root communicability and edge sensitivity for multilayer networks.

The public names load on first use (PEP 562): ``import perronnet`` and a
call to ``load_multiplex`` or ``load_multilayer`` import only numpy,
scipy.sparse and the ``errors`` and ``model`` modules; the solver and
the rest of scipy load with the first name that needs them.
"""

from importlib import import_module, resources

__version__ = "0.1.0"

# module -> the public names it exports through the package
_EXPORTS = {
    "communicability": (
        "CommunicabilityReport", "Eigentensors", "exp0", "eigentensors",
        "hub_authority_communicability", "marginal_layer_centralities",
        "perron_communicability", "total_communicability0", "versatility"),
    "eigen": (
        "PerronTriple", "condition_number", "perron", "perron_dense_oracle"),
    "errors": (
        "ConvergenceError", "DenseCapError", "InfeasibleError", "InputError",
        "ParseError", "PerronNetError"),
    "model": (
        "EdgeKey", "Network", "apply_edge_delta", "assemble_dense",
        "flat_index", "is_strongly_connected", "load_multilayer",
        "load_multiplex", "supra_operator", "unflatten_index"),
    "recommend": (
        "ExperimentRow", "RankedEdge", "perturbation_experiment",
        "rank_insertions", "rank_removals"),
    "sensitivity": (
        "SensitivityMatrix", "first_order_delta_rho", "sensitivity_entry",
        "sensitivity_matrix", "sensitivity_matrix_multiplex",
        "spectral_impact", "structured_condition_number",
        "structured_sensitivity_matrix", "structured_wilkinson",
        "symmetric_sensitivity_entry", "wilkinson"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted([*_MODULE_OF, "demo_network_path", "load_demo_network"])


def __getattr__(name: str):
    """Import the module that exports ``name`` and cache the name here."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


def demo_network_path():
    """Path of the bundled 12-node demo multilayer edge list."""
    return resources.files(__package__) / "data" / "demo_multilayer.edges"


def load_demo_network():
    """The bundled directed demo network (a :class:`Network`): N=4 nodes,
    L=3 layers."""
    from .model import load_multilayer
    return load_multilayer(demo_network_path(), directed=True)
