"""ledgergraph: multi-model blockchain network engine.

Validates synthetic or ingested ledger data against the structural rules
of UTXO, account, credit-network and DAG ledgers, and builds the
associated analytical graphs: transaction graphs, weighted address
graphs, chainlet occurrence/amount matrices, token graphs, trace
hypergraphs, trust/payment graphs and tangle graphs. Amounts are plain
ints in each chain's smallest subunit.
"""

from .core import (
    EdgeList,
    Edge,
    Hyperedge,
    Hypergraph,
    LedgerError,
    export_edge_list,
    export_hypergraph,
    export_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "Edge",
    "EdgeList",
    "Hyperedge",
    "Hypergraph",
    "LedgerError",
    "export_edge_list",
    "export_hypergraph",
    "export_matrix",
    "__version__",
]
