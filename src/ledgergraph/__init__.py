"""ledgergraph: multi-model blockchain network engine.

Validates synthetic or ingested ledger data against the structural rules
of UTXO, account, credit-network and DAG ledgers, and builds the
associated analytical graphs: transaction graphs, weighted address
graphs, chainlet occurrence/amount matrices, token graphs, trace
hypergraphs, trust/payment graphs and tangle graphs.
"""

from .core import (
    Amount,
    BTC,
    DROP,
    EdgeList,
    Edge,
    Hyperedge,
    Hypergraph,
    LedgerError,
    SATOSHI,
    Unit,
    WEI,
    XRP,
    convert_unit,
    export_edge_list,
    export_hypergraph,
    export_matrix,
    issued,
)

__version__ = "0.1.0"

__all__ = [
    "Amount",
    "BTC",
    "DROP",
    "Edge",
    "EdgeList",
    "Hyperedge",
    "Hypergraph",
    "LedgerError",
    "SATOSHI",
    "Unit",
    "WEI",
    "XRP",
    "convert_unit",
    "export_edge_list",
    "export_hypergraph",
    "export_matrix",
    "issued",
    "__version__",
]
