"""ledgergraph: multi-model blockchain network engine.

Validates synthetic or ingested ledger data against the structural rules
of UTXO, account, credit-network and DAG ledgers, and builds the
associated analytical graphs: transaction graphs, weighted address
graphs, chainlet occurrence/amount matrices, token graphs, trace
hypergraphs, trust/payment graphs and tangle graphs. Amounts are plain
ints in each chain's smallest subunit.
"""

__version__ = "0.1.0"
