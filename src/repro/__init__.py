"""BlockOptR reproduction: multi-level blockchain optimization recommendations.

Reproduces Chacko, Mayer & Jacobsen, *"How To Optimize My Blockchain? A
Multi-Level Recommendation Approach"* (SIGMOD 2023) as a pure-Python
library: a simulated Hyperledger Fabric substrate, the paper's workloads
and smart contracts, the blockchain-log / event-log pipeline, process
mining, and the nine-recommendation BlockOptR advisor with its
optimization appliers.

Quickstart::

    from repro import BlockOptR, run_workload
    from repro.workloads import ControlVariables, synthetic_workload

    spec = ControlVariables(total_transactions=2000)
    config, family, requests = synthetic_workload(spec)
    network, result = run_workload(config, family.deploy().contracts, requests)
    report = BlockOptR().analyze_network(network)
    for rec in report.recommendations:
        print(rec.kind.value, rec.evidence)

Subpackages are importable lazily so that ``import repro`` stays light.
"""

from repro.fabric.network import FabricNetwork, run_workload

__version__ = "1.0.0"

__all__ = ["AnalysisReport", "BlockOptR", "FabricNetwork", "run_workload", "__version__"]


def __getattr__(name: str):
    # BlockOptR lives in repro.core which imports much of the library;
    # resolve it lazily to keep `import repro.fabric`-style uses cheap.
    if name in ("BlockOptR", "AnalysisReport"):
        from repro.core import recommender

        return getattr(recommender, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
