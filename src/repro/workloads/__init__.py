"""Workload Graph API: declarative, dependency-aware multiplication jobs.

A :class:`WorkloadGraph` represents one request — an ECDSA signature, an
NTT, a bucket MSM, a batch inversion — as a DAG of modular-multiplication
nodes.  Each node names the multiplicand whose radix-4 LUT it needs (the
LUT-reuse group of :mod:`repro.modsram.chip`), carries op metadata
(tag, field, priority) and lists the nodes it depends on, so schedulers
and the serving layer can exploit *intra-request* parallelism a flat
multiplication stream cannot express::

    from repro.workloads import multiplicand_keys, ntt_graph

    graph = ntt_graph(1024)
    graph.depth                      # 10 topological levels (the NTT stages)
    graph.width                      # 512 independent butterflies per level
    multiplicand_keys("ntt", 1024)   # the flat stream, for linear dispatch

The graph constructors in :mod:`repro.workloads.builders` are the only
workload emitters: :func:`multiplicand_keys` runs the same builder code
against a key-recording sink, so the flat stream the chip scheduler reads
is the graph's node keys in emission order, optionally cut after a prefix.
Operand-carrying graphs are executed level-batched through the Engine by
:func:`repro.workloads.execute.execute_graph` or on a multi-macro chip by
:meth:`repro.modsram.chip.Chip.run_graph`.
"""

from repro.workloads.builders import (
    ecdsa_sign_graph,
    msm_graph,
    multiplicand_keys,
    ntt_graph,
    point_operation_graph,
    product_tree_graph,
    scalar_multiplication_graph,
)
from repro.workloads.execute import GraphExecution, execute_graph
from repro.workloads.graph import MulNode, Ref, WorkloadGraph

__all__ = [
    "GraphExecution",
    "MulNode",
    "Ref",
    "WorkloadGraph",
    "ecdsa_sign_graph",
    "execute_graph",
    "msm_graph",
    "multiplicand_keys",
    "ntt_graph",
    "point_operation_graph",
    "product_tree_graph",
    "scalar_multiplication_graph",
]
