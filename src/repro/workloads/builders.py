"""Graph constructors for the ECC / ZKP workloads the paper motivates.

These builders are the only code that emits a workload.  Each one appends
its multiplications to a graph in a fixed *emission order* — the order a
flat chip stream dispatches them in — and gives every node the dependency
edges a graph-aware scheduler needs.  :func:`multiplicand_keys` runs the
same builder code against a key-recording sink instead of a
:class:`WorkloadGraph`, so a flat stream is just the emitted multiplicand
keys, and a caller that needs only the first ``limit`` keys stops the
builder there instead of materialising a 57k-node MSM graph.

The dependency model follows the point-operation formulas of
:mod:`repro.modsram.scheduler`: within an operation, a multiplication
depends on the in-operation nodes producing its operands (including
derived values like ``h = u2 - x1``, whose addition/subtraction chains are
folded into the edges); across operations, the nodes consuming the running
point depend on the previous operation's exit nodes.  That is conservative
— it never under-synchronises — yet still exposes the intra-request
parallelism that matters: independent multiplications inside one doubling,
the ECDSA nonce inversion running concurrently with ``k·G``, whole NTT
stages of independent butterflies, and MSM bucket chains that only meet at
the window reduction.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigurationError, OperandRangeError
from repro.modsram.scheduler import DOUBLING_SEQUENCE, MIXED_ADDITION_SEQUENCE
from repro.workloads.graph import Operand, Ref, WorkloadGraph

__all__ = [
    "point_operation_graph",
    "scalar_multiplication_graph",
    "ecdsa_sign_graph",
    "ntt_graph",
    "msm_graph",
    "product_tree_graph",
    "multiplicand_keys",
]

#: Operand names that are per-ladder state: nodes consuming them depend on
#: the previous point operation (they are the running point's coordinates).
_RUNNING_POINT = frozenset({"x1", "y1", "z1"})

#: Operand names that are constants or affine base-point inputs: consuming
#: them creates no cross-operation dependency.
_CONSTANT_INPUTS = frozenset({"x2", "y2", "three", "modulus"})

#: Derived (addition/subtraction) values of the doubling formula, mapped to
#: the multiplication products they are computed from: ``m = 3·xx`` and
#: ``x3 = mm - 2s`` (so ``s_minus_x3`` needs both ``mm`` and ``s``).
_DOUBLING_DERIVED: Mapping[str, Tuple[str, ...]] = {
    "m": ("xx",),
    "s_minus_x3": ("mm", "s"),
}

#: Derived values of the mixed addition: ``h = u2 - x1``, ``r = s2 - y1``
#: and ``x3 = rr - hhh - 2v`` (behind ``v_minus_x3``).
_MIXED_DERIVED: Mapping[str, Tuple[str, ...]] = {
    "h": ("u2",),
    "r": ("s2",),
    "v_minus_x3": ("v", "rr", "hhh"),
}

_DERIVED_BY_SEQUENCE = {
    id(DOUBLING_SEQUENCE): _DOUBLING_DERIVED,
    id(MIXED_ADDITION_SEQUENCE): _MIXED_DERIVED,
}


def _append_point_operation(
    graph: WorkloadGraph,
    sequence: Sequence[Tuple[str, str, str]],
    scope: str,
    tag: Optional[str] = None,
    entry_deps: Sequence[int] = (),
    derived: Optional[Mapping[str, Tuple[str, ...]]] = None,
    field_name: str = "",
    priority: int = 0,
) -> List[int]:
    """Append one point operation's multiplications; return its exit nodes.

    ``scope`` prefixes every multiplicand key (LUT names are per operation
    instance: ``yy`` of one doubling is not the ``yy`` of the next);
    ``entry_deps`` are the previous operation's exits, inherited by every
    node that consumes the running point.  Exit nodes are those no later
    node of the *same* operation depends on — the next ladder step chains
    off them.
    """
    if derived is None:
        derived = _DERIVED_BY_SEQUENCE.get(id(sequence), {})
    if tag is None:
        tag = scope
    producer: Dict[str, int] = {}
    added: List[int] = []
    used_in_op: set = set()
    for product, multiplier, multiplicand in sequence:
        deps: set = set()
        for operand in (multiplier, multiplicand):
            if operand in producer:
                deps.add(producer[operand])
                continue
            sources = [
                producer[source]
                for source in derived.get(operand, ())
                if source in producer
            ]
            if sources:
                deps.update(sources)
            elif operand in _RUNNING_POINT or operand not in _CONSTANT_INPUTS:
                deps.update(entry_deps)
        index = graph.add(
            multiplicand=f"{scope}.{multiplicand}",
            deps=deps,
            tag=tag,
            field_name=field_name,
            priority=priority,
        )
        used_in_op.update(deps)
        producer[product] = index
        added.append(index)
    return [index for index in added if index not in used_in_op]


def point_operation_graph(
    sequence: Sequence[Tuple[str, str, str]],
    tag: str = "point-op",
    field_name: str = "",
) -> WorkloadGraph:
    """One point operation (doubling / mixed addition) as a graph."""
    graph = WorkloadGraph(name=tag)
    _append_point_operation(graph, sequence, scope=tag, field_name=field_name)
    return graph


def _append_scalar_multiplication(
    graph: WorkloadGraph,
    scalar_bits: int,
    additions: int = -1,
    scope: str = "",
    field_name: str = "",
    priority: int = 0,
) -> List[int]:
    """Append a double-and-add ladder; return the final operation's exits.

    Emission order: ``scalar_bits`` doublings with a mixed addition after
    every second doubling until ``additions`` (default: half the bit
    length, the expected Hamming weight of a random scalar) are placed,
    stragglers at the end.
    """
    if scalar_bits <= 0:
        raise OperandRangeError(
            f"scalar_bits must be positive, got {scalar_bits}"
        )
    if additions < 0:
        additions = scalar_bits // 2
    emitted = 0
    exits: List[int] = []
    for index in range(scalar_bits):
        exits = _append_point_operation(
            graph,
            DOUBLING_SEQUENCE,
            scope=f"{scope}dbl[{index}]",
            tag=f"dbl[{index}]",
            entry_deps=exits,
            field_name=field_name,
            priority=priority,
        )
        if emitted < additions and index % 2 == 1:
            exits = _append_point_operation(
                graph,
                MIXED_ADDITION_SEQUENCE,
                scope=f"{scope}add[{emitted}]",
                tag=f"add[{emitted}]",
                entry_deps=exits,
                field_name=field_name,
                priority=priority,
            )
            emitted += 1
    while emitted < additions:
        exits = _append_point_operation(
            graph,
            MIXED_ADDITION_SEQUENCE,
            scope=f"{scope}add[{emitted}]",
            tag=f"add[{emitted}]",
            entry_deps=exits,
            field_name=field_name,
            priority=priority,
        )
        emitted += 1
    return exits


def scalar_multiplication_graph(
    scalar_bits: int = 256,
    additions: int = -1,
    field_name: str = "",
) -> WorkloadGraph:
    """Double-and-add scalar multiplication as a dependency graph.

    Sequential across ladder steps (each step consumes the running point),
    parallel within a step: the independent multiplications of one
    doubling or addition land in the same topological level.
    """
    graph = WorkloadGraph(name=f"scalar-mult[{scalar_bits}]")
    _append_scalar_multiplication(
        graph, scalar_bits, additions, field_name=field_name
    )
    return graph


def ecdsa_sign_graph(
    scalar_bits: int = 256,
    signatures: int = 1,
    field_name: str = "",
) -> WorkloadGraph:
    """One or more full ECDSA signing operations as a dependency graph.

    Each signature is one ``k·G`` ladder, a Fermat inversion of the nonce
    (a sequential square-and-multiply chain — but *independent* of the
    ladder, so the two run concurrently on a graph-aware chip) and the two
    scalar-field products forming ``s``, which join both strands.
    Signatures are mutually independent, so batched signing is
    embarrassingly wide.
    """
    graph = WorkloadGraph(name=f"ecdsa-sign[{signatures}x{scalar_bits}]")
    _append_ecdsa_sign(graph, scalar_bits, signatures, field_name)
    return graph


def _append_ecdsa_sign(
    graph: WorkloadGraph,
    scalar_bits: int = 256,
    signatures: int = 1,
    field_name: str = "",
) -> None:
    if signatures <= 0:
        raise OperandRangeError(
            f"signatures must be positive, got {signatures}"
        )
    if scalar_bits <= 0:
        raise OperandRangeError(
            f"scalar_bits must be positive, got {scalar_bits}"
        )
    for signature in range(signatures):
        prefix = f"sig[{signature}]"
        ladder_exits = _append_scalar_multiplication(
            graph, scalar_bits, scope=f"{prefix}.", field_name=field_name
        )
        # Fermat inversion of the nonce: a serial square-and-multiply chain
        # over the scalar field, independent of the ladder above.
        chain: List[int] = []
        for index in range(scalar_bits):
            square = graph.add(
                multiplicand=f"{prefix}.inv.sq[{index}]",
                deps=chain,
                tag="inversion",
                field_name=field_name,
            )
            chain = [square]
            if index % 2 == 1:
                multiply = graph.add(
                    multiplicand=f"{prefix}.inv.k",
                    deps=chain,
                    tag="inversion",
                    field_name=field_name,
                )
                chain = [multiply]
        # r·d needs r (the ladder's x-coordinate); k⁻¹·(z + r·d) joins the
        # inversion chain with it.
        r_times_d = graph.add(
            multiplicand=f"{prefix}.d",
            deps=ladder_exits,
            tag="s-computation",
            field_name=field_name,
        )
        graph.add(
            multiplicand=f"{prefix}.kinv",
            deps=[r_times_d] + chain,
            tag="s-computation",
            field_name=field_name,
        )


def ntt_graph(size: int, tag: str = "ntt", field_name: str = "") -> WorkloadGraph:
    """A ``size``-point iterative NTT as a dependency graph.

    ``log2(size)`` stages of ``size / 2`` butterflies; the butterfly
    multiplication at stage ``s`` depends on the two stage ``s-1``
    butterflies that last wrote its input positions, so every stage is one
    topological level of mutually independent multiplications (width
    ``size / 2``).  Emission stays twiddle-major within a stage — the
    ordering under which the paper's LUT-reuse argument applies.
    """
    graph = WorkloadGraph(name=f"{tag}[{size}]")
    _append_ntt(graph, size, tag, field_name)
    return graph


def _append_ntt(
    graph: WorkloadGraph, size: int, tag: str = "ntt", field_name: str = ""
) -> None:
    if size < 2 or size & (size - 1):
        raise OperandRangeError(
            f"NTT size must be a power of two >= 2, got {size}"
        )
    stages = size.bit_length() - 1
    owner: List[Optional[int]] = [None] * size
    for stage in range(stages):
        twiddles = 1 << stage
        group = size // (2 * twiddles)  # butterflies sharing one twiddle
        span = 2 * twiddles  # butterfly block length at this stage
        key_tag = f"{tag}:s{stage}"
        for twiddle in range(twiddles):
            key = f"{tag}.w[{stage}][{twiddle}]"
            for block in range(group):
                upper = block * span + twiddle
                lower = upper + twiddles
                deps = {
                    dep
                    for dep in (owner[upper], owner[lower])
                    if dep is not None
                }
                index = graph.add(
                    multiplicand=key,
                    deps=deps,
                    tag=key_tag,
                    field_name=field_name,
                )
                owner[upper] = owner[lower] = index


def msm_graph(
    points: int,
    window_bits: int = 0,
    scalar_bits: int = 256,
    tag: str = "msm",
    field_name: str = "",
) -> WorkloadGraph:
    """A ``points``-element bucket-method MSM as a dependency graph.

    Mirrors :func:`repro.zkp.msm.msm_pippenger` structurally: per window,
    every point is accumulated into a bucket (additions into the same
    bucket chain, different buckets run concurrently), the running-sum
    reduction walks the buckets sequentially, and the window results fold
    through a sequential Horner chain of doublings.  Windows are
    independent until the Horner fold joins them.
    """
    graph = WorkloadGraph(name=f"{tag}[{points}]")
    _append_msm(graph, points, window_bits, scalar_bits, tag, field_name)
    return graph


def _append_msm(
    graph: WorkloadGraph,
    points: int,
    window_bits: int = 0,
    scalar_bits: int = 256,
    tag: str = "msm",
    field_name: str = "",
) -> None:
    from repro.zkp.msm import default_window_bits

    if points <= 0:
        raise OperandRangeError(f"points must be positive, got {points}")
    if scalar_bits <= 0:
        raise OperandRangeError(
            f"scalar_bits must be positive, got {scalar_bits}"
        )
    c = window_bits or default_window_bits(points)
    if c < 1:
        raise OperandRangeError(f"window size must be positive, got {c}")
    windows = -(-scalar_bits // c)
    buckets = (1 << c) - 1

    reduce_tail: List[List[int]] = []
    for window in range(windows):
        bucket_tail: List[List[int]] = [[] for _ in range(buckets)]
        for point in range(points):
            bucket = point % buckets  # deterministic stand-in assignment
            bucket_tail[bucket] = _append_point_operation(
                graph,
                MIXED_ADDITION_SEQUENCE,
                scope=f"{tag}.w{window}.bucket[{point}]",
                entry_deps=bucket_tail[bucket],
                field_name=field_name,
            )
        # Running-sum reduction: two Jacobian additions per bucket slot,
        # walking the buckets from the top down.
        exits: List[int] = []
        for slot in range(2 * buckets):
            bucket = buckets - 1 - slot // 2
            exits = _append_point_operation(
                graph,
                MIXED_ADDITION_SEQUENCE,
                scope=f"{tag}.w{window}.reduce[{slot}]",
                entry_deps=exits + bucket_tail[bucket],
                field_name=field_name,
            )
        reduce_tail.append(exits)
    carry: List[int] = []
    for window in range(windows):
        for doubling in range(c):
            carry = _append_point_operation(
                graph,
                DOUBLING_SEQUENCE,
                scope=f"{tag}.horner[{window}][{doubling}]",
                entry_deps=carry,
                field_name=field_name,
            )
        carry = _append_point_operation(
            graph,
            MIXED_ADDITION_SEQUENCE,
            scope=f"{tag}.horner-add[{window}]",
            entry_deps=carry + reduce_tail[window],
            field_name=field_name,
        )


def product_tree_graph(
    values: Iterable[int],
    tag: str = "product-tree",
    field_name: str = "",
) -> WorkloadGraph:
    """A balanced product tree over concrete values — an *executable* graph.

    The kernel behind Montgomery batch inversion: ``n`` leaves reduce
    pairwise over ``ceil(log2 n)`` levels to one running product.  Every
    node carries operands (leaf constants or :class:`Ref` s to earlier
    products), so the graph evaluates through
    :func:`repro.workloads.execute.execute_graph` or
    :meth:`repro.modsram.chip.Chip.run_graph` with bit-identical products,
    while its depth-limited shape (width ``n/2``, depth ``log2 n``) is the
    canonical scheduling win over a serial flat stream.
    """
    leaves: List[Operand] = [int(value) for value in values]
    if len(leaves) < 2:
        raise OperandRangeError(
            f"product tree needs at least two values, got {len(leaves)}"
        )
    graph = WorkloadGraph(name=f"{tag}[{len(leaves)}]")
    current = leaves
    level = 0
    while len(current) > 1:
        reduced: List[Operand] = []
        for pair in range(len(current) // 2):
            left, right = current[2 * pair], current[2 * pair + 1]
            index = graph.add(
                multiplicand=f"{tag}.n[{level}][{pair}]",
                tag=f"{tag}:l{level}",
                field_name=field_name,
                a=left,
                b=right,
            )
            reduced.append(Ref(index))
        if len(current) % 2:
            reduced.append(current[-1])
        current = reduced
        level += 1
    return graph


class _Enough(Exception):
    """Raised by :class:`_KeySink` to stop a builder at the key limit."""


class _KeySink:
    """Stands in for a :class:`WorkloadGraph`: records keys, keeps no nodes."""

    def __init__(self, limit: Optional[int]) -> None:
        self.keys: List[str] = []
        self.limit = limit

    def add(self, multiplicand: str, **_: Any) -> int:
        if len(self.keys) == self.limit:
            raise _Enough
        self.keys.append(multiplicand)
        return len(self.keys) - 1


#: The structural workloads by name, as their graph-appending builders.
_EMITTERS: Mapping[str, Callable[..., Any]] = {
    "ecdsa-sign": _append_ecdsa_sign,
    "scalar-mult": _append_scalar_multiplication,
    "ntt": _append_ntt,
    "msm": _append_msm,
}


def multiplicand_keys(
    workload: str, *args: Any, limit: Optional[int] = None, **params: Any
) -> Tuple[str, ...]:
    """A workload's multiplicand keys in emission order: its flat stream.

    ``workload`` is ``"ecdsa-sign"``, ``"scalar-mult"``, ``"ntt"`` or
    ``"msm"``; ``args`` and ``params`` are the arguments of the matching
    ``*_graph`` builder (``multiplicand_keys("ntt", 256)`` keys
    ``ntt_graph(256)``).  The builder runs against a sink that records
    only the keys, and stops after ``limit`` of them, so a bounded prefix
    costs a bounded share of the build.  This is all the flat-stream chip
    scheduler reads: which radix-4 LUT each multiplication needs.
    """
    emit = _EMITTERS.get(workload)
    if emit is None:
        raise ConfigurationError(
            f"unknown workload {workload!r}; available: {sorted(_EMITTERS)}"
        )
    if limit is not None and limit < 0:
        raise OperandRangeError(f"limit must be non-negative, got {limit}")
    sink = _KeySink(limit)
    try:
        emit(sink, *args, **params)
    except _Enough:
        pass
    return tuple(sink.keys)
