"""Schoolbook reference multiplier.

This is the oracle every other algorithm is tested against: multiply with
Python's arbitrary-precision integers and reduce with ``%``.  It has no
hardware interpretation; it exists so that correctness of the hardware-
oriented algorithms never rests on comparing them only to each other.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.algorithms.base import ModularMultiplier, register_multiplier

__all__ = ["SchoolbookMultiplier"]


@register_multiplier
class SchoolbookMultiplier(ModularMultiplier):
    """Full multiplication followed by a single reduction (``a * b % p``)."""

    name = "schoolbook"
    description = "Full product followed by one reduction (software oracle)."
    direct_form = True

    def _multiply(self, a: int, b: int, modulus: int) -> int:
        self.stats.full_additions += 1
        return (a * b) % modulus

    def _multiply_batch(
        self, pairs: Sequence[Tuple[int, int]], modulus: int
    ) -> List[int]:
        """The engine's batch hook: ``a * b % p`` over the whole batch.

        Operands are already validated (the ``_multiply`` contract), and
        the stats move exactly as ``len(pairs)`` calls of ``_multiply``.
        """
        self.stats.full_additions += len(pairs)
        return [a * b % modulus for a, b in pairs]
