"""Per-modulus codegen kernels: the paper's specialization, compiled.

ModSRAM's claim is that modular multiplication gets cheap once the
per-modulus tables are precomputed and resident next to the datapath.
This package is the software counterpart — a tiny kernel *compiler*
that, per modulus, derives the Barrett/Montgomery reduction constants
and the Table 2 overflow LUT once, emits specialized Python source for
a flattened branch-free batch loop, compiles it, and caches the result
process-wide:

* :mod:`repro.compiled.codegen` — constants derivation + source
  emission + ``compile()``;
* :mod:`repro.compiled.kernels` — the kernel objects and the optional
  ``REPRO_COMPILED_NUMPY`` vectorized path (exact int64, moduli
  ≤ 31 bits, graceful fallback);
* :mod:`repro.compiled.cache` — the thread-safe one-kernel-per-modulus
  cache;
* :mod:`repro.compiled.multiplier` — the registered ``compiled``
  multiplier and Engine backend adapter.

The ``compiled`` backend is parity-locked bit-identical to
``r4csa-lut`` (see ``tests/compiled/``).  It is selectable by name but
not the default: its Barrett loop runs below the plain ``a * b % p`` of
the default ``schoolbook`` backend.  See ``docs/compiled.md``.
"""

from repro.compiled.cache import (
    cached_kernel_keys,
    clear_kernel_cache,
    get_kernel,
    kernel_cache_stats,
)
from repro.compiled.codegen import (
    STRATEGIES,
    ReductionConstants,
    derive_constants,
    generate_source,
)
from repro.compiled.kernels import (
    NUMPY_ENV_VAR,
    CompiledKernel,
    NumpyState,
    numpy_state,
)
from repro.compiled.multiplier import CompiledBackend, CompiledMultiplier

__all__ = [
    "CompiledMultiplier",
    "CompiledBackend",
    "CompiledKernel",
    "ReductionConstants",
    "derive_constants",
    "generate_source",
    "get_kernel",
    "clear_kernel_cache",
    "kernel_cache_stats",
    "cached_kernel_keys",
    "numpy_state",
    "NumpyState",
]
