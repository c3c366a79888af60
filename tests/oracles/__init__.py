"""Test-only kernel sets and the context managers that swap them in.

The engine has one kernel set (:mod:`repro.engine.backends`); its public
functions look each kernel up in the private ``backends._KERNELS`` table
on every call.  :func:`use_kernels` replaces entries of that table for a
``with`` block and restores the original table afterwards, which is how
the suite runs models on the loop oracles of :mod:`tests.oracles.naive`
or behind the dtype checker of :mod:`tests.oracles.dtypecheck`.
"""

import contextlib
from typing import Callable, Dict, Iterator

from repro.engine import backends
from tests.oracles import naive

#: Parametrization ids: ``"naive"`` swaps in the loop oracles, ``"fast"``
#: runs the engine's own kernels.
KERNEL_SETS = ("naive", "fast")


@contextlib.contextmanager
def use_kernels(kernels: Dict[str, Callable]) -> Iterator[None]:
    """Replace the named engine kernels inside a ``with`` block."""
    saved = backends._KERNELS
    backends._KERNELS = {**saved, **kernels}
    try:
        yield
    finally:
        backends._KERNELS = saved


def use_kernel_set(name: str):
    """Context manager running the block on the kernel set ``name``."""
    if name == "naive":
        return use_kernels(naive.KERNELS)
    return contextlib.nullcontext()
