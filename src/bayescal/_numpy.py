"""numpy, bound without being loaded, and the test of whether a value needs it.

Every bayescal module takes ``np`` from here. ``lazy`` registers numpy in
``sys.modules`` through ``importlib.util.LazyLoader``, which runs numpy's
code at the first attribute read, such as ``np.asarray``. So ``import
bayescal`` loads no numpy, and nor does ``llr`` or ``decide``: their inputs
are plain, and plain inputs take ``math``.
"""

import importlib.util
import math
import sys


def lazy(name: str):
    """The module ``name``: the one already imported, else one that loads
    on its first attribute read."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


np = lazy("numpy")

#: The exact types of a plain value. A subclass such as numpy's float64,
#: or a bool, is not plain.
PLAIN = frozenset({float, int})


def plain(*values) -> bool:
    """Whether every value's exact type is Python float or int."""
    return all(type(v) in PLAIN for v in values)


def xp(*values):
    """``math`` when every value is plain, else numpy: the module whose
    elementary functions (``log``, ``log1p``, ``sqrt``) a formula applies.
    A formula is written once, and only these are chosen by route."""
    return math if plain(*values) else np


def floats(*values):
    """``(module, values)``: ``math`` and each value as a Python float when
    every value is plain, else numpy and each as a float array."""
    if plain(*values):
        return math, [float(v) for v in values]
    return np, [np.asarray(v, dtype=float) for v in values]

