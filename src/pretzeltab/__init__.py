"""Exact tabulation of alternating oriented pretzel links by crossing number.

Closed-form counters (cyclic and dihedral Burnside counts over strip-size
tuples), an exhaustive strip-code oracle that verifies them, canonical class
representatives, and an exponential growth fit.

Importing the package loads no submodule.  Each name in ``__all__`` loads
its submodule on first use (PEP 562); every other name is imported from its
submodule, e.g. ``from pretzeltab.counts import count_rows``.
"""

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_HOME = {
    "columns": "counts",
    "count_row": "counts",
    "point_columns": "necklaces",
    "type3_params": "necklaces",
    "necklace_count": "necklaces",
    "bracelet_count": "necklaces",
    "signed_bracelet_count": "necklaces",
    "TCode": "tcodes",
    "canonicalize": "tcodes",
    "enumerate_classes": "tcodes",
    "fit_growth": "fit",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value
