"""Tolerances and size bounds are module constants, not per-call parameters.

No caller needs a second value of any of them, so each one is named once
(see the README's "Tolerances" list).  The two bounds that callers do set,
the enumeration bound and the tautology work limit, are the only ones left
in a signature.
"""

from __future__ import annotations

import inspect

from ditlab import classical, density, logic, partitions, quantum


def _public_callables(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # unwrap classmethods
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def _is_tolerance_or_bound(param: str) -> bool:
    return param in ("tol", "bound", "materialize_bound", "work_limit") or param.endswith(
        ("_tol", "_bound", "_limit")
    )


def test_only_the_enumeration_bound_and_work_limit_are_parameters():
    found = {
        (f"{module.__name__.split('.')[-1]}.{name}", param)
        for module in (partitions, classical, density, quantum, logic)
        for name, fn in _public_callables(module)
        for param in inspect.signature(fn).parameters
        if _is_tolerance_or_bound(param)
    }
    assert found == {
        ("partitions.enumerate_partitions", "bound"),
        ("logic.check_tautology", "work_limit"),
    }
