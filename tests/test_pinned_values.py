"""Every subcommand reproduces the values pinned in ``tests/data/pinned_values.json``.

A list of numbers is one array, and matches when each entry is within 1e-12
of the pinned array's largest magnitude; a list of anything else matches
entry by entry.  Strings, booleans, nulls and the digests of ``bracket`` and
``reach`` match exactly.  ``tests/pin_values.py`` regenerates the file.
"""

import json
import numbers

import numpy as np

from pin_values import PINNED, collect

RTOL = 1e-12


def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def mismatches(got, want, where: str) -> list[str]:
    """Where ``got`` departs from the pinned ``want``, one line each."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got} "
                    f"!= {sorted(want)}"]
        return [m for key in want for m in mismatches(got[key], want[key], f"{where}/{key}")]
    if isinstance(want, list) and want and all(map(_is_number, want)):
        if not (isinstance(got, list) and len(got) == len(want) and all(map(_is_number, got))):
            return [f"{where}: {got!r:.80} is not a list of {len(want)} numbers"]
        a, b = np.array(got, dtype=float), np.array(want, dtype=float)
        err, bound = np.max(np.abs(a - b)), RTOL * np.max(np.abs(b))
        return [] if err <= bound else [f"{where}: off by {err:.3g}, bound {bound:.3g}"]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r:.80} is not a list of {len(want)} entries"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{where}[{i}]")]
    if _is_number(want):
        return mismatches([got] if _is_number(got) else got, [want], where)
    return [] if got == want and type(got) is type(want) else [f"{where}: {got!r} != {want!r}"]


def test_subcommands_reproduce_their_pinned_values(tmp_path):
    want = json.loads(PINNED.read_text())
    assert mismatches(collect(tmp_path), want, "pinned") == []


def test_tolerance_is_relative_to_the_largest_entry():
    want = {"a": [1.0, 1e-20], "b": [[3.0, -4.0]], "c": 2, "d": [True, "x", None]}
    assert mismatches(want, want, "w") == []
    assert mismatches({**want, "a": [1.0 + 1e-13, 1e-15]}, want, "w") == []
    assert mismatches({**want, "a": [1.0 + 3e-12, 1e-20]}, want, "w") == ["w/a: off by 3e-12, "
                                                                           "bound 1e-12"]
    assert len(mismatches({**want, "b": [[3.0, 4.0]]}, want, "w")) == 1
    assert len(mismatches({**want, "c": 3}, want, "w")) == 1
    assert len(mismatches({**want, "d": [1, "x", None]}, want, "w")) == 1
    assert len(mismatches({**want, "e": 1}, want, "w")) == 1
