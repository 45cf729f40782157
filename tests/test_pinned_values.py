"""Every subcommand reproduces the values pinned in ``tests/data/pinned_values.json``.

A list of numbers is one array, and matches when each entry is within 1e-12
of the pinned array's largest magnitude; a list of anything else matches
entry by entry.  Strings, booleans, nulls and the digests of ``bracket`` and
``reach`` match exactly.  ``tests/pin_values.py`` regenerates the file.
"""

import json

from pin_values import PINNED, collect, mismatches


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
