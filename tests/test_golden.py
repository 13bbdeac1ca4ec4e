"""The canonical --json report must stay byte for byte the same.

Each golden file holds ``analyze(...).to_json() + "\\n"`` as recorded by
tests/record_golden.py; re-record only when a report change is intended.
"""

import pytest

from record_golden import CASES, golden_path, report_json


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    with open(golden_path(name), encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert report_json(name) == expected
