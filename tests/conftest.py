import sys
from collections import Counter
from pathlib import Path

import pytest

from jemaim.jem.typecheck import Checker

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def checks(monkeypatch):
    """Counts the whole checks (`Checker.check` calls) made."""
    counts = Counter()
    real = Checker.check

    def counting(self):
        counts["check"] += 1
        return real(self)

    monkeypatch.setattr(Checker, "check", counting)
    return counts
