"""tools/oracle_gap.py, the pipeline-vs-oracle yardstick, on a slice of its panels."""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import oracle_gap  # noqa: E402


def test_pipeline_never_beats_the_optimum_on_a_slice_of_the_panels():
    """The first oracle_tiny inputs and draws of each panel: wherever both
    the pipeline and the oracle return, gap >= -1e-9, and the summary counts
    every instance."""
    sizes = {"oracle_tiny": 4, "drawn2": 24, "drawn3": 12}
    compared = 0
    for panel, size in sizes.items():
        gaps = [oracle_gap.measure(*args)
                for args in itertools.islice(oracle_gap.PANELS[panel](), size)]
        assert len(gaps) == size
        for g in gaps:
            assert g.gap is None or g.gap >= -1e-9, oracle_gap.line(g)
        compared += sum(g.gap is not None for g in gaps)
        assert oracle_gap.summary(panel, gaps).startswith(f"summary {panel}: {size} instances")
    assert compared >= 25
