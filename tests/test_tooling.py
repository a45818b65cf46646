"""The benchmark's per-layer tracer still finds the functions it wraps."""

from pathlib import Path

import pgc

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_records_the_theoremB_and_dual_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import Tracer

    t = pgc.free_table(2, 3, pgc.make_field(5))
    tracer = Tracer()
    tracer.install()
    try:
        cc_b, ch_b = pgc.vectors_theoremB(t)
        cc_d, ch_d = pgc.vectors_dual(t)
    finally:
        tracer.remove()
    assert (cc_b, ch_b) == (cc_d, ch_d)
    spans = {"liecore.adapt_basis", "commat.build", "enumctr.census_A",
             "enumctr.census_B", "enumctr.dual"}
    assert spans <= set(tracer.seconds), sorted(tracer.seconds)
    assert tracer.counts["enumctr.census_A.pts"] == 5**3
    assert pgc.vectors_dual.__module__ == "pgc.enumctr"  # unwrapped again
