"""Per-layer spans recorded from outside the package.

`Tracer.install()` rebinds selected public functions of the `pgc` modules
to timing wrappers, in every `pgc` module namespace that holds them, so a
call from anywhere in the package is seen; `remove()` restores them. Each
span is the inclusive time of the outermost call of its functions (a
recursive call of the same span is not timed twice; a call into another
span is timed by both). Counters are worked out from the call's arguments
with the original, untraced functions, outside the timed interval.
"""

import sys
import time
from collections import defaultdict

from tables import order


def _census_points(M, *args, **kwargs):
    return {"pts": M.fs.q ** M.nvars}


def _oracle_elements(table, *args, **kwargs):
    return {"elements": order(table)}


class Tracer:
    def __init__(self):
        import pgc.catalog
        import pgc.cli
        import pgc.commat
        import pgc.enumctr
        import pgc.freenil
        import pgc.lazard
        import pgc.liecore

        liecore = pgc.liecore
        self._centre, self._derived = liecore.centre, liecore.derived

        def dual_counts(table, *args, **kwargs):
            z = self._centre(table).order()
            reps = order(table) // z
            chars = self._derived(table).order()
            return {"reps": reps, "chars": chars, "pairs": reps * chars}

        # span name -> (functions, counter or None)
        self.spans = {
            "enumctr.census_A": ([pgc.enumctr.rank_distribution_A], _census_points),
            "enumctr.census_B": ([pgc.enumctr.rank_distribution_B], _census_points),
            "enumctr.dual": ([pgc.enumctr.vectors_dual], dual_counts),
            "liecore.centre_derived": ([liecore.centre, liecore.derived], None),
            "lazard.conjugacy": ([pgc.lazard.conjugacy_census], _oracle_elements),
            "lazard.coadjoint": ([pgc.lazard.coadjoint_census], _oracle_elements),
            "catalog.pfaffian": ([pgc.catalog.pfaffian_case_vectors], None),
            "freenil.closed": ([pgc.freenil.class_vector_closed,
                                pgc.freenil.char_vector_class2,
                                pgc.freenil.fixture_vectors], None),
            "liecore.validate": ([liecore.validate], None),
            "liecore.adapt_basis": ([liecore.adapt_basis], None),
            "commat.build": ([pgc.commat.build_commutator_matrices], None),
            "cli.parse": ([pgc.cli.parse_lie], None),
        }
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self._depth = defaultdict(int)
        self._saved = []

    def reset(self):
        self.seconds.clear()
        self.counts.clear()

    def _wrap(self, span, fn, counter):
        def traced(*args, **kwargs):
            if counter is not None and self._depth[span] == 0:
                for name, n in counter(*args, **kwargs).items():
                    self.counts[f"{span}.{name}"] += n
            self._depth[span] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth[span] -= 1
                if self._depth[span] == 0:
                    self.seconds[span] += time.perf_counter() - t0
        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "pgc" or name.startswith("pgc."))]
        for span, (fns, counter) in self.spans.items():
            for fn in fns:
                wrapper = self._wrap(span, fn, counter)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            self._saved.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)

    def remove(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
