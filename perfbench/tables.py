"""Workload table lists and the set-up step that writes them as `.lie` files.

Run as a script, this is the timed set-up of one benchmark run: it imports
pgc, builds the workload's tables, validates them, and writes one `.lie`
file per table plus `manifest.json` into OUTDIR, then prints the seconds
that took as one JSON line:

    python3 perfbench/tables.py --workload census --seed 1 --out OUTDIR

The seed only relabels basis vectors (a random permutation, which gives an
isomorphic table with the same answers and the same point counts) and
shuffles the order in which the tables are solved.
"""

import argparse
import json
import os
import random
import sys
import time

# (key, command, constructor, args). The key names the table in
# reference.json; the command is how the benchmark hands it to `pgc`:
# "matrix" = `pgc vectors`, "dual" = `pgc vectors --method dual`,
# "verify" = `pgc verify`. Each workload joins two groups of tables that
# stress different layers: the census over prime fields (numpy kernel) and
# over GF(p^f) (per-point Python path); the dual route over Z/p^e and
# `verify` (the oracle). Joining them gives a run twice the work, which
# the timing noise of a shared host needs (see NOTES.md).
WORKLOADS = {
    "census": [
        ("g_alpha(2 mod 11)/GF(11)", "matrix", "boston_isaacs", (2, 11)),
        ("f(2,4)/GF(7)", "matrix", "free", (2, 4, 7, 1)),
        ("f(4,2)/GF(7)", "matrix", "free", (4, 2, 7, 1)),
        ("f(5,2)/GF(3)", "matrix", "free", (5, 2, 3, 1)),
        ("f(2,3)/GF(25)", "matrix", "free", (2, 3, 5, 2)),
        ("quadric(9)/GF(9)", "matrix", "quadric", (9,)),
        ("f(3,2)/GF(9)", "matrix", "free", (3, 2, 3, 2)),
        ("heis/GF(27)", "matrix", "heis_field", (3, 3)),
    ],
    "routes": [
        ("heis/Z125", "dual", "heis_mod", (5, 3)),
        ("heis/Z81", "dual", "heis_mod", (3, 4)),
        ("f(3,2)/Z9", "dual", "free_mod", (3, 2, 3, 2)),
        ("fattened-heis/Z27", "dual", "fattened_heis", (3, 3)),
        ("g_alpha(1 mod 3)/GF(3)", "dual", "boston_isaacs", (1, 3)),
        ("f(2,3)/GF(7)", "dual", "free", (2, 3, 7, 1)),
        ("f(2,3)/GF(7)", "verify", "free", (2, 3, 7, 1)),
        ("quadric(3)/GF(3)", "verify", "quadric", (3,)),
        ("g_alpha(1 mod 3)/GF(3)", "verify", "boston_isaacs", (1, 3)),
        ("heis/Z27", "verify", "heis_mod", (3, 3)),
        ("f(2,2)/GF(9)", "verify", "free", (2, 2, 3, 2)),
    ],
}


def build(constructor, args):
    """The LieRing for one table entry, in the package's own basis."""
    import pgc

    if constructor == "boston_isaacs":
        return pgc.boston_isaacs_table(*args)
    if constructor == "quadric":
        return pgc.quadric_table(*args)
    if constructor == "free":
        r, c, p, f = args
        return pgc.free_table(r, c, pgc.make_field(p, f))
    if constructor == "free_mod":
        r, c, p, e = args
        return pgc.free_table(r, c, pgc.ModRing(p, e))
    # [e1, e2] = e3: the Heisenberg ring, which is f(2,2)
    if constructor == "heis_field":
        return pgc.LieRing(pgc.make_field(*args), 3, {(0, 1): {2: 1}}, "heis")
    if constructor == "heis_mod":
        return pgc.LieRing(pgc.ModRing(*args), 3, {(0, 1): {2: 1}}, "heis")
    if constructor == "fattened_heis":
        # [e1, e2] = e3, [e1, e4] = p e3: the centre is not a direct summand
        p, e = args
        return pgc.LieRing(pgc.ModRing(p, e), 4,
                           {(0, 1): {2: 1}, (0, 3): {2: p}}, "fattened-heis")
    raise ValueError(f"unknown constructor {constructor!r}")


def relabel(table, perm):
    """The same ring with basis vector e_i renamed e_perm[i]."""
    import pgc

    brackets = {(perm[i], perm[j]): {perm[k]: c for k, c in row.items()}
                for (i, j), row in table.lam.items()}
    return pgc.LieRing(table.ring, table.h, brackets, table.name)


def order(table):
    """|G|: the number of elements of the ring's additive group."""
    R = table.ring
    return (R.q if hasattr(R, "q") else R.m) ** table.h


def plan(workload, seed):
    """[(key, command, constructor, args, permutation seed)] in solve
    order; a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}/{seed}")
    entries = list(WORKLOADS[workload])
    rng.shuffle(entries)
    return [entry + (rng.random(),) for entry in entries]


def emit(workload, seed, out):
    """Build, validate and write the workload's tables and manifest.json."""
    import pgc
    from pgc.cli import emit_lie

    manifest = []
    for n, (key, command, constructor, args, u) in enumerate(plan(workload, seed)):
        table = build(constructor, args)
        perm = list(range(table.h))
        random.Random(u).shuffle(perm)
        table = relabel(table, perm)
        pgc.validate(table)
        name = f"{n:02d}.lie"
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write(emit_lie(table))
        manifest.append({"key": key, "command": command, "file": name})
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    t0 = time.perf_counter()
    emit(args.workload, args.seed, args.out)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    sys.exit(main())
