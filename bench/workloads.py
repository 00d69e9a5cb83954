"""Fixed workload definitions shared by the runner and the per-pass worker.

Nothing here imports ncgraph: the runner only needs names, sizes and the
pinned expectations its output gates compare against.
"""

WORKLOADS = ("scan-default", "scan-warm", "canon-relabeled", "tables-import")

# scan-default / scan-warm -------------------------------------------------------

# Keyword arguments for CatalogConfig; None means the library default.
SCAN_CONFIG = None
SMOKE_SCAN_CONFIG = {
    "families": ["dihedral(3..5)", "dicyclic(2..3)"],
    "max_order": 24,
    "cofactor_max": 3,
}

# Default scan at the baseline: entries, classes, and the sha256 of the report
# JSON with every "certificate_sha256" field removed (so a change to the
# certificate bytes alone does not move it).
SCAN_EXPECTED = {
    "entries": 110,
    "classes": 61,
    "stripped_sha256": "13b21b80e3b0540da093d5b479df44df586bd4ecc48fe982f58a958bf893bb1d",
}

# canon-relabeled --------------------------------------------------------------

# Symmetric groups whose non-commuting graphs are canonically labelled under
# seeded random relabelings, with the number of relabelings of each.  Every
# call canonically labels one graph of its case, so the pooled latencies form
# one block per case.  The four cases under 50 vertices get six relabelings
# so that the pooled median falls inside the dihedral(24)/dicyclic(12) block
# rather than on the edge between two blocks, and the 90th percentile falls
# inside the dihedral(30)/dicyclic(15) block.  heisenberg(3,2) gets a single
# relabeling: one relabeled certificate takes anywhere from 0.06 to 1.8 s, and
# one draw per seed still times a relabeled search in every run while adding
# the least seed-to-seed spread to wall_s.
#
# heisenberg(2,2) stands in for heisenberg(2,3): both quotients are one colour
# class of size-2 twins, but one relabeled heisenberg(2,3) certificate takes
# 0.6-27 s at the baseline, more than a run can hold without failed calls.
CANON_CASES = {
    "dihedral(24)": 6, "dihedral(28)": 3, "dihedral(30)": 3,
    "dicyclic(12)": 6, "dicyclic(14)": 3, "dicyclic(15)": 3,
    "heisenberg(3,2)": 1, "heisenberg(2,2)": 6, "heisenberg(7,1)": 3,
    "product(dihedral(3),dihedral(3))": 6,
    "product(heisenberg(2,2),cyclic(3))": 3,
}
# Pairs of cases whose graphs are isomorphic; every other pair must differ.
CANON_SHARED = (
    ("dihedral(24)", "dicyclic(12)"),
    ("dihedral(28)", "dicyclic(14)"),
    ("dihedral(30)", "dicyclic(15)"),
)
# Per-call budget in seconds; a call that exceeds it is stopped and counted
# as a failed operation.
CANON_BUDGET_S = 10.0

SMOKE_CANON_CASES = {"dihedral(4)": 2, "dicyclic(2)": 2, "heisenberg(3,1)": 2}
SMOKE_CANON_SHARED = (("dihedral(4)", "dicyclic(2)"),)

# tables-import ----------------------------------------------------------------

# Orders 243, 256, 512 and 1024; each table is imported from .cay text with
# its elements relabeled so the identity is not at index 0.
TABLE_CASES = ("heisenberg(3,2)", "dicyclic(64)", "heisenberg(2,4)", "dihedral(512)")
TABLE_MAX_ORDER = 1024
SMOKE_TABLE_CASES = ("dihedral(4)", "heisenberg(3,1)")


def plan(workload, smoke):
    """The inputs of one workload, as plain data."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload in ("scan-default", "scan-warm"):
        return {"config": SMOKE_SCAN_CONFIG if smoke else SCAN_CONFIG}
    if workload == "canon-relabeled":
        return {
            "cases": SMOKE_CANON_CASES if smoke else CANON_CASES,
            "shared": SMOKE_CANON_SHARED if smoke else CANON_SHARED,
        }
    return {"cases": SMOKE_TABLE_CASES if smoke else TABLE_CASES}
