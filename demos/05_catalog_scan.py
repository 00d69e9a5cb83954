"""Scan a catalog of groups for isomorphic non-commuting graphs.

The scan enumerates the requested families plus coprime abelian cofactors,
computes one certificate per group (optionally cached on disk), groups the
entries by certificate, and audits every same-certificate pair.  The headline
check: among nilpotent groups with irregular graphs, members of one
certificate class must all have the same order.
"""

import ncgraph as ng


def main():
    config = ng.CatalogConfig(
        families=("dihedral(3..10)", "dicyclic(2..5)", "heisenberg(3,1)"),
        max_order=128,
        cofactor_max=5,
    )
    entries = ng.enumerate_catalog(config)
    print(f"catalog: {len(entries)} groups, orders "
          f"{min(e.order for e in entries)}..{max(e.order for e in entries)}\n")

    report = ng.scan_pairs(config)
    print(f"{len(report.classes)} certificate classes, "
          f"{report.violations} violations\n")

    print("classes with more than one member:")
    for cls in report.classes:
        if len(cls.members) < 2:
            continue
        flags = []
        if cls.all_nilpotent:
            flags.append("nilpotent")
        if cls.all_irregular:
            flags.append("irregular")
        print(f"  orders {set(cls.orders)}: {', '.join(cls.members)}")
        print(f"    [{' + '.join(flags) or 'mixed'}] "
              f"equal-orders verdict: {cls.nilpotent_irregular_equal_orders}")
        for audit in cls.pair_audits:
            print(f"    pair audit {audit.descriptor_a} / "
                  f"{audit.descriptor_b}: {audit.verdict}")
        for audit in cls.same_prime_audits:
            print(f"    shape audit at prime {audit.prime}: {audit.verdict}")
    print()

    sample = report.entries[0]
    print("every entry carries its invariants, e.g.:")
    print(f"  {sample.descriptor}: order {sample.order}, "
          f"degree profile {sample.degree_profile}, "
          f"multipartite parts {sample.multipartite_parts}")
    print(f"  certificate sha256 {sample.certificate_sha256[:16]}...")
    print("\nthe full report is JSON-serializable and byte-stable:")
    print(f"  report.to_json() -> {len(report.to_json())} bytes")


if __name__ == "__main__":
    main()
