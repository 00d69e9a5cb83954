"""Deciding graph isomorphism with canonical certificates.

A certificate is a canonical byte encoding of a graph: two graphs get the
same bytes exactly when they are isomorphic.  Equality of certificates is
therefore a complete test, and find_isomorphism turns a positive answer into
an explicit, verified vertex bijection.
"""

import random

import ncgraph as ng


def main():
    print("== two different groups, one graph ==\n")
    d16 = ng.construct("dihedral(8)")
    q16 = ng.construct("dicyclic(4)")
    graph_d, graph_q = ng.build_nc_graph(d16), ng.build_nc_graph(q16)
    cert_d, cert_q = ng.certificate(graph_d), ng.certificate(graph_q)
    print(f"dihedral(8) certificate:  {cert_d.hex()[:48]}...")
    print(f"dicyclic(4) certificate:  {cert_q.hex()[:48]}...")
    print(f"equal: {cert_d == cert_q}")
    phi = ng.find_isomorphism(graph_d, graph_q)
    print(f"explicit bijection found and verified: {phi.mapping}\n")

    print("== certificates ignore vertex labels ==\n")
    rng = random.Random(7)
    perm = list(range(graph_d.num_vertices))
    rng.shuffle(perm)
    shuffled = ng.relabeled(graph_d, perm)
    print(f"after a random relabeling the certificate is unchanged: "
          f"{ng.certificate(shuffled) == cert_d}\n")

    print("== and they separate non-isomorphic graphs ==\n")
    h27 = ng.build_nc_graph(ng.construct("heisenberg(3,1)"))
    d12 = ng.build_nc_graph(ng.construct("dihedral(6)"))
    print(f"heisenberg(3,1) vs dihedral(6): "
          f"certificates equal: {ng.certificate(h27) == ng.certificate(d12)}")
    print(f"find_isomorphism returns: {ng.find_isomorphism(h27, d12)}\n")

    print("== cheap invariants come first ==\n")
    nv, ne, degrees = ng.degree_profile(d12)
    print(f"dihedral(6) profile: {nv} vertices, {ne} edges, degrees {degrees}")
    print("profile mismatches settle non-isomorphism without touching the")
    print("certificate machinery; profile matches fall through to the full test")


if __name__ == "__main__":
    main()
