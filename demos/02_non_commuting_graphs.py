"""Non-commuting graphs: vertices are the non-central elements of a group,
with an edge exactly where two elements fail to commute.

The walkthrough shows the degree formula deg(v) = |G| - |C_G(g_v)|, regular
versus irregular graphs, and the complete multipartite shape that appears
when commuting is transitive away from the center.
"""

import ncgraph as ng


def show(descriptor):
    g = ng.construct(descriptor)
    graph = ng.build_nc_graph(g)
    degrees = tuple(sorted(graph.degrees()))
    print(f"{descriptor}: order {g.order}, {graph.num_vertices} vertices, "
          f"{graph.num_edges} edges")
    print(f"  degree sequence {degrees}")
    print(f"  regular: {graph.is_regular}")
    parts = graph.multipartite_parts()
    if parts is not None:
        print(f"  complete multipartite with part sizes {parts}")
        print("  (each part is a centralizer minus the center: elements that")
        print("   commute with each other but with nothing else)")
    else:
        print("  not complete multipartite")
    print()


def main():
    print("== graphs of small groups ==\n")
    for descriptor in ("dihedral(3)", "dihedral(4)", "dicyclic(2)",
                       "dihedral(8)", "heisenberg(3,1)", "heisenberg(3,2)"):
        show(descriptor)

    print("== the degree formula, checked directly ==\n")
    g = ng.construct("dihedral(8)")
    graph = ng.build_nc_graph(g)
    print("dihedral(8), per vertex: degree == |G| - |C_G(g)|")
    for local, element in list(enumerate(graph.vertices))[:4]:
        degree = graph.degrees()[local]
        cent = ng.centralizer_size(g, element)
        print(f"  element {element}: degree {degree}, |G|-|C| = {g.order - cent}")
    print("  ... and so on for every vertex (asserted in the test suite)\n")

    print("== uniform class sizes <=> regular graph ==\n")
    for descriptor in ("dicyclic(2)", "dihedral(8)"):
        g = ng.construct(descriptor)
        uniform, size = ng.has_uniform_class_sizes(g)
        regular = ng.build_nc_graph(g).is_regular
        tail = f"shared class size {size}" if uniform else "mixed class sizes"
        print(f"  {descriptor}: regular={regular}, uniform={uniform} ({tail})")


if __name__ == "__main__":
    main()
