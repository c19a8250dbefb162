package graphs

// The paper's BC inputs are rome99 (road network), nasa1824 and ex33
// (FEM matrices), and c-22 (optimization matrix); its PageRank inputs are
// c-37, c-36, ex3, and c-40. Absent the University of Florida collection,
// the catalog instantiates each name with a generator of the same
// structural family, scaled down so the cycle-level simulation stays
// tractable. The *shape* contrast the paper exploits is preserved:
// road = low degree / deep BFS, FEM = moderate local reuse, c-* = dense
// hub rows that concentrate atomic traffic.

// BCInputs returns the four BC graphs in the paper's numbering
// (BC-1..BC-4).
func BCInputs() []*Graph {
	return []*Graph{
		Road("rome99", 24, 1),        // BC-1: road network
		FEM("nasa1824", 700, 8, 2),   // BC-2: FEM matrix
		FEM("ex33", 500, 12, 3),      // BC-3: FEM matrix
		Hub("c-22", 500, 3, 0.15, 4), // BC-4: optimization matrix
	}
}

// PRInputs returns the four PageRank graphs in the paper's numbering
// (PR-1..PR-4).
func PRInputs() []*Graph {
	return []*Graph{
		Hub("c-37", 600, 4, 0.12, 5), // PR-1
		Hub("c-36", 500, 3, 0.18, 6), // PR-2
		FEM("ex3", 600, 10, 7),       // PR-3
		Hub("c-40", 700, 5, 0.10, 8), // PR-4
	}
}

// ByName returns a catalog graph by its paper name.
func ByName(name string) *Graph {
	for _, g := range append(BCInputs(), PRInputs()...) {
		if g.Name == name {
			return g
		}
	}
	return nil
}
