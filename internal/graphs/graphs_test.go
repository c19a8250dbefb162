package graphs

import (
	"testing"
	"testing/quick"
)

func TestGeneratorsBasic(t *testing.T) {
	for _, g := range []*Graph{
		Road("r", 10, 1),
		FEM("f", 200, 6, 2),
		Hub("h", 200, 2, 0.2, 3),
		Uniform("u", 200, 4, 4),
	} {
		if g.N() == 0 || g.Edges() == 0 {
			t.Fatalf("%s degenerate: n=%d e=%d", g.Name, g.N(), g.Edges())
		}
		// Undirected representation: edge count is even.
		if g.Edges()%2 != 0 {
			t.Errorf("%s: odd arc count %d", g.Name, g.Edges())
		}
		// No isolated vertices (spine guarantee).
		for u, adj := range g.Adj {
			if len(adj) == 0 {
				t.Fatalf("%s: vertex %d isolated", g.Name, u)
			}
		}
		if g.MaxDegree() <= 0 {
			t.Errorf("%s: max degree %d", g.Name, g.MaxDegree())
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := Hub("h", 150, 2, 0.2, 7)
	b := Hub("h", 150, 2, 0.2, 7)
	if a.Edges() != b.Edges() {
		t.Fatal("same seed produced different graphs")
	}
	c := Hub("h", 150, 2, 0.2, 8)
	if a.Edges() == c.Edges() {
		t.Log("warning: different seeds coincided (possible but unlikely)")
	}
}

func TestStructuralContrast(t *testing.T) {
	road := Road("r", 20, 1)
	hub := Hub("h", 400, 3, 0.2, 2)
	// Road networks: low max degree. Hub matrices: dense rows.
	if road.MaxDegree() > 12 {
		t.Errorf("road max degree %d too high", road.MaxDegree())
	}
	if hub.MaxDegree() < 40 {
		t.Errorf("hub max degree %d too low", hub.MaxDegree())
	}
	// Road diameter (BFS depth) far exceeds the hub graph's.
	_, roadLevels := road.BFS(0)
	_, hubLevels := hub.BFS(0)
	if len(roadLevels) <= len(hubLevels) {
		t.Errorf("road BFS depth %d should exceed hub depth %d", len(roadLevels), len(hubLevels))
	}
}

func TestBFSLevelsConsistent(t *testing.T) {
	g := FEM("f", 300, 8, 5)
	level, levels := g.BFS(0)
	seen := 0
	for d, frontier := range levels {
		for _, v := range frontier {
			seen++
			if level[v] != d {
				t.Fatalf("vertex %d in frontier %d has level %d", v, d, level[v])
			}
		}
	}
	// Every reachable vertex appears exactly once.
	reachable := 0
	for _, l := range level {
		if l >= 0 {
			reachable++
		}
	}
	if seen != reachable {
		t.Fatalf("levels contain %d vertices, %d reachable", seen, reachable)
	}
	// BFS edge property: adjacent vertices differ by at most one level.
	for u := range g.Adj {
		for _, v := range g.Adj[u] {
			if level[u] >= 0 && level[v] >= 0 {
				d := level[u] - level[v]
				if d < -1 || d > 1 {
					t.Fatalf("edge (%d,%d) spans levels %d..%d", u, v, level[u], level[v])
				}
			}
		}
	}
}

// TestSigmaProperties: sigma[src] == 1; sigma[v] > 0 for reachable v;
// sigma[v] equals the sum of sigma over its shortest-path predecessors.
func TestSigmaProperties(t *testing.T) {
	f := func(seed int64) bool {
		g := Uniform("u", 60, 3, seed)
		level, _ := g.BFS(0)
		sigma := g.SigmaCounts(0)
		if sigma[0] != 1 {
			return false
		}
		for v := 0; v < g.N(); v++ {
			if level[v] < 0 {
				continue
			}
			if sigma[v] <= 0 {
				return false
			}
			if v == 0 {
				continue
			}
			var sum int64
			for u := 0; u < g.N(); u++ {
				for _, w := range g.Adj[u] {
					if int(w) == v && level[u] == level[v]-1 {
						sum += sigma[u]
					}
				}
			}
			if sum != sigma[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPageRankConservativeShape(t *testing.T) {
	g := Hub("h", 200, 2, 0.2, 3)
	ranks := g.PageRank(5)
	if len(ranks) != g.N() {
		t.Fatal("rank length wrong")
	}
	// Ranks are positive and hubs outrank leaves.
	maxDeg, maxV := 0, 0
	minDeg, minV := 1<<30, 0
	for v, adj := range g.Adj {
		if ranks[v] <= 0 {
			t.Fatalf("rank[%d] = %d", v, ranks[v])
		}
		if len(adj) > maxDeg {
			maxDeg, maxV = len(adj), v
		}
		if len(adj) < minDeg {
			minDeg, minV = len(adj), v
		}
	}
	if ranks[maxV] <= ranks[minV] {
		t.Errorf("hub rank %d not above leaf rank %d", ranks[maxV], ranks[minV])
	}
}

func TestCatalog(t *testing.T) {
	if len(BCInputs()) != 4 || len(PRInputs()) != 4 {
		t.Fatal("catalog sizes wrong")
	}
	for _, name := range []string{"rome99", "nasa1824", "ex33", "c-22", "c-37", "c-36", "ex3", "c-40"} {
		g := ByName(name)
		if g == nil {
			t.Fatalf("catalog missing %s", name)
		}
		if g.N() == 0 {
			t.Fatalf("%s empty", name)
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName(nope) should be nil")
	}
}
