package harness

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rats/internal/core"
	"rats/internal/sim/memsys"
	"rats/internal/workloads"
)

func TestConfigFor(t *testing.T) {
	for name, want := range map[string]memsys.Config{
		"GD0":             memsys.Default(memsys.ProtoGPU, core.DRF0),
		"GD1":             memsys.Default(memsys.ProtoGPU, core.DRF1),
		"GDR":             memsys.Default(memsys.ProtoGPU, core.DRFrlx),
		"DD0":             memsys.Default(memsys.ProtoDeNovo, core.DRF0),
		"DD1":             memsys.Default(memsys.ProtoDeNovo, core.DRF1),
		"DDR":             memsys.Default(memsys.ProtoDeNovo, core.DRFrlx),
		"discrete-DRF0":   memsys.Discrete(core.DRF0),
		"discrete-DRFrlx": memsys.Discrete(core.DRFrlx),
	} {
		cfg, err := ConfigFor(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(cfg, want) {
			t.Errorf("%s -> %v/%v, want %v/%v", name, cfg.Protocol, cfg.Model, want.Protocol, want.Model)
		}
	}
	for _, bad := range []string{"", "XX0", "GD9", "ZDR", "GD", "discrete-", "discrete-GD0"} {
		if _, err := ConfigFor(bad); err == nil {
			t.Errorf("ConfigFor(%q) should fail", bad)
		}
	}
}

func TestTablesRender(t *testing.T) {
	t2 := Table2()
	for _, want := range []string{"GPU CUs", "15", "32 KB", "4 MB", "128 entries", "4x4"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table2 missing %q:\n%s", want, t2)
		}
	}
	t3 := Table3()
	for _, want := range []string{"H", "HG-NO", "SEQ", "UTS", "BC-4", "PR-4", "rome99", "Quantum", "Speculative"} {
		if !strings.Contains(t3, want) {
			t.Errorf("Table3 missing %q", want)
		}
	}
	t4 := Table4()
	for _, want := range []string{"Avoid cache invalidations", "Overlap atomics", "DRFrlx"} {
		if !strings.Contains(t4, want) {
			t.Errorf("Table4 missing %q", want)
		}
	}
	if !strings.Contains(EnergyModelDescription(), "pJ") {
		t.Error("energy description wrong")
	}
}

func TestTable2LatencyRangesMatchPaper(t *testing.T) {
	// The paper's Table 2: L2 hit 29-61, remote L1 35-83, memory 197-261.
	// Our derived ranges must overlap those windows.
	cfg := memsys.Default(memsys.ProtoGPU, core.DRF0)
	checks := []struct {
		got   string
		loMax int64 // derived lower bound must be <= this
		hiMin int64 // derived upper bound must be >= this
	}{
		{l2Range(cfg), 35, 50},
		{remoteL1Range(cfg), 45, 60},
		{memRange(cfg), 200, 210},
	}
	for _, c := range checks {
		var lo, hi int64
		if _, err := sscan(c.got, &lo, &hi); err != nil {
			t.Fatalf("bad range %q: %v", c.got, err)
		}
		if lo > c.loMax || hi < c.hiMin {
			t.Errorf("range %q outside paper window (lo<=%d, hi>=%d)", c.got, c.loMax, c.hiMin)
		}
	}
}

// sscan parses "lo-hi cycles".
func sscan(s string, lo, hi *int64) (int, error) {
	return fmt.Sscanf(s, "%d-%d cycles", lo, hi)
}

func TestFigure1Shape(t *testing.T) {
	rows, err := Figure1(workloads.Test, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("Figure 1 has %d apps, want 9", len(rows))
	}
	byName := map[string]float64{}
	for _, r := range rows {
		if r.Speedup < 0.9 {
			t.Errorf("%s: relaxed atomics slowed the discrete GPU down: %.2fx", r.App, r.Speedup)
		}
		byName[r.App] = r.Speedup
	}
	// The paper's headline: the graph benchmarks benefit most; PageRank
	// is the extreme case.
	if byName["PageRank"] < 1.5 {
		t.Errorf("PageRank speedup %.2fx too small", byName["PageRank"])
	}
	if byName["PageRank"] <= byName["Flags"] || byName["BC"] <= byName["Flags"] {
		t.Error("graph benchmarks should outgain Flags on the discrete GPU")
	}
	out := RenderFigure1(rows)
	if !strings.Contains(out, "PageRank") || !strings.Contains(out, "#") {
		t.Error("Figure 1 render broken")
	}
}

func TestFigure3ShapeAndSummary(t *testing.T) {
	fig3, err := Figure3With(workloads.Test, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig3.Order) != 7 {
		t.Fatalf("Figure 3 rows: %d", len(fig3.Order))
	}
	norm := fig3.Time.Normalize("GD0")
	for _, wl := range fig3.Order {
		if v := norm.Get(wl, "GD0"); v != 1 {
			t.Errorf("%s GD0 normalized = %f", wl, v)
		}
		// Weakening the model never hurts by more than simulation noise
		// within a protocol (contention effects allowed, bounded).
		for _, proto := range []string{"G", "D"} {
			d0 := norm.Get(wl, proto+"D0")
			dr := norm.Get(wl, proto+"DR")
			if dr > d0*1.05 {
				t.Errorf("%s: %sDR (%.3f) much slower than %sD0 (%.3f)", wl, proto, dr, proto, d0)
			}
		}
	}
	fig4, err := Figure4With(workloads.Test, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig4.Order) != 9 {
		t.Fatalf("Figure 4 rows: %d", len(fig4.Order))
	}
	// BC and PR must show the paper's big DRF1 gains on GPU coherence.
	n4 := fig4.Time.Normalize("GD0")
	for _, wl := range []string{"BC-1", "PR-1"} {
		if g1 := n4.Get(wl, "GD1"); g1 > 0.95 {
			t.Errorf("%s GD1 = %.3f: missing the DRF1 reuse win", wl, g1)
		}
	}
	// UTS is insensitive to DRFrlx (unpaired atomics only).
	if d := n4.Get("UTS", "GDR") - n4.Get("UTS", "GD1"); d > 0.02 || d < -0.02 {
		t.Errorf("UTS GDR vs GD1 differs by %.3f; unpaired atomics should make DRFrlx a no-op", d)
	}

	s := Summarize(fig3, fig4)
	if s.MicroDRFrlxVsDRF0GPU <= 0 || s.MicroDRFrlxVsDRF0DeNovo <= 0 {
		t.Error("DRFrlx should reduce microbenchmark time on both protocols")
	}
	if s.DRF1TimeReduction[0] <= 0 || s.DRF1TimeReduction[1] <= 0 {
		t.Error("DRF1 should reduce time on both protocols")
	}
	if s.MaxDRF1ReductionBCPR[1] < 0.25 {
		t.Errorf("BC/PR max DRF1 reduction (DeNovo) = %.2f; paper reports up to 53%%", s.MaxDRF1ReductionBCPR[1])
	}
	if s.MaxDRFrlxReductionBCPR[0] < 0.15 {
		t.Errorf("BC/PR max DRFrlx reduction (GPU) = %.2f; paper reports up to 37%%", s.MaxDRFrlxReductionBCPR[0])
	}
	out := s.Render()
	if !strings.Contains(out, "paper:") {
		t.Error("summary render missing paper comparisons")
	}
	if !strings.Contains(fig3.Render(), "normalized") {
		t.Error("figure render missing normalization")
	}
}

func TestRunAllErrorPropagation(t *testing.T) {
	_, err := RunAllWith(workloads.Micro()[:1], workloads.Test, []string{"BOGUS"}, nil)
	if err == nil {
		t.Fatal("bogus config should error")
	}
}

func TestEnergyBreakdownPopulated(t *testing.T) {
	fig3, err := Figure3With(workloads.Test, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range fig3.Order {
		for _, cfg := range ConfigOrder {
			if fig3.Energy.Total(wl, cfg) <= 0 {
				t.Errorf("energy cell %s/%s empty", wl, cfg)
			}
		}
	}
	out := fig3.Energy.Render("GD0")
	for _, comp := range EnergyComponents {
		if !strings.Contains(out, comp) {
			t.Errorf("energy render missing %s", comp)
		}
	}
}
