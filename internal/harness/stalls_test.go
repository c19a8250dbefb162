package harness

import (
	"strings"
	"testing"

	"rats/internal/workloads"
)

func TestStallSweep(t *testing.T) {
	entry := workloads.ByName("H")
	if entry == nil {
		t.Fatal("workload H missing")
	}
	rows, err := StallSweep(*entry, workloads.Test, ConfigOrder, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ConfigOrder) {
		t.Fatalf("got %d rows for %d configs", len(rows), len(ConfigOrder))
	}
	anyStall := false
	for i, row := range rows {
		if row.Config != ConfigOrder[i] {
			t.Errorf("row %d config %q, want %q", i, row.Config, ConfigOrder[i])
		}
		if row.Cycles <= 0 {
			t.Errorf("%s: no cycles recorded", row.Config)
		}
		for _, v := range row.Totals {
			if v < 0 {
				t.Errorf("%s: negative stall total", row.Config)
			}
			if v > 0 {
				anyStall = true
			}
		}
	}
	if !anyStall {
		t.Error("sweep recorded zero stalls across all configs")
	}
	out := RenderStallSweep(entry.Name, rows)
	for _, want := range []string{"GD0", "DDR", "memory", "consistency"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered sweep missing %q", want)
		}
	}
}

func TestStallSweepUnknownConfig(t *testing.T) {
	entry := workloads.ByName("H")
	if _, err := StallSweep(*entry, workloads.Test, []string{"XXX"}, nil); err == nil {
		t.Error("expected error for unknown config")
	}
}
