package system

import (
	"bytes"
	"errors"
	"testing"

	"rats/internal/core"
	"rats/internal/probe"
	"rats/internal/sim/memsys"
	"rats/internal/trace"
	"rats/internal/workloads"
)

// runSkip builds a machine, toggles cycle skipping, and runs the trace.
func runSkip(t *testing.T, cfg memsys.Config, tr *trace.Trace, skip bool) *Result {
	t.Helper()
	s := New(cfg)
	s.SetCycleSkipping(skip)
	if err := s.Load(tr); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSkipEquivalence pins the wake-hint contract: for every workload ×
// config in the tier-1 suite, a run with event-driven fast-forwarding
// produces bit-identical Stats (including the final cycle count) to a
// cycle-by-cycle run. The skip-off reference processes every cycle in
// full — any wake hint that wrongly skips a productive cycle diverges
// an architectural counter here.
func TestSkipEquivalence(t *testing.T) {
	for _, e := range workloads.All() {
		for cfgName, cfg := range allConfigs() {
			on := runSkip(t, cfg, e.Build(workloads.Test), true)
			off := runSkip(t, cfg, e.Build(workloads.Test), false)
			if on.Stats != off.Stats {
				t.Errorf("%s/%s: stats diverge with cycle skipping\non:  %+v\noff: %+v",
					e.Name, cfgName, on.Stats, off.Stats)
			}
			if on.Stats.Cycles != off.Stats.Cycles {
				t.Errorf("%s/%s: final cycle %d (skip) vs %d (reference)",
					e.Name, cfgName, on.Stats.Cycles, off.Stats.Cycles)
			}
		}
	}
}

// TestSkipEquivalenceUnderFaults repeats the equivalence check with the
// full metamorphic fault spec active: same seed must mean the same
// perturbations, timings, and tallies whether or not idle cycles are
// fast-forwarded (the injector's PRNG is consumed only at processed
// cycles, and its pressure windows are pure functions of the cycle).
func TestSkipEquivalenceUnderFaults(t *testing.T) {
	configs := map[string]memsys.Config{
		"GPU/DRF0":    memsys.Default(memsys.ProtoGPU, core.DRF0),
		"DeNovo/DRF1": memsys.Default(memsys.ProtoDeNovo, core.DRF1),
	}
	for _, e := range workloads.Micro() {
		for cfgName, base := range configs {
			for seed := int64(1); seed <= 2; seed++ {
				cfg := base
				cfg.Faults = mustSpec(t, metamorphicSpec)
				cfg.FaultSeed = seed

				onSys := New(cfg)
				if err := onSys.Load(e.Build(workloads.Test)); err != nil {
					t.Fatal(err)
				}
				on, err := onSys.Run()
				if err != nil {
					t.Fatalf("%s/%s seed %d on: %v", e.Name, cfgName, seed, err)
				}

				offSys := New(cfg)
				offSys.SetCycleSkipping(false)
				if err := offSys.Load(e.Build(workloads.Test)); err != nil {
					t.Fatal(err)
				}
				off, err := offSys.Run()
				if err != nil {
					t.Fatalf("%s/%s seed %d off: %v", e.Name, cfgName, seed, err)
				}

				if on.Stats != off.Stats {
					t.Errorf("%s/%s seed %d: faulted stats diverge with cycle skipping\non:  %+v\noff: %+v",
						e.Name, cfgName, seed, on.Stats, off.Stats)
				}
				onCounts, _ := onSys.FaultCounts()
				offCounts, _ := offSys.FaultCounts()
				if onCounts != offCounts {
					t.Errorf("%s/%s seed %d: fault tallies diverge\non:  %+v\noff: %+v",
						e.Name, cfgName, seed, onCounts, offCounts)
				}
			}
		}
	}
}

// TestSkipEquivalenceWedgedWatchdog asserts failure timelines match too:
// a wedged run trips the liveness watchdog at the identical cycle in
// both modes, with identical counters and wedge tallies. A wedged warp
// keeps its CU's wake hint hot from the wedge's onset on, so the hold
// count covers every cycle the reference polls it; the mid-run onsets
// catch a hint that jumps over the onset (a warp idle on a consistency
// gate or a release flush is not otherwise hot).
func TestSkipEquivalenceWedgedWatchdog(t *testing.T) {
	cfgs := allConfigs()
	for _, tc := range []struct {
		workload, config, wedge string
	}{
		{"", "GD0", "wedge:warp=1,from=0"}, // barrierTrace
		{"UTS", "GD0", "wedge:warp=0,from=500"},
		{"UTS", "GD0", "wedge:warp=0,from=2000"},
		{"UTS", "DD1", "wedge:warp=0,from=500"}, // onset during a release flush
		{"PR-1", "GD1", "wedge:warp=1,from=500"},
		{"PR-1", "GD1", "wedge:warp=0,from=5000"},
		{"PR-1", "DD1", "wedge:warp=7,from=2000"},
		{"RC", "DDR", "wedge:warp=1,from=2000"},
	} {
		name := tc.workload + "/" + tc.config + "/" + tc.wedge
		run := func(skip bool) (*System, *DiagnosticError) {
			cfg := cfgs[tc.config]
			cfg.Faults = mustSpec(t, tc.wedge)
			cfg.FaultSeed = 1
			cfg.WatchdogWindow = 5000
			s := New(cfg)
			s.SetCycleSkipping(skip)
			tr := barrierTrace()
			if tc.workload != "" {
				tr = workloads.ByName(tc.workload).Build(workloads.Test)
			}
			if err := s.Load(tr); err != nil {
				t.Fatal(err)
			}
			_, err := s.Run()
			var diag *DiagnosticError
			if !errors.As(err, &diag) {
				t.Fatalf("%s (skip=%v): expected *DiagnosticError, got %v", name, skip, err)
			}
			return s, diag
		}
		onSys, on := run(true)
		offSys, off := run(false)
		if on.Cycle != off.Cycle {
			t.Errorf("%s: watchdog fired at cycle %d (skip) vs %d (reference)", name, on.Cycle, off.Cycle)
		}
		if on.RetiredOps != off.RetiredOps {
			t.Errorf("%s: retired ops at failure: %d (skip) vs %d (reference)", name, on.RetiredOps, off.RetiredOps)
		}
		if *onSys.mem.Stats != *offSys.mem.Stats {
			t.Errorf("%s: stats at failure diverge\non:  %+v\noff: %+v", name, *onSys.mem.Stats, *offSys.mem.Stats)
		}
		onCounts, _ := onSys.FaultCounts()
		offCounts, _ := offSys.FaultCounts()
		if onCounts != offCounts {
			t.Errorf("%s: fault tallies diverge\non:  %+v\noff: %+v", name, onCounts, offCounts)
		}
	}
}

// TestSkipEquivalenceProbeStreams pins the event streams: a Chrome trace,
// the per-transaction span JSONL and the stall table are byte-identical
// with skipping on and off. Idle CUs tick through the cached shortcut
// without re-deriving stall reasons, so this guards the claim that those
// reasons cannot change while a CU sleeps. (Interval samples are left
// out: they land on the first processed cycle at or after each boundary,
// which legitimately differs between the modes.)
func TestSkipEquivalenceProbeStreams(t *testing.T) {
	cfgs := allConfigs()
	type streams struct{ chrome, spans, stalls string }
	run := func(cfg memsys.Config, tr *trace.Trace, skip bool) streams {
		var chrome, spans bytes.Buffer
		stalls := probe.NewStallSink()
		h := probe.NewHub()
		h.Attach(probe.NewChromeTrace(&chrome))
		h.Attach(probe.NewSpanWriter(&spans))
		h.Attach(stalls)
		s := New(cfg)
		s.SetCycleSkipping(skip)
		s.AttachProbe(h)
		if err := s.Load(tr); err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		return streams{chrome.String(), spans.String(), stalls.Table(res.Stats.Cycles)}
	}
	for _, wl := range []string{"H", "Flags", "RC", "SEQ"} {
		for _, cfgName := range []string{"GD0", "DDR"} {
			e := workloads.ByName(wl)
			on := run(cfgs[cfgName], e.Build(workloads.Test), true)
			off := run(cfgs[cfgName], e.Build(workloads.Test), false)
			if on.chrome != off.chrome {
				t.Errorf("%s/%s: Chrome trace differs with cycle skipping (%d vs %d bytes)",
					wl, cfgName, len(on.chrome), len(off.chrome))
			}
			if on.spans != off.spans {
				t.Errorf("%s/%s: span JSONL differs with cycle skipping (%d vs %d bytes)",
					wl, cfgName, len(on.spans), len(off.spans))
			}
			if on.stalls != off.stalls {
				t.Errorf("%s/%s: stall table differs with cycle skipping\non:\n%s\noff:\n%s",
					wl, cfgName, on.stalls, off.stalls)
			}
		}
	}
}
