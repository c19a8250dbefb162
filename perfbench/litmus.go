package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"rats/internal/core"
	"rats/internal/harness"
	"rats/internal/litmus"
	"rats/internal/memmodel"
	"rats/internal/memmodel/telemetry"
	"rats/internal/rtrace"

	// Registers the constraint-solving backend behind Mode "solve".
	_ "rats/internal/memmodel/solve"
)

// catalogRef is the pinned `ratslitmus -diff` rendering of the whole
// catalog under DRF0, DRF1 and DRFrlx (regenerate with -pin).
//
//go:embed refs/litmus-catalog.diff
var catalogRef string

// solveRefJSON pins the verdict of every fixed litmus-solve program,
// rendered like diffText (regenerate with -pin).
//
//go:embed refs/litmus-solve.json
var solveRefJSON []byte

// diffText renders one verdict in the stable form `ratslitmus -diff`
// prints, locally and through ratsserve: name, model, legality, races
// and SC results, without the execution count.
func diffText(name, model string, legal bool, races map[string][]string, sc []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "case %s model %s\nlegal %v\n", name, model, legal)
	kinds := make([]string, 0, len(races))
	for k := range races {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		descs := append([]string(nil), races[k]...)
		sort.Strings(descs)
		for _, d := range descs {
			fmt.Fprintf(&b, "race %s: %s\n", k, d)
		}
	}
	sc = append([]string(nil), sc...)
	sort.Strings(sc)
	for _, r := range sc {
		fmt.Fprintf(&b, "sc %s\n", r)
	}
	b.WriteString("\n")
	return b.String()
}

func renderVerdict(name string, v *memmodel.Verdict) string {
	races := make(map[string][]string, len(v.Races))
	for k, descs := range v.Races {
		races[k.String()] = descs
	}
	sc := make([]string, 0, len(v.SCResults))
	for r := range v.SCResults {
		sc = append(sc, r)
	}
	return diffText(name, v.Model.String(), v.Legal, races, sc)
}

// checkCounts accumulates the exact telemetry of traced checks.
type checkCounts struct {
	checks, executions, transitions, sleepSkips int64
	workers, idleWaits, sysMemoHits             int64
	sysMs                                       float64
	decisions, propagations, conflicts, learned int64
	searched                                    int64 // solve checks whose phase 2 ran
}

func (c *checkCounts) add(tel *telemetry.Check) {
	r := tel.Record()
	s := tel.Snapshot()
	c.checks++
	c.executions += r.Executions
	c.transitions += r.Transitions
	c.sleepSkips += r.SleepSkips
	c.decisions += r.SolveDecisions
	c.propagations += r.SolvePropagations
	c.conflicts += r.SolveConflicts
	c.learned += r.SolveLearned
	c.workers += int64(len(s.Workers))
	for _, w := range s.Workers {
		c.idleWaits += w.IdleWaits
	}
}

// --- litmus-catalog ---------------------------------------------------

type catalogBench struct {
	cfg    config
	suite  []litmus.Case
	tr     *opTracer
	counts checkCounts
}

// catalogPass is one op's output: a verdict per (case, model) and a
// theorem report per case.
type catalogPass struct {
	verdicts [][]*memmodel.Verdict
	reports  []*memmodel.TheoremReport
}

func setupCatalog(cfg config) (bench, error) {
	c := &catalogBench{cfg: cfg, suite: litmus.Suite(), tr: newOpTracer(cfg.traced)}
	if catalogRef == "" {
		return nil, fmt.Errorf("empty catalog reference")
	}
	out, err := c.pass()
	if err == nil {
		err = c.verify(out)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	return c, nil
}

// pass is the op: what `ratslitmus -j 1` does by default — the shipped
// harness.LitmusSweep with one worker and default CheckOptions, which
// checks every case under DRF0, DRF1 and DRFrlx and then validates
// Theorem 3.1, one case at a time.
func (c *catalogBench) pass() (*catalogPass, error) {
	rs, err := harness.LitmusSweep(c.suite, harness.LitmusSweepOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	out := &catalogPass{}
	for _, r := range rs {
		out.verdicts = append(out.verdicts, r.Verdicts)
		out.reports = append(out.reports, r.Theorem)
	}
	return out, nil
}

// tracedPass is the traced run's op. LitmusSweep hands one CheckOptions to
// all of a case's checks, so it cannot give each checker call a phase of
// its own; tracedPass repeats the sweep's per-case loop with a phase per
// call as the checker's span parent, plus a telemetry block.
func (c *catalogBench) tracedPass(tr *rtrace.Trace) (*catalogPass, error) {
	out := &catalogPass{}
	for _, tc := range c.suite {
		var vs []*memmodel.Verdict
		for _, m := range core.Models() {
			opts := memmodel.CheckOptions{
				Span:      tr.Phase("memmodel.check"),
				Telemetry: telemetry.NewCheck(tc.Prog.Name, m.String()),
			}
			opts.Span.SetAttr("program", tc.Prog.Name)
			opts.Span.SetAttr("model", m.String())
			v, err := memmodel.CheckProgramWith(tc.Prog, m, opts)
			if err != nil {
				return nil, err
			}
			c.counts.add(opts.Telemetry)
			vs = append(vs, v)
		}
		out.verdicts = append(out.verdicts, vs)
		opts := memmodel.CheckOptions{Span: tr.Phase("memmodel.theorem")}
		opts.Span.SetAttr("program", tc.Prog.Name)
		sysTel := telemetry.NewCheck(tc.Prog.Name, "system")
		rep, err := memmodel.ValidateTheoremWith(tc.Prog, opts, sysTel)
		if err != nil {
			return nil, err
		}
		c.counts.sysMemoHits += sysTel.Record().MemoHits
		c.counts.sysMs += sysTel.Snapshot().ElapsedMs
		out.reports = append(out.reports, rep)
	}
	return out, nil
}

// verify checks a pass against the catalog's expected legality, Theorem
// 3.1, and the pinned -diff rendering.
func (c *catalogBench) verify(p *catalogPass) error {
	var b strings.Builder
	for i, tc := range c.suite {
		for mi, v := range p.verdicts[i] {
			if v.Legal != tc.Legal[mi] {
				return fmt.Errorf("%s under %s: legal=%v, catalog expects %v", tc.Prog.Name, v.Model, v.Legal, tc.Legal[mi])
			}
			b.WriteString(renderVerdict(tc.Prog.Name, v))
		}
		if rep := p.reports[i]; rep.Legal && !rep.SystemSC {
			return fmt.Errorf("%s: Theorem 3.1 violated: %v", tc.Prog.Name, rep.NonSCResults)
		}
	}
	if b.String() != catalogRef {
		return fmt.Errorf("catalog verdicts differ from the pinned -diff rendering")
	}
	return nil
}

func (c *catalogBench) measure(d time.Duration, minOps int) (*measurement, error) {
	return measureSerial(d, minOps, func() (func() error, error) {
		var p *catalogPass
		var err error
		if c.tr == nil {
			p, err = c.pass()
		} else {
			tr := c.tr.start("catalog-pass")
			p, err = c.tracedPass(tr)
			c.tr.finish(tr)
		}
		return func() error { return c.verify(p) }, err
	})
}

// measureSerial runs op back to back for at least d and until minOps
// succeeded. An op's latency covers the op alone: the verification
// function it returns runs after the clock stops.
func measureSerial(d time.Duration, minOps int, op func() (func() error, error)) (*measurement, error) {
	m := &measurement{}
	var spans []opSpan
	start := time.Now()
	for {
		s := time.Since(start)
		verify, err := op()
		e := time.Since(start)
		if err == nil {
			err = verify()
		}
		m.attempted++
		if err != nil {
			m.failed++
			fmt.Fprintln(os.Stderr, "perfbench: failed op:", err)
		} else {
			m.latMs = append(m.latMs, float64(e-s)/1e6)
			spans = append(spans, opSpan{s, e})
		}
		if el := time.Since(start); el >= d && (len(m.latMs) >= minOps || el >= giveUp*d) {
			m.blockRates = blockRates(spans, el, rateBlocks)
			return m, nil
		}
	}
}

func (c *catalogBench) layers(m *measurement) (map[string]float64, error) {
	out := map[string]float64{}
	bucket := func(path []string) string {
		switch {
		case path[0] == "memmodel.theorem":
			return "memmodel.theorem"
		case len(path) == 1:
			return "memmodel.check_ms"
		case path[1] == "analyze.worker":
			return "memmodel.analyze_ms"
		case path[1] == "merge":
			return "memmodel.merge_ms"
		}
		return "memmodel.enumerate_ms"
	}
	if err := finishLayers(c.cfg, "litmus-catalog", c.tr.traces, bucket, m, out); err != nil {
		return nil, err
	}
	ops := float64(len(m.latMs))
	out["memmodel.system_ms"] = c.counts.sysMs / ops
	out["memmodel.theorem_recheck_ms"] = out["memmodel.theorem"] - out["memmodel.system_ms"]
	delete(out, "memmodel.theorem")
	checkMs := out["memmodel.check_ms"] + out["memmodel.enumerate_ms"] + out["memmodel.analyze_ms"] + out["memmodel.merge_ms"]
	c.counts.fillEnumerate(out, ops, checkMs)
	return out, nil
}

// fillEnumerate writes the enumeration pipeline's counters, per op.
func (c *checkCounts) fillEnumerate(out map[string]float64, ops, checkMs float64) {
	out["memmodel.executions"] = float64(c.executions) / ops
	out["memmodel.transitions"] = float64(c.transitions) / ops
	if c.sleepSkips+c.transitions > 0 {
		out["memmodel.pruned_pct"] = 100 * float64(c.sleepSkips) / float64(c.sleepSkips+c.transitions)
	}
	if c.executions > 0 {
		out["memmodel.us_per_exec"] = checkMs * 1e3 * ops / float64(c.executions)
	}
	if c.checks > 0 {
		out["memmodel.analysis_workers"] = float64(c.workers) / float64(c.checks)
	}
	out["memmodel.idle_waits"] = float64(c.idleWaits) / ops
	out["memmodel.system_memo_hits"] = float64(c.sysMemoHits) / ops
}

// fillSolve writes the solver's counters, per op. In solve mode the
// enumerator runs only as phase 2, so its execution count is
// solve.search_execs.
func (c *checkCounts) fillSolve(out map[string]float64, ops float64) {
	out["solve.search_execs"] = float64(c.executions) / ops
	if c.checks > 0 {
		out["solve.search_share"] = float64(c.searched) / float64(c.checks)
	}
	out["solve.decisions"] = float64(c.decisions) / ops
	out["solve.propagations"] = float64(c.propagations) / ops
	out["solve.conflicts"] = float64(c.conflicts) / ops
	out["solve.learned"] = float64(c.learned) / ops
}

func (c *catalogBench) peakRSSMB() (float64, error) { return selfRSSMB() }
func (c *catalogBench) close() error                { return nil }

// --- litmus-solve -----------------------------------------------------

// solveProg is one litmus-solve check: a program, the model it is
// checked under, and its reference rendering.
type solveProg struct {
	prog  *litmus.Program
	model core.Model
	want  string
}

func (s solveProg) key() string { return s.prog.Name + "@" + s.model.String() }

type solveBench struct {
	cfg    config
	progs  []solveProg
	tr     *opTracer
	counts checkCounts
}

func setupSolve(cfg config) (bench, error) {
	var refs map[string]string
	if err := json.Unmarshal(solveRefJSON, &refs); err != nil {
		return nil, fmt.Errorf("litmus-solve references: %w", err)
	}
	progs, err := solvePrograms(cfg.seed, refs)
	if err != nil {
		return nil, err
	}
	s := &solveBench{cfg: cfg, progs: progs, tr: newOpTracer(cfg.traced)}
	vs, err := s.pass(nil)
	if err == nil {
		err = s.verify(vs)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	return s, nil
}

// solvePrograms assembles the litmus-solve pass: the fixed programs with
// their pinned references, then the seeded ones with their analytic
// references.
func solvePrograms(seed int64, refs map[string]string) ([]solveProg, error) {
	var out []solveProg
	for _, f := range fixedSolvePrograms() {
		want, ok := refs[f.key()]
		if !ok {
			return nil, fmt.Errorf("litmus-solve: no pinned reference for %s", f.key())
		}
		f.want = want
		out = append(out, f)
	}
	return append(out, seededSolvePrograms(seed)...), nil
}

// pass is the op: every program checked once with Mode solve. A traced
// pass opens a phase per check, parenting the solver's static/search/
// states spans, and attaches a telemetry block.
func (s *solveBench) pass(tr *rtrace.Trace) ([]*memmodel.Verdict, error) {
	vs := make([]*memmodel.Verdict, 0, len(s.progs))
	for _, sp := range s.progs {
		opts := memmodel.CheckOptions{Mode: memmodel.ModeSolve}
		if tr != nil {
			opts.Span = tr.Phase("solve.check")
			opts.Span.SetAttr("program", sp.key())
			opts.Telemetry = telemetry.NewCheck(sp.prog.Name, sp.model.String())
		}
		v, err := memmodel.CheckProgramWith(sp.prog, sp.model, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.key(), err)
		}
		if tr != nil {
			s.counts.add(opts.Telemetry)
			if opts.Telemetry.Record().Executions > 0 {
				s.counts.searched++
			}
		}
		vs = append(vs, v)
	}
	return vs, nil
}

// verify compares a pass's verdicts with their references.
func (s *solveBench) verify(vs []*memmodel.Verdict) error {
	for i, sp := range s.progs {
		if got := renderVerdict(sp.prog.Name, vs[i]); got != sp.want {
			return fmt.Errorf("%s: verdict differs from its reference:\n%s--- want ---\n%s", sp.key(), got, sp.want)
		}
	}
	return nil
}

func (s *solveBench) measure(d time.Duration, minOps int) (*measurement, error) {
	return measureSerial(d, minOps, func() (func() error, error) {
		tr := s.tr.start("solve-pass")
		vs, err := s.pass(tr)
		s.tr.finish(tr)
		return func() error { return s.verify(vs) }, err
	})
}

func (s *solveBench) layers(m *measurement) (map[string]float64, error) {
	out := map[string]float64{}
	bucket := func(path []string) string {
		if len(path) == 1 {
			return "solve.check_ms"
		}
		return path[1] + "_ms"
	}
	if err := finishLayers(s.cfg, "litmus-solve", s.tr.traces, bucket, m, out); err != nil {
		return nil, err
	}
	s.counts.fillSolve(out, float64(len(m.latMs)))
	return out, nil
}

func (s *solveBench) peakRSSMB() (float64, error) { return selfRSSMB() }
func (s *solveBench) close() error                { return nil }
