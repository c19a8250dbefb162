// Package telemetry is the semantics engine's instrumentation layer: an
// atomic-counter block per program check, threaded through the POR
// enumerator, the streaming race-classification pipeline, and the state
// engine, with the same zero-overhead-when-disabled contract the probe
// hub gives the timing simulator. A nil *Check (the disabled mode) folds
// every counter method into one predictable nil-check branch, so the hot
// enumeration loops pay nothing when nobody is watching; an enabled
// check is a handful of uncontended atomic adds per execution.
//
// Counters split into two classes. The deterministic ones — executions
// enumerated, transitions taken, sleep-set skips, memo hits, race pairs,
// SC results, budget fraction — are pure functions of the explored
// search tree, identical across worker counts and runs; Record exposes
// exactly that subset for byte-identical JSONL telemetry artifacts.
// Scheduling-dependent ones — per-worker analyzed counts, pool recycle
// rates, union-merge input sizes — live only in Snapshot, the live
// /checks view.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"rats/internal/rtrace"
)

// CheckState is one check's lifecycle state.
type CheckState uint8

const (
	// StateRunning: the check is enumerating/analyzing.
	StateRunning CheckState = iota
	// StateDone: the verdict was produced.
	StateDone
	// StateLimit: the execution budget tripped (ErrLimit).
	StateLimit
	// StateStopped: enumeration was stopped early (ErrStop/cancellation).
	StateStopped
	// StateFailed: the check returned a non-limit error.
	StateFailed

	// NumCheckStates bounds the enum for drift tests and array indexing.
	NumCheckStates = 5
)

func (s CheckState) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateLimit:
		return "limit"
	case StateStopped:
		return "stopped"
	case StateFailed:
		return "failed"
	}
	return "?"
}

// Check is one program check's live counter block. All methods are safe
// on a nil receiver (the disabled mode) and for concurrent use: the
// check's goroutine updates it while HTTP snapshotters read it.
type Check struct {
	program string
	model   string

	// suiteWorker is the suite-level worker that ran this check (-1
	// until attributed); it lets a -j N run show which CLI worker owned
	// which program.
	suiteWorker atomic.Int64

	clock func() time.Time

	state     atomic.Int32
	limit     atomic.Int64
	startNS   atomic.Int64 // wall-clock start, unix nanos (0 = not begun)
	elapsedNS atomic.Int64 // frozen by Finish; 0 while running

	enumerated  atomic.Int64 // executions recorded by the enumerator
	transitions atomic.Int64 // DFS transitions walked (enumerator and state-engine moves; see AddEnumerated)
	sleepSkips  atomic.Int64 // transitions suppressed by the sleep set
	memoHits    atomic.Int64 // state-engine moves into memoized states
	analyzed    atomic.Int64 // executions classified by Analyze workers
	recycled    atomic.Int64 // executions refilled from Recycle
	allocated   atomic.Int64 // executions freshly allocated
	racePairs   atomic.Int64 // distinct racy pairs in the final verdict
	mergedRaces atomic.Int64 // union-merge inputs (sum of shard set sizes)
	scResults   atomic.Int64 // distinct final memory states

	// Solver counter block (Mode: solve checks only; zero otherwise).
	solveDecisions    atomic.Int64 // branching points: states/pairs with >1 choice
	solvePropagations atomic.Int64 // forced moves + statically implied pairs
	solveConflicts    atomic.Int64 // memo hits + statically refuted candidates
	solveLearned      atomic.Int64 // distinct states memoized

	mu       sync.Mutex
	workers  []*Worker
	onFinish func(*Check)
	traceID  string

	// span is the request-trace span covering the current enumeration
	// phase, if any. The engine reads it through the Check pointer the
	// options already carry, so linking a trace never widens EnumOptions
	// or the enumerator's hot search state (whose field offsets are
	// layout-sensitive; see the enumerator struct comment in exec.go).
	span atomic.Pointer[rtrace.Span]
}

// NewCheck builds a standalone (unregistered) check. Registry.NewCheck
// is the usual constructor; this one serves tests and one-off checks.
func NewCheck(program, model string) *Check {
	c := &Check{program: program, model: model}
	c.suiteWorker.Store(-1)
	return c
}

// Program returns the checked program's name ("" on nil).
func (c *Check) Program() string {
	if c == nil {
		return ""
	}
	return c.program
}

// Model returns the model the program was checked under ("" on nil).
func (c *Check) Model() string {
	if c == nil {
		return ""
	}
	return c.model
}

// SetClock overrides the wall clock (deterministic tests and goldens).
func (c *Check) SetClock(fn func() time.Time) {
	if c != nil {
		c.clock = fn
	}
}

// SetTraceID links the check to a request trace, so metric exemplars and
// /checks rows can point back at the trace that produced them.
func (c *Check) SetTraceID(id string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.traceID = id
	c.mu.Unlock()
}

// TraceID returns the linked request trace ID ("" on nil or unlinked).
func (c *Check) TraceID() string {
	if c == nil {
		return ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.traceID
}

// SetSpan links (or, with nil, unlinks) the request-trace span covering
// the check's current enumeration phase. While linked, the enumerator
// emits a telemetry-fed "enumerated" summary event onto it at the end of
// each walk. The caller owns the span's lifetime: unlink before ending
// it.
func (c *Check) SetSpan(sp *rtrace.Span) {
	if c != nil {
		c.span.Store(sp)
	}
}

// Span returns the linked enumeration span (nil on a nil receiver or
// when no trace is linked).
func (c *Check) Span() *rtrace.Span {
	if c == nil {
		return nil
	}
	return c.span.Load()
}

// SetSuiteWorker attributes the check to a suite-level worker index.
func (c *Check) SetSuiteWorker(i int) {
	if c != nil {
		c.suiteWorker.Store(int64(i))
	}
}

func (c *Check) now() time.Time {
	if c.clock != nil {
		return c.clock()
	}
	return time.Now()
}

// Begin marks the check running with its execution budget and stamps the
// start time (first call wins).
func (c *Check) Begin(limit int64) {
	if c == nil {
		return
	}
	c.limit.Store(limit)
	c.state.Store(int32(StateRunning))
	c.startNS.CompareAndSwap(0, c.now().UnixNano())
}

// Finish freezes the elapsed time and moves the check to a terminal
// state. Only the first Finish takes effect.
func (c *Check) Finish(s CheckState) {
	if c == nil {
		return
	}
	if !c.state.CompareAndSwap(int32(StateRunning), int32(s)) {
		return
	}
	if start := c.startNS.Load(); start != 0 {
		c.elapsedNS.Store(c.now().UnixNano() - start)
	}
	c.mu.Lock()
	fn := c.onFinish
	c.mu.Unlock()
	if fn != nil {
		fn(c)
	}
}

// State returns the current lifecycle state (StateRunning on nil).
func (c *Check) State() CheckState {
	if c == nil {
		return StateRunning
	}
	return CheckState(c.state.Load())
}

// AddEnumerated counts n recorded executions. The enumerator passes each
// walked leaf's weight: a quantum access that reads into no register
// walks one load choice for all of them, so a check can count more
// executions than it walks transitions. The state engine passes 1.
func (c *Check) AddEnumerated(n int64) {
	if c != nil && n != 0 {
		c.enumerated.Add(n)
	}
}

// AddTransitions folds in a locally counted run of transitions. The
// enumerator's hot loops count into plain fields and flush once per walk
// (or at a budget trip), so the per-transition cost is a register
// increment in both modes rather than a pointer load and branch.
func (c *Check) AddTransitions(n int64) {
	if c != nil && n != 0 {
		c.transitions.Add(n)
	}
}

// AddSleepSkips folds in a locally counted run of sleep-set skips,
// flushed with the transitions.
func (c *Check) AddSleepSkips(n int64) {
	if c != nil && n != 0 {
		c.sleepSkips.Add(n)
	}
}

// AddMemoHits counts state-engine memo hits: moves into an already
// memoized state, in the system model or the solver's phase 3.
func (c *Check) AddMemoHits(n int64) {
	if c != nil {
		c.memoHits.Add(n)
	}
}

// IncRecycled counts one execution refilled from the Recycle hook.
func (c *Check) IncRecycled() {
	if c != nil {
		c.recycled.Add(1)
	}
}

// IncAllocated counts one freshly allocated execution.
func (c *Check) IncAllocated() {
	if c != nil {
		c.allocated.Add(1)
	}
}

// SetUnion records the verdict union-merge outcome: distinct racy pairs,
// total shard-set entries merged, and distinct final memory states.
func (c *Check) SetUnion(racePairs, mergedRaces, scResults int64) {
	if c == nil {
		return
	}
	c.racePairs.Store(racePairs)
	c.mergedRaces.Store(mergedRaces)
	c.scResults.Store(scResults)
}

// AddSolve folds in the solve backend's counters: decisions (branching
// points with more than one choice), propagations (forced moves and
// statically implied race pairs), conflicts (memo hits and statically
// refuted candidate pairs), and learned (distinct states memoized). The
// solver is sequential and deterministic, so these land in Record and
// stay byte-identical across runs.
func (c *Check) AddSolve(decisions, propagations, conflicts, learned int64) {
	if c == nil {
		return
	}
	c.solveDecisions.Add(decisions)
	c.solvePropagations.Add(propagations)
	c.solveConflicts.Add(conflicts)
	c.solveLearned.Add(learned)
}

// Enumerated returns the live executions-recorded counter (0 on nil).
func (c *Check) Enumerated() int64 {
	if c == nil {
		return 0
	}
	return c.enumerated.Load()
}

// Worker registers one analysis worker's counter slot (nil on nil).
func (c *Check) Worker() *Worker {
	if c == nil {
		return nil
	}
	w := &Worker{c: c}
	c.mu.Lock()
	c.workers = append(c.workers, w)
	c.mu.Unlock()
	return w
}

// Worker is one analysis worker's private counters within a Check.
type Worker struct {
	c        *Check
	analyzed atomic.Int64
}

// IncAnalyzed counts one execution classified by this worker.
func (w *Worker) IncAnalyzed() {
	if w != nil {
		w.analyzed.Add(1)
		w.c.analyzed.Add(1)
	}
}

// WorkerSnapshot is one worker's share of the live snapshot.
type WorkerSnapshot struct {
	Analyzed int64 `json:"analyzed"`
	// IdleWaits is always 0: a check analyzes inline on the enumerating
	// goroutine, so no worker waits for executions. It stays for readers
	// of the /checks schema.
	IdleWaits int64 `json:"idle_waits"`
}

// Snapshot is the live, scheduling-dependent view of a Check: everything
// Record has plus wall-clock timing, pool recycle counts, union-merge
// input sizes, and per-worker attribution.
type Snapshot struct {
	Program           string           `json:"program"`
	Model             string           `json:"model"`
	State             string           `json:"state"`
	SuiteWorker       int64            `json:"suite_worker"`
	Limit             int64            `json:"limit"`
	Executions        int64            `json:"executions"`
	Transitions       int64            `json:"transitions"`
	SleepSkips        int64            `json:"sleep_skips"`
	PrunedPct         float64          `json:"pruned_pct"`
	MemoHits          int64            `json:"memo_hits"`
	Analyzed          int64            `json:"analyzed"`
	Recycled          int64            `json:"recycled"`
	Allocated         int64            `json:"allocated"`
	RacePairs         int64            `json:"race_pairs"`
	MergedRaces       int64            `json:"merged_races"`
	SCResults         int64            `json:"sc_results"`
	BudgetFraction    float64          `json:"budget_fraction"`
	SolveDecisions    int64            `json:"solve_decisions,omitempty"`
	SolvePropagations int64            `json:"solve_propagations,omitempty"`
	SolveConflicts    int64            `json:"solve_conflicts,omitempty"`
	SolveLearned      int64            `json:"solve_learned,omitempty"`
	StartedAt         string           `json:"started_at,omitempty"`
	ElapsedMs         float64          `json:"elapsed_ms"`
	ExecsPerSec       float64          `json:"execs_per_sec"`
	Workers           []WorkerSnapshot `json:"workers,omitempty"`
}

// Record is the deterministic subset of a finished check's counters:
// every field is a pure function of the explored search tree, so the
// JSON encoding is byte-identical across runs and worker counts. This is
// the -telemetry-out JSONL schema.
type Record struct {
	Program        string  `json:"program"`
	Model          string  `json:"model"`
	State          string  `json:"state"`
	Limit          int64   `json:"limit"`
	Executions     int64   `json:"executions"`
	Transitions    int64   `json:"transitions"`
	SleepSkips     int64   `json:"sleep_skips"`
	PrunedPct      float64 `json:"pruned_pct"`
	MemoHits       int64   `json:"memo_hits"`
	RacePairs      int64   `json:"race_pairs"`
	SCResults      int64   `json:"sc_results"`
	BudgetFraction float64 `json:"budget_fraction"`

	// Solver counters; omitempty keeps enumeration-mode records (and
	// their byte-identical JSONL goldens) unchanged.
	SolveDecisions    int64 `json:"solve_decisions,omitempty"`
	SolvePropagations int64 `json:"solve_propagations,omitempty"`
	SolveConflicts    int64 `json:"solve_conflicts,omitempty"`
	SolveLearned      int64 `json:"solve_learned,omitempty"`
}

// prunedPct is the share of candidate transitions the sleep set
// suppressed, in percent.
func prunedPct(skips, taken int64) float64 {
	if skips+taken == 0 {
		return 0
	}
	return 100 * float64(skips) / float64(skips+taken)
}

func budgetFraction(enumerated, limit int64) float64 {
	if limit <= 0 {
		return 0
	}
	return float64(enumerated) / float64(limit)
}

// Record returns the deterministic counter subset (zero value on nil).
func (c *Check) Record() Record {
	if c == nil {
		return Record{}
	}
	enum := c.enumerated.Load()
	skips, taken := c.sleepSkips.Load(), c.transitions.Load()
	return Record{
		Program:        c.program,
		Model:          c.model,
		State:          c.State().String(),
		Limit:          c.limit.Load(),
		Executions:     enum,
		Transitions:    taken,
		SleepSkips:     skips,
		PrunedPct:      prunedPct(skips, taken),
		MemoHits:       c.memoHits.Load(),
		RacePairs:      c.racePairs.Load(),
		SCResults:      c.scResults.Load(),
		BudgetFraction: budgetFraction(enum, c.limit.Load()),

		SolveDecisions:    c.solveDecisions.Load(),
		SolvePropagations: c.solvePropagations.Load(),
		SolveConflicts:    c.solveConflicts.Load(),
		SolveLearned:      c.solveLearned.Load(),
	}
}

// Snapshot returns the full live view (zero value on nil).
func (c *Check) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	rec := c.Record()
	s := Snapshot{
		Program:        rec.Program,
		Model:          rec.Model,
		State:          rec.State,
		SuiteWorker:    c.suiteWorker.Load(),
		Limit:          rec.Limit,
		Executions:     rec.Executions,
		Transitions:    rec.Transitions,
		SleepSkips:     rec.SleepSkips,
		PrunedPct:      rec.PrunedPct,
		MemoHits:       rec.MemoHits,
		Analyzed:       c.analyzed.Load(),
		Recycled:       c.recycled.Load(),
		Allocated:      c.allocated.Load(),
		RacePairs:      rec.RacePairs,
		MergedRaces:    c.mergedRaces.Load(),
		SCResults:      rec.SCResults,
		BudgetFraction: rec.BudgetFraction,

		SolveDecisions:    rec.SolveDecisions,
		SolvePropagations: rec.SolvePropagations,
		SolveConflicts:    rec.SolveConflicts,
		SolveLearned:      rec.SolveLearned,
	}
	if start := c.startNS.Load(); start != 0 {
		s.StartedAt = time.Unix(0, start).UTC().Format(time.RFC3339Nano)
		el := c.elapsedNS.Load()
		if el == 0 { // still running: live elapsed
			el = c.now().UnixNano() - start
		}
		if el < 0 {
			el = 0
		}
		s.ElapsedMs = float64(el) / 1e6
		if el > 0 {
			s.ExecsPerSec = float64(s.Executions) / (float64(el) / 1e9)
		}
	}
	c.mu.Lock()
	for _, w := range c.workers {
		s.Workers = append(s.Workers, WorkerSnapshot{
			Analyzed: w.analyzed.Load(),
		})
	}
	c.mu.Unlock()
	return s
}
