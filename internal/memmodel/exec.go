// Package memmodel implements the semantics half of the RAts paper: it
// enumerates the sequentially consistent executions of a litmus program
// (including the quantum-equivalent transformation of Section 3.4), builds
// the relations of Section 2.3/3.3 (program order, conflict order, so1,
// hb1, the program/conflict graph), detects the paper's five illegal race
// categories exactly as Listing 7's Herd model does (per enumerated
// execution, or with the constraint solver of solve.go), and provides a
// system-centric model of a straightforward DRFrlx machine for validating
// Theorem 3.1 on litmus tests.
package memmodel

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel/telemetry"
	"rats/internal/rtrace"
)

// Event is one dynamic memory operation of an execution. Branch markers
// are not events; their control dependencies are folded into the static
// dependency analysis.
type Event struct {
	// ID is the event's index, stable across executions of the same
	// program (events are numbered thread by thread, op by op).
	ID int
	// Thread is the issuing thread's index.
	Thread int
	// OpIndex is the op's index within its thread (including branches).
	OpIndex int
	// Op is the static operation.
	Op litmus.Op
	// Loaded is the value the event read (loads and RMWs).
	Loaded int64
	// Stored is the value the event wrote (stores and RMWs).
	Stored int64
	// TPos is the event's position in the SC total order T.
	TPos int
	// Randomized marks quantum events whose values were replaced by the
	// quantum transformation.
	Randomized bool
}

// Execution is one SC execution of a program: a total order plus the
// values transferred.
type Execution struct {
	Prog *litmus.Program
	// Events indexed by event ID.
	Events []Event
	// Order lists event IDs in SC total order.
	Order []int
	// RF maps each reading event to the writing event it read from, or -1
	// for the initial value. Randomized quantum reads map to -1.
	RF []int
	// Present[id] reports whether the event executed (guarded ops whose
	// guards failed are absent).
	Present []bool
	// Final is the memory state at the end of the execution — the
	// paper's "result of an execution" (Section 3.2.3).
	Final map[litmus.Loc]int64
	// Regs holds each thread's final register file.
	Regs [][]int64

	// key caches ResultKey; the enumerator fills it at record time from
	// the layout's presorted location order.
	key string
}

// ResultKey serializes the final memory state into a comparable string.
func (e *Execution) ResultKey() string {
	if e.key == "" {
		e.key = resultKey(e.Final)
	}
	return e.key
}

// resultKey serializes a final memory state: "loc=val;" segments sorted
// by location name.
func resultKey(final map[litmus.Loc]int64) string {
	locs := make([]string, 0, len(final))
	for l := range final {
		locs = append(locs, string(l))
	}
	sort.Strings(locs)
	b := make([]byte, 0, 16*len(locs))
	for _, l := range locs {
		b = append(b, l...)
		b = append(b, '=')
		b = strconv.AppendInt(b, final[litmus.Loc(l)], 10)
		b = append(b, ';')
	}
	return string(b)
}

// EnumOptions configures execution enumeration.
type EnumOptions struct {
	// Quantum applies the quantum transformation (Section 3.4.3): quantum
	// loads return arbitrary domain values, quantum stores write
	// arbitrary domain values.
	Quantum bool
	// Limit bounds the number of executions produced (0 = DefaultLimit).
	Limit int
	// Naive disables partial-order reduction, exploring every SC
	// interleaving. It is the reference semantics the reduced enumerator
	// is tested against; the analyses only need one representative per
	// Mazurkiewicz trace, which the default mode guarantees.
	Naive bool
	// Visit, when non-nil, streams each execution to the callback instead
	// of accumulating a slice: Enumerate returns (nil, err) and holds no
	// reference to delivered executions, so memory stays bounded by the
	// consumer. The callback owns its *Execution. Enumeration runs on the
	// calling goroutine, so Visit calls arrive one at a time in the
	// deterministic branch order.
	// Returning ErrStop stops enumeration cleanly (Enumerate returns nil
	// error); any other error aborts enumeration and is returned.
	Visit func(*Execution) error
	// Recycle, when non-nil, supplies previously released executions for
	// the enumerator to refill instead of allocating fresh ones — the
	// other half of the Visit streaming contract: once a consumer is done
	// with a delivered *Execution it may hand it back through this hook,
	// making the steady-state pipeline allocation-free. Returning nil
	// falls back to allocation; recycled executions must originate from
	// the same Enumerate call.
	Recycle func() *Execution
	// Telemetry, when non-nil, receives live engine counters: executions
	// recorded, DFS transitions taken, sleep-set skips, and recycle/
	// allocation events. A nil Check is the zero-overhead disabled mode
	// (every counter folds into one nil-check branch). A request-trace
	// span linked via Telemetry.SetSpan additionally receives
	// enumeration span events; it rides this pointer rather than a field
	// of its own so the disabled layout never changes.
	Telemetry *telemetry.Check
	// Ctx, when non-nil, cancels the search: the DFS polls the context at
	// bounded strides (every checkStride nodes), so a client
	// disconnect or deadline stops enumeration promptly instead of
	// exploring to exhaustion. A canceled search returns a *CancelError
	// wrapping the context's error, so errors.Is(err,
	// context.DeadlineExceeded) distinguishes deadlines from disconnects.
	Ctx context.Context
	// TransitionLimit, when positive, bounds the DFS transitions walked (a
	// work budget orthogonal to Limit's execution budget: it also caps
	// searches whose interleavings mostly dead-end before recording, and a
	// weighted op's skipped load choices take none of it). Enforced in
	// checkStride-sized strides, so the real cutoff overshoots by at most
	// checkStride transitions. Tripping it returns a *LimitError with
	// Phase "transitions".
	TransitionLimit int64

	// memo, when non-nil, is the checker's order memo, consulted at every
	// leaf after the execution is counted: an execution whose order the
	// memo has already seen is counted into the memo's shard and never
	// filled or delivered. It also weights the walk: a quantum access
	// that reads into no register (opInfo.weighted) takes only its first
	// load choice, and every leaf below it stands for one execution per
	// domain value, because the other choices would walk the same subtree
	// and repeat its orders.
	memo *orderMemo
}

// checkStride is how many DFS nodes the walk explores between
// cancellation/budget checkpoints. Small enough that a 100ms deadline is
// honored within well under a millisecond of search time, large enough
// that the checks vanish from profiles.
const checkStride = 256

// CancelError reports a search stopped by its context. It wraps the
// context's error, so errors.Is(err, context.Canceled) and errors.Is(err,
// context.DeadlineExceeded) both see through it.
type CancelError struct {
	// Prog is the program whose search was canceled.
	Prog string
	// Phase is the search that was canceled (mirrors LimitError.Phase).
	Phase string
	// Executions is the number of executions recorded before the stop.
	Executions int64
	// Elapsed is the wall-clock time spent searching before the stop.
	Elapsed time.Duration
	// Err is the context's error: context.Canceled or
	// context.DeadlineExceeded.
	Err error
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("memmodel: %s canceled (program %s: %d executions in %s): %v",
		e.Phase, e.Prog, e.Executions, e.Elapsed.Round(time.Millisecond), e.Err)
}

// Unwrap exposes the context error to errors.Is/As.
func (e *CancelError) Unwrap() error { return e.Err }

// DefaultLimit bounds enumeration to keep litmus tests tractable.
const DefaultLimit = 500_000

// ErrLimit is returned when enumeration exceeds its execution budget.
// Returned errors wrap it in a *LimitError carrying the trip diagnostics;
// match with errors.Is(err, ErrLimit) / errors.As(err, *LimitError).
var ErrLimit = fmt.Errorf("memmodel: execution limit exceeded")

// LimitError is the structured form of ErrLimit: it names the program,
// the budget, how far the search got before tripping, and — when the
// run was instrumented — the telemetry record at trip time, so an
// over-budget check is a diagnosis instead of a bare sentinel (the same
// pattern as the simulator's *DiagnosticError).
type LimitError struct {
	// Prog is the program whose enumeration tripped the budget.
	Prog string
	// Phase is the search that tripped: "enumeration" (SC executions of
	// the quantum-equivalent program) or "system model".
	Phase string
	// Limit is the execution budget that was exceeded.
	Limit int
	// Executions is the number of executions recorded before the trip.
	Executions int64
	// Elapsed is the wall-clock time spent searching before the trip.
	Elapsed time.Duration
	// Telemetry is the instrumentation record at trip time (nil when the
	// run was not instrumented).
	Telemetry *telemetry.Record
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("memmodel: execution limit exceeded (%s, limit %d, program %s: %d executions in %s)",
		e.Phase, e.Limit, e.Prog, e.Executions, e.Elapsed.Round(time.Millisecond))
}

// Unwrap keeps errors.Is(err, ErrLimit) working.
func (e *LimitError) Unwrap() error { return ErrLimit }

// newLimitError builds the structured budget error for one search.
func newLimitError(prog, phase string, limit int, execs int64, start time.Time, tel *telemetry.Check) *LimitError {
	le := &LimitError{
		Prog: prog, Phase: phase, Limit: limit,
		Executions: execs, Elapsed: time.Since(start),
	}
	if tel != nil {
		rec := tel.Record()
		le.Telemetry = &rec
	}
	return le
}

// ErrStop, returned by an EnumOptions.Visit callback, stops enumeration
// early without error: the walk unwinds and Enumerate returns (nil, nil).
var ErrStop = errors.New("memmodel: stop enumeration")

// eventLayout precomputes the static event numbering of a program.
type eventLayout struct {
	// id[t][i] is the event ID of thread t's op i, or -1 for branches.
	id [][]int
	// locID[t][i] is the location index of thread t's op i, or -1 for
	// branches. Indexes locs; the enumerator's memory and last-writer
	// state are slices over it instead of maps keyed by location name.
	locID [][]int
	// locs maps location indices back to names, in Locs() order.
	locs []litmus.Loc
	// n is the total number of events.
	n int
}

func layout(p *litmus.Program) eventLayout {
	var l eventLayout
	l.locs = p.Locs()
	idx := make(map[litmus.Loc]int, len(l.locs))
	for i, loc := range l.locs {
		idx[loc] = i
	}
	l.id = make([][]int, len(p.Threads))
	l.locID = make([][]int, len(p.Threads))
	for t, th := range p.Threads {
		l.id[t] = make([]int, len(th.Ops))
		l.locID[t] = make([]int, len(th.Ops))
		for i, op := range th.Ops {
			if op.IsBranch {
				l.id[t][i] = -1
				l.locID[t][i] = -1
				continue
			}
			l.id[t][i] = l.n
			l.locID[t][i] = idx[op.Loc]
			l.n++
		}
	}
	return l
}

// quantumDomain returns the value domain used for randomized quantum
// accesses: the program's explicit domain if set, otherwise every constant
// appearing in the program plus {0, 1}.
func quantumDomain(p *litmus.Program) []int64 {
	if len(p.QuantumDomain) > 0 {
		return append([]int64(nil), p.QuantumDomain...)
	}
	set := map[int64]bool{0: true, 1: true}
	for _, v := range p.Init {
		set[v] = true
	}
	for t := range p.Threads {
		ops := p.Threads[t].Ops
		for i := range ops {
			if ops[i].IsBranch {
				continue
			}
			set[ops[i].Operand.Const] = true
			set[ops[i].Expected.Const] = true
		}
	}
	out := make([]int64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// opInfo is one op's static summary for the enumerator's hot loops.
type opInfo struct {
	isBranch  bool
	hasGuards bool
	writes    bool
	reads     bool
	// quantum folds opts.Quantum into the op's class: the op takes
	// quantum value choices.
	quantum bool
	// weighted marks a quantum read with no destination register under
	// the order memo: its loaded value reaches only Event.Loaded, so
	// every load choice walks the same subtree, and exec walks the first
	// one for all of them.
	weighted bool
	dst      litmus.Reg
	loc      int // location index, -1 for branches
	id       int // event ID, -1 for branches
}

// newOpInfo summarizes op at location index loc with event ID id.
func newOpInfo(op *litmus.Op, quantum bool, loc, id int) opInfo {
	return opInfo{
		isBranch: op.IsBranch, hasGuards: len(op.Guards) > 0, writes: op.Writes(), reads: op.Reads(),
		quantum: quantum, dst: op.Dst, loc: loc, id: id,
	}
}

type enumerator struct {
	prog   *litmus.Program
	lay    eventLayout
	opts   EnumOptions
	domain []int64
	// por enables sleep-set partial-order reduction (off in Naive mode
	// and for programs with more threads than the sleep bitmask holds).
	por bool
	// count is the number of executions recorded so far; the walk errors
	// once it exceeds Limit.
	count int64
	// stop is the early-abort flag: set on Visit-requested stop, Visit
	// error, or a tripped budget, it makes the walk unwind promptly
	// instead of exploring to exhaustion.
	stop bool

	// proto holds the static Event fields (ID, thread, op, TPos=-1);
	// record copies it wholesale and fills in per-execution values.
	proto []Event
	// info caches the static per-op facts the DFS consults at every node
	// ([t][opIndex]), so the hot loops avoid copying the full Op struct
	// for each method call.
	info [][]opInfo

	// mutable search state
	pc      []int
	mem     []int64 // current value per location index
	lastW   []int   // event ID of last writer per location index, -1 init
	regs    [][]int64
	order   []int
	loaded  []int64
	stored  []int64
	rf      []int
	random  []bool
	present []bool
	// sleep is the sleep set of the node being explored: a bitmask of
	// threads whose next transition was already fully explored from an
	// equivalent sibling branch and is therefore redundant here.
	sleep uint64

	// keys renders result keys, interned per search.
	keys resultKeys

	execs []*Execution
	err   error

	// tel is the optional instrumentation block (nil when disabled);
	// start is the enumeration's wall-clock start, stamped once by
	// Enumerate for LimitError diagnostics. Both live at the end of the
	// struct so the disabled mode keeps the hot search state at the same
	// offsets as the uninstrumented layout.
	tel   *telemetry.Check
	start time.Time
	// transitions and sleepSkips are local shards of the hot-loop
	// counters, always incremented (a register add costs less than a
	// nil check per transition) and flushed into tel by flushTel once
	// per walk, or at a trip.
	transitions int64
	sleepSkips  int64
	// weight is how many executions a leaf reached by the current path
	// stands for: the product of the domain sizes of the weighted ops on
	// it (1 on walks without the order memo).
	weight int64

	// ctx and transLeft implement request-scoped cancellation and the
	// transition budget: every checkEvery DFS nodes the walk polls the
	// context and debits the budget by one checkStride. checkEvery is 0
	// when neither is configured, so an unscoped search pays one integer
	// compare per node and nothing else.
	ctx        context.Context
	transLeft  int64
	checkEvery int
	sinceCheck int
}

func newEnumerator(p *litmus.Program, opts EnumOptions) *enumerator {
	e := &enumerator{
		prog:      p,
		lay:       layout(p),
		opts:      opts,
		domain:    quantumDomain(p),
		por:       !opts.Naive && len(p.Threads) <= 64,
		tel:       opts.Telemetry,
		ctx:       opts.Ctx,
		transLeft: opts.TransitionLimit,
		pc:        make([]int, len(p.Threads)),
		order:     make([]int, 0, 16),
		weight:    1,
	}
	if e.ctx != nil || opts.TransitionLimit > 0 {
		e.checkEvery = checkStride
	}
	e.mem = make([]int64, len(e.lay.locs))
	e.lastW = make([]int, len(e.lay.locs))
	for i, l := range e.lay.locs {
		e.mem[i] = p.Init[l]
		e.lastW[i] = -1
	}
	e.regs = make([][]int64, len(p.Threads))
	for t, th := range p.Threads {
		e.regs[t] = make([]int64, th.NumRegs())
	}
	n := e.lay.n
	e.loaded = make([]int64, n)
	e.stored = make([]int64, n)
	e.rf = make([]int, n)
	e.random = make([]bool, n)
	e.present = make([]bool, n)
	e.proto = make([]Event, n)
	e.info = make([][]opInfo, len(p.Threads))
	for t, th := range p.Threads {
		e.info[t] = make([]opInfo, len(th.Ops))
		for i := range th.Ops {
			op := &th.Ops[i]
			inf := newOpInfo(op, opts.Quantum && op.Class == core.Quantum, e.lay.locID[t][i], e.lay.id[t][i])
			inf.weighted = opts.memo != nil && inf.quantum && inf.reads && inf.dst == litmus.NoReg
			e.info[t][i] = inf
			if id := e.lay.id[t][i]; id >= 0 {
				e.proto[id] = Event{ID: id, Thread: t, OpIndex: i, Op: *op, TPos: -1}
			}
		}
	}
	return e
}

// Enumerate produces the SC executions of the program (or of its
// quantum-equivalent program when opts.Quantum is set).
//
// By default it applies sleep-set partial-order reduction: the result
// contains at least one representative of every Mazurkiewicz trace
// (executions that differ only in the order of non-conflicting
// accesses), so the set of final states, reads-from choices, per-event
// values, and every relation the analyses derive (conflict order, so1,
// hb1, races — all functions of the total order restricted to
// conflicting pairs) are identical to the Naive enumeration; only the
// multiplicity of order-equivalent executions shrinks. Set opts.Naive to
// enumerate every interleaving. Either way the search is one DFS on the
// calling goroutine, which delivers executions to opts.Visit in branch
// order or, without Visit, collects them into the returned slice.
func Enumerate(p *litmus.Program, opts EnumOptions) ([]*Execution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.Limit == 0 {
		opts.Limit = DefaultLimit
	}
	if opts.Ctx != nil {
		if cerr := opts.Ctx.Err(); cerr != nil {
			return nil, &CancelError{Prog: p.Name, Phase: "enumeration", Err: cerr}
		}
	}
	e := newEnumerator(p, opts)
	e.start = time.Now()
	e.step()
	// A request trace linked via Telemetry.SetSpan gets one summary event
	// with the final counters (read before flushTel zeroes the local
	// shards). Reading the span off the telemetry block keeps EnumOptions
	// and the enumerator layout-identical to the untraced build — see the
	// tel field's struct comment.
	if sp := e.tel.Span(); sp != nil {
		sp.Event("enumerated",
			rtrace.Int("executions", e.count),
			rtrace.Int("transitions", e.transitions),
			rtrace.Int("sleep_skips", e.sleepSkips))
	}
	e.flushTel()
	if e.err != nil {
		return nil, e.err
	}
	return e.execs, nil
}

// flushTel folds the hot-loop counter shards into the telemetry block
// (no-op when disabled). Enumerate calls it once the walk ends; a trip
// calls it first, so the LimitError's record counts the whole walk.
func (e *enumerator) flushTel() {
	e.tel.AddTransitions(e.transitions)
	e.tel.AddSleepSkips(e.sleepSkips)
	e.transitions, e.sleepSkips = 0, 0
}

// filterSleep returns the sleeping threads that remain asleep after op
// executes: a sleeping thread's deferred transition stays redundant only
// while the transitions taken commute with it (Godefroid's sleep-set
// rule). Two ops are dependent exactly when they touch the same location
// and at least one writes; everything else commutes — threads' register
// files are disjoint, a thread's next visible op and its guard outcomes
// depend only on its own registers, and quantum value choices are
// order-independent.
func (e *enumerator) filterSleep(sleep uint64, inf *opInfo) uint64 {
	var out uint64
	for u := 0; sleep>>uint(u) != 0; u++ {
		if sleep&(1<<uint(u)) == 0 {
			continue
		}
		if e.pc[u] >= len(e.info[u]) {
			continue
		}
		uinf := &e.info[u][e.pc[u]]
		if uinf.loc != inf.loc || (!uinf.writes && !inf.writes) {
			out |= 1 << uint(u)
		}
	}
	return out
}

// checkpoint polls the cancellation context and debits the transition
// budget by one checkStride. Called every checkEvery DFS nodes, so
// detection lags the event by a bounded (and tiny) amount of search work.
// It reports whether the search may continue.
func (e *enumerator) checkpoint() bool {
	if e.ctx != nil {
		if cerr := e.ctx.Err(); cerr != nil {
			e.err = &CancelError{
				Prog: e.prog.Name, Phase: "enumeration",
				Executions: e.count, Elapsed: time.Since(e.start),
				Err: cerr,
			}
			e.stop = true
			return false
		}
	}
	if e.opts.TransitionLimit > 0 {
		e.transLeft -= checkStride
		if e.transLeft <= 0 {
			e.flushTel()
			e.err = newLimitError(e.prog.Name, "transitions",
				int(e.opts.TransitionLimit), e.count, e.start, e.tel)
			e.stop = true
			return false
		}
	}
	return true
}

// step is the DFS over interleavings (and quantum value choices).
func (e *enumerator) step() {
	if e.err != nil || e.stop {
		return
	}
	if e.checkEvery > 0 {
		e.sinceCheck++
		if e.sinceCheck >= e.checkEvery {
			e.sinceCheck = 0
			if !e.checkpoint() {
				return
			}
		}
	}
	done := true
	for t := range e.prog.Threads {
		if e.pc[t] < len(e.info[t]) {
			done = false
			inf := &e.info[t][e.pc[t]]
			// Consume branch markers and disabled guarded ops eagerly:
			// they are thread-local no-ops (guard values are fixed once
			// the thread reaches them) and must not multiply
			// interleavings.
			if inf.isBranch || (inf.hasGuards && !e.prog.Threads[t].Ops[e.pc[t]].GuardsHold(e.regs[t])) {
				e.pc[t]++
				e.step()
				e.pc[t]--
				return
			}
		}
	}
	if done {
		e.record()
		return
	}
	// Fan out over every runnable thread. With POR on, a thread in the
	// sleep set is skipped (its transition here only permutes
	// non-conflicting accesses of a branch already explored), each child
	// inherits the sleeping threads that commute with the chosen op, and
	// a fully explored thread joins the sleep set of its later siblings.
	// Every thread head is a visible op at this point: the skip phase
	// above consumed branch markers and disabled guarded ops, so the
	// independence checks in filterSleep see each thread's actual next
	// transition.
	entry := e.sleep
	sleep := e.sleep
	for t := range e.prog.Threads {
		if e.pc[t] >= len(e.info[t]) {
			continue
		}
		inf := &e.info[t][e.pc[t]]
		if inf.isBranch {
			continue // handled above; only one branch head processed per level
		}
		if e.por {
			if sleep&(1<<uint(t)) != 0 {
				e.sleepSkips++
				continue
			}
			e.sleep = e.filterSleep(sleep, inf)
		}
		e.exec(t, inf)
		if e.err != nil {
			return
		}
		if e.por {
			sleep |= 1 << uint(t)
		}
	}
	e.sleep = entry
}

// exec runs thread t's current op with all applicable value choices,
// recursing after each. A weighted op walks only its first load choice
// and multiplies the path's weight by the number of choices it stands
// for.
func (e *enumerator) exec(t int, inf *opInfo) {
	loadChoices, storeChoices := choices(inf, e.domain)
	weight := e.weight
	if inf.weighted {
		e.weight = weigh(weight, len(loadChoices), int64(e.opts.Limit))
		loadChoices = loadChoices[:1]
	}
	for _, lv := range loadChoices {
		for _, sv := range storeChoices {
			e.execOne(t, inf, lv, sv)
			if e.err != nil {
				return
			}
		}
	}
	e.weight = weight
}

// weigh multiplies a path weight by a weighted op's n load choices. It
// saturates just past limit, so a program with many weighted ops cannot
// overflow the weight: a leaf that heavy trips the limit at its exact
// weight too.
func weigh(w int64, n int, limit int64) int64 {
	if w > limit/int64(n) {
		return limit + 1
	}
	return w * int64(n)
}

// oneChoice is the value-choice list of non-quantum accesses (the value
// is ignored; the access reads/computes its real value).
var oneChoice = []int64{0}

// choices returns the quantum load/store value-choice lists for op.
func choices(inf *opInfo, domain []int64) (loads, stores []int64) {
	loads, stores = oneChoice, oneChoice
	if inf.quantum {
		if inf.reads {
			loads = domain
		}
		if inf.writes {
			stores = domain
		}
	}
	return loads, stores
}

func (e *enumerator) execOne(t int, inf *opInfo, qload, qstore int64) {
	e.transitions++
	id, loc := inf.id, inf.loc
	oldMem := e.mem[loc]
	oldLast := e.lastW[loc]
	var oldReg int64
	if inf.dst != litmus.NoReg {
		oldReg = e.regs[t][inf.dst]
	}

	// Perform the access.
	loaded := oldMem
	e.rf[id] = oldLast
	if inf.quantum && inf.reads {
		loaded = qload
		e.rf[id] = -1
	}
	e.loaded[id] = loaded
	e.random[id] = inf.quantum
	if inf.dst != litmus.NoReg {
		e.regs[t][inf.dst] = loaded
	}
	if inf.writes {
		var newVal int64
		if inf.quantum {
			newVal = qstore
		} else {
			op := &e.prog.Threads[t].Ops[e.pc[t]]
			operand := op.Operand.Eval(e.regs[t])
			expected := op.Expected.Eval(e.regs[t])
			newVal = op.AOp.Apply(oldMem, operand, expected)
		}
		e.mem[loc] = newVal
		e.lastW[loc] = id
		e.stored[id] = newVal
	}
	e.order = append(e.order, id)
	e.present[id] = true
	e.pc[t]++

	e.step()

	// Undo.
	e.pc[t]--
	e.present[id] = false
	e.order = e.order[:len(e.order)-1]
	if inf.writes {
		e.mem[loc] = oldMem
		e.lastW[loc] = oldLast
	}
	if inf.dst != litmus.NoReg {
		e.regs[t][inf.dst] = oldReg
	}
}

// record snapshots the completed execution and either streams it to the
// Visit callback or appends it to the materialized list. The leaf counts
// as weight executions, and Limit bounds their total. An execution whose
// order the memo has already seen is counted there instead: its races
// are those of the order's first execution, so only its SC result is
// needed.
func (e *enumerator) record() {
	limit := int64(e.opts.Limit)
	before := e.count
	e.count += e.weight
	if e.count > limit {
		// A weighted leaf that crosses the limit counts up to it, so the
		// trip reports the same executions as an unweighted walk.
		at := max(before, limit)
		e.tel.AddEnumerated(at - before)
		e.flushTel() // fold the shards into the trip-time snapshot
		e.err = newLimitError(e.prog.Name, "enumeration", e.opts.Limit, at, e.start, e.tel)
		e.stop = true
		return
	}
	e.tel.AddEnumerated(e.weight)
	key := e.keys.of(e.lay.locs, e.mem)
	if e.opts.memo.repeat(e.order, key, e.weight) {
		return
	}
	var ex *Execution
	if e.opts.Recycle != nil {
		ex = e.opts.Recycle()
	}
	if ex != nil {
		e.tel.IncRecycled()
	} else {
		e.tel.IncAllocated()
		ex = &Execution{
			Events:  make([]Event, e.lay.n),
			Order:   make([]int, 0, len(e.order)),
			RF:      make([]int, e.lay.n),
			Present: make([]bool, e.lay.n),
			Final:   make(map[litmus.Loc]int64, len(e.lay.locs)),
			Regs:    make([][]int64, len(e.regs)),
		}
		for t := range e.regs {
			ex.Regs[t] = make([]int64, len(e.regs[t]))
		}
	}
	ex.Prog = e.prog
	ex.Order = append(ex.Order[:0], e.order...)
	copy(ex.RF, e.rf)
	copy(ex.Present, e.present)
	for i, l := range e.lay.locs {
		ex.Final[l] = e.mem[i]
	}
	ex.key = key
	// The static Event fields come from the prototype; only values and
	// the total-order position vary per execution. Absent events keep the
	// prototype's zero values and TPos -1.
	copy(ex.Events, e.proto)
	for id := 0; id < e.lay.n; id++ {
		if e.present[id] {
			ev := &ex.Events[id]
			ev.Loaded = e.loaded[id]
			ev.Stored = e.stored[id]
			ev.Randomized = e.random[id]
		} else {
			ex.RF[id] = -1
		}
	}
	for pos, id := range ex.Order {
		ex.Events[id].TPos = pos
	}
	for t := range e.regs {
		copy(ex.Regs[t], e.regs[t])
	}
	if e.opts.Visit != nil {
		if err := e.opts.Visit(ex); err != nil {
			if !errors.Is(err, ErrStop) {
				e.err = err
			}
			e.stop = true
		}
		return
	}
	e.execs = append(e.execs, ex)
}

// resultKeys renders final memory states as result keys, interned by
// their raw memory words: distinct final states are few, so each is
// rendered once per search and a lookup is allocation-free in steady
// state.
type resultKeys struct {
	buf    []byte
	intern map[string]string
}

// of returns the result key of mem, whose entries follow locs (Locs()
// order, which is ascending by name, the order ResultKey serializes).
func (k *resultKeys) of(locs []litmus.Loc, mem []int64) string {
	k.buf = k.buf[:0]
	for _, v := range mem {
		k.buf = binary.LittleEndian.AppendUint64(k.buf, uint64(v))
	}
	if key, ok := k.intern[string(k.buf)]; ok {
		return key
	}
	raw := len(k.buf)
	for i, l := range locs {
		k.buf = append(k.buf, l...)
		k.buf = append(k.buf, '=')
		k.buf = strconv.AppendInt(k.buf, mem[i], 10)
		k.buf = append(k.buf, ';')
	}
	key := string(k.buf[raw:])
	if k.intern == nil {
		k.intern = make(map[string]string, 8)
	}
	k.intern[string(k.buf[:raw])] = key
	return key
}
