package memmodel

import (
	"bytes"
	"context"
	"encoding/binary"
	"slices"
	"time"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel/rel"
	"rats/internal/memmodel/telemetry"
)

// The state engine is one memoized DFS over (events run, memory,
// registers) states behind the two searches that need final memories
// rather than executions:
//
//   - the SC instance (scStates, the solver's phase 3): an event is
//     enabled once its program-order predecessor ran, and quantum accesses
//     take every value of the quantum domain (Section 3.4.3);
//   - the system instance (systemSearch): an event is enabled once
//     its preservedPO predecessors ran, and quantum accesses take their
//     real values (Section 3.8).
//
// Every move runs one more event, so the state graph is a DAG and a
// memoized state's final memories are collected when the search meets it
// again. Two reductions, exact for final-memory sets, apply to both:
//
//   - memo keys are canonical under thread symmetry: within each class of
//     identical threads (symmetryClasses) the per-thread (done events,
//     registers) sub-keys are sorted. Permuting identical threads
//     preserves program order, preservedPO and memory;
//   - an enabled op whose guards fail is consumed without a move.
//     Registers are single-assignment and an op's guard registers are
//     defined by its predecessors in both relations, so the outcome is
//     fixed once the op is enabled; the skipped op touches no memory or
//     register, so consuming it first commutes with every move.
//
// Two invariants keep a node cheap without changing what it explores or
// the key it memoizes:
//
//   - next[t] is thread t's first event that has not run, so every
//     earlier event of t has. The enabled-event scan starts there. Both
//     relations order events within a thread only, earlier before later,
//     so on a chain thread next[t] is the one candidate, and it is
//     enabled;
//   - a symmetry class of one thread appends its sub-key straight into
//     the memo key. Sorting one sub-key is the identity, so the bytes
//     equal the general path's.

// stateCounts are one state-engine search's counters, in the solver's
// DPLL vocabulary: decisions and propagations are the memoized states
// with more than one, and exactly one, enabled (event, value-choice)
// move; memo hits (conflicts) are moves into memoized states; learned
// counts the memoized states.
type stateCounts struct {
	Decisions, Propagations, MemoHits, Learned int64
}

// stateEvent is one event's static data.
type stateEvent struct {
	op    *litmus.Op
	info  opInfo
	t     int
	preds []int
	// done[byte]&bit is the event's done flag. Each thread's flags fill
	// bytes of their own, so a thread's done set is a slice of done.
	byte int
	bit  byte
}

type stateEngine struct {
	p       *litmus.Program
	lay     eventLayout
	evs     []stateEvent
	domain  []int64
	classes [][]int
	// Thread t's events are first[t] up to first[t+1], its done flags
	// done[dfirst[t]:dfirst[t+1]], its first event not yet run next[t].
	// chain[t]: each of its events waits on the previous one, so next[t]
	// is the only one that can be enabled.
	first, dfirst, next []int
	chain               []bool

	// limit, when positive, bounds the completed executions, each counted
	// as enumerated in telemetry. ctx and budget (the transition budget)
	// are polled every checkStride nodes. phase names the search in its
	// errors.
	limit, budget, budgetLeft int64
	ctx                       context.Context
	phase                     string
	tel                       *telemetry.Check
	start                     time.Time

	done    []byte
	nDone   int
	mem     []int64
	regs    [][]int64
	seen    map[string]struct{}
	results map[string]bool
	keys    resultKeys
	// qvals holds every value a Quantum-class access took for real.
	qvals map[int64]bool

	stack          []int
	keyBuf, subBuf []byte
	spans          [][2]int

	stateCounts
	// moves and the memo hits past flushedHits are not yet in tel.
	leaves, moves, flushedHits int64
	sinceCheck                 int
	err                        error
}

// newStateEngine prepares a search of p in which an event is enabled once
// its predecessors in order have run. A non-nil domain makes it the SC
// instance (quantum accesses take every domain value), a nil one the
// system instance (real values). classes are p's symmetry classes
// (symmetryClasses); the caller passes them so a check that already
// has them does not compute them again.
func newStateEngine(p *litmus.Program, order rel.Rel, domain []int64, classes [][]int) *stateEngine {
	e := &stateEngine{
		p: p, lay: layout(p), domain: domain, classes: classes,
		first: make([]int, len(p.Threads)+1), dfirst: make([]int, len(p.Threads)+1), next: make([]int, len(p.Threads)),
		chain: make([]bool, len(p.Threads)), regs: make([][]int64, len(p.Threads)),
		seen: map[string]struct{}{}, results: map[string]bool{}, qvals: map[int64]bool{},
		start: time.Now(),
	}
	e.evs = make([]stateEvent, e.lay.n)
	for t, th := range p.Threads {
		e.regs[t] = make([]int64, th.NumRegs())
		e.first[t+1], e.next[t], e.chain[t] = e.first[t], e.first[t], true
		for i := range th.Ops {
			op, id := &th.Ops[i], e.lay.id[t][i]
			if id < 0 {
				continue
			}
			k := id - e.first[t]
			e.chain[t] = e.chain[t] && (k == 0 || order.Has(id-1, id))
			e.first[t+1]++
			e.evs[id] = stateEvent{
				op: op, t: t, byte: e.dfirst[t] + k>>3, bit: 1 << uint(k&7),
				info: newOpInfo(op, domain != nil && op.Class == core.Quantum, e.lay.locID[t][i], id),
			}
		}
		e.dfirst[t+1] = e.dfirst[t] + (e.first[t+1]-e.first[t]+7)>>3
	}
	e.done = make([]byte, e.dfirst[len(p.Threads)])
	order.ForEach(func(i, j int) { e.evs[j].preds = append(e.evs[j].preds, i) })
	e.mem = make([]int64, len(e.lay.locs))
	for i, l := range e.lay.locs {
		e.mem[i] = p.Init[l]
	}
	return e
}

// programOrder relates each event to its thread's next event.
func programOrder(p *litmus.Program) rel.Rel {
	lay := layout(p)
	po := rel.New(lay.n)
	for _, ids := range lay.id {
		ids = slices.DeleteFunc(slices.Clone(ids), func(id int) bool { return id < 0 })
		for k := 1; k < len(ids); k++ {
			po.Set(ids[k-1], ids[k])
		}
	}
	return po
}

// scStates computes the SC result set of p's quantum-equivalent program
// with the state engine's SC instance; classes are p's symmetry classes.
// opts.Ctx cancels it and opts.TransitionLimit bounds its nodes (phase
// "solve" in either error); opts.Telemetry receives its transitions and
// memo hits. The counters are valid on error too. p must be valid
// (Program.Validate).
func scStates(p *litmus.Program, opts CheckOptions, classes [][]int) (map[string]bool, stateCounts, error) {
	e := newStateEngine(p, programOrder(p), quantumDomain(p), classes)
	e.ctx, e.budget, e.budgetLeft, e.tel = opts.Ctx, opts.TransitionLimit, opts.TransitionLimit, opts.Telemetry
	e.phase = "solve"
	return e.search()
}

// search runs the DFS from the initial state and flushes its counters.
func (e *stateEngine) search() (map[string]bool, stateCounts, error) {
	e.run()
	e.flush()
	if e.err != nil {
		return nil, e.stateCounts, e.err
	}
	return e.results, e.stateCounts, nil
}

// flush folds the transition and memo-hit shards into the telemetry block.
func (e *stateEngine) flush() {
	e.tel.AddTransitions(e.moves)
	e.tel.AddMemoHits(e.MemoHits - e.flushedHits)
	e.moves, e.flushedHits = 0, e.MemoHits
}

// checkpoint, called every checkStride nodes, polls the cancellation
// context and debits the transition budget by one checkStride; it reports
// whether the search may continue.
func (e *stateEngine) checkpoint() bool {
	e.sinceCheck = 0
	if e.ctx != nil && e.ctx.Err() != nil {
		e.err = &CancelError{Prog: e.p.Name, Phase: e.phase, Elapsed: time.Since(e.start), Err: e.ctx.Err()}
	} else if e.budgetLeft -= checkStride; e.budget > 0 && e.budgetLeft <= 0 {
		e.flush()
		e.err = newLimitError(e.p.Name, e.phase, int(e.budget), 0, e.start, e.tel)
	}
	return e.err == nil
}

func (e *stateEngine) isDone(i int) bool { return e.done[e.evs[i].byte]&e.evs[i].bit != 0 }

// ready reports whether event i's predecessors have all run.
func (e *stateEngine) ready(i int) bool {
	for _, j := range e.evs[i].preds {
		if !e.isDone(j) {
			return false
		}
	}
	return true
}

// toggle flips event i's done flag, d = +1 to run it and -1 to undo,
// and keeps its thread's next undone event current.
func (e *stateEngine) toggle(i, d int) {
	ev := &e.evs[i]
	e.done[ev.byte] ^= ev.bit
	e.nDone += d
	next := &e.next[ev.t]
	if d < 0 {
		*next = min(*next, i)
		return
	}
	for *next < e.first[ev.t+1] && e.isDone(*next) {
		*next++
	}
}

// run explores the current state.
func (e *stateEngine) run() {
	if e.err != nil {
		return
	}
	if e.sinceCheck++; e.sinceCheck >= checkStride && !e.checkpoint() {
		return
	}
	if e.nDone == len(e.evs) {
		e.leaf()
		return
	}
	// Stack the enabled events and count their moves, or consume the
	// first one whose guards fail.
	start, moves := len(e.stack), 0
	for t, chain := range e.chain {
		for i := e.next[t]; i < e.first[t+1]; i++ {
			if !chain && (e.isDone(i) || !e.ready(i)) {
				continue
			}
			ev := &e.evs[i]
			if ev.info.hasGuards && !ev.op.GuardsHold(e.regs[t]) {
				e.stack = e.stack[:start]
				e.toggle(i, 1)
				e.run()
				e.toggle(i, -1)
				return
			}
			e.stack = append(e.stack, i)
			loads, stores := choices(&ev.info, e.domain)
			moves += len(loads) * len(stores)
			if chain {
				break
			}
		}
	}
	end := len(e.stack)
	key := e.stateKey()
	if _, ok := e.seen[string(key)]; ok {
		e.MemoHits++
		e.stack = e.stack[:start]
		return
	}
	e.seen[string(key)] = struct{}{}
	e.Learned++
	if moves > 1 {
		e.Decisions++
	} else {
		e.Propagations++
	}
	for j := start; j < end; j++ {
		i := e.stack[j]
		loads, stores := choices(&e.evs[i].info, e.domain)
		for _, lv := range loads {
			for _, sv := range stores {
				if e.execOne(i, lv, sv); e.err != nil {
					return
				}
			}
		}
	}
	e.stack = e.stack[:start]
}

// execOne runs event i with one value choice, recurses, and undoes it,
// with the value semantics of the enumerator's execOne.
func (e *stateEngine) execOne(i int, qload, qstore int64) {
	e.moves++
	ev := &e.evs[i]
	inf, regs := &ev.info, e.regs[ev.t]
	oldMem, loaded := e.mem[inf.loc], e.mem[inf.loc]
	if inf.quantum && inf.reads {
		loaded = qload
	}
	var oldReg int64
	if inf.dst != litmus.NoReg {
		oldReg, regs[inf.dst] = regs[inf.dst], loaded
	}
	if inf.writes {
		if inf.quantum {
			e.mem[inf.loc] = qstore
		} else {
			e.mem[inf.loc] = ev.op.AOp.Apply(oldMem, ev.op.Operand.Eval(regs), ev.op.Expected.Eval(regs))
		}
	}
	if ev.op.Class == core.Quantum && !inf.quantum { // the system's real values
		if inf.reads {
			e.qvals[loaded] = true
		}
		if inf.writes {
			e.qvals[e.mem[inf.loc]] = true
		}
	}
	e.toggle(i, 1)
	e.run()
	e.toggle(i, -1)
	e.mem[inf.loc] = oldMem
	if inf.dst != litmus.NoReg {
		regs[inf.dst] = oldReg
	}
}

// leaf records a completed execution's final memory.
func (e *stateEngine) leaf() {
	if e.limit > 0 {
		if e.leaves++; e.leaves > e.limit {
			e.flush()
			e.err = newLimitError(e.p.Name, e.phase, int(e.limit), e.limit, e.start, e.tel)
			return
		}
		e.tel.AddEnumerated(1)
	}
	e.results[e.keys.of(e.lay.locs, e.mem)] = true
}

// stateKey serializes the current state, canonical under thread
// symmetry: memory, then each symmetry class's sorted per-thread
// sub-keys. A class's sub-keys have equal field counts and varints
// delimit themselves, so the key is exact for threads of any length.
func (e *stateEngine) stateKey() []byte {
	b := e.keyBuf[:0]
	for _, v := range e.mem {
		b = binary.AppendVarint(b, v)
	}
	for _, ts := range e.classes {
		if len(ts) == 1 {
			b = e.appendThread(b, ts[0])
			continue
		}
		sub, spans := e.subBuf[:0], e.spans[:0]
		for _, t := range ts {
			s := len(sub)
			sub = e.appendThread(sub, t)
			spans = append(spans, [2]int{s, len(sub)})
		}
		slices.SortFunc(spans, func(x, y [2]int) int { return bytes.Compare(sub[x[0]:x[1]], sub[y[0]:y[1]]) })
		for _, sp := range spans {
			b = append(b, sub[sp[0]:sp[1]]...)
		}
		e.subBuf, e.spans = sub, spans
	}
	e.keyBuf = b
	return b
}

// appendThread appends thread t's sub-key: its done flags, then its
// registers.
func (e *stateEngine) appendThread(b []byte, t int) []byte {
	b = append(b, e.done[e.dfirst[t]:e.dfirst[t+1]]...)
	for _, r := range e.regs[t] {
		b = binary.AppendVarint(b, r)
	}
	return b
}
