// Package fault implements a deterministic, seeded fault injector for the
// simulator, in the spirit of memory-model stress tools (Herding Cats'
// perturbed executions): message delay jitter, duplication, and reordering
// bursts in the NoC; MSHR and store-buffer capacity-pressure windows; and
// L2 bank stall storms. All perturbations except `wedge` are metamorphic —
// they may change timing (cycles, traffic, stalls) but must leave
// architectural results (retired-op counts, atomic counts, functional
// checks) unchanged, which the property tests in internal/sim/system
// assert. The `wedge` fault deliberately breaks liveness and exists to
// drill the watchdog.
//
// A spec is a semicolon-separated list of clauses, each `kind:key=value[,
// key=value...]`:
//
//	delay:p=0.05,max=12            extra [1,max]-cycle latency on each
//	                               message with probability p
//	dup:p=0.02                     duplicate a message with probability p;
//	                               the copy consumes link bandwidth and is
//	                               dropped at delivery (endpoints dedupe)
//	reorder:p=0.01,window=16,burst=4
//	                               with probability p start a burst: the
//	                               next `burst` messages each get a random
//	                               [0,window]-cycle delay so later traffic
//	                               overtakes them
//	mshr:cap=2,period=5000,len=500 during [k*period, k*period+len) windows
//	                               the L1 MSHR's effective capacity shrinks
//	                               to cap (issue-side back-pressure only)
//	sb:cap=2,period=5000,len=500   same, for the store buffer
//	l2stall:period=10000,len=200   during windows every L2 bank defers all
//	                               request handling to the window's end (a
//	                               bank stall storm)
//	wedge:warp=0,from=100          LIVENESS-BREAKING: warp `warp` never
//	                               issues again from cycle `from` (watchdog
//	                               drills only)
//
// The injector is seeded: the same spec and seed reproduce the same
// perturbation sequence exactly, because the single-threaded simulation
// loop consumes the PRNG in a deterministic order.
package fault

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// DelayClause adds random per-message latency.
type DelayClause struct {
	P   float64 // per-message probability
	Max int64   // added delay is uniform in [1, Max]
}

// DupClause duplicates messages (the copy is dropped at delivery).
type DupClause struct {
	P float64
}

// ReorderClause starts bursts of randomly delayed messages so that later
// traffic overtakes them.
type ReorderClause struct {
	P      float64 // per-message probability of starting a burst
	Window int64   // each burst message is delayed uniform [0, Window]
	Burst  int     // messages per burst
}

// WindowClause describes a periodic pressure window: active during
// [k*Period, k*Period+Len) for every k.
type WindowClause struct {
	Cap    int   // effective capacity during the window (mshr/sb only)
	Period int64 // window repetition period in cycles
	Len    int64 // window length in cycles (must be < Period)
}

// active reports whether the window covers the cycle.
func (w *WindowClause) active(cycle int64) bool {
	return cycle%w.Period < w.Len
}

// WedgeClause suppresses one warp's issue forever — a deliberate liveness
// violation used to exercise the watchdog.
type WedgeClause struct {
	Warp int
	From int64
}

// Spec is a parsed fault specification.
type Spec struct {
	Delay   *DelayClause
	Dup     *DupClause
	Reorder *ReorderClause
	MSHR    *WindowClause
	SB      *WindowClause
	L2Stall *WindowClause
	Wedge   *WedgeClause

	// Source is the original spec string (reporting).
	Source string
}

// Metamorphic reports whether every clause preserves architectural
// results (everything except wedge does).
func (s *Spec) Metamorphic() bool { return s.Wedge == nil }

// Parse parses a fault spec string (see the package documentation for the
// grammar).
func Parse(spec string) (*Spec, error) {
	out := &Spec{Source: spec}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		kind, args, _ := strings.Cut(clause, ":")
		kv, err := parseArgs(kind, args)
		if err != nil {
			return nil, err
		}
		switch kind {
		case "delay":
			c := &DelayClause{P: kv.f("p", 0), Max: kv.i("max", 8)}
			if err := kv.check(c.P > 0 && c.Max > 0, "needs p>0 and max>0"); err != nil {
				return nil, err
			}
			out.Delay = c
		case "dup":
			c := &DupClause{P: kv.f("p", 0)}
			if err := kv.check(c.P > 0, "needs p>0"); err != nil {
				return nil, err
			}
			out.Dup = c
		case "reorder":
			c := &ReorderClause{P: kv.f("p", 0), Window: kv.i("window", 16), Burst: int(kv.i("burst", 1))}
			if err := kv.check(c.P > 0 && c.Window > 0 && c.Burst > 0, "needs p>0, window>0, burst>0"); err != nil {
				return nil, err
			}
			out.Reorder = c
		case "mshr", "sb":
			c := &WindowClause{Cap: int(kv.i("cap", 1)), Period: kv.i("period", 10000), Len: kv.i("len", 500)}
			if err := kv.check(c.Cap >= 0 && c.Period > 0 && c.Len > 0 && c.Len < c.Period,
				"needs cap>=0, period>0, 0<len<period"); err != nil {
				return nil, err
			}
			if kind == "mshr" {
				out.MSHR = c
			} else {
				out.SB = c
			}
		case "l2stall":
			c := &WindowClause{Period: kv.i("period", 10000), Len: kv.i("len", 200)}
			if err := kv.check(c.Period > 0 && c.Len > 0 && c.Len < c.Period,
				"needs period>0, 0<len<period"); err != nil {
				return nil, err
			}
			out.L2Stall = c
		case "wedge":
			out.Wedge = &WedgeClause{Warp: int(kv.i("warp", 0)), From: kv.i("from", 0)}
		default:
			return nil, fmt.Errorf("fault: unknown clause %q (want delay|dup|reorder|mshr|sb|l2stall|wedge)", kind)
		}
		if err := kv.unused(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// kvs holds one clause's parsed key=value pairs plus any parse error.
type kvs struct {
	kind string
	m    map[string]string
	used map[string]bool
	err  error
}

func parseArgs(kind, args string) (*kvs, error) {
	kv := &kvs{kind: kind, m: map[string]string{}, used: map[string]bool{}}
	if strings.TrimSpace(args) == "" {
		return kv, nil
	}
	for _, pair := range strings.Split(args, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("fault: %s: bad argument %q (want key=value)", kind, pair)
		}
		kv.m[k] = v
	}
	return kv, nil
}

func (kv *kvs) f(key string, def float64) float64 {
	v, ok := kv.m[key]
	if !ok {
		return def
	}
	kv.used[key] = true
	x, err := strconv.ParseFloat(v, 64)
	if err != nil && kv.err == nil {
		kv.err = fmt.Errorf("fault: %s: bad %s=%q: %v", kv.kind, key, v, err)
	}
	return x
}

func (kv *kvs) i(key string, def int64) int64 {
	v, ok := kv.m[key]
	if !ok {
		return def
	}
	kv.used[key] = true
	x, err := strconv.ParseInt(v, 10, 64)
	if err != nil && kv.err == nil {
		kv.err = fmt.Errorf("fault: %s: bad %s=%q: %v", kv.kind, key, v, err)
	}
	return x
}

// check surfaces a clause-validation failure (after any value parse error).
func (kv *kvs) check(ok bool, msg string) error {
	if kv.err != nil {
		return kv.err
	}
	if !ok {
		return fmt.Errorf("fault: %s: %s", kv.kind, msg)
	}
	return nil
}

// unused rejects keys the clause does not understand.
func (kv *kvs) unused() error {
	if kv.err != nil {
		return kv.err
	}
	for k := range kv.m {
		if !kv.used[k] {
			return fmt.Errorf("fault: %s: unknown key %q", kv.kind, k)
		}
	}
	return nil
}

// Counts tallies injected perturbations for end-of-run reporting.
type Counts struct {
	Delayed      int64 // messages given extra latency (delay clause)
	Duplicated   int64 // messages duplicated
	Reordered    int64 // messages delayed by a reorder burst
	MSHRSqueezes int64 // issue attempts refused by an MSHR pressure window
	SBSqueezes   int64 // issue attempts refused by a store-buffer window
	L2Stalls     int64 // bank requests deferred by a stall storm
	WedgeHolds   int64 // issue slots suppressed by a wedge
}

// String renders the tally on one line.
func (c Counts) String() string {
	return fmt.Sprintf("%d delayed, %d duplicated, %d reordered, %d mshr-squeezed, %d sb-squeezed, %d l2-stalled, %d wedge-held",
		c.Delayed, c.Duplicated, c.Reordered, c.MSHRSqueezes, c.SBSqueezes, c.L2Stalls, c.WedgeHolds)
}

// Injector is the per-run fault source. One instance belongs to exactly
// one System (the simulation loop is single-threaded), so PRNG draws occur
// in a deterministic order and the same spec+seed reproduce the same
// perturbations exactly.
type Injector struct {
	spec      *Spec
	rng       *rand.Rand
	burstLeft int
	counts    Counts
}

// NewInjector builds an injector over a parsed spec with the given seed.
func NewInjector(spec *Spec, seed int64) *Injector {
	return &Injector{spec: spec, rng: rand.New(rand.NewSource(seed))}
}

// Spec returns the injector's specification.
func (i *Injector) Spec() *Spec { return i.spec }

// Counts returns the perturbation tally so far.
func (i *Injector) Counts() Counts { return i.counts }

// MessageDelay draws the extra latency for one NoC message (delay jitter
// plus any active reorder burst). Zero means unperturbed.
func (i *Injector) MessageDelay() int64 {
	var d int64
	if c := i.spec.Delay; c != nil && i.rng.Float64() < c.P {
		d += 1 + i.rng.Int63n(c.Max)
		i.counts.Delayed++
	}
	if c := i.spec.Reorder; c != nil {
		if i.burstLeft == 0 && i.rng.Float64() < c.P {
			i.burstLeft = c.Burst
		}
		if i.burstLeft > 0 {
			i.burstLeft--
			d += i.rng.Int63n(c.Window + 1)
			i.counts.Reordered++
		}
	}
	return d
}

// Duplicate reports whether this message should be duplicated.
func (i *Injector) Duplicate() bool {
	c := i.spec.Dup
	if c == nil || i.rng.Float64() >= c.P {
		return false
	}
	i.counts.Duplicated++
	return true
}

// MSHRCap returns the MSHR's effective capacity at the cycle (the real
// capacity outside pressure windows).
func (i *Injector) MSHRCap(cycle int64, capacity int) int {
	if c := i.spec.MSHR; c != nil && c.active(cycle) && c.Cap < capacity {
		i.counts.MSHRSqueezes++
		return c.Cap
	}
	return capacity
}

// SBCap returns the store buffer's effective capacity at the cycle.
func (i *Injector) SBCap(cycle int64, capacity int) int {
	if c := i.spec.SB; c != nil && c.active(cycle) && c.Cap < capacity {
		i.counts.SBSqueezes++
		return c.Cap
	}
	return capacity
}

// L2StallUntil returns the cycle at which the current bank stall storm
// ends, or 0 when no storm is active. Handlers defer to the returned
// cycle, which is strictly past the window so the retry proceeds.
func (i *Injector) L2StallUntil(cycle int64) int64 {
	c := i.spec.L2Stall
	if c == nil || !c.active(cycle) {
		return 0
	}
	i.counts.L2Stalls++
	return cycle - cycle%c.Period + c.Len
}

// Wedged reports whether the warp's issue is suppressed at the cycle (the
// liveness-breaking drill fault).
func (i *Injector) Wedged(warp int, cycle int64) bool {
	if !i.WedgeActive(warp, cycle) {
		return false
	}
	i.counts.WedgeHolds++
	return true
}

// WedgeActive is the side-effect-free form of Wedged: it answers without
// bumping the perturbation tally, so wake-hint computations (which may
// probe the same cycle several times) leave the counts exactly as a
// cycle-by-cycle run would.
func (i *Injector) WedgeActive(warp int, cycle int64) bool {
	c := i.spec.Wedge
	return c != nil && warp == c.Warp && cycle >= c.From
}

// WedgeOnset returns the first cycle at which the warp is wedged, and
// false when no wedge clause names it. A wake hint reports the onset so
// skipping never jumps over the first held issue slot.
func (i *Injector) WedgeOnset(warp int) (int64, bool) {
	c := i.spec.Wedge
	if c == nil || warp != c.Warp {
		return 0, false
	}
	return c.From, true
}

// NextWork returns the next cycle at which a pressure-window clause
// (mshr, sb, l2stall) changes state — the injector's wake hint. Window
// caps are consulted lazily at issue attempts, so a boundary crossing
// cannot by itself create work; the hint still reports boundaries so the
// driver re-evaluates the machine there rather than relying on that
// reasoning holding for future components. Returns -1 with no window
// clauses configured.
func (i *Injector) NextWork(cycle int64) int64 {
	next := int64(-1)
	edge := func(w *WindowClause) {
		if w == nil {
			return
		}
		// Next boundary after `cycle`: the active window's end, or the next
		// window's start.
		phase := cycle % w.Period
		var t int64
		if phase < w.Len {
			t = cycle - phase + w.Len
		} else {
			t = cycle - phase + w.Period
		}
		if next < 0 || t < next {
			next = t
		}
	}
	edge(i.spec.MSHR)
	edge(i.spec.SB)
	edge(i.spec.L2Stall)
	return next
}
