package core

import (
	"strings"
	"testing"
)

// drfrlxOrder writes out what a DRFrlx system keeps in order between two
// accesses of one thread on different locations, with no dependency
// between them: an acquire read stays before everything later and a
// release write after everything earlier (§3.8 with the §7 extension),
// and every atomic stays before a later paired, unpaired, acquire or
// release atomic. A row is the earlier access. A column is the later
// access's class, with one mark each for a later load, store and RMW: x
// where the later access stays after the earlier one, . where it may
// overtake it. DESIGN.md prints the same table.
const drfrlxOrder = `
                    data paired unpaired commutative non-ordering quantum speculative acquire release
data load           ...  .xx    ...      ...         ...          ...     ...         ...     .xx
data store          ...  .xx    ...      ...         ...          ...     ...         ...     .xx
data RMW            ...  .xx    ...      ...         ...          ...     ...         ...     .xx
paired load         xxx  xxx    xxx      xxx         xxx          xxx     xxx         xxx     xxx
paired store        ...  xxx    xxx      ...         ...          ...     ...         xxx     xxx
paired RMW          xxx  xxx    xxx      xxx         xxx          xxx     xxx         xxx     xxx
unpaired load       ...  xxx    xxx      ...         ...          ...     ...         xxx     xxx
unpaired store      ...  xxx    xxx      ...         ...          ...     ...         xxx     xxx
unpaired RMW        ...  xxx    xxx      ...         ...          ...     ...         xxx     xxx
commutative load    ...  xxx    xxx      ...         ...          ...     ...         xxx     xxx
commutative store   ...  xxx    xxx      ...         ...          ...     ...         xxx     xxx
commutative RMW     ...  xxx    xxx      ...         ...          ...     ...         xxx     xxx
non-ordering load   ...  xxx    xxx      ...         ...          ...     ...         xxx     xxx
non-ordering store  ...  xxx    xxx      ...         ...          ...     ...         xxx     xxx
non-ordering RMW    ...  xxx    xxx      ...         ...          ...     ...         xxx     xxx
quantum load        ...  xxx    xxx      ...         ...          ...     ...         xxx     xxx
quantum store       ...  xxx    xxx      ...         ...          ...     ...         xxx     xxx
quantum RMW         ...  xxx    xxx      ...         ...          ...     ...         xxx     xxx
speculative load    ...  xxx    xxx      ...         ...          ...     ...         xxx     xxx
speculative store   ...  xxx    xxx      ...         ...          ...     ...         xxx     xxx
speculative RMW     ...  xxx    xxx      ...         ...          ...     ...         xxx     xxx
acquire load        xxx  xxx    xxx      xxx         xxx          xxx     xxx         xxx     xxx
acquire store       ...  xxx    xxx      ...         ...          ...     ...         xxx     xxx
acquire RMW         xxx  xxx    xxx      xxx         xxx          xxx     xxx         xxx     xxx
release load        ...  xxx    xxx      ...         ...          ...     ...         xxx     xxx
release store       ...  xxx    xxx      ...         ...          ...     ...         xxx     xxx
release RMW         ...  xxx    xxx      ...         ...          ...     ...         xxx     xxx
`

// collapse writes out the class each model gives each class (indexed by
// class): DRF0 makes every atomic paired, and DRF1 makes acquire and
// release paired and the relaxed classes unpaired.
var collapse = map[Model][]Class{
	DRF0:   {Data, Paired, Paired, Paired, Paired, Paired, Paired, Paired, Paired},
	DRF1:   {Data, Paired, Unpaired, Unpaired, Unpaired, Unpaired, Unpaired, Paired, Paired},
	DRFrlx: {Data, Paired, Unpaired, Commutative, NonOrdering, Quantum, Speculative, Acquire, Release},
}

// orderKinds are the table's access kinds, in column-mark order.
var orderKinds = []struct {
	name          string
	reads, writes bool
}{{"load", true, false}, {"store", false, true}, {"RMW", true, true}}

// TestOrderingRuleTable compares Model.Keeps with drfrlxOrder, read
// through collapse for DRF0 and DRF1, on every pair of accesses under
// every model.
func TestOrderingRuleTable(t *testing.T) {
	type access struct {
		class Class
		kind  int
	}
	lines := strings.Split(strings.TrimSpace(drfrlxOrder), "\n")
	var cols []Class
	for _, f := range strings.Fields(lines[0]) {
		c, err := ParseClass(f)
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, c)
	}
	table := map[[2]access]bool{}
	for _, line := range lines[1:] {
		f := strings.Fields(line)
		if len(f) != 2+len(cols) {
			t.Fatalf("malformed row %q", line)
		}
		ca, err := ParseClass(f[0])
		if err != nil {
			t.Fatal(err)
		}
		ka := -1
		for k, kind := range orderKinds {
			if kind.name == f[1] {
				ka = k
			}
		}
		if ka < 0 {
			t.Fatalf("row %q: unknown kind", line)
		}
		for i, cell := range f[2:] {
			for kb, mark := range cell {
				table[[2]access{{ca, ka}, {cols[i], kb}}] = mark == 'x'
			}
		}
	}
	if want := len(Classes()) * len(orderKinds); len(table) != want*want {
		t.Fatalf("table has %d pairs, want %d", len(table), want*want)
	}
	for _, m := range Models() {
		for _, ca := range Classes() {
			for ka, kindA := range orderKinds {
				for _, cb := range Classes() {
					for kb, kindB := range orderKinds {
						a := Access{Class: ca, Reads: kindA.reads, Writes: kindA.writes}
						b := Access{Class: cb, Reads: kindB.reads, Writes: kindB.writes}
						want := table[[2]access{{collapse[m][ca], ka}, {collapse[m][cb], kb}}]
						if got := m.Keeps(a, b); got != want {
							t.Errorf("%v: Keeps(%v %s, %v %s) = %v, want %v", m, ca, kindA.name, cb, kindB.name, got, want)
						}
					}
				}
			}
		}
	}
}
