package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"rats/internal/energy"
	"rats/internal/sim/system"
	"rats/internal/stats"
)

// journalRecord is one journal line: a completed run. Stats and Energy
// are enough to rebuild figures and summaries; the functional value layer
// is not persisted, so restored results have a nil Read closure.
type journalRecord struct {
	Workload string           `json:"workload"`
	Config   string           `json:"config"`
	Stats    stats.Stats      `json:"stats,omitempty"`
	Energy   energy.Breakdown `json:"energy,omitempty"`
}

// Journal is a crash-safe JSONL checkpoint of a sweep. Every completed
// run is appended and synced immediately, so a killed process loses at
// most the runs still in flight; reopening the same path restores the
// completed ones and the sweep re-simulates only what is missing.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	done map[string]*system.Result
}

func journalKey(workload, config string) string { return workload + "\x00" + config }

// OpenJournal opens (or creates) the journal at path and loads every
// intact record. A torn final line — the signature of a crash mid-write —
// is tolerated and skipped.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("harness: open journal: %w", err)
	}
	j := &Journal{f: f, done: map[string]*system.Result{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		// Older journals also hold failed-attempt lines, marked by a
		// "kind" field; they record no result, so their pair re-runs.
		var rec struct {
			journalRecord
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			// Torn or corrupt line (likely the tail of an interrupted
			// write): skip it; the pair will simply be re-run.
			continue
		}
		if rec.Kind != "" {
			continue
		}
		cfg, err := ConfigFor(rec.Config)
		if err != nil {
			continue
		}
		j.done[journalKey(rec.Workload, rec.Config)] = &system.Result{
			Name:   rec.Workload,
			Cfg:    cfg,
			Stats:  rec.Stats,
			Energy: rec.Energy,
		}
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("harness: read journal: %w", err)
	}
	// Position at the end for appends.
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, fmt.Errorf("harness: seek journal: %w", err)
	}
	return j, nil
}

// Loaded returns how many completed runs were restored at open time plus
// any recorded since.
func (j *Journal) Loaded() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Lookup returns the journaled result for a (workload, config) pair.
// Restored results carry stats and energy but a nil Read closure.
func (j *Journal) Lookup(workload, config string) (*system.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	res, ok := j.done[journalKey(workload, config)]
	return res, ok
}

// Record appends one completed run and syncs it to stable storage before
// returning, making the checkpoint crash-safe.
func (j *Journal) Record(workload, config string, res *system.Result) error {
	line, err := json.Marshal(journalRecord{
		Workload: workload,
		Config:   config,
		Stats:    res.Stats,
		Energy:   res.Energy,
	})
	if err != nil {
		return err
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(line); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.done[journalKey(workload, config)] = res
	return nil
}

// Close releases the underlying file.
func (j *Journal) Close() error { return j.f.Close() }
