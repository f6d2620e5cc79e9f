package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"autoax/internal/obs"
)

// span is one timed interval of the traced run: the workload, one
// operation (a methodology run or a served job), or a stage or job phase
// inside it.  Spans of one operation share Op; Parent links a span to the
// span that caused it (0 for the workload root).
type span struct {
	Op     int     `json:"op"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // µs since the tracer started
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the benchmark ends.  A nil tracer
// records nothing, so untraced runs pay no more than a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.t0)) / float64(time.Microsecond)
}

// open starts a span whose end is not known yet and returns its ID.
func (t *tracer) open(op, parent int, name string, start time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: t.us(start)})
	return id
}

// close ends the span open returned.
func (t *tracer) close(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.us(end)
}

// add records a completed span.
func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	id := t.open(op, parent, name, start)
	t.close(id, end)
	return id
}

// write saves every span as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// snapshot captures the counters the program publishes (the obs registry)
// and the Go runtime's allocation and GC totals at one instant.
type snapshot struct {
	obs        obs.Snapshot
	totalAlloc uint64
	numGC      uint32
	at         time.Time
}

func takeSnapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{obs: obs.Default().Snapshot(), totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, at: time.Now()}
}

// delta is the change between two snapshots.
type delta struct{ before, after snapshot }

func (d delta) counter(name string) float64 {
	return float64(d.after.obs.Counters[name] - d.before.obs.Counters[name])
}

func (d delta) histCount(name string) float64 {
	return float64(d.after.obs.Histograms[name].Count - d.before.obs.Histograms[name].Count)
}

func (d delta) histSum(name string) float64 {
	return float64(d.after.obs.Histograms[name].Sum - d.before.obs.Histograms[name].Sum)
}

func (d delta) allocMiB() float64 {
	return float64(d.after.totalAlloc-d.before.totalAlloc) / (1 << 20)
}

func (d delta) gcCycles() float64 { return float64(d.after.numGC - d.before.numGC) }

// Names of the program's own metrics (internal/core, accel, dse, acl).
func stageHist(stage string) string { return `autoax_pipeline_stage_us{stage="` + stage + `"}` }
func stageItems(stage string) string {
	return `autoax_pipeline_stage_items_total{stage="` + stage + `"}`
}

const (
	mPreciseEvals    = "autoax_dse_precise_evals_total"
	mClimbIterations = "autoax_dse_climb_iterations_total"
	mClimbProposals  = "autoax_dse_climb_proposals_total"
	mClimbMemoHits   = "autoax_dse_climb_memo_hits_total"
	mProgHits        = "autoax_progcache_hits_total"
	mProgMisses      = "autoax_progcache_misses_total"
	mProgCoalesced   = "autoax_progcache_coalesced_total"
	mProgDiskHits    = "autoax_progcache_disk_hits_total"
	mProgCompileUS   = "autoax_progcache_compile_us"
	mCharacterized   = "autoax_acl_characterized_total"
	mCharacterizeUS  = "autoax_acl_characterize_us"
)
