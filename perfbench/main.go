// Command perfbench is the end-to-end benchmark of the autoAx methodology.
// One invocation runs one named workload for a fixed time, checks every
// result it produces, and prints one JSON line of metrics:
//
//	perfbench --workload gaussian --seed 1 --seconds 50 --trace 0
//
// With --trace 0 the line holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics, and the spans recorded around every call
// into the program are written to --work-dir.  README.md lists the
// metrics, their units and the workloads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"autoax/internal/acl"
	"autoax/internal/axserver"
	"autoax/internal/core"
)

// Fixed benchmark settings.
const (
	// setupRepeats, setupMinTime: set-up runs at least setupRepeats
	// times per invocation, and again until the set-ups together took
	// setupMinTime; setup_s is the median.  A cheap set-up (a tenth of a
	// second on gaussian) thus gives enough samples for its median to hold
	// still from one invocation to the next.
	setupRepeats = 5
	setupMinTime = 3 * time.Second
	// libraryInterval: the library is built once before and once after
	// the window, and inside the window again at the first operation
	// boundary this long after the previous build.  The host's speed
	// changes from one second to the next, so builds spread over the
	// whole run give a steadier library_s median than builds in a burst.
	libraryInterval = 3 * time.Second
	// librarySeed generates every workload's library.  Like the paper's
	// published component library, it is one fixed artifact; --seed drives
	// the images and the methodology's own random choices.
	librarySeed = 1
)

func main() {
	runtime.GOMAXPROCS(2) // every workload is sized for two cores
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// workload is one named benchmark scenario.
type workload interface {
	run(ctx context.Context, b *bench) error
}

// workloads returns the scenarios at the given scale: "full" is the
// measured size, "tiny" the smoke-test size.
func workloads(scale string) (map[string]workload, error) {
	switch scale {
	case "full":
		return map[string]workload{"gaussian": gaussianFull, "search": searchFull, "served": servedFull}, nil
	case "tiny":
		return map[string]workload{"gaussian": gaussianTiny, "search": searchTiny, "served": servedTiny}, nil
	}
	return nil, fmt.Errorf("unknown scale %q (want full or tiny)", scale)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: gaussian, search or served")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	secs := fs.Int("seconds", 50, "length of the measured window")
	traceFlag := fs.Int("trace", 0, "1 records spans and prints per-layer metrics; 0 prints end-to-end metrics")
	scale := fs.String("scale", "full", "workload size: full, or tiny for the smoke test")
	workDir := fs.String("work-dir", filepath.Join(".bench_build", "perfbench"), "directory for server state and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	all, err := workloads(*scale)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, ok := all[*name]
	if !ok || *secs < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload gaussian|search|served, --seconds ≥ 1 and --trace 0|1")
		return 2
	}
	b := &bench{
		seed:    *seed,
		window:  time.Duration(*secs) * time.Second,
		workDir: *workDir,
		log:     stderr,
	}
	if *traceFlag == 1 {
		b.tr = newTracer()
	}
	start := time.Now()
	root := b.tr.open(0, 0, "workload/"+*name, start)
	err = w.run(ctx, b)
	b.tr.close(root, time.Now())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if b.tr != nil {
		path := filepath.Join(*workDir, fmt.Sprintf("trace-%s-%d.json", *name, *seed))
		if err := b.tr.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stderr, "perfbench: spans written to", path)
	}
	res := b.result()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opRecord is one timed operation of the measured window: a methodology
// run of a pipeline workload, or one job of the served workload.
type opRecord struct {
	// hit: a served job answered from the result cache, or a pipeline run
	// of a seed the invocation already ran (in-process runs have no result
	// cache, so a repeat costs a full run).
	hit    bool
	traced bool
	// seed indexes the pipeline seed (-1 for served jobs).
	seed    int
	latency time.Duration // as the caller sees it
	// Methodology-run fields (isRun): the run's wall time (for a served
	// miss, the server's execution time), its front and its model
	// fidelities.
	isRun         bool
	run           time.Duration
	hv            float64
	qorFid, hwFid float64
	stages        map[string]time.Duration // traced pipeline runs
	newPipeline   time.Duration            // traced pipeline runs
	submit, queue time.Duration            // served jobs
	exec          time.Duration            // served jobs
}

// bench accumulates one invocation's measurements.
type bench struct {
	seed    int64
	window  time.Duration
	workDir string
	log     io.Writer
	tr      *tracer

	specs     []acl.BuildSpec // the workload's library
	setups    []time.Duration
	libraries []time.Duration
	libDeltas []delta // across each library build
	libDigest string  // of the first library built
	lastLib   time.Time
	winDelta  delta // across the measured window, library builds left out
	winStart  time.Time
	winLength time.Duration // library builds left out
	// time, allocation and GC cycles of the library builds in the window.
	pausedTime  time.Duration
	pausedAlloc uint64
	pausedGC    uint32
	// server counters across the window (served workload only).
	srvBefore, srvAfter *axserver.Stats

	mu        sync.Mutex
	ops       []opRecord
	attempted int
	failed    int
}

// attempt counts one operation and returns its number, which is also its
// span-operation ID.
func (b *bench) attempt() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	return b.attempted
}

// fail counts a failed operation and reports why.
func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	b.failed++
	b.mu.Unlock()
	fmt.Fprintf(b.log, "perfbench: FAIL: "+format+"\n", args...)
}

func (b *bench) record(r opRecord) {
	b.mu.Lock()
	b.ops = append(b.ops, r)
	b.mu.Unlock()
}

// timeSetup runs one set-up and records its wall time.  Each set-up
// starts from a collected heap, so whether a GC cycle lands inside it
// does not depend on what ran before.
func (b *bench) timeSetup(setup func() error) error {
	runtime.GC()
	start := time.Now()
	if err := setup(); err != nil {
		return err
	}
	end := time.Now()
	b.tr.add(0, 1, "setup", start, end)
	b.setups = append(b.setups, end.Sub(start))
	return nil
}

// setupDone reports whether the set-ups so far are enough; i is the
// number of set-ups made.
func (b *bench) setupDone(i int) bool {
	var total time.Duration
	for _, d := range b.setups {
		total += d
	}
	return i >= setupRepeats && total >= setupMinTime
}

// buildLibrary times one build of the workload's library specs
// (acl.Build, the operation behind `autoax library` and POST
// /v1/libraries), checks that every build of the invocation yields the
// same library, and returns it.
func (b *bench) buildLibrary() (*acl.Library, error) {
	op := b.attempt()
	before := takeSnapshot()
	runtime.GC() // as for set-up: every build starts from a collected heap
	start := time.Now()
	l, err := acl.Build(b.specs, librarySeed, acl.Options{Seed: librarySeed})
	end := time.Now()
	b.tr.add(op, 1, "acl.Build", start, end)
	if err != nil {
		return nil, fmt.Errorf("library build: %w", err)
	}
	b.libraries = append(b.libraries, end.Sub(start))
	digest, err := libraryDigest(l)
	if err != nil {
		return nil, err
	}
	switch {
	case b.libDigest == "":
		b.libDigest = digest
	case digest != b.libDigest:
		b.fail("library build %d differs from the first build of the same specs", len(b.libraries))
	}
	runtime.GC() // and leaves none of its garbage to the operations after it
	b.lastLib = time.Now()
	b.libDeltas = append(b.libDeltas, delta{before, takeSnapshot()})
	return l, nil
}

// libraryBreak builds the library between two operations of the window
// once libraryInterval has passed since the previous build.  The break is
// left out of the window's length and of its counter deltas.
func (b *bench) libraryBreak() error {
	if time.Since(b.lastLib) < libraryInterval {
		return nil
	}
	if _, err := b.buildLibrary(); err != nil {
		return err
	}
	d := b.libDeltas[len(b.libDeltas)-1]
	b.pausedTime += d.after.at.Sub(d.before.at)
	b.pausedAlloc += d.after.totalAlloc - d.before.totalAlloc
	b.pausedGC += d.after.numGC - d.before.numGC
	return nil
}

func (b *bench) startWindow() {
	b.winDelta.before = takeSnapshot()
	b.winStart = b.winDelta.before.at
}

// endWindow closes the window.  The library builds inside it are left
// out of its length and of its allocation and GC counts; their obs counts
// are acl's own, which no window metric reads.
func (b *bench) endWindow() {
	b.winDelta.after = takeSnapshot()
	b.winDelta.after.totalAlloc -= b.pausedAlloc
	b.winDelta.after.numGC -= b.pausedGC
	b.winLength = b.winDelta.after.at.Sub(b.winStart) - b.pausedTime
}

// fits reports whether the window is predicted to hold n more operations
// of median length.
func (b *bench) fits(n int) bool {
	b.mu.Lock()
	lat := make([]float64, len(b.ops))
	for j, op := range b.ops {
		lat[j] = op.latency.Seconds()
	}
	b.mu.Unlock()
	next := time.Duration(float64(n) * median(lat) * float64(time.Second))
	return time.Since(b.winStart)+next <= b.window
}

func (b *bench) runs() []opRecord {
	var out []opRecord
	for _, op := range b.ops {
		if op.isRun {
			out = append(out, op)
		}
	}
	return out
}

func (b *bench) result() result {
	m := b.perLayer
	if b.tr == nil {
		m = b.endToEnd
	}
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m()}
}

// endToEnd computes the user-visible metrics (printed with --trace 0).
func (b *bench) endToEnd() map[string]metric {
	var runT, hv []float64
	for _, r := range b.runs() {
		runT = append(runT, r.run.Seconds())
		hv = append(hv, r.hv)
	}
	var hitMS, missMS []float64
	for _, op := range b.ops {
		ms := float64(op.latency) / float64(time.Millisecond)
		if op.hit {
			hitMS = append(hitMS, ms)
		} else {
			missMS = append(missMS, ms)
		}
	}
	return map[string]metric{
		"run_s":           {median(runT), "s"},
		"library_s":       {median(seconds(b.libraries)), "s"},
		"setup_s":         {median(seconds(b.setups)), "s"},
		"peak_rss_mb":     {peakRSSMiB(), "MiB"},
		"front_hv":        {median(hv), "um2"},
		"jobs_per_s":      {ratio(float64(len(b.ops)), b.winLength.Seconds()), "1/s"},
		"job_hit_p50_ms":  {quantile(hitMS, 0.5), "ms"},
		"job_hit_p90_ms":  {quantile(hitMS, 0.9), "ms"},
		"job_miss_p50_ms": {quantile(missMS, 0.5), "ms"},
		"job_miss_p90_ms": {quantile(missMS, 0.9), "ms"},
	}
}

// perLayer computes the per-layer metrics (printed with --trace 1).
// Counts are per operation: per methodology run for the core, accel and
// dse counters, per library build for acl, per job for axserver and per
// operation for runtime.
func (b *bench) perLayer() map[string]metric {
	d := b.winDelta
	runs := b.runs()
	nRuns := float64(len(runs))
	nOps := float64(len(b.ops))
	m := map[string]metric{}

	// core: the benchmark's own span around each Pipeline.*Context call
	// when it makes the call; the program's stage histogram when a server
	// worker does.
	var covered float64
	for _, stage := range core.StageOrder {
		var ts []float64
		for _, r := range runs {
			if r.stages != nil {
				ts = append(ts, r.stages[stage].Seconds())
			}
		}
		v := median(ts)
		if ts == nil {
			v = ratio(d.histSum(stageHist(stage)), d.histCount(stageHist(stage))) / 1e6
			covered += d.histSum(stageHist(stage)) / 1e6
		}
		m["core."+stage+"_s"] = metric{v, "s"}
	}
	cov, ok := stageCoverage(runs)
	if !ok {
		var runTotal float64
		for _, r := range runs {
			runTotal += r.run.Seconds()
		}
		cov = ratio(covered, runTotal)
	}
	m["trace.stage_coverage"] = metric{cov, "ratio"}
	m["trace.overhead_s"] = metric{tracingOverhead(runs), "s"}

	// accel: precise evaluation and the compiled-program cache.
	hits, misses := d.counter(mProgHits)+d.counter(mProgCoalesced)+d.counter(mProgDiskHits), d.counter(mProgMisses)
	m["accel.evals"] = metric{ratio(d.counter(mPreciseEvals), nRuns), "count"}
	m["accel.evals_per_s"] = metric{ratio(d.counter(stageItems(core.StageSamples)), d.histSum(stageHist(core.StageSamples))/1e6), "1/s"}
	m["accel.compiles"] = metric{ratio(misses, nRuns), "count"}
	m["accel.compile_us"] = metric{ratio(d.histSum(mProgCompileUS), d.histCount(mProgCompileUS)), "us"}
	m["accel.progcache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}

	// ml: the paper's Table 3 model fidelity on the held-out samples.
	var qor, hw []float64
	for _, r := range runs {
		qor, hw = append(qor, r.qorFid), append(hw, r.hwFid)
	}
	m["ml.qor_fidelity"] = metric{median(qor), "ratio"}
	m["ml.hw_fidelity"] = metric{median(hw), "ratio"}

	// dse: the model-based hill climb and the re-evaluated pseudo set.
	m["dse.climb_iterations"] = metric{ratio(d.counter(mClimbIterations), nRuns), "count"}
	m["dse.estimates_per_s"] = metric{ratio(d.counter(stageItems(core.StageExplore)), d.histSum(stageHist(core.StageExplore))/1e6), "1/s"}
	m["dse.memo_hit_ratio"] = metric{ratio(d.counter(mClimbMemoHits), d.counter(mClimbProposals)), "ratio"}
	m["dse.pseudo_size"] = metric{ratio(d.counter(stageItems(core.StageFinalize)), d.histCount(stageHist(core.StageFinalize))), "count"}

	// acl: characterization inside the library builds.
	var characterized, characterizeUS, characterizations float64
	for _, l := range b.libDeltas {
		characterized += l.counter(mCharacterized)
		characterizeUS += l.histSum(mCharacterizeUS)
		characterizations += l.histCount(mCharacterizeUS)
	}
	m["acl.characterized"] = metric{ratio(characterized, float64(len(b.libDeltas))), "count"}
	m["acl.characterize_us"] = metric{ratio(characterizeUS, characterizations), "us"}

	// axserver: job phases and server counters (zero off the served
	// workload).
	var submit, queue, exec []float64
	for _, op := range b.ops {
		if op.submit > 0 {
			submit = append(submit, float64(op.submit)/float64(time.Millisecond))
			queue = append(queue, float64(op.queue)/float64(time.Millisecond))
			exec = append(exec, float64(op.exec)/float64(time.Millisecond))
		}
	}
	m["axserver.submit_ms"] = metric{median(submit), "ms"}
	m["axserver.queue_wait_ms"] = metric{median(queue), "ms"}
	m["axserver.exec_ms"] = metric{median(exec), "ms"}
	var cacheHits, cacheMisses, appends float64
	if b.srvBefore != nil {
		s0, s1 := b.srvBefore, b.srvAfter
		cacheHits = float64(s1.Cache.Hits - s0.Cache.Hits)
		cacheMisses = float64(s1.Cache.Misses - s0.Cache.Misses)
		if s0.Journal != nil && s1.Journal != nil {
			appends = float64(s1.Journal.Appended - s0.Journal.Appended)
		}
	}
	nJobs := float64(len(submit))
	m["axserver.cache_hit_ratio"] = metric{ratio(cacheHits, cacheHits+cacheMisses), "ratio"}
	m["axserver.journal_appends"] = metric{ratio(appends, nJobs), "count"}

	// runtime: allocation and GC work per operation of the window.
	m["runtime.alloc_mb"] = metric{ratio(d.allocMiB(), nOps), "MiB"}
	m["runtime.gc_cycles"] = metric{ratio(d.gcCycles(), nOps), "count"}
	return m
}

// tracingOverhead is traced minus untraced run time.  Pipeline workloads
// run every seed once traced and once untraced, so the difference is taken
// per seed and its median reported.  Served jobs (seed -1) never run a
// seed both ways, and their tracing adds only client-side spans after each
// job has ended, so there it reads 0.
func tracingOverhead(runs []opRecord) float64 {
	traced, untraced := map[int][]float64{}, map[int][]float64{}
	for _, r := range runs {
		if r.traced {
			traced[r.seed] = append(traced[r.seed], r.run.Seconds())
		} else {
			untraced[r.seed] = append(untraced[r.seed], r.run.Seconds())
		}
	}
	var diffs []float64
	for seed, t := range traced {
		if u := untraced[seed]; seed >= 0 && u != nil {
			diffs = append(diffs, median(t)-median(u))
		}
	}
	return median(diffs)
}
