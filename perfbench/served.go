package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"autoax/axclient"
	"autoax/internal/acl"
	"autoax/internal/axserver"
)

const (
	// pollInterval is the fixed pause between Jobs.Get polls of a job.
	// Jobs.Wait is not used: its 25 ms → 2 s backoff would measure the
	// poll schedule rather than the server.
	pollInterval = time.Millisecond
	// clients submit in closed loops: each waits for its job before
	// sending the next.  They work in lockstep rounds: every client sends
	// a fresh request (a miss); when all misses are done, every client
	// resubmits its request once (a hit).  The 1:1 mix of hits to misses
	// is a choice, not an observed traffic pattern.  The lockstep keeps
	// hits from running beside a methodology run, whose load made the hit
	// tail flip between invocations.
	clients = 2
	// serverWorkers run jobs, each with evalWorkers evaluation workers.
	serverWorkers = 2
	evalWorkers   = 1
	// jobTimeout bounds one job; a job past it counts as failed.
	jobTimeout = 2 * time.Minute
)

// servedWorkload drives an in-process axserver on loopback through the
// typed client: each client follows a fresh pipeline request (a
// result-cache miss that runs the whole methodology) with a repeat (a hit).
type servedWorkload struct {
	specs                 []axserver.SpecRequest
	images, width, height int
	train, test, evals    int
	refArea               float64 // front_hv reference area (µm²)
}

// served is quickstart-sized Sobel (5 operations) behind two server
// workers with one evaluation worker each.
var (
	servedFull = &servedWorkload{
		specs:  []axserver.SpecRequest{{Op: "add8", Count: 30}, {Op: "add9", Count: 30}, {Op: "sub10", Count: 25}},
		images: 2, width: 32, height: 24,
		train: 40, test: 25, evals: 2000,
		refArea: 450,
	}
	servedTiny = &servedWorkload{
		specs:  []axserver.SpecRequest{{Op: "add8", Count: 8}, {Op: "add9", Count: 8}, {Op: "sub10", Count: 8}},
		images: 1, width: 32, height: 24,
		train: 16, test: 8, evals: 200,
		refArea: 450,
	}
)

// request is the pipeline job of the given seed, which seeds both the run
// and its images.
func (w *servedWorkload) request(seed int64) axserver.PipelineRequest {
	return axserver.PipelineRequest{
		App:          "sobel",
		Library:      axserver.LibraryRequest{Specs: w.specs, Seed: librarySeed},
		Images:       axserver.ImageSpec{Count: w.images, Width: w.width, Height: w.height, Seed: seed},
		TrainConfigs: w.train,
		TestConfigs:  w.test,
		SearchEvals:  w.evals,
		Seed:         seed,
	}
}

// warmSeed is the pipeline seed of the set-up's warm-up job and missSeed
// the fresh pipeline seed of client c in round i; no two coincide.
func warmSeed(seed int64) int64           { return seed<<20 + 1 }
func missSeed(seed int64, c, i int) int64 { return seed<<20 + int64(2+c+clients*i) }

func (w *servedWorkload) run(ctx context.Context, b *bench) error {
	dir := filepath.Join(b.workDir, fmt.Sprintf("served-%d", os.Getpid()))
	defer os.RemoveAll(dir)

	// Set-up: a fresh server over empty cache, journal and program
	// directories, warmed by a library job and one pipeline job.  Each
	// repeat recomputes the warm-up run from scratch, so its result bytes
	// must not change.
	var srv *server
	var warm []byte
	for i := 0; !b.setupDone(i); i++ {
		if srv != nil {
			srv.close()
		}
		err := b.timeSetup(func() error {
			var err error
			srv, err = startServer(filepath.Join(dir, fmt.Sprintf("setup-%d", i)))
			if err != nil {
				return err
			}
			res, err := srv.warmUp(ctx, w.request(warmSeed(b.seed)))
			if err != nil {
				return err
			}
			if warm != nil && !bytes.Equal(res, warm) {
				b.fail("warm-up result of set-up %d differs from set-up 0", i)
			}
			warm = res
			return nil
		})
		if err != nil {
			if srv != nil {
				srv.close()
			}
			return fmt.Errorf("set-up: %w", err)
		}
	}
	defer srv.close()

	for _, s := range w.specs {
		op, err := acl.ParseOp(s.Op)
		if err != nil {
			return err
		}
		b.specs = append(b.specs, acl.BuildSpec{Op: op, Count: s.Count})
	}
	if _, err := b.buildLibrary(); err != nil {
		return err
	}

	before := srv.s.Stats()
	b.startWindow()
	deadline := b.winStart.Add(b.window)
	ds := make([]*designer, clients)
	for i := range ds {
		ds[i] = &designer{id: i, c: srv.client()}
	}
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		inParallel(ds, func(d *designer) { w.miss(ctx, b, d, round) })
		inParallel(ds, func(d *designer) { w.hit(ctx, b, d) })
		if err := b.libraryBreak(); err != nil {
			return err
		}
	}
	b.endWindow()
	after := srv.s.Stats()
	b.srvBefore, b.srvAfter = &before, &after
	_, err := b.buildLibrary()
	return err
}

// designer is one closed-loop client with its latest request and the
// result bytes of that request's miss (nil when the miss failed).
type designer struct {
	id     int
	c      *axclient.Client
	req    axserver.PipelineRequest
	result []byte
}

// inParallel runs f for every designer at once and waits for all.
func inParallel(ds []*designer, f func(*designer)) {
	var wg sync.WaitGroup
	for _, d := range ds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(d)
		}()
	}
	wg.Wait()
}

// miss submits the designer's next fresh request and waits for it.
func (w *servedWorkload) miss(ctx context.Context, b *bench, d *designer, round int) {
	d.req = w.request(missSeed(b.seed, d.id, round))
	d.result, _ = w.job(ctx, b, d.c, d.req, false)
}

// hit resubmits the designer's latest request, whose result must equal
// the bytes of its miss.
func (w *servedWorkload) hit(ctx context.Context, b *bench, d *designer) {
	if d.result == nil {
		return
	}
	res, ok := w.job(ctx, b, d.c, d.req, true)
	if ok && !bytes.Equal(res, d.result) {
		b.fail("client %d: cache hit returned different result bytes than its miss", d.id)
	}
}

// job submits req, polls it to a terminal state every pollInterval and
// checks the outcome; it returns the job's result bytes.
func (w *servedWorkload) job(ctx context.Context, b *bench, c *axclient.Client, req axserver.PipelineRequest,
	wantHit bool) ([]byte, bool) {
	op := b.attempt()
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	start := time.Now()
	info, err := c.SubmitPipeline(ctx, req)
	submitted := time.Now()
	if err == nil {
		info, err = poll(ctx, c, info)
	}
	seen := time.Now()
	if err != nil {
		b.fail("job %d: %v", op, err)
		return nil, false
	}
	if info.State != axserver.JobSucceeded {
		b.fail("job %s: %s: %s", info.ID, info.State, info.Error)
		return nil, false
	}
	if info.Cached != wantHit {
		b.fail("job %s: cached=%v, want %v", info.ID, info.Cached, wantHit)
		return nil, false
	}
	res, err := axclient.PipelineResultOf(info)
	if err == nil {
		err = checkServed(res)
	}
	if err != nil {
		b.fail("job %s: %v", info.ID, err)
		return nil, false
	}

	// Latency runs from the submit to the poll that sees the job
	// finished, as the designer waits; the server's timestamps split it
	// into submit, queue, execution and poll lag.
	rec := opRecord{
		hit:     wantHit,
		traced:  b.tr != nil,
		seed:    -1,
		latency: seen.Sub(start),
		submit:  submitted.Sub(start),
		queue:   info.Started.Sub(info.Created),
		exec:    info.Ended.Sub(info.Started),
	}
	if !wantHit {
		front := make([]design, len(res.Front))
		for i, e := range res.Front {
			front[i] = design{e.SSIM, e.Area, e.Energy}
		}
		rec.isRun, rec.run = true, rec.exec
		rec.hv = hypervolume(front, w.refArea)
		rec.qorFid, rec.hwFid = res.QoRFidelity, res.HWFidelity
	}
	b.record(rec)
	if b.tr != nil {
		root := b.tr.add(op, 1, "job", start, seen)
		b.tr.add(op, root, "axclient.SubmitPipeline", start, submitted)
		b.tr.add(op, root, "axserver.queue", info.Created, info.Started)
		b.tr.add(op, root, "axserver.exec", info.Started, info.Ended)
		b.tr.add(op, root, "axclient.poll", info.Ended, seen)
	}
	return info.Result, true
}

// poll re-reads a submitted job every pollInterval until it is terminal.
func poll(ctx context.Context, c *axclient.Client, info axserver.JobInfo) (axserver.JobInfo, error) {
	var err error
	for err == nil && !info.State.Terminal() {
		time.Sleep(pollInterval)
		info, err = c.Jobs.Get(ctx, info.ID)
	}
	return info, err
}

// server is an in-process axserver listening on loopback.
type server struct {
	s    *axserver.Server
	http *http.Server
	url  string
	done chan struct{} // closed when Serve returns
	// transports of the clients handed out, closed with the server.
	transports []*http.Transport
}

func startServer(dir string) (*server, error) {
	s, err := axserver.New(axserver.Options{
		Workers:         serverWorkers,
		EvalParallelism: evalWorkers,
		CacheDir:        filepath.Join(dir, "cache"),
		JournalDir:      filepath.Join(dir, "journal"),
		ProgramCacheDir: filepath.Join(dir, "programs"),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	srv := &server{s: s, http: &http.Server{Handler: s.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(srv.done)
		if err := srv.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return srv, nil
}

// client returns a client with its own connection pool.  It is not safe
// to call concurrently.
func (s *server) client() *axclient.Client {
	tr := &http.Transport{}
	s.transports = append(s.transports, tr)
	return axclient.New(s.url, axclient.WithHTTPClient(&http.Client{Transport: tr}))
}

// warmUp builds the request's library through a library job, then runs
// req once, returning its result bytes.
func (s *server) warmUp(ctx context.Context, req axserver.PipelineRequest) ([]byte, error) {
	c := s.client()
	lib, err := c.SubmitLibrary(ctx, req.Library)
	if err == nil {
		lib, err = poll(ctx, c, lib)
	}
	if err == nil && lib.State != axserver.JobSucceeded {
		err = fmt.Errorf("%s: %s", lib.State, lib.Error)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up library job: %w", err)
	}
	job, err := c.SubmitPipeline(ctx, req)
	if err == nil {
		job, err = poll(ctx, c, job)
	}
	if err == nil && job.State != axserver.JobSucceeded {
		err = fmt.Errorf("%s: %s", job.State, job.Error)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up pipeline job: %w", err)
	}
	return job.Result, nil
}

// close stops the listener, waits for Serve to return and shuts the
// server's workers down.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx) // an expired context leaves only idle loopback connections
	<-s.done
	s.s.Close()
	for _, tr := range s.transports {
		tr.CloseIdleConnections()
	}
}
