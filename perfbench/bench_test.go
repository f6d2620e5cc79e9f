package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"autoax/internal/accel"
	"autoax/internal/acl"
	"autoax/internal/apps"
	"autoax/internal/axserver"
	"autoax/internal/core"
	"autoax/internal/imagedata"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the smoke test
// checks the output against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload at the tiny scale, untraced and traced,
// and checks that the result line is correct and carries exactly the
// metrics BENCHMARK.json names, each with its unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	all, err := workloads("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, w := range spec.Workloads {
		if all[w.Name] == nil {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	names := make([]string, 0, len(all))
	for name := range all {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for trace, want := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", name, "--seed", "3", "--seconds", "1",
				"--trace", strconv.Itoa(trace), "--scale", "tiny", "--work-dir", t.TempDir()}
			if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s", name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line is not a result: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics printed, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %q", name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// tinyRun runs a small Sobel methodology run for the corruption tests.
func tinyRun(t *testing.T) *core.Pipeline {
	t.Helper()
	lib, err := acl.Build([]acl.BuildSpec{
		{Op: acl.Op{Kind: acl.Add, Width: 8}, Count: 10},
		{Op: acl.Op{Kind: acl.Add, Width: 9}, Count: 10},
		{Op: acl.Op{Kind: acl.Sub, Width: 10}, Count: 10},
	}, 5, acl.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPipeline(apps.Sobel(), lib, imagedata.BenchmarkSet(1, 32, 24, 5),
		core.Config{TrainConfigs: 30, TestConfigs: 15, SearchEvals: 500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	return p
}

// copyRun returns deep-enough copies of a run's final products for one
// corruption.
func copyRun(p *core.Pipeline) ([][]int, []accel.Result, []int) {
	cfgs := make([][]int, len(p.FinalCfgs))
	for i, c := range p.FinalCfgs {
		cfgs[i] = append([]int(nil), c...)
	}
	return cfgs, append([]accel.Result(nil), p.FinalRes...), append([]int(nil), p.FinalFront...)
}

// TestChecksCatchCorruption feeds the correctness checks a real run's
// results, then the same results deliberately corrupted.
func TestChecksCatchCorruption(t *testing.T) {
	p := tinyRun(t)
	cfgs, res, front := copyRun(p)
	if err := checkPipeline(cfgs, res, front); err != nil {
		t.Fatalf("uncorrupted run rejected: %v", err)
	}
	digest := frontDigest(cfgs, res, front)
	worst := front[0] // the front member with the lowest SSIM
	for _, i := range front {
		if res[i].SSIM < res[worst].SSIM {
			worst = i
		}
	}

	corruptions := map[string]func(cfgs [][]int, res []accel.Result, front []int) ([][]int, []accel.Result, []int){
		"SSIM above 1": func(c [][]int, r []accel.Result, f []int) ([][]int, []accel.Result, []int) {
			r[f[0]].SSIM = 1.5
			return c, r, f
		},
		"SSIM below -1": func(c [][]int, r []accel.Result, f []int) ([][]int, []accel.Result, []int) {
			r[f[len(f)-1]].SSIM = -1.5
			return c, r, f
		},
		"SSIM NaN": func(c [][]int, r []accel.Result, f []int) ([][]int, []accel.Result, []int) {
			r[len(r)-1].SSIM = math.NaN()
			return c, r, f
		},
		"exact baseline missing": func(c [][]int, r []accel.Result, f []int) ([][]int, []accel.Result, []int) {
			for _, cfg := range c {
				cfg[0] = 1
			}
			return c, r, f
		},
		"dominated design on the front": func(c [][]int, r []accel.Result, f []int) ([][]int, []accel.Result, []int) {
			bad := r[worst]
			bad.SSIM /= 2
			bad.Area += 1
			c = append(c, append([]int(nil), c[worst]...))
			r = append(r, bad)
			return c, r, append(f, len(r)-1)
		},
		"front member dropped": func(c [][]int, r []accel.Result, f []int) ([][]int, []accel.Result, []int) {
			return c, r, f[1:]
		},
	}
	for name, corrupt := range corruptions {
		c, r, f := corrupt(copyRun(p))
		if err := checkPipeline(c, r, f); err == nil {
			t.Errorf("%s: corrupted run passed the checks", name)
		}
	}

	_, r, f := copyRun(p)
	r[f[0]].Area += 1e-9
	if frontDigest(cfgs, r, f) == digest {
		t.Error("front digest ignores a changed area")
	}
}

// TestServedChecksCatchCorruption does the same for a served result.
func TestServedChecksCatchCorruption(t *testing.T) {
	p := tinyRun(t)
	cfgs, res := p.FrontResults()
	good := axserver.PipelineResult{}
	for i, c := range cfgs {
		good.Front = append(good.Front, axserver.FrontEntry{Config: c, SSIM: res[i].SSIM, Area: res[i].Area, Energy: res[i].Energy})
	}
	if err := checkServed(good); err != nil {
		t.Fatalf("uncorrupted result rejected: %v", err)
	}
	corrupt := func(f func(r *axserver.PipelineResult)) axserver.PipelineResult {
		r := good
		r.Front = append([]axserver.FrontEntry(nil), good.Front...)
		f(&r)
		return r
	}
	cases := map[string]axserver.PipelineResult{
		"SSIM above 1": corrupt(func(r *axserver.PipelineResult) { r.Front[0].SSIM = 1.01 }),
		"no exact baseline": corrupt(func(r *axserver.PipelineResult) {
			for i := range r.Front {
				r.Front[i].SSIM *= 0.99
			}
		}),
		"dominated entry": corrupt(func(r *axserver.PipelineResult) {
			e := r.Front[0]
			e.SSIM, e.Area = e.SSIM/2, e.Area+1
			r.Front = append(r.Front, e)
		}),
		"empty front": corrupt(func(r *axserver.PipelineResult) { r.Front = nil }),
	}
	for name, r := range cases {
		if err := checkServed(r); err == nil {
			t.Errorf("%s: corrupted result passed the checks", name)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0.5, 3}, {0.9, 5}, {0.2, 1}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of an empty sample is not 0")
	}
}
