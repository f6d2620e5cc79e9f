package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"autoax/internal/accel"
	"autoax/internal/acl"
	"autoax/internal/axserver"
	"autoax/internal/pareto"
)

// design is one precisely evaluated configuration in the objectives the
// final front is built over: SSIM (maximized), area and energy
// (minimized).
type design struct{ ssim, area, energy float64 }

func (a design) dominates(b design) bool {
	noWorse := a.ssim >= b.ssim && a.area <= b.area && a.energy <= b.energy
	return noWorse && (a.ssim > b.ssim || a.area < b.area || a.energy < b.energy)
}

func designsOf(res []accel.Result) []design {
	ds := make([]design, len(res))
	for i, r := range res {
		ds[i] = design{r.SSIM, r.Area, r.Energy}
	}
	return ds
}

// checkSSIM rejects SSIM values outside the index's range [-1, 1] (NaN
// included).  Heavily approximated designs legitimately score slightly
// below 0, and the cheapest of them sit on the front.
func checkSSIM(ds []design) error {
	for i, d := range ds {
		if !(d.ssim >= -1 && d.ssim <= 1) {
			return fmt.Errorf("design %d: SSIM %v outside [-1,1]", i, d.ssim)
		}
	}
	return nil
}

// checkFront verifies that front (indices into all) is the Pareto front of
// all: no evaluated design dominates a front member, and every design off
// the front is dominated by, or equal to, a front member.
func checkFront(all []design, front []int) error {
	if len(front) == 0 {
		return fmt.Errorf("empty final front")
	}
	if err := checkSSIM(all); err != nil {
		return err
	}
	onFront := make(map[int]bool, len(front))
	for _, i := range front {
		if i < 0 || i >= len(all) {
			return fmt.Errorf("front index %d out of range", i)
		}
		onFront[i] = true
		for j, d := range all {
			if d.dominates(all[i]) {
				return fmt.Errorf("front design %d is dominated by design %d", i, j)
			}
		}
	}
	for j, d := range all {
		if onFront[j] {
			continue
		}
		covered := false
		for _, i := range front {
			if all[i] == d || all[i].dominates(d) {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("non-dominated design %d is missing from the front", j)
		}
	}
	return nil
}

// checkPipeline verifies a finished run's final products: the front is
// non-dominated over the precise results and the exact baseline (circuit 0
// of every reduced library) was re-evaluated.
func checkPipeline(cfgs [][]int, res []accel.Result, front []int) error {
	if len(cfgs) != len(res) {
		return fmt.Errorf("%d final configurations but %d results", len(cfgs), len(res))
	}
	exact := false
	for _, c := range cfgs {
		zero := true
		for _, v := range c {
			zero = zero && v == 0
		}
		exact = exact || zero
	}
	if !exact {
		return fmt.Errorf("exact baseline missing from the final configurations")
	}
	return checkFront(designsOf(res), front)
}

// checkServed verifies a served pipeline result: every front entry is
// mutually non-dominated with SSIM in [-1, 1], and the front reaches SSIM 1
// (the exact baseline, or a design as accurate and cheaper).
func checkServed(r axserver.PipelineResult) error {
	ds := make([]design, len(r.Front))
	idx := make([]int, len(r.Front))
	best := 0.0
	for i, e := range r.Front {
		ds[i] = design{e.SSIM, e.Area, e.Energy}
		idx[i] = i
		best = math.Max(best, e.SSIM)
	}
	if err := checkFront(ds, idx); err != nil {
		return err
	}
	if best != 1 {
		return fmt.Errorf("front never reaches the exact baseline's SSIM 1 (best %v)", best)
	}
	return nil
}

// frontDigest hashes a final front's configurations and the bit patterns of
// their precise results: equal digests mean bit-identical fronts.
func frontDigest(cfgs [][]int, res []accel.Result, front []int) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, i := range front {
		put(uint64(len(cfgs[i])))
		for _, v := range cfgs[i] {
			put(uint64(v))
		}
		r := res[i]
		for _, f := range []float64{r.SSIM, r.Area, r.Delay, r.Power, r.Energy} {
			put(math.Float64bits(f))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// libraryDigest hashes a library's saved form.
func libraryDigest(l *acl.Library) (string, error) {
	h := sha256.New()
	if err := l.Save(h); err != nil {
		return "", fmt.Errorf("hashing library: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hypervolume is the area the front dominates in (−SSIM, area) up to the
// reference point (SSIM 0, refArea).
func hypervolume(ds []design, refArea float64) float64 {
	pts := make([]pareto.Point, len(ds))
	for i, d := range ds {
		pts[i] = pareto.Point{-d.ssim, d.area}
	}
	return pareto.Hypervolume2D(pts, pareto.Point{0, refArea})
}
