package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (q in (0,1]); 0 for
// an empty sample.  The nearest-rank form returns a measured value, never
// an interpolation between two.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// median is the lower median of xs (quantile 0.5); 0 for an empty sample.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns num/den, or 0 when den is 0 (a layer the workload never
// reached reads 0 rather than NaN, which JSON cannot carry).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// peakRSSMiB is the process's peak resident set size (getrusage maxrss,
// reported in KiB on Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
