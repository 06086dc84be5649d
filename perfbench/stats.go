package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

var processStart = time.Now()

// nowNanos reads the monotonic clock.
func nowNanos() int64 { return int64(time.Since(processStart)) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN when xs is empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes returns the cumulative bytes allocated on the heap.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// digest folds float64 bit patterns into a 64-bit FNV-1a hash: two
// passes agree only if every value is bit-identical.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 14695981039346656037} } // FNV-64 offset basis

func (d *digest) add(xs ...float64) {
	for _, x := range xs {
		b := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			d.h ^= b & 0xff
			d.h *= 1099511628211
			b >>= 8
		}
	}
}

// gaugeScore counts the off-diagonal pairs of a predicted matrix within
// 100 Mbps of the measured one, the paper's accuracy criterion.
func gaugeScore(pred, truth [][]float64) (hit, pairs int) {
	for i := range pred {
		for j := range pred[i] {
			if i == j {
				continue
			}
			pairs++
			if math.Abs(pred[i][j]-truth[i][j]) <= 100 {
				hit++
			}
		}
	}
	return hit, pairs
}
