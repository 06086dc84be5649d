package netsim

import (
	"fmt"
	"testing"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/substrate"
)

// benchChurnSim builds an 8-DC cluster saturated with nFlows probes
// spread round-robin across all ordered DC pairs — the shape of the
// paper's Fig. 5-10 shuffle phases.
func benchChurnSim(nFlows int) (*Sim, []*Flow) {
	cfg := UniformCluster(geo.TestbedSubset(8), substrate.T2Medium, 99)
	cfg.Frozen = true
	s := NewSim(cfg)
	var pairs [][2]int
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i != j {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	flows := make([]*Flow, nFlows)
	for k := range flows {
		p := pairs[k%len(pairs)]
		flows[k] = s.startProbe(s.FirstVMOfDC(p[0]), s.FirstVMOfDC(p[1]), k%7+1)
	}
	s.ensureAllocated()
	return s, flows
}

// BenchmarkAllocatorChurn measures one allocator recomputation per
// start/finish churn event with 336 concurrent flows — the netsim hot
// path (Figs. 5-10 spawn hundreds of concurrent shuffle flows). The
// "fromscratch" variant runs the original allocator
// (allocateReference); "incremental" runs the production path. The
// ratio is the PR's headline speedup (target >= 5x).
func BenchmarkAllocatorChurn(b *testing.B) {
	const nFlows = 336
	bench := func(b *testing.B, incremental bool) {
		s, flows := benchChurnSim(nFlows)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			// Churn: the oldest flow finishes, a replacement starts.
			k := n % nFlows
			old := flows[k]
			src, dst := old.Src(), old.Dst()
			old.Stop()
			flows[k] = s.startProbe(src, dst, n%7+1)
			if incremental {
				s.ensureAllocated()
			} else {
				s.allocateReference()
			}
		}
	}
	b.Run("incremental", func(b *testing.B) { bench(b, true) })
	b.Run("fromscratch", func(b *testing.B) { bench(b, false) })
}

// BenchmarkAllocatorSteadyState measures a full recomputation with no
// churn: the same flow set regrouped and water-filled from scratch.
func BenchmarkAllocatorSteadyState(b *testing.B) {
	s, _ := benchChurnSim(224)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s.invalidateFull()
		s.ensureAllocated()
	}
}

// BenchmarkAllocatorCapRefill measures one allocation after a change
// that moves only flow caps — the most common refill at paper scale,
// where slow-start ramp steps, CPU-load changes and fluctuation ticks
// outnumber flow starts and finishes. 72 probes share the 8-DC testbed
// with three tc pair limits; each op sets one VM's CPU load (cycling
// through the VMs and four load levels), which rescales the caps of the
// flows it sends and receives, then reallocates. BenchmarkAllocatorChurn
// never takes this path: its flow set changes on every op.
func BenchmarkAllocatorCapRefill(b *testing.B) {
	s, _ := benchChurnSim(72)
	s.SetPairLimit(0, 1, 300)
	s.SetPairLimit(2, 5, 150)
	s.SetPairLimit(6, 3, 500)
	s.ensureAllocated()
	loads := [...]float64{0.1, 0.4, 0.7, 0.95}
	full0, reused0 := s.fillCounts()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s.SetCPULoad(VMID(n%8), loads[(n/8)%len(loads)])
		s.ensureAllocated()
	}
	full, reused := s.fillCounts()
	b.ReportMetric(float64(reused-reused0)/float64(full-full0+reused-reused0), "reused/fill")
}

// BenchmarkAllocatorFleetRefill measures a full regroup-and-fill per op
// on the fleet tiers' many-tiny-groups traffic (fleetBenchSim, 4 flows
// per group) at Workers=0: the sharded numerator of the fleet_alloc_*
// guard ratios, without the unsharded baseline's timing noise.
func BenchmarkAllocatorFleetRefill(b *testing.B) {
	for _, dcs := range []int{10, 100, 500} {
		b.Run(fmt.Sprintf("%ddc", dcs), func(b *testing.B) {
			s, _ := fleetBenchSim(dcs, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				s.invalidateFull()
				s.ensureAllocated()
			}
		})
	}
}

// BenchmarkTimerHeap measures a push/pop cycle on a 512-deep timer
// heap — the event loop's core data structure, hand-rolled to avoid
// the per-event boxing of the old container/heap implementation.
func BenchmarkTimerHeap(b *testing.B) {
	var h timerHeap
	fn := func(float64) {}
	for i := 0; i < 512; i++ {
		h.push(timerEvent{at: float64(i % 97), seq: int64(i), fn: fn})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		h.push(timerEvent{at: float64(n % 89), seq: int64(n + 512), fn: fn})
		h.pop()
	}
}

// BenchmarkTimerLoop measures the full event loop driving 64 recurring
// timers through one simulated second per iteration.
func BenchmarkTimerLoop(b *testing.B) {
	s := frozenSim(2, 1)
	for i := 0; i < 64; i++ {
		s.Every(0.05+0.01*float64(i%10), func(float64) {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s.RunFor(1)
	}
}
