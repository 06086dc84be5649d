package netsim

import (
	"slices"
	"time"

	"github.com/wanify/wanify/internal/substrate"
)

// Scale-tiered allocator timing on synthetic fleet topologies
// (geo.Fleet via FleetCluster). Where ChurnNsPerOp measures the
// incremental path's scoped-invalidation win at paper scale, these
// timers measure what sharding itself buys when the flow set
// decomposes into many independent bottleneck groups: the cost of a
// full refill (regrouped, every group through the filling loop) under
// the production allocator
// against the pre-sharding formulation — one global filling loop over
// all flows, which answers the same allocation (to float rounding;
// independent components never constrain each other's theta) but pays
// every filling round on the whole flow set instead of per group.
//
// cmd/wanify-bench records one FleetAllocStats per tier (10/100/500
// DCs by default) into BENCH_netsim.json as the fleet_alloc_* keys,
// and the CI guard gates on the sharded/unsharded ratio per tier.

// FleetAllocStats is one scale tier's allocator timing.
type FleetAllocStats struct {
	// DCs and VMsPerDC describe the FleetCluster the tier ran on;
	// Flows and Groups the steady-state traffic it timed (Groups is
	// the bottleneck-group count the sharded allocator decomposed the
	// flow set into).
	DCs, VMsPerDC, Flows, Groups int
	// NsPerFlow is the production sharded allocator's cost per flow
	// for a full refill (regrouped, no fill reused), at the FleetCluster
	// default worker count.
	NsPerFlow float64
	// SequentialNsPerFlow is the same full refill at Workers=0. The
	// NsPerFlow/SequentialNsPerFlow ratio is the parallel speedup;
	// on a single-core runner it sits at or slightly below 1.
	SequentialNsPerFlow float64
	// UnshardedNsPerFlow is the pre-sharding algorithm: one global
	// progressive-filling pass over the whole flow set (same rates to
	// float rounding, no group decomposition), timed via the reference
	// filler with all flows as a single group.
	UnshardedNsPerFlow float64
}

// ParallelSpeedup is the sequential/parallel full-refill ratio (>1
// means the worker pool helped).
func (t FleetAllocStats) ParallelSpeedup() float64 {
	if t.NsPerFlow <= 0 {
		return 0
	}
	return t.SequentialNsPerFlow / t.NsPerFlow
}

// ShardedSpeedup is the unsharded/sharded full-refill ratio: how much
// cheaper the per-group formulation makes a full allocation at this
// tier. This is the number the 100-DC acceptance gate (>=2x) and the
// CI bench guard track.
func (t FleetAllocStats) ShardedSpeedup() float64 {
	if t.NsPerFlow <= 0 {
		return 0
	}
	return t.UnshardedNsPerFlow / t.NsPerFlow
}

// fleetBenchVMs is the per-DC VM count of the benchmark topology,
// matching the fleet experiment driver's cluster shape.
const fleetBenchVMs = 4

// fleetBenchSim builds a fleet tier with steady regional traffic:
// consecutive DC pairs exchange flows whose endpoints chain the pair's
// VMs into one component, so a 2k-DC tier decomposes into k bottleneck
// groups of 8 VMs / 8 flows each — the many-small-groups shape fleet
// workloads produce (regional shuffles, disjoint job footprints).
func fleetBenchSim(dcs, workers int) (*Sim, int) {
	cfg := FleetCluster(dcs, fleetBenchVMs, substrate.T2Medium, 7)
	cfg.Workers = workers
	s := NewSim(cfg)
	nFlows := 0
	for b := 0; b+1 < dcs; b += 2 {
		for v := 0; v < fleetBenchVMs; v++ {
			w := (v + 1) % fleetBenchVMs
			s.startProbe(s.vmsOfDC[b][v], s.vmsOfDC[b+1][w], v%7+1)
			s.startProbe(s.vmsOfDC[b+1][v], s.vmsOfDC[b][w], (v+3)%7+1)
			nFlows += 2
		}
	}
	s.ensureAllocated()
	return s, nFlows
}

// FleetAllocNsPerFlow times full rate allocations on one fleet tier:
// the production sharded path at the FleetCluster default worker count
// and at Workers=0, plus the unsharded global filling baseline, each
// averaged over rounds full refills and normalized per flow.
func FleetAllocNsPerFlow(dcs, rounds int) FleetAllocStats {
	if rounds < 1 {
		rounds = 1
	}
	out := FleetAllocStats{DCs: dcs, VMsPerDC: fleetBenchVMs}

	refill := func(workers int) (nsPerFlow float64) {
		s, nFlows := fleetBenchSim(dcs, workers)
		out.Flows = nFlows
		start := time.Now()
		for r := 0; r < rounds; r++ {
			s.invalidateFull()
			s.ensureAllocated()
		}
		out.Groups, _ = s.AllocGroups()
		return float64(time.Since(start).Nanoseconds()) / float64(rounds) / float64(nFlows)
	}
	out.NsPerFlow = refill(FleetCluster(dcs, fleetBenchVMs, substrate.T2Medium, 7).Workers)
	out.SequentialNsPerFlow = refill(0)

	// Unsharded baseline: the reference filler over all flows as one
	// group — the global round loop the allocator ran before sharding.
	// Rates come out the same to float rounding (independent
	// components never constrain each other's theta), but every
	// filling round walks the entire flow set.
	s, nFlows := fleetBenchSim(dcs, 0)
	order := make([]*Flow, len(s.flows))
	copy(order, s.flows)
	slices.SortFunc(order, func(x, y *Flow) int { return int(x.id - y.id) })
	congFactor := make([]float64, len(s.vms))
	totalConns := make([]int, len(s.vms))
	for _, f := range order {
		totalConns[f.src] += f.conns
		totalConns[f.dst] += f.conns
	}
	for i := range s.vms {
		over := float64(totalConns[i] - s.cfg.CongestionKnee)
		if over < 0 {
			over = 0
		}
		congFactor[i] = 1 / (1 + s.cfg.CongestionSlope*over)
	}
	members := make([]int, nFlows)
	for i := range members {
		members[i] = i
	}
	rates := make([]float64, nFlows)
	retrans := make([]float64, len(s.vms))
	// The unsharded pass costs O(flows) per filling round with rounds
	// proportional to the resource count, so a handful of repetitions
	// is enough for a stable per-flow figure.
	unRounds := max(1, rounds/10)
	start := time.Now()
	for r := 0; r < unRounds; r++ {
		clear(rates)
		clear(retrans)
		s.refFillGroup(order, members, congFactor, rates, retrans)
	}
	out.UnshardedNsPerFlow = float64(time.Since(start).Nanoseconds()) / float64(unRounds) / float64(nFlows)
	return out
}
