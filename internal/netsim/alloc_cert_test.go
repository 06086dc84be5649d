package netsim

import (
	"math"
	"testing"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/substrate"
)

// checkEveryAllocation installs a hook that compares every allocation
// s makes — not only the ones a test step happens to observe — with
// the from-scratch reference, bit for bit, and returns a counter of
// the allocations checked.
func checkEveryAllocation(t *testing.T, s *Sim) *int {
	t.Helper()
	checked := new(int)
	s.afterAlloc = func() {
		*checked++
		// Production and reference both read the memoised fluctuation
		// factor, so a missed refresh would fool the comparison below:
		// check the memo itself on every link that carries a flow.
		for k, flows := range s.pairFlows {
			p := s.fluct[k/len(s.regions)][k%len(s.regions)]
			if len(flows) == 0 || p == nil {
				continue
			}
			if want := math.Exp(p.x) * p.spikeDepth; p.stale || p.f != want {
				t.Fatalf("t=%.3f allocation %d: pair %d fluctuation factor %v (stale %v) != exp(x)·depth %v",
					s.now, *checked, k, p.f, p.stale, want)
			}
		}
		wantRates, wantRetrans := s.allocateReference()
		for i, f := range s.flowsOrdered() {
			if f.rate != wantRates[i] {
				t.Fatalf("t=%.3f allocation %d: flow %d rate %v != reference %v",
					s.now, *checked, f.id, f.rate, wantRates[i])
			}
		}
		for v, want := range wantRetrans {
			if got := s.vms[v].lastRetrans; got != want {
				t.Fatalf("t=%.3f allocation %d: vm %d retrans %v != reference %v",
					s.now, *checked, v, got, want)
			}
		}
	}
	return checked
}

// churnEveryAllocation drives s through a random schedule of flow
// starts and finishes, connection resizes, CPU-load changes, tc limit
// changes and DC partitions, separated by short RunFor slices so that
// slow-start ramp steps, fluctuation ticks and completions fire between
// them. Flow endpoints are random VMs in distinct DCs.
func churnEveryAllocation(s *Sim, seed uint64, steps int) {
	rng := simrand.Derive(seed, "every-allocation")
	nVMs, nDCs := s.NumVMs(), s.NumDCs()
	var live []*Flow
	for step := 0; step < steps; step++ {
		switch op := rng.IntN(20); {
		case op < 5 || len(live) == 0:
			src := VMID(rng.IntN(nVMs))
			dst := VMID(rng.IntN(nVMs))
			for s.DCOf(dst) == s.DCOf(src) {
				dst = VMID(rng.IntN(nVMs))
			}
			conns := rng.IntN(8) + 1
			if rng.IntN(3) == 0 {
				live = append(live, s.startProbe(src, dst, conns))
			} else {
				live = append(live, s.startFlow(src, dst, conns, float64(rng.IntN(400)+1)*1e6, nil))
			}
		case op < 7:
			i := rng.IntN(len(live))
			live[i].Stop()
			live = append(live[:i], live[i+1:]...)
		case op < 8:
			live[rng.IntN(len(live))].SetConns(rng.IntN(10) + 1)
		case op < 10:
			s.SetCPULoad(VMID(rng.IntN(nVMs)), rng.Float64())
		case op < 11:
			src := rng.IntN(nDCs)
			dst := (src + rng.IntN(nDCs-1) + 1) % nDCs
			if rng.IntN(3) == 0 {
				s.ClearPairLimit(src, dst)
			} else {
				s.SetPairLimit(src, dst, float64(rng.IntN(900)+100))
			}
		case op < 12:
			s.PartitionDC(rng.IntN(nDCs), s.Now()+rng.Float64(), s.Now()+1+2*rng.Float64())
		default:
			s.RunFor(rng.Float64() * 0.3)
		}
		kept := live[:0]
		for _, f := range live {
			if !f.Done() {
				kept = append(kept, f)
			}
		}
		live = kept
		s.ensureAllocated()
	}
}

// TestEveryAllocationMatchesReference checks the reused-fill path
// (layer 6 of the allocator) where it runs: after every allocation,
// including those fired inside RunFor by ramp steps and fluctuation
// ticks, rates and retransmission attributions must equal the
// from-scratch reference bit for bit. The counters prove that both the
// reused-fill and the full-fill path ran.
func TestEveryAllocationMatchesReference(t *testing.T) {
	t.Run("testbed8", func(t *testing.T) {
		for seed := uint64(1); seed <= 6; seed++ {
			s := NewSim(UniformCluster(geo.TestbedSubset(8), substrate.T2Medium, seed))
			checked := checkEveryAllocation(t, s)
			churnEveryAllocation(s, seed, 1500)
			full, reused := s.fillCounts()
			t.Logf("seed %d: %d allocations checked, %d full fills, %d reused", seed, *checked, full, reused)
			if full == 0 || reused == 0 {
				t.Fatalf("seed %d: full fills %d, reused fills %d; both paths must run", seed, full, reused)
			}
		}
	})
	t.Run("fleet-workers4", func(t *testing.T) {
		cfg := FleetCluster(12, 2, substrate.T2Medium, 5)
		cfg.Workers = 4
		cfg.Frozen = false
		s := NewSim(cfg)
		checked := checkEveryAllocation(t, s)
		multi := 0
		hook := s.afterAlloc
		s.afterAlloc = func() {
			hook()
			if _, refilled := s.AllocGroups(); refilled > 1 {
				multi++
			}
		}
		churnEveryAllocation(s, 9, 1500)
		full, reused := s.fillCounts()
		t.Logf("%d allocations checked, %d refilled several groups, %d full fills, %d reused", *checked, multi, full, reused)
		if full == 0 || reused == 0 {
			t.Fatalf("full fills %d, reused fills %d; both paths must run", full, reused)
		}
		if multi == 0 {
			t.Fatal("no allocation refilled more than one group; the worker pool never ran")
		}
	})
}

// TestCertReplayEdges pins the replay rules on a hand-built one-flow
// certificate (weight 1, frozen by a shared resource in round 1), for
// the edges a random schedule seldom reaches.
func TestCertReplayEdges(t *testing.T) {
	replay := func(c *groupFill, newCap float64) bool {
		a := &fillScratch{
			flows: []fillFlow{{w: 1, capMin: allocEps * math.Max(1, newCap)}},
			caps:  []float64{newCap},
		}
		return a.certHolds(c)
	}
	cert := func(thetas ...float64) *groupFill {
		return &groupFill{certified: true, thetas: thetas, weights: []float64{1}, caps: []float64{5},
			round: []int32{1}, byShared: []bool{true}}
	}

	// The new cap saturates in round 0, before the recorded freeze
	// round; round 1's level (0) would not reveal it.
	if replay(cert(1, 0), 1) {
		t.Fatal("a cap that freezes the flow before its recorded round was accepted")
	}
	// The new cap undercuts round 1's level.
	if replay(cert(1, 3), 3.5) {
		t.Fatal("a cap below a round's water level was accepted")
	}
	// A cap clear of every level stands, and the certificate takes it.
	c := cert(1, 1)
	if !replay(c, 4) || c.caps[0] != 4 || !c.byShared[0] {
		t.Fatalf("a cap clear of every level was rejected or not recorded: %+v", c)
	}
	// A cap that saturates exactly in the freeze round leaves the fill
	// as it was, but the cap froze the flow too: the certificate says
	// so, and no longer replays that flow.
	if !replay(c, 2) || c.byShared[0] {
		t.Fatal("a cap saturating in the freeze round: still recorded as frozen by a shared resource only")
	}
	if replay(c, 4) {
		t.Fatal("a flow frozen by its own cap was replayed")
	}
}
