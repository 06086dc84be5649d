package main

import (
	"errors"
	"fmt"
	"math"
	"os"

	"github.com/wanify/wanify"
	"github.com/wanify/wanify/internal/agent"
	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/measure"
	"github.com/wanify/wanify/internal/ml/dataset"
	"github.com/wanify/wanify/internal/ml/rf"
	"github.com/wanify/wanify/internal/netsim"
	"github.com/wanify/wanify/internal/predict"
	rgauge "github.com/wanify/wanify/internal/runtime"
	"github.com/wanify/wanify/internal/serve"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/substrate"
)

// serve-4dc: open loop on the simulated clock. A serve.Plane on a 4-DC
// netsim testbed (4 slots, queue 32, a per-tenant quota, model refresh
// through the LRU cache with a deterministic retrain hook, the hardened
// re-gauging controller) receives scripted submissions of small mixed
// jobs at a sustainable rate, one burst that overflows the queue, and
// periodic cancels, while a periodic DC partition makes some gauges
// partial. Arrivals are fixed in simulated time, so host speed never
// changes what arrives when.
const (
	serveDCs         = 4
	serveSlots       = 4
	serveQueueCap    = 32
	serveQuota       = 8
	serveTenants     = 5
	serveStartS      = 60.0
	serveRefreshS    = 120.0
	serveGapMinS     = 1.0 // base inter-arrival gap range, simulated seconds
	serveGapMaxS     = 3.0
	serveBurstJobs   = 100
	serveBurstGapS   = 0.05
	serveCancelEvery = 50
	serveCancelLagS  = 0.25
	// A partition severs DC (k mod serveDCs) for servePartitionS every
	// servePartitionEveryS simulated seconds of the arrival window.
	servePartitionEveryS = 300.0
	servePartitionS      = 45.0
	// After the drain, serveMinPairRounds stable measurements read the
	// weakest pair under the plane's deployment, then serveGaugeRounds
	// more score the plane's model.
	serveMinPairRounds = 20
	serveGaugeRounds   = 24
	// serveClusterSeed fixes the testbed's network weather: the workload
	// seed drives the submission script, not the WAN the plane serves on.
	serveClusterSeed = 1
)

type serveWorkload struct{}

func (serveWorkload) warmup(e *env) error {
	_, err := servePass(e, 60)
	return err
}

func (serveWorkload) pass(e *env) (*passResult, error) { return servePass(e, 2500) }

// serveSpec shapes submission i of the script.
func serveSpec(i int, rng *simrand.Source) serve.JobSpec {
	spec := serve.JobSpec{
		Workload: [...]string{"terasort", "wordcount", "tpcds:q78", "tpcds:q95"}[i%4],
		Tenant:   fmt.Sprintf("team-%d", i%serveTenants),
		InputGB:  rng.Uniform(0.2, 0.8),
		Priority: float64(1 + i%3),
	}
	if i%7 == 0 {
		spec.HotDCs = []int{i % serveDCs}
		spec.HotShare = 0.7
	}
	if i%11 == 0 {
		spec.DCs = []int{0, 1, 2}
	}
	return spec
}

// serveTrain is the plane's retrain hook: a small forest, deterministic
// per fingerprint, so cache hits and retrains replay identically.
func serveTrain(seed uint64, tr *tracer) func(fp uint64) (*predict.Model, error) {
	return func(fp uint64) (*predict.Model, error) {
		tr.begin(spanTrain)
		defer tr.end()
		ds, _ := dataset.Generate(dataset.GenConfig{Sizes: []int{3, 4}, DrawsPerSize: 2, Seed: seed ^ fp})
		return predict.Train(ds, predict.TrainConfig{Forest: rf.Config{NumTrees: 10, Seed: seed ^ fp}})
	}
}

// servePass runs a script of base submissions plus the burst.
func servePass(e *env, base int) (*passResult, error) {
	p := &passResult{layer: map[string]float64{}}
	seed := uint64(serveClusterSeed)
	raw := netsim.NewSim(netsim.UniformCluster(geo.TestbedSubset(serveDCs), substrate.T2Medium, seed))
	sim := traceCluster(raw, e.tr, "netsim")
	fw, err := wanify.New(wanify.Config{
		Cluster: sim, Rates: rates, Seed: seed,
		Agent: agent.Config{Throttle: true},
		Runtime: rgauge.Config{
			Enabled: true, EpochS: 15, HysteresisEpochs: 2, CooldownS: 30,
			StaleAfterS: 120, Hardened: true,
		},
	}, e.model)
	if err != nil {
		return nil, err
	}

	// The script, in simulated seconds after the plane starts: a base
	// trickle, a burst in the middle, and the partitions.
	rng := simrand.Derive(e.seed, "serve-script")
	var arriveAt []float64
	t := 0.0
	for i := 0; i < base; i++ {
		t += rng.Uniform(serveGapMinS, serveGapMaxS)
		arriveAt = append(arriveAt, t)
	}
	last := t
	tb := last / 2
	for i := 0; i < serveBurstJobs; i++ {
		tb += serveBurstGapS
		arriveAt = append(arriveAt, tb)
	}

	sim.RunUntil(serveStartS)
	sink := &serve.MemorySink{}
	plane, err := serve.New(fw, spark.NewEngine(sim, rates), serve.Config{
		Rates: rates, Seed: seed,
		MaxRunning: serveSlots, QueueCap: serveQueueCap, TenantQuota: serveQuota,
		EpochS: 15, RefreshS: serveRefreshS,
		Train: serveTrain(e.seed, e.tr),
		Cache: serve.CacheConfig{Capacity: 3, TTLSeconds: 600},
		Sink:  sink,
	})
	if err != nil {
		return nil, err
	}

	e.m.start()
	e.tr.begin(spanPlaneStart)
	err = plane.Start()
	e.tr.end()
	if err != nil {
		e.m.stop()
		return nil, err
	}

	// The script runs from the instant the plane has started.
	start := sim.Now()
	var faults substrate.FaultSchedule
	for k, at := 0, start+servePartitionEveryS/2; at < start+last; k, at = k+1, at+servePartitionEveryS {
		faults = append(faults, substrate.Fault{Kind: substrate.FaultPartitionDC, DC: k % serveDCs, At: at, Until: at + servePartitionS})
	}
	faults.Apply(sim)
	for i, at := range arriveAt {
		i := i
		spec := serveSpec(i, rng.Derive(fmt.Sprintf("spec-%d", i)))
		sim.After(at, func(float64) {
			p.ops++
			t0 := nowNanos()
			e.tr.begin(spanSubmit)
			st, err := plane.Submit(spec)
			e.tr.end()
			p.planMs = append(p.planMs, float64(nowNanos()-t0)/1e6)
			switch {
			case errors.Is(err, serve.ErrQueueFull) || errors.Is(err, serve.ErrTenantQuota):
				p.refused++
				return
			case err != nil:
				p.failed++
				fmt.Fprintf(os.Stderr, "perfbench: serve submission %d: %v\n", i, err)
				return
			}
			if st.State == "queued" {
				p.layer["serve.queued"]++
			}
			if (i+1)%serveCancelEvery == 0 {
				sim.After(serveCancelLagS, func(float64) {
					e.tr.begin(spanCancel)
					// Races with completion by design; losing is fine.
					_, _ = plane.Cancel(st.ID)
					e.tr.end()
				})
			}
		})
	}
	sim.RunUntil(start + last + 1)
	e.tr.begin(spanPlaneDrive)
	err = plane.DriveUntilIdle(5, 1e6)
	e.tr.end()
	if err == nil {
		sim.RunFor(16) // one last telemetry epoch
	}
	e.m.stop()
	if err != nil {
		return nil, err
	}

	e.tr.check(func() { serveCheck(p, plane, fw, sink, raw) })
	p.live = plane
	return p, nil
}

// serveCheck verifies the pass, harvests its simulated outcomes, and
// scores the plane's model against stable measurements after the drain.
func serveCheck(p *passResult, plane *serve.Plane, fw *wanify.Framework, sink *serve.MemorySink, raw substrate.Cluster) {
	fail := func(format string, args ...any) {
		p.failed++
		fmt.Fprintf(os.Stderr, "perfbench: serve: "+format+"\n", args...)
	}
	st := plane.Stats()
	refused := st.RejectedQueue + st.RejectedQuota
	if st.Submitted != st.Done+st.Canceled+refused+st.Failed {
		fail("submitted %d != done %d + canceled %d + refused %d + failed %d",
			st.Submitted, st.Done, st.Canceled, refused, st.Failed)
	}
	if st.Submitted != p.ops || refused != p.refused {
		fail("plane counted %d submissions (%d refused), the script made %d (%d refused)",
			st.Submitted, refused, p.ops, p.refused)
	}
	if !plane.Idle() {
		fail("plane not idle after the drain")
	}
	lines := sink.Lines()
	if len(lines) == 0 {
		fail("no telemetry")
	}
	d := newDigest()
	for _, l := range lines {
		if !serve.ValidLine(l.String()) {
			fail("invalid telemetry line %q", l.String())
			break
		}
	}
	for _, js := range plane.Jobs() {
		switch js.State {
		case "done":
			p.sim.jct = append(p.sim.jct, js.JCTSeconds)
			p.sim.cost = append(p.sim.cost, js.CostUSD)
			p.layer["spark.wan_gb"] += js.WANGB
			if !(js.CostUSD > 0) || math.IsInf(js.CostUSD, 0) {
				fail("job %d cost %v", js.ID, js.CostUSD)
			}
			p.sim.wait = append(p.sim.wait, js.QueueWaitS)
		case "canceled":
			if js.StartedAt > 0 {
				p.sim.wait = append(p.sim.wait, js.QueueWaitS)
			}
		case "failed":
			fail("job %d failed: %s", js.ID, js.Error)
		}
		d.add(float64(js.ID), js.SubmittedAt, js.StartedAt, js.FinishedAt, js.JCTSeconds, js.CostUSD)
	}
	cs := plane.Cache().Stats()
	p.layer["serve.admitted"] += float64(st.Admitted)
	p.layer["serve.refused"] += float64(refused)
	p.layer["serve.cache_hits"] += float64(cs.Hits)
	p.layer["serve.cache_misses"] += float64(cs.Misses)
	p50, _ := plane.AdmitLatencyNanos()
	p.layer["serve.admit_us_p50"] = float64(p50) / 1e3
	if c := fw.Controller(); c != nil {
		p.layer["runtime.replans"] += float64(c.Replans())
		p.layer["predict.replans"] += float64(c.Replans())
		p.layer["runtime.drift_epochs"] += float64(c.DriftEpochs())
		p.layer["runtime.incidents"] += float64(len(c.Incidents()))
		g := c.Gauge()
		p.layer["measure.retries"] += float64(g.Retries)
		p.layer["measure.probes_failed"] += float64(c.TotalCost().FailedProbes)
		d.add(float64(c.Replans()), float64(len(c.Incidents())), float64(g.Retries))
	}
	d.add(float64(st.Done), float64(st.Canceled), float64(refused), float64(cs.Hits), float64(cs.Misses))

	// The weakest pair the plane's final deployment (its cluster-level
	// throttles included) leaves achievable, by stable measurement once
	// the plane has stopped taking work.
	plane.Close()
	for k := 0; k < serveMinPairRounds; k++ {
		raw.RunFor(30)
		truth, _ := measure.StaticSimultaneous(raw, measure.StableOptions())
		p.sim.minPair = append(p.sim.minPair, truth.MinOffDiagonal())
	}
	d.add(p.sim.minPair...)

	// Score the plane's current model: stop its deployment (clearing
	// cluster-level throttles), then alternate a prediction with a
	// stable simultaneous measurement right after it.
	fw.StopAgents()
	for k := 0; k < serveGaugeRounds; k++ {
		raw.RunFor(30)
		pred, _ := fw.DetermineRuntimeBW()
		truth, _ := measure.StaticSimultaneous(raw, measure.StableOptions())
		hit, pairs := gaugeScore(pred, truth)
		p.sim.gaugeHit += hit
		p.sim.gaugePairs += pairs
	}
	d.add(float64(p.sim.gaugeHit))
	p.digest = d.h
}
