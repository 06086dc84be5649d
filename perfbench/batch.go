package main

import (
	"fmt"
	"math"
	"os"

	"github.com/wanify/wanify"
	"github.com/wanify/wanify/internal/agent"
	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/gda"
	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/measure"
	"github.com/wanify/wanify/internal/netsim"
	rgauge "github.com/wanify/wanify/internal/runtime"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/substrate"
	"github.com/wanify/wanify/internal/workloads"
)

// batch-8dc: closed loop, one job (or one job set) at a time, on the
// paper's 8-region netsim testbed with one t2.medium per DC. Every
// round builds a fresh cluster warmed to t=600 s, enables WANify with
// throttling and the legacy re-gauging controller, places with Tetrium
// on the predicted matrix and runs the job. Every batchSetEvery-th
// round runs batchSetJobs concurrent copies through EnableJobSet and
// RunJobSet instead.
const (
	batchDCs      = 8
	batchGB       = 100
	batchWarmS    = 600.0
	batchRounds   = 30 // rounds per pass
	batchSetEvery = 5
	batchSetJobs  = 3
)

var rates = cost.DefaultRates()

type batchWorkload struct{}

// batchJob is round r's job: the rotating mix of TeraSort, TPC-DS q78
// and q95, and TeraSort skewed onto 4 hot DCs.
func batchJob(r int) (spark.Job, wanify.OptimizeOptions, error) {
	total := batchGB * 1e9
	switch r % 4 {
	case 0:
		return workloads.TeraSort(workloads.UniformInput(batchDCs, total)), wanify.OptimizeOptions{}, nil
	case 1:
		j, err := workloads.TPCDS(78, workloads.UniformInput(batchDCs, total))
		return j, wanify.OptimizeOptions{}, err
	case 2:
		j, err := workloads.TPCDS(95, workloads.UniformInput(batchDCs, total))
		return j, wanify.OptimizeOptions{}, err
	default:
		in := workloads.SkewedInput(batchDCs, total, []int{0, 2, 4, 6}, 0.8)
		return workloads.TeraSort(in), wanify.OptimizeOptions{SkewWeights: workloads.SkewWeights(in)}, nil
	}
}

// batchCluster builds a fresh testbed, decorated for tr, and warms it
// up to batchWarmS.
func batchCluster(seed uint64, tr *tracer) substrate.Cluster {
	sim := traceCluster(netsim.NewSim(netsim.UniformCluster(geo.TestbedSubset(batchDCs), substrate.T2Medium, seed)), tr, "netsim")
	sim.RunUntil(batchWarmS)
	return sim
}

func (batchWorkload) warmup(e *env) error {
	p := &passResult{layer: map[string]float64{}}
	return batchRound(e, p, newDigest(), 0)
}

func (batchWorkload) pass(e *env) (*passResult, error) {
	p := &passResult{layer: map[string]float64{}}
	d := newDigest()
	for r := 0; r < batchRounds; r++ {
		if err := batchRound(e, p, d, r); err != nil {
			return nil, err
		}
	}
	p.digest = d.h
	return p, nil
}

// batchRound runs round r: one job, or a set of batchSetJobs copies.
func batchRound(e *env, p *passResult, d *digest, r int) error {
	job, opts, err := batchJob(r)
	if err != nil {
		return err
	}
	clusterSeed := e.derive(fmt.Sprintf("batch-round-%d", r))
	sim := batchCluster(clusterSeed, e.tr)
	fw, err := wanify.New(wanify.Config{
		Cluster: sim, Rates: rates, Seed: clusterSeed,
		Agent:   agent.Config{Throttle: true},
		Runtime: rgauge.Config{Enabled: true},
	}, e.model)
	if err != nil {
		return err
	}
	eng := spark.NewEngine(sim, rates)
	info := gda.NewClusterInfo(sim, rates)
	jobs := 1
	if r%batchSetEvery == batchSetEvery-1 {
		jobs = batchSetJobs
	}
	p.ops += jobs

	e.m.start()
	t0 := nowNanos()
	var pred bwmatrix.Matrix
	var rep measure.Report
	var policies []spark.ConnPolicy
	e.tr.begin(spanEnable)
	if jobs == 1 {
		var pol spark.ConnPolicy
		pred, pol, rep = fw.Enable(opts)
		policies = []spark.ConnPolicy{pol}
	} else {
		pred, policies, rep, err = fw.EnableJobSet(wanify.JobSetOptions{Jobs: jobs, Optimize: opts})
	}
	e.tr.end()
	p.planMs = append(p.planMs, float64(nowNanos()-t0)/1e6)
	sched := traceSched(gda.Tetrium{Label: "tetrium(wanify)", Believed: pred, Info: info}, e.tr)
	var results []spark.RunResult
	if err == nil {
		e.tr.begin(spanRunJob)
		if jobs == 1 {
			var res spark.RunResult
			res, err = eng.RunJob(job, sched, tracePolicy(policies[0], e.tr))
			results = []spark.RunResult{res}
		} else {
			runs := make([]spark.JobRun, jobs)
			for k := range runs {
				runs[k] = spark.JobRun{Job: job, Sched: sched, Policy: tracePolicy(policies[k], e.tr)}
			}
			var set spark.JobSetResult
			set, err = eng.RunJobSet(runs)
			results = set.Results
		}
		e.tr.end()
	}
	ctl := fw.Controller()
	e.m.stop()

	e.tr.check(func() {
		if ctl != nil {
			p.layer["runtime.replans"] += float64(ctl.Replans())
			p.layer["predict.replans"] += float64(ctl.Replans())
			p.layer["runtime.drift_epochs"] += float64(ctl.DriftEpochs())
			p.layer["runtime.incidents"] += float64(len(ctl.Incidents()))
		}
		fw.StopAgents()
		p.layer["measure.probes_failed"] += float64(rep.FailedProbes)
		if err != nil {
			p.failed += jobs
			fmt.Fprintf(os.Stderr, "perfbench: batch round %d: %v\n", r, err)
			return
		}
		for _, res := range results {
			if msg := checkBatchResult(res, jobs > 1); msg != "" {
				p.failed++
				fmt.Fprintf(os.Stderr, "perfbench: batch round %d: %s\n", r, msg)
			}
			p.sim.jct = append(p.sim.jct, res.JCTSeconds)
			p.sim.cost = append(p.sim.cost, res.Cost.Total())
			p.sim.minPair = append(p.sim.minPair, res.MinShuffleMbps)
			for _, st := range res.Stages {
				p.sim.wait = append(p.sim.wait, st.TransferS)
			}
			p.layer["spark.wan_gb"] += res.WANBytes / 1e9
			d.add(res.JCTSeconds, res.Cost.Total(), res.MinShuffleMbps, res.WANBytes)
		}
		// Stable simultaneous measurement on an identical twin cluster
		// at the instant the prediction describes, so scoring cannot
		// perturb the job.
		twin := batchCluster(clusterSeed, nil)
		twin.RunFor(1)
		truth, _ := measure.StaticSimultaneous(twin, measure.StableOptions())
		hit, pairs := gaugeScore(pred, truth)
		p.sim.gaugeHit += hit
		p.sim.gaugePairs += pairs
		d.add(float64(hit))
	})
	p.live = fw
	return nil
}

// checkBatchResult verifies one job: it completed, every launched WAN
// byte was delivered, its cost is finite and positive, and every stage
// placement sums to 1. It returns "" when the job passes.
func checkBatchResult(res spark.RunResult, fromSet bool) string {
	if !(res.JCTSeconds > 0) || math.IsInf(res.JCTSeconds, 0) {
		return fmt.Sprintf("job %s: JCT %v", res.Job, res.JCTSeconds)
	}
	if c := res.Cost.Total(); !(c > 0) || math.IsInf(c, 0) {
		return fmt.Sprintf("job %s: cost %v", res.Job, c)
	}
	if res.LostBytes != 0 || res.Recoveries != 0 {
		return fmt.Sprintf("job %s: lost %v bytes in %d recoveries without faults", res.Job, res.LostBytes, res.Recoveries)
	}
	wan := 0.0
	for _, st := range res.Stages {
		sum := 0.0
		for _, f := range st.Placement {
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Sprintf("job %s stage %s: placement sums to %v", res.Job, st.Name, sum)
		}
		planned := 0.0
		for i := range st.PairBytes {
			for j := range st.PairBytes[i] {
				// The engine launches no flow for a sub-byte entry.
				if i != j && st.PairBytes[i][j] >= 1 {
					planned += st.PairBytes[i][j]
				}
			}
		}
		if !closeRel(planned, st.WANBytes) {
			return fmt.Sprintf("job %s stage %s: launched %v of %v planned WAN bytes", res.Job, st.Name, st.WANBytes, planned)
		}
		if fromSet && !closeRel(st.DeliveredBytes, st.WANBytes) {
			return fmt.Sprintf("job %s stage %s: delivered %v of %v launched WAN bytes", res.Job, st.Name, st.DeliveredBytes, st.WANBytes)
		}
		wan += st.WANBytes
	}
	if !closeRel(wan, res.WANBytes) {
		return fmt.Sprintf("job %s: stage WAN bytes %v, job total %v", res.Job, wan, res.WANBytes)
	}
	return ""
}

func closeRel(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
