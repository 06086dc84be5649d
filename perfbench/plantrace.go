package main

import (
	"fmt"
	"math"
	"os"

	"github.com/wanify/wanify"
	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/gda"
	"github.com/wanify/wanify/internal/measure"
	"github.com/wanify/wanify/internal/optimize"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/substrate"
	"github.com/wanify/wanify/internal/tracesim"
	"github.com/wanify/wanify/internal/workloads"
)

// plan-trace: closed loop, one planning round at a time. A GDA query
// planner calls WANify's interface (the paper's Table 4 usage) over the
// bundled diurnal8 8-region trace replay. Each round advances the
// replay by planStepS, gauges with DetermineRuntimeBW, runs Optimize,
// places every stage of a fixed query batch under five schedulers,
// deploys the agents, and is then scored: the prediction against a
// stable simultaneous measurement, and one query of the batch run on
// the plan as the simulated outcome.
const (
	planRounds = 48     // rounds per pass: one simulated day of the trace
	planStepS  = 1800.0 // simulated seconds the replay advances per round
	planGB     = 100
)

type planWorkload struct{}

// planQueries is the fixed query batch: TPC-DS 82, 95, 11 and 78 over
// uniform input, and TeraSort skewed onto two hot DCs.
func planQueries(n int) ([]spark.Job, error) {
	total := planGB * 1e9
	var jobs []spark.Job
	for _, q := range workloads.TPCDSQueries() {
		j, err := workloads.TPCDS(q, workloads.UniformInput(n, total))
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	return append(jobs, workloads.TeraSort(workloads.SkewedInput(n, total, []int{0, 3}, 0.8))), nil
}

// planSchedulers are the placement policies a round compares: Tetrium,
// Kimchi, and the cost, carbon and blend scorers, all on the predicted
// matrix.
func planSchedulers(pred bwmatrix.Matrix, info gda.ClusterInfo) ([]spark.Scheduler, error) {
	out := []spark.Scheduler{
		gda.Tetrium{Believed: pred, Info: info},
		gda.Kimchi{Believed: pred, Info: info},
	}
	for _, spec := range []string{"cost", "carbon", "blend:jct=0.5,cost=0.3,carbon=0.2"} {
		sc, err := gda.ParseScorer(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, gda.Sched{Scorer: sc, Believed: pred, Info: info})
	}
	return out, nil
}

func (planWorkload) warmup(e *env) error {
	_, err := planPass(e, 2)
	return err
}

func (planWorkload) pass(e *env) (*passResult, error) { return planPass(e, planRounds) }

func planPass(e *env, rounds int) (*passResult, error) {
	p := &passResult{layer: map[string]float64{}}
	seed := e.derive("plan-trace-cluster")
	raw, err := tracesim.New(tracesim.Config{Trace: tracesim.Diurnal8(), Spec: substrate.T2Medium, Seed: seed})
	if err != nil {
		return nil, err
	}
	sim := traceCluster(raw, e.tr, "tracesim")
	fw, err := wanify.New(wanify.Config{Cluster: sim, Rates: rates, Seed: seed}, e.model)
	if err != nil {
		return nil, err
	}
	n := sim.NumDCs()
	queries, err := planQueries(n)
	if err != nil {
		return nil, err
	}
	info := gda.NewClusterInfoEnergy(sim, rates, fw.EnergyRates())
	eng := spark.NewEngine(raw, rates)
	d := newDigest()
	// The replay starts at a seeded time of day.
	sim.RunFor(planOffset(e))

	for r := 0; r < rounds; r++ {
		p.ops++
		e.m.start()
		sim.RunFor(planStepS)
		t0 := nowNanos()
		e.tr.begin(spanGauge)
		pred, rep := fw.DetermineRuntimeBW()
		e.tr.end()
		e.tr.begin(spanOptimize)
		plan := fw.Optimize(pred, wanify.OptimizeOptions{})
		e.tr.end()
		scheds, err := planSchedulers(pred, info)
		if err != nil {
			e.m.stop()
			return nil, err
		}
		var placements []spark.Placement
		for _, q := range queries {
			for _, s := range scheds {
				placements = planQuery(q, traceSched(s, e.tr), placements)
			}
		}
		e.tr.begin(spanDeploy)
		fw.DeployAgents(pred, plan)
		e.tr.end()
		p.planMs = append(p.planMs, float64(nowNanos()-t0)/1e6)
		e.m.stop()

		e.tr.check(func() {
			p.layer["measure.probes_failed"] += float64(rep.FailedProbes)
			if msg := checkPlanRound(pred, plan, placements, optimize.DefaultM); msg != "" {
				p.failed++
				fmt.Fprintf(os.Stderr, "perfbench: plan-trace round %d: %s\n", r, msg)
			}
			for _, pl := range placements {
				d.add(pl...)
			}
			truth, _ := measure.StaticSimultaneous(raw, measure.StableOptions())
			hit, pairs := gaugeScore(pred, truth)
			p.sim.gaugeHit += hit
			p.sim.gaugePairs += pairs
			// Run one query of the batch on the deployed plan.
			q := queries[r%len(queries)]
			res, err := eng.RunJob(q, gda.Tetrium{Believed: pred, Info: info}, fw.ConnPolicy())
			fw.StopAgents()
			if err != nil {
				p.failed++
				fmt.Fprintf(os.Stderr, "perfbench: plan-trace round %d: %v\n", r, err)
				return
			}
			if msg := checkBatchResult(res, false); msg != "" {
				p.failed++
				fmt.Fprintf(os.Stderr, "perfbench: plan-trace round %d: %s\n", r, msg)
			}
			p.sim.jct = append(p.sim.jct, res.JCTSeconds)
			p.sim.cost = append(p.sim.cost, res.Cost.Total())
			p.sim.minPair = append(p.sim.minPair, res.MinShuffleMbps)
			for _, st := range res.Stages {
				p.sim.wait = append(p.sim.wait, st.TransferS)
			}
			d.add(float64(hit), res.JCTSeconds, res.Cost.Total(), res.MinShuffleMbps)
		})
	}
	p.digest = d.h
	p.live = fw
	return p, nil
}

// planOffset is the seeded start of the replay within the trace's day.
func planOffset(e *env) float64 {
	return float64(e.derive("plan-trace-offset")%48) * planStepS
}

// planQuery places every stage of q with s, carrying the data layout
// forward the way the engine does, and appends the placements.
func planQuery(q spark.Job, s spark.Scheduler, out []spark.Placement) []spark.Placement {
	layout := append([]float64(nil), q.InputBytes...)
	for si, st := range q.Stages {
		pl := s.Place(si, st, layout)
		out = append(out, pl)
		total := 0.0
		for _, b := range layout {
			total += b
		}
		sum := 0.0
		for _, f := range pl {
			sum += f
		}
		for j := range layout {
			layout[j] = total * pl[j] / sum * st.Selectivity
		}
	}
	return out
}

// checkPlanRound verifies a round's outputs: the predicted matrix is
// finite and non-negative, every plan window satisfies
// 1 <= min <= max <= M, and every placement sums to 1.
func checkPlanRound(pred bwmatrix.Matrix, plan optimize.Plan, placements []spark.Placement, m int) string {
	for i := range pred {
		for j := range pred[i] {
			if v := pred[i][j]; math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Sprintf("predicted BW %d->%d is %v", i, j, v)
			}
			if i == j {
				continue
			}
			lo, hi := plan.MinConns[i][j], plan.MaxConns[i][j]
			if lo < 1 || lo > hi || hi > m {
				return fmt.Sprintf("window %d->%d is [%d,%d] with M=%d", i, j, lo, hi, m)
			}
		}
	}
	for k, pl := range placements {
		sum := 0.0
		for _, f := range pl {
			if f < 0 {
				return fmt.Sprintf("placement %d has a negative fraction", k)
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Sprintf("placement %d sums to %v", k, sum)
		}
	}
	return ""
}
