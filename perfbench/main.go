package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"time"

	"github.com/wanify/wanify"
	"github.com/wanify/wanify/internal/ml/dataset"
	"github.com/wanify/wanify/internal/ml/rf"
	"github.com/wanify/wanify/internal/predict"
	"github.com/wanify/wanify/internal/simrand"
)

// setupRepeats is how many times one run performs the whole set-up;
// setup_s reports the median.
const setupRepeats = 3

// minPasses is the fewest timed passes a run makes, so the in-run
// determinism check always compares at least two.
const minPasses = 2

// trainSeed seeds the offline module. It is fixed, not derived from the
// workload seed: a deployment trains once, and set-up should do the
// same work in every run so setup_s compares like with like.
const trainSeed = 1

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: batch-8dc, serve-4dc or plan-trace")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "host seconds the timed phase runs")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics (untraced); 1: per-layer metrics (traced run)")
	flag.Parse()
	o.trace = traceFlag == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// workload is one benchmark input set. A pass replays the workload's
// fixed script from fresh state, so every pass of one seed must produce
// bit-identical simulated outcomes.
type workload interface {
	// warmup runs one short untimed round, filling the gda search pool
	// and the allocator slabs before timing starts.
	warmup(e *env) error
	// pass runs the full script once.
	pass(e *env) (*passResult, error)
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "batch-8dc":
		return batchWorkload{}, nil
	case "serve-4dc":
		return serveWorkload{}, nil
	case "plan-trace":
		return planWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want batch-8dc, serve-4dc or plan-trace)", name)
}

// env is what a workload pass runs against: the trained model, the
// seed, the meter for the timed parts of each op, and the tracer
// (disabled in untraced runs).
type env struct {
	model *predict.Model
	seed  uint64
	m     meter
	tr    *tracer
}

// derive returns a seed for the named input stream of this run.
func (e *env) derive(name string) uint64 { return simrand.Derive(e.seed, name).Uint64() }

// passResult is what one pass reports.
type passResult struct {
	ops     int // ops attempted
	refused int // ops the system refused by design (admission control)
	failed  int // ops that errored or failed an output check
	planMs  []float64
	sim     simOutcome
	digest  uint64
	// live is the pass's top-level state, kept reachable until the
	// retained heap has been read after the last pass.
	live any
	// layer carries counters the workload reads from the program's own
	// accessors (controller, plane, cache) for the traced run.
	layer map[string]float64
}

// simOutcome holds the simulated outcomes of one pass, in op order.
type simOutcome struct {
	jct, cost, minPair, wait []float64
	gaugeHit, gaugePairs     int
}

// phase is what the timed passes of one env add up to.
type phase struct {
	passes               []*passResult
	ops, refused, failed int
	// passRates and passAllocMB are ops per host second and MB
	// allocated per op, one entry per pass; the run reports their
	// medians, which a burst of interference in one pass cannot move.
	passRates, passAllocMB []float64
	hostNanos              int64
	planMs                 []float64
	retainedBytes          uint64
	gcCycles               uint32
	gcPauseNanos           uint64
	nondeterministicPasses int
}

func run(o options) error {
	w, err := newWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	procs := goruntime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	goruntime.GOMAXPROCS(procs)
	fmt.Printf("# env go=%s gomaxprocs=%d numcpu=%d workload=%s seed=%d seconds=%g trace=%v rf_workers=sequential\n",
		goruntime.Version(), procs, goruntime.NumCPU(), o.workload, o.seed, o.seconds, o.trace)

	if o.trace {
		return runTraced(o, w)
	}

	var setups []float64
	var model *predict.Model
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		m, err := trainOffline(trainSeed, nil)
		if err != nil {
			return err
		}
		if err := w.warmup(&env{model: m, seed: o.seed}); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if model == nil {
			model = m
		}
	}
	fmt.Printf("# setup_s samples=%v\n", setups)

	e := &env{model: model, seed: o.seed}
	phs, err := timedPhases([]*env{e}, w, o.seconds)
	if err != nil {
		return err
	}
	ph := phs[0]
	p1 := ph.passes[0]
	fmt.Printf("# timed: passes=%d ops=%d refused=%d failed=%d host_s=%.3f nondeterministic_passes=%d digest=%016x\n",
		len(ph.passes), ph.ops, ph.refused, ph.failed, float64(ph.hostNanos)/1e9, ph.nondeterministicPasses, p1.digest)
	fmt.Printf("# samples plan_ms=%d ops_per_host_s/alloc_mb_per_op=%d passes setup_s=%d set-ups sim_jct=%d sim_cost=%d sim_min_pair=%d sim_wait=%d gauge_pairs=%d (sim_* and gauge_acc from pass 1)\n",
		len(ph.planMs), len(ph.passes), len(setups), len(p1.sim.jct), len(p1.sim.cost), len(p1.sim.minPair), len(p1.sim.wait), p1.sim.gaugePairs)

	metrics := map[string]metric{
		"setup_s":              {median(setups), "s"},
		"ops_per_host_s":       {median(ph.passRates), "op/s"},
		"plan_ms_p50":          {quantile(ph.planMs, 0.50), "ms"},
		"plan_ms_p95":          {quantile(ph.planMs, 0.95), "ms"},
		"alloc_mb_per_op":      {median(ph.passAllocMB), "MB"},
		"retained_heap_mb":     {float64(ph.retainedBytes) / 1e6, "MB"},
		"ok_frac":              {float64(ph.ops-ph.refused-ph.failed) / float64(ph.ops), "ratio"},
		"sim_jct_mean_s":       {mean(p1.sim.jct), "sim_s"},
		"sim_cost_usd_per_job": {mean(p1.sim.cost), "USD"},
		"sim_min_pair_mbps":    {mean(p1.sim.minPair), "Mbps"},
		"sim_queue_wait_p95_s": {quantile(p1.sim.wait, 0.95), "sim_s"},
		"gauge_acc":            {float64(p1.sim.gaugeHit) / float64(p1.sim.gaugePairs), "ratio"},
	}
	correct := ph.failed == 0 && ph.nondeterministicPasses == 0 && allFinite(metrics)
	return emit(correct, ph.ops, ph.failed, metrics)
}

// timedPhases runs whole passes, cycling through envs, until seconds
// of wall time have passed and every env has run minPasses passes.
// Every pass is checked against the first pass of the first env. A
// traced env's passes each run under one root span.
func timedPhases(envs []*env, w workload, seconds float64) ([]*phase, error) {
	phs := make([]*phase, len(envs))
	for i := range phs {
		phs[i] = &phase{}
	}
	var first *passResult
	var live any
	var ms0, ms1 goruntime.MemStats
	goruntime.GC()
	start := time.Now()
	for k := 0; k < minPasses*len(envs) || time.Since(start).Seconds() < seconds; k++ {
		e, ph := envs[k%len(envs)], phs[k%len(envs)]
		e.m = meter{}
		goruntime.ReadMemStats(&ms0)
		e.tr.begin(spanRoot)
		p, err := w.pass(e)
		e.tr.end()
		goruntime.ReadMemStats(&ms1)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = p
		} else if p.digest != first.digest {
			ph.nondeterministicPasses++
			fmt.Fprintf(os.Stderr, "perfbench: pass %d digest %016x differs from pass 1 digest %016x\n",
				k+1, p.digest, first.digest)
		}
		live, p.live = p.live, nil
		ph.passes = append(ph.passes, p)
		ph.ops += p.ops
		ph.refused += p.refused
		ph.failed += p.failed
		ph.hostNanos += e.m.nanos
		ph.passRates = append(ph.passRates, float64(p.ops)/(float64(e.m.nanos)/1e9))
		ph.passAllocMB = append(ph.passAllocMB, float64(e.m.alloc)/1e6/float64(p.ops))
		ph.planMs = append(ph.planMs, p.planMs...)
		ph.gcCycles += ms1.NumGC - ms0.NumGC
		ph.gcPauseNanos += ms1.PauseTotalNs - ms0.PauseTotalNs
	}
	goruntime.GC()
	goruntime.ReadMemStats(&ms1)
	goruntime.KeepAlive(live)
	for _, ph := range phs {
		ph.retainedBytes = ms1.HeapAlloc
	}
	return phs, nil
}

// trainOffline is the paper-scale offline module with the wanify-train
// defaults: 15 monitoring sessions per cluster size 2..8 and a
// 100-tree forest trained by the sequential RNG scheme. With a tracer
// it runs the same two steps of wanify.TrainOffline (bandwidth
// analyzer, then forest training) separately, so each gets a span.
func trainOffline(seed uint64, tr *tracer) (*predict.Model, error) {
	gen := dataset.GenConfig{Sizes: []int{2, 3, 4, 5, 6, 7, 8}, DrawsPerSize: 15, Seed: seed}
	tc := predict.TrainConfig{Forest: rf.Config{NumTrees: 100, Seed: seed}}
	if tr == nil {
		m, _, err := wanify.TrainOffline(gen, tc)
		return m, err
	}
	tr.begin(spanSetupAnalyzer)
	ds, _ := dataset.Generate(gen)
	train, _ := ds.Split(0.2, simrand.Derive(gen.Seed, "train-test-split"))
	tr.end()
	tr.begin(spanSetupTrain)
	m, err := predict.Train(train, tc)
	tr.end()
	return m, err
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func allFinite(ms map[string]metric) bool {
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not finite\n", name)
			return false
		}
	}
	return true
}

// emit prints every metric by name and unit, then the result object as
// the last line of standard output.
func emit(correct bool, attempted, failed int, metrics map[string]metric) error {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// meter accumulates host time and heap allocation over the timed parts
// of a pass: the ops themselves, not the benchmark's checks.
type meter struct {
	nanos int64
	alloc uint64
	t0    time.Time
	a0    uint64
}

func (m *meter) start() {
	m.a0 = heapAllocBytes()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	m.nanos += time.Since(m.t0).Nanoseconds()
	m.alloc += heapAllocBytes() - m.a0
}

func init() {
	// The benchmark pins its own collector settings so a GOGC in the
	// caller's environment cannot change the figures.
	debug.SetGCPercent(100)
}
