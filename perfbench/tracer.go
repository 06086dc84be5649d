package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"time"
)

// The traced run records a span at every call the benchmark decorates:
// its own calls into the program's entry points, every method of the
// substrate.Cluster and substrate.Flow it hands the program, the
// spark.Scheduler and spark.ConnPolicy values it passes in, the serve
// Train hook, and every callback the program registers with the
// substrate. One simulated timeline runs at a time, so the open spans
// form a stack: a span's self time is its duration minus the time its
// child spans cover, and the self times of all spans under the root add
// up to the root's duration exactly.

// Span names are "<layer>.<kind>". The registry is filled at start-up.
var spanNames []string

func spanName(name string) int {
	for i, n := range spanNames {
		if n == name {
			return i
		}
	}
	spanNames = append(spanNames, name)
	return len(spanNames) - 1
}

var (
	spanRoot          = spanName("unattributed.root")
	spanCheck         = spanName("check.run")
	spanSetupAnalyzer = spanName("setup.analyzer")
	spanSetupTrain    = spanName("setup.rf_train")
	spanEnable        = spanName("wanify.enable")
	spanGauge         = spanName("wanify.gauge")
	spanDeploy        = spanName("wanify.deploy")
	spanOptimize      = spanName("optimize.call")
	spanPlace         = spanName("gda.place")
	spanPolicy        = spanName("agent.policy")
	spanRunJob        = spanName("spark.run")
	spanSubmit        = spanName("serve.submit")
	spanCancel        = spanName("serve.cancel")
	spanPlaneStart    = spanName("serve.start")
	spanPlaneDrive    = spanName("serve.drive")
	spanTrain         = spanName("rf.train")
)

// layers are the repository's modules, in report order, plus the
// benchmark's own checks and its glue code outside every decorated
// call ("unattributed").
var layers = []string{
	"netsim", "tracesim", "measure", "predict", "rf", "optimize", "agent",
	"runtime", "gda", "spark", "serve", "wanify", "check", "unattributed", "other",
}

const maxSpanRecords = 1 << 16

type spanRecord struct {
	id         int32
	parent     int32
	start, end int64
}

type frame struct {
	id    int
	rec   int32
	start int64
	child int64
}

// tracer is the span recorder. All methods are no-ops on a nil tracer,
// which is what the untraced run passes around.
type tracer struct {
	base    time.Time
	stack   []frame
	paused  bool
	self    []int64
	total   []int64
	calls   []int64
	records []spanRecord
	dropped int
	counts  map[string]float64
	callers map[uintptr]callerInfo
	cbSpans map[string]cbSpan
	// placeNanos are the individual gda.place durations (for the p50).
	placeNanos []int64
}

// callerInfo describes the program function that called a decorated
// method, with the names of the per-layer counters it feeds.
type callerInfo struct {
	layer, fn                    string
	flowStarts, probes, setConns string
}

// cbSpan is the span and call counter of one layer's callbacks.
type cbSpan struct {
	id    int
	calls string
}

func (t *tracer) callbackSpan(layer string) cbSpan {
	cb, ok := t.cbSpans[layer]
	if !ok {
		cb = cbSpan{spanName(layer + ".cb"), layer + ".cb_calls"}
		t.cbSpans[layer] = cb
	}
	return cb
}

func newTracer() *tracer {
	return &tracer{
		base:    time.Now(),
		counts:  make(map[string]float64),
		callers: make(map[uintptr]callerInfo),
		cbSpans: make(map[string]cbSpan),
	}
}

func (t *tracer) now() int64 { return time.Since(t.base).Nanoseconds() }

func (t *tracer) begin(id int) {
	if t == nil || t.paused {
		return
	}
	rec := int32(-1)
	if len(t.records) < maxSpanRecords {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].rec
		}
		rec = int32(len(t.records))
		t.records = append(t.records, spanRecord{id: int32(id), parent: parent})
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, frame{id: id, rec: rec, start: t.now()})
}

func (t *tracer) end() {
	if t == nil || t.paused {
		return
	}
	end := t.now()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	dur := end - f.start
	for len(t.self) <= f.id {
		t.self = append(t.self, 0)
		t.total = append(t.total, 0)
		t.calls = append(t.calls, 0)
	}
	t.self[f.id] += dur - f.child
	t.total[f.id] += dur
	t.calls[f.id]++
	if n > 0 {
		t.stack[n-1].child += dur
	}
	if f.rec >= 0 {
		t.records[f.rec].start = f.start
		t.records[f.rec].end = end
	}
	if f.id == spanPlace {
		t.placeNanos = append(t.placeNanos, dur)
	}
}

// check runs fn as benchmark check work: one check span, with span
// recording suspended inside it, so scoring and output checks never
// show up as time of the layers they call.
func (t *tracer) check(fn func()) {
	if t == nil {
		fn()
		return
	}
	t.begin(spanCheck)
	t.paused = true
	fn()
	t.paused = false
	t.end()
}

func (t *tracer) count(name string, v float64) {
	if t == nil || t.paused {
		return
	}
	t.counts[name] += v
}

// caller identifies the function that called the decorated method
// which called caller, and the module (layer) it belongs to.
func (t *tracer) caller() callerInfo {
	var pcs [1]uintptr
	goruntime.Callers(3, pcs[:])
	if ci, ok := t.callers[pcs[0]]; ok {
		return ci
	}
	fr, _ := goruntime.CallersFrames(pcs[:]).Next()
	layer := layerOfFunc(fr.Function)
	ci := callerInfo{
		layer: layer, fn: fr.Function,
		flowStarts: layer + ".flow_starts", probes: layer + ".probes", setConns: layer + ".setconns",
	}
	t.callers[pcs[0]] = ci
	return ci
}

const modulePath = "github.com/wanify/wanify"

// layerOfFunc maps a fully qualified function name to its module.
func layerOfFunc(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return "other"
	}
	pkg := fn[:slash+1+dot]
	switch {
	case pkg == "main":
		return "unattributed"
	case pkg == modulePath:
		return "wanify"
	case strings.HasPrefix(pkg, modulePath+"/internal/"):
		rest := strings.TrimPrefix(pkg, modulePath+"/internal/")
		switch rest {
		case "predict", "ml/dataset":
			return "predict"
		case "ml/rf":
			return "rf"
		}
		if i := strings.Index(rest, "/"); i >= 0 {
			rest = rest[:i]
		}
		for _, l := range layers {
			if l == rest {
				return l
			}
		}
	}
	return "other"
}

// layerSelfNanos sums span self time per layer.
func (t *tracer) layerSelfNanos() map[string]int64 {
	out := make(map[string]int64)
	for id, s := range t.self {
		name := spanNames[id]
		out[name[:strings.Index(name, ".")]] += s
	}
	return out
}

func (t *tracer) selfOf(id int) int64 {
	if id < len(t.self) {
		return t.self[id]
	}
	return 0
}

func (t *tracer) callsOf(id int) int64 {
	if id < len(t.calls) {
		return t.calls[id]
	}
	return 0
}

// resetAggregates drops everything recorded so far (the set-up spans)
// before the traced timed phase starts.
func (t *tracer) resetAggregates() {
	t.self, t.total, t.calls = nil, nil, nil
	t.records = t.records[:0]
	t.dropped = 0
	t.placeNanos = nil
	t.counts = make(map[string]float64)
}

// writeSpans dumps the recorded spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range t.records {
		if err := enc.Encode(struct {
			Name    string  `json:"name"`
			Parent  int32   `json:"parent"`
			StartUs float64 `json:"start_us"`
			EndUs   float64 `json:"end_us"`
		}{spanNames[r.id], r.parent, float64(r.start) / 1e3, float64(r.end) / 1e3}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTraced is the --trace 1 run: set up once with spans, then
// alternate untraced passes (the overhead baseline) with traced ones,
// and report per-layer metrics.
func runTraced(o options, w workload) error {
	tr := newTracer()
	model, err := trainOffline(trainSeed, tr)
	if err != nil {
		return err
	}
	setupTrainMs := float64(tr.selfOf(spanSetupTrain)) / 1e6
	setupAnalyzerMs := float64(tr.selfOf(spanSetupAnalyzer)) / 1e6
	if err := w.warmup(&env{model: model, seed: o.seed}); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	tr.resetAggregates()
	envs := []*env{{model: model, seed: o.seed}, {model: model, seed: o.seed, tr: tr}}
	phs, err := timedPhases(envs, w, o.seconds)
	if err != nil {
		return err
	}
	base, ph := phs[0], phs[1]
	hostNanos := tr.total[spanRoot]

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ms := func(id int) float64 { return float64(tr.selfOf(id)) / 1e6 }
	selfByLayer := tr.layerSelfNanos()
	sum := int64(0)
	for _, l := range layers {
		put(l+".self_ms", float64(selfByLayer[l])/1e6, "ms")
		sum += selfByLayer[l]
	}
	for _, b := range []string{"netsim", "tracesim"} {
		step := ms(spanName(b + ".step"))
		put(b+".step_self_ms", step, "ms")
		put(b+".read_ms", ms(spanName(b+".read")), "ms")
		put(b+".reads", tr.counts[b+".reads"], "count")
		put(b+".flow_starts", tr.counts[b+".flow_starts"], "count")
		put(b+".probe_starts", tr.counts[b+".probe_starts"], "count")
		put(b+".callbacks", tr.counts[b+".callbacks"], "count")
		perSimS := 0.0
		if simS := tr.counts[b+".sim_s"]; simS > 0 {
			perSimS = step * 1e3 / simS
		}
		put(b+".host_us_per_sim_s", perSimS, "us/sim_s")
	}
	lc := func(name string) float64 { return tr.counts[name] }
	sumLayer := func(name string) float64 {
		v := 0.0
		for _, p := range ph.passes {
			v += p.layer[name]
		}
		return v
	}
	put("measure.snapshots", math.Round(lc("measure.snapshots")), "count")
	put("measure.probes", lc("measure.probes"), "count")
	put("measure.probes_failed", sumLayer("measure.probes_failed"), "count")
	put("measure.retries", sumLayer("measure.retries"), "count")
	put("wanify.gauge_self_ms", ms(spanGauge), "ms")
	put("wanify.enable_self_ms", ms(spanEnable), "ms")
	put("wanify.deploy_ms", float64(tr.totalOf(spanDeploy))/1e6, "ms")
	put("predict.calls", float64(tr.callsOf(spanGauge)+tr.callsOf(spanEnable))+sumLayer("predict.replans"), "count")
	put("rf.train_ms", float64(tr.totalOf(spanTrain))/1e6, "ms")
	put("rf.train_calls", float64(tr.callsOf(spanTrain)), "count")
	put("rf.setup_train_ms", setupTrainMs, "ms")
	put("setup.analyzer_ms", setupAnalyzerMs, "ms")
	put("optimize.calls", float64(tr.callsOf(spanOptimize)), "count")
	put("gda.place_ms", float64(tr.totalOf(spanPlace))/1e6, "ms")
	put("gda.places", float64(tr.callsOf(spanPlace)), "count")
	placeP50 := 0.0
	if len(tr.placeNanos) > 0 {
		placeP50 = quantile(nanosToFloat(tr.placeNanos, 1e3), 0.5)
	}
	put("gda.place_us_p50", placeP50, "us")
	put("agent.epochs", lc("agent.cb_calls"), "count")
	put("agent.setconns", lc("agent.setconns"), "count")
	put("runtime.epochs", lc("runtime.cb_calls"), "count")
	put("runtime.replans", sumLayer("runtime.replans"), "count")
	put("runtime.drift_epochs", sumLayer("runtime.drift_epochs"), "count")
	put("runtime.incidents", sumLayer("runtime.incidents"), "count")
	put("spark.transfers", lc("spark.flow_starts"), "count")
	put("spark.wan_gb", sumLayer("spark.wan_gb"), "GB")
	put("serve.submit_self_ms", ms(spanSubmit), "ms")
	put("serve.admitted", sumLayer("serve.admitted"), "count")
	put("serve.queued", sumLayer("serve.queued"), "count")
	put("serve.refused", sumLayer("serve.refused"), "count")
	put("serve.cache_hits", sumLayer("serve.cache_hits"), "count")
	put("serve.cache_misses", sumLayer("serve.cache_misses"), "count")
	put("serve.admit_us_p50", medianOfPasses(ph, "serve.admit_us_p50"), "us")
	put("gc.cycles", float64(ph.gcCycles), "count")
	put("gc.pause_ms", float64(ph.gcPauseNanos)/1e6, "ms")
	put("trace.host_ms", float64(hostNanos)/1e6, "ms")
	put("trace.spans", float64(len(tr.records)+tr.dropped), "count")
	tracedRate, baseRate := median(ph.passRates), median(base.passRates)
	put("trace.overhead_frac", 1-tracedRate/baseRate, "ratio")

	fmt.Printf("# traced: passes=%d ops=%d host_ms=%.1f sum_self_ms=%.1f (per-layer self time adds up to the traced host time)\n",
		len(ph.passes), ph.ops, float64(hostNanos)/1e6, float64(sum)/1e6)
	fmt.Printf("# traced: gda.place_us_p50 over %d samples; untraced baseline %.1f op/s, traced %.1f op/s\n",
		len(tr.placeNanos), baseRate, tracedRate)
	printTopLayers(selfByLayer, hostNanos)
	path := filepath.Join(".bench_build", "spans", o.workload+".jsonl")
	if err := tr.writeSpans(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("# spans: %d recorded (%d beyond the in-memory cap not kept) written to %s\n", len(tr.records), tr.dropped, path)

	correct := ph.failed == 0 && base.failed == 0 && ph.nondeterministicPasses == 0 &&
		base.nondeterministicPasses == 0 && sum == hostNanos
	return emit(correct, ph.ops, ph.failed, m)
}

func (t *tracer) totalOf(id int) int64 {
	if id < len(t.total) {
		return t.total[id]
	}
	return 0
}

func nanosToFloat(ns []int64, div float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / div
	}
	return out
}

func medianOfPasses(ph *phase, name string) float64 {
	var xs []float64
	for _, p := range ph.passes {
		if v, ok := p.layer[name]; ok {
			xs = append(xs, v)
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func printTopLayers(self map[string]int64, host int64) {
	type ls struct {
		name string
		ns   int64
	}
	var all []ls
	for l, ns := range self {
		if ns > 0 {
			all = append(all, ls{l, ns})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ns > all[j].ns })
	var parts []string
	for _, x := range all {
		parts = append(parts, fmt.Sprintf("%s=%.1f%%", x.name, 100*float64(x.ns)/float64(host)))
	}
	fmt.Printf("# self time by layer: %s\n", strings.Join(parts, " "))
}
