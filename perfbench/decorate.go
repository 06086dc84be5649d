package main

import (
	"strings"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/substrate"
)

// Decorators for the interfaces the program already accepts. Each is
// used only in the traced run; the untraced run hands the program the
// plain values.

// tracedCluster decorates a substrate.Cluster. Clock steps, reads that
// can trigger a lazy reallocation, and control calls each get a span of
// the backend's layer; callbacks the program registers are wrapped in
// a span of the module that registered them.
type tracedCluster struct {
	inner   substrate.Cluster
	tr      *tracer
	backend string
	step    int
	read    int
	ctl     int
	// Counter names, prefixed with the backend.
	nReads, nFlowStarts, nProbeStarts, nCallbacks, nSimS string
	// snapPairs is how many probes one all-pairs snapshot starts.
	snapPairs float64
}

// traceCluster returns c decorated for tr, or c itself when tr is nil.
func traceCluster(c substrate.Cluster, tr *tracer, backend string) substrate.Cluster {
	if tr == nil {
		return c
	}
	pairs := 0
	for i := 0; i < c.NumDCs(); i++ {
		for j := 0; j < c.NumDCs(); j++ {
			if i != j {
				pairs += len(c.VMsOfDC(i)) * len(c.VMsOfDC(j))
			}
		}
	}
	return &tracedCluster{
		inner: c, tr: tr, backend: backend,
		step:         spanName(backend + ".step"),
		read:         spanName(backend + ".read"),
		ctl:          spanName(backend + ".ctl"),
		nReads:       backend + ".reads",
		nFlowStarts:  backend + ".flow_starts",
		nProbeStarts: backend + ".probe_starts",
		nCallbacks:   backend + ".callbacks",
		nSimS:        backend + ".sim_s",
		snapPairs:    float64(pairs),
	}
}

// wrapCallback returns a runner that executes a callback in a span of
// the given layer, the module that handed it to the substrate.
func (c *tracedCluster) wrapCallback(layer string) func(run func()) {
	cb := c.tr.callbackSpan(layer)
	return func(run func()) {
		c.tr.count(cb.calls, 1)
		c.tr.count(c.nCallbacks, 1)
		c.tr.begin(cb.id)
		run()
		c.tr.end()
	}
}

func (c *tracedCluster) NumDCs() int                       { return c.inner.NumDCs() }
func (c *tracedCluster) NumVMs() int                       { return c.inner.NumVMs() }
func (c *tracedCluster) Regions() []geo.Region             { return c.inner.Regions() }
func (c *tracedCluster) VMsOfDC(dc int) []substrate.VMID   { return c.inner.VMsOfDC(dc) }
func (c *tracedCluster) FirstVMOfDC(dc int) substrate.VMID { return c.inner.FirstVMOfDC(dc) }
func (c *tracedCluster) DCOf(id substrate.VMID) int        { return c.inner.DCOf(id) }
func (c *tracedCluster) Spec(id substrate.VMID) substrate.VMSpec {
	return c.inner.Spec(id)
}
func (c *tracedCluster) PerConnCapMbps(i, j int) float64 { return c.inner.PerConnCapMbps(i, j) }
func (c *tracedCluster) VMAlive(id substrate.VMID) bool  { return c.inner.VMAlive(id) }
func (c *tracedCluster) Now() float64                    { return c.inner.Now() }

func (c *tracedCluster) SetCPULoad(id substrate.VMID, load float64) {
	c.tr.begin(c.ctl)
	c.inner.SetCPULoad(id, load)
	c.tr.end()
}

func (c *tracedCluster) VMStats(id substrate.VMID) substrate.VMStats {
	c.tr.count(c.nReads, 1)
	c.tr.begin(c.read)
	s := c.inner.VMStats(id)
	c.tr.end()
	return s
}

func (c *tracedCluster) SetPairLimit(srcDC, dstDC int, mbps float64) {
	c.tr.begin(c.ctl)
	c.inner.SetPairLimit(srcDC, dstDC, mbps)
	c.tr.end()
}

func (c *tracedCluster) ClearPairLimit(srcDC, dstDC int) {
	c.tr.begin(c.ctl)
	c.inner.ClearPairLimit(srcDC, dstDC)
	c.tr.end()
}

func (c *tracedCluster) StartFlow(src, dst substrate.VMID, conns int, bytes float64, onDone func()) substrate.Flow {
	ci := c.tr.caller()
	c.tr.count(c.nFlowStarts, 1)
	c.tr.count(ci.flowStarts, 1)
	if onDone != nil {
		wrap, inner := c.wrapCallback(ci.layer), onDone
		onDone = func() { wrap(inner) }
	}
	c.tr.begin(c.ctl)
	f := c.inner.StartFlow(src, dst, conns, bytes, onDone)
	c.tr.end()
	return &tracedFlow{inner: f, c: c}
}

func (c *tracedCluster) StartProbe(src, dst substrate.VMID, conns int) substrate.Flow {
	ci := c.tr.caller()
	c.tr.count(c.nProbeStarts, 1)
	c.tr.count(ci.probes, 1)
	if strings.HasSuffix(ci.fn, "measure.BeginSnapshot") {
		c.tr.count("measure.snapshots", 1/c.snapPairs)
	}
	c.tr.begin(c.ctl)
	f := c.inner.StartProbe(src, dst, conns)
	c.tr.end()
	return &tracedFlow{inner: f, c: c}
}

func (c *tracedCluster) PairRate(srcDC, dstDC int) float64 {
	c.tr.count(c.nReads, 1)
	c.tr.begin(c.read)
	r := c.inner.PairRate(srcDC, dstDC)
	c.tr.end()
	return r
}

func (c *tracedCluster) AwaitFlows(maxWait float64, flows ...substrate.Flow) error {
	inner := make([]substrate.Flow, len(flows))
	for i, f := range flows {
		inner[i] = unwrapFlow(f)
	}
	t0 := c.inner.Now()
	c.tr.begin(c.step)
	err := c.inner.AwaitFlows(maxWait, inner...)
	c.tr.end()
	c.tr.count(c.nSimS, c.inner.Now()-t0)
	return err
}

func (c *tracedCluster) KillVM(id substrate.VMID, t float64) {
	c.tr.begin(c.ctl)
	c.inner.KillVM(id, t)
	c.tr.end()
}

func (c *tracedCluster) PartitionDC(dc int, from, until float64) {
	c.tr.begin(c.ctl)
	c.inner.PartitionDC(dc, from, until)
	c.tr.end()
}

func (c *tracedCluster) ResetPair(srcDC, dstDC int, t float64) {
	c.tr.begin(c.ctl)
	c.inner.ResetPair(srcDC, dstDC, t)
	c.tr.end()
}

func (c *tracedCluster) RunFor(d float64) {
	t0 := c.inner.Now()
	c.tr.begin(c.step)
	c.inner.RunFor(d)
	c.tr.end()
	c.tr.count(c.nSimS, c.inner.Now()-t0)
}

func (c *tracedCluster) RunUntil(t float64) {
	t0 := c.inner.Now()
	c.tr.begin(c.step)
	c.inner.RunUntil(t)
	c.tr.end()
	c.tr.count(c.nSimS, c.inner.Now()-t0)
}

func (c *tracedCluster) After(delay float64, fn func(now float64)) {
	wrap := c.wrapCallback(c.tr.caller().layer)
	c.tr.begin(c.ctl)
	c.inner.After(delay, func(now float64) { wrap(func() { fn(now) }) })
	c.tr.end()
}

func (c *tracedCluster) Every(interval float64, fn func(now float64)) func() {
	wrap := c.wrapCallback(c.tr.caller().layer)
	c.tr.begin(c.ctl)
	cancel := c.inner.Every(interval, func(now float64) { wrap(func() { fn(now) }) })
	c.tr.end()
	return cancel
}

// tracedFlow decorates a substrate.Flow started on a tracedCluster.
type tracedFlow struct {
	inner substrate.Flow
	c     *tracedCluster
}

func unwrapFlow(f substrate.Flow) substrate.Flow {
	if tf, ok := f.(*tracedFlow); ok {
		return tf.inner
	}
	return f
}

func (f *tracedFlow) ID() substrate.FlowID { return f.inner.ID() }
func (f *tracedFlow) Src() substrate.VMID  { return f.inner.Src() }
func (f *tracedFlow) Dst() substrate.VMID  { return f.inner.Dst() }
func (f *tracedFlow) Conns() int           { return f.inner.Conns() }
func (f *tracedFlow) Done() bool           { return f.inner.Done() }
func (f *tracedFlow) Probe() bool          { return f.inner.Probe() }
func (f *tracedFlow) Failed() bool         { return f.inner.Failed() }

func (f *tracedFlow) SetConns(n int) {
	f.c.tr.count(f.c.tr.caller().setConns, 1)
	f.c.tr.begin(f.c.ctl)
	f.inner.SetConns(n)
	f.c.tr.end()
}

func (f *tracedFlow) Rate() float64 { return f.read(f.inner.Rate) }

func (f *tracedFlow) TransferredBytes() float64 { return f.read(f.inner.TransferredBytes) }

func (f *tracedFlow) RemainingBytes() float64 { return f.read(f.inner.RemainingBytes) }

func (f *tracedFlow) read(get func() float64) float64 {
	f.c.tr.count(f.c.nReads, 1)
	f.c.tr.begin(f.c.read)
	v := get()
	f.c.tr.end()
	return v
}

func (f *tracedFlow) Stop() {
	f.c.tr.begin(f.c.ctl)
	f.inner.Stop()
	f.c.tr.end()
}

func (f *tracedFlow) OnFail(fn func()) {
	wrap := f.c.wrapCallback(f.c.tr.caller().layer)
	f.c.tr.begin(f.c.ctl)
	f.inner.OnFail(func() { wrap(fn) })
	f.c.tr.end()
}

// tracedSched decorates a spark.Scheduler: every placement is a
// gda.place span.
type tracedSched struct {
	inner spark.Scheduler
	tr    *tracer
}

func traceSched(s spark.Scheduler, tr *tracer) spark.Scheduler {
	if tr == nil {
		return s
	}
	return tracedSched{s, tr}
}

func (s tracedSched) Name() string { return s.inner.Name() }

func (s tracedSched) Place(stageIdx int, stage spark.Stage, layout []float64) spark.Placement {
	s.tr.begin(spanPlace)
	p := s.inner.Place(stageIdx, stage, layout)
	s.tr.end()
	return p
}

// tracedPolicy decorates a spark.ConnPolicy backed by WANify's agents.
type tracedPolicy struct {
	inner spark.ConnPolicy
	tr    *tracer
}

func tracePolicy(p spark.ConnPolicy, tr *tracer) spark.ConnPolicy {
	if tr == nil {
		return p
	}
	return tracedPolicy{p, tr}
}

func (p tracedPolicy) Conns(src substrate.VMID, dstDC int) int {
	p.tr.begin(spanPolicy)
	n := p.inner.Conns(src, dstDC)
	p.tr.end()
	return n
}

func (p tracedPolicy) Register(f substrate.Flow) {
	p.tr.begin(spanPolicy)
	p.inner.Register(f)
	p.tr.end()
}
