package netsim

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// The rate allocator distributes WAN capacity among active flows by
// weighted progressive filling (water-filling). It captures how TCP
// shares a bottleneck in practice rather than ideal max-min fairness:
//
//   - A flow's weight is conns/RTT^RTTBiasExp: more parallel
//     connections claim proportionally more, and short-RTT connections
//     out-compete long-RTT ones (the bias WANify's heterogeneous
//     connections exist to counteract).
//   - A flow can never exceed conns × perConnCap(src,dst) — the window
//     and path-quality limit of each connection — scaled by the link's
//     fluctuation factor, the receiver's memory pressure, and the
//     sender's CPU load.
//   - Per-VM egress/ingress capacities (degraded past the congestion
//     knee) and per-DC-pair `tc` limits are shared resources.
//
// Water-filling raises every unfrozen flow's rate in proportion to its
// weight until some resource saturates; flows crossing a saturated
// resource freeze; repeat until all flows freeze.
//
// # Sharded incremental architecture
//
// The allocator is the simulator's hot path: the evaluation drivers
// invalidate it on every flow start/finish, connection resize, ramp
// step and fluctuation tick, often with dozens to hundreds of
// concurrent shuffle flows in play. Six layers keep a recomputation
// cheap while producing bit-identical rates to the from-scratch oracle
// (allocateReference, kept for tests and benchmarks):
//
//  1. Incremental indexes. Per-VM terminating-connection counts
//     (Sim.vmConns) and per-DC-pair flow lists (Sim.pairFlows) are
//     maintained as flows start/finish/resize, so congestion factors
//     and memory utilization are O(1) lookups. The start-order view of
//     the flows is patched, not re-sorted, when flows start or finish,
//     and each link's fluctuation factor exp(x)·depth is memoised in
//     the fluctuation step for links that carry flows (fluct.go).
//  2. Bottleneck groups (churn.go). The live flows partition into
//     connected components over shared resources; each group is
//     water-filled independently. Filling is a pure function of
//     group-local state, so groups run sequentially or concurrently on
//     a worker pool (Config.Workers) with bit-identical results at any
//     worker count, and scoped invalidation refills only the groups an
//     event touched — clean groups keep their rates and
//     retransmission attributions verbatim. The grouping itself
//     (union-find, ordinals, bucketing), and each group's resource
//     structure (groupFill), are re-derived only when the flow set or
//     the set of rate-limited pairs changed; a group's slot keeps its
//     structure from the group's second fill under a partition on.
//  3. Slab reuse. Each worker owns a fillScratch: resource tables,
//     per-flow state and the live lists are recycled across
//     invocations, as are the group slots' structure and certificate
//     slabs, so a steady-state allocation performs no heap allocation
//     at all. Resources exist only for the VMs and pairs a group
//     actually uses — idle VMs and pairs cost nothing, which is what
//     keeps a 500-DC topology with sparse traffic from paying for 250k
//     pair slots per allocation.
//  4. Per-flow caps outside the resource table. The reference models
//     each flow's own cap as a one-member resource whose weight sum is
//     the flow's weight. Here that headroom lives in the flow's slot:
//     the ratio capAvail/w joins the water level in the pass over
//     active flows, and the cap's saturation test runs as the flow is
//     raised. Only the shared resources (VM egress/ingress, `tc` pair
//     limits) are scanned per round, and their member lists form one
//     flat CSR (compressed sparse row) array.
//  5. Incremental weight sums in the filling loop. Each shared
//     resource's unfrozen-weight sum is cached and recomputed only
//     after one of its member flows froze in the previous round (the
//     recompute rescans that resource's members in original order,
//     which keeps the floating-point summation identical to a
//     from-scratch pass). Unfrozen flows are kept in a compacted
//     order-preserving list, so late rounds stop paying for flows
//     frozen early; the raise pass does the compaction.
//  6. Fill certificates. From a group's second fill under a partition
//     on (a first fill is usually the last before the next regroup on
//     churning and fleet workloads), a full fill records its water level
//     per round (θ), each flow's freeze round, and whether a shared
//     resource alone froze it. When a group is refilled with shared
//     capacities, weights and membership bitwise unchanged — only some
//     flow caps moved (a slow-start ramp step, a CPU-load change, a
//     fluctuation tick) — the changed flows are replayed against the
//     recorded θs, and if none of them could have altered a round, the
//     old rates stand: the filling loop is skipped and only the
//     retransmission attribution, which reads caps, is recomputed.
//     DESIGN.md §2 gives the proof that this is bit-exact.
//
// Determinism: within a group, every floating-point operation happens
// in the same order as the from-scratch reference, with flows visited
// in start (id) order; across groups no state is shared, so neither
// group execution order nor the worker count can perturb a result.
// The merge is trivially deterministic — each group writes rates for
// its own flows, retransmission attributions for its own VMs, and its
// own certificate, and the partition guarantees those sets are
// disjoint.

// allocEps is the relative tolerance deciding when a resource counts
// as saturated in the progressive-filling loop.
const allocEps = 1e-9

// fillFlow is one flow's filling state: its weight, the headroom left
// under its own cap, and its progress.
type fillFlow struct {
	w        float64 // weight conns/RTT^RTTBiasExp
	capAvail float64 // headroom under the flow's own cap
	capMin   float64 // cap saturation threshold eps*max(1, cap)
	rate     float64
	eg, in   int32 // shared egress/ingress resource indices
	pair     int32 // shared pair-limit resource index, -1 when unlimited
	frozen   bool
}

// fillScratch is one worker's reusable filling state (layer 3 of the
// architecture above). Shared resources are stored struct-of-arrays;
// nRes tracks the live prefix so slabs shrink without freeing. A
// scratch is owned by exactly one worker for the duration of an
// allocation; the sequential path uses scratch 0.
type fillScratch struct {
	// VM ordinals while a group's structure is built (epoch-stamped).
	vmLocal []int32
	vmEpoch []uint32
	epoch   uint32

	// pairRes maps pairKey -> pair-limit resource index while a group's
	// structure is built (-1 when not materialized); touched lists the
	// keys to reset afterwards. Sized numDCs² lazily, only when limits
	// exist.
	pairRes []int32
	touched []int

	// Shared-resource slabs, parallel arrays of length >= nRes, in the
	// group's resource order (groupFill).
	nRes     int
	resCap   []float64
	avail    []float64
	availMin []float64 // saturation threshold eps*max(1, cap), precomputed
	sumW     []float64 // cached unfrozen weight sum per resource
	dirty    []bool    // sumW must be rescanned (a member froze)
	liveRes  []int32   // resources that still have unfrozen members
	memF     []float64 // receiver memory factor per group VM

	flows  []fillFlow
	caps   []float64 // per-flow cap (Mbps), read by retransmission attribution
	active []int32   // unfrozen flow indices, compacted, in id order

	// once holds the structure of a group's first fill under a
	// partition, which its slot does not keep (see fillGroup).
	once groupFill

	// Fill counters, summed over scratches by fillCounts.
	fullFills, reusedFills int
}

// groupFill is one bottleneck group's state between fills, held in its
// slot of groupIndex and written only by the worker refilling the
// group. Both parts stay valid until the partition is re-derived:
//
//   - The structure: which shared resources the group has and which
//     flows use each. It depends only on the flow set and the limited
//     pairs, so it is built at most once per partition.
//   - The certificate of the last fill (layer 6): enough to decide, on
//     the next refill, whether new flow caps could change the result.
//
// Both are kept only from the group's second fill under the partition
// on; nFills counts its fills since the partition was derived.
type groupFill struct {
	nFills int
	built  bool
	// Group VMs in first-appearance order: VM l owns shared resources
	// 2l (egress) and 2l+1 (ingress). Pair-limit resources follow, one
	// per pairKeys entry, in first-appearance order.
	vms      []VMID
	pairKeys []int
	// Per flow, in id order: its shared resource indices.
	eg, in, pair []int32
	// CSR membership: the flows using resource ri, in id order, are
	// memFlat[memStart[ri]:memStart[ri+1]].
	memStart, memFlat []int32

	certified bool
	thetas    []float64 // raw water level per round, before clamping at 0
	shared    []float64 // shared-resource capacities, in resource order
	weights   []float64
	caps      []float64
	round     []int32 // per flow: the round it froze in
	// byShared[f]: a shared resource froze flow f and its own cap did
	// not saturate (false for flows its cap or the stall path froze).
	byShared []bool
}

// members returns the flows using shared resource ri, in id order.
func (g *groupFill) members(ri int32) []int32 {
	return g.memFlat[g.memStart[ri]:g.memStart[ri+1]]
}

// localVM returns the ordinal of v in the group VM table being built,
// adding it on first sight.
func (a *fillScratch) localVM(g *groupFill, v VMID) int32 {
	if len(a.vmEpoch) <= int(v) {
		grown := make([]uint32, int(v)+1)
		copy(grown, a.vmEpoch)
		a.vmEpoch = grown
		l := make([]int32, int(v)+1)
		copy(l, a.vmLocal)
		a.vmLocal = l
	}
	if a.vmEpoch[v] != a.epoch {
		a.vmEpoch[v] = a.epoch
		a.vmLocal[v] = int32(len(g.vms))
		g.vms = append(g.vms, v)
	}
	return a.vmLocal[v]
}

// flowsOrdered returns the active flows in start (id) order, reusing
// the cached slice. Sim.flows is permuted by swap-deletes; the
// allocator's float arithmetic must not depend on that permutation.
// The view is kept until the flow set changes, and then patched rather
// than re-sorted: finished flows drop out in place, and flows started
// since (ids above every cached one, usually one or two) are sorted and
// appended.
func (s *Sim) flowsOrdered() []*Flow {
	if !s.flowSetChanged {
		return s.orderBuf
	}
	last := FlowID(-1)
	if n := len(s.orderBuf); n > 0 {
		last = s.orderBuf[n-1].id
	}
	kept := s.orderBuf[:0]
	for _, f := range s.orderBuf {
		if !f.done {
			kept = append(kept, f)
		}
	}
	old := len(kept)
	for _, f := range s.flows {
		if f.id > last {
			kept = append(kept, f)
		}
	}
	slices.SortFunc(kept[old:], func(x, y *Flow) int { return int(x.id - y.id) })
	if len(kept) < len(s.orderBuf) {
		clear(s.orderBuf[len(kept):]) // release finished flows
	}
	s.orderBuf = kept
	s.flowSetChanged = false
	return s.orderBuf
}

// ensureAllocated recomputes flow rates if anything changed.
func (s *Sim) ensureAllocated() {
	if !s.allocDirty {
		return
	}
	s.allocDirty = false
	s.allocate()
	if s.afterAlloc != nil {
		s.afterAlloc()
	}
}

// scratchFor returns worker w's fillScratch, growing the pool.
func (s *Sim) scratchFor(w int) *fillScratch {
	for len(s.scratches) <= w {
		s.scratches = append(s.scratches, &fillScratch{})
	}
	return s.scratches[w]
}

// fillCounts sums the fill counters over every worker scratch: group
// fills that ran the filling loop, and those that kept the certified
// previous fill.
func (s *Sim) fillCounts() (full, reused int) {
	for _, a := range s.scratches {
		full += a.fullFills
		reused += a.reusedFills
	}
	return full, reused
}

// allocate recomputes flow rates: partition the live flows into
// bottleneck groups (or keep the last partition when the flow set and
// the limited pairs are unchanged), decide which groups an event since
// the last allocation touched, and water-fill exactly those,
// concurrently when Config.Workers allows.
func (s *Sim) allocate() {
	order := s.flowsOrdered()
	g := &s.groups
	if len(order) == 0 {
		for _, v := range s.vms {
			v.lastRetrans = 0
		}
		g.dirtyRoots = g.dirtyRoots[:0]
		g.dirtyAll = false
		g.rootEpoch++ // no VM stays stamped: everything is ungrouped
		g.regroup = true
		s.lastGroups, s.lastRefilled = 0, 0
		return
	}
	if g.regroup {
		g.rebuild(s, order)
	} else {
		g.markDirtyGroups()
	}
	g.dirtyRoots = g.dirtyRoots[:0]
	g.dirtyAll = false
	g.dirtyG = g.dirtyG[:0]
	for ord, need := range g.needFill {
		if need {
			g.dirtyG = append(g.dirtyG, int32(ord))
		}
	}

	// Fill the dirty groups. Each group writes only its own flows'
	// rates, its own VMs' retransmission attributions and its own
	// certificate, so the worker assignment cannot influence results.
	if nw := min(s.workers, len(g.dirtyG)); nw > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			ws := s.scratchFor(w)
			wg.Add(1)
			go func(ws *fillScratch) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(g.dirtyG) {
						return
					}
					ord := g.dirtyG[i]
					ws.fillGroup(s, g.bucketed[g.offsets[ord]:g.offsets[ord+1]], &g.fills[ord])
				}
			}(ws)
		}
		wg.Wait()
	} else {
		ws := s.scratchFor(0)
		for _, ord := range g.dirtyG {
			ws.fillGroup(s, g.bucketed[g.offsets[ord]:g.offsets[ord+1]], &g.fills[ord])
		}
	}
	s.lastGroups, s.lastRefilled = len(g.roots), len(g.dirtyG)
}

// fillGroup refills one bottleneck group: flows is the group's member
// flows in start (id) order, g its slot. It writes each flow's rate,
// the retransmission attribution of every VM the group touches, and g,
// and no other simulator state. It reads only
// immutable-within-allocation state from s, so concurrent calls on
// disjoint groups are safe.
//
// A group's first fill under a partition builds its structure in the
// scratch and keeps nothing: on churning and fleet workloads most
// groups are regrouped before a second fill, and the slot build and
// certificate would go unused. From the second fill on the slot keeps
// the structure and the certificate of each full fill.
func (a *fillScratch) fillGroup(s *Sim, flows []*Flow, g *groupFill) {
	g.nFills++
	st, keep := g, g.nFills > 1
	if !keep {
		st = &a.once
		st.built = false
	}
	if !st.built {
		a.build(s, flows, st)
	}
	a.setup(s, flows, st)
	if keep && a.certHolds(st) {
		a.reusedFills++
	} else {
		a.fullFills++
		a.fill(st, keep)
		for fi, f := range flows {
			f.rate = a.flows[fi].rate
		}
	}
	a.attributeRetrans(s, flows, st)
}

// build derives the group's structure: the VM table in first-appearance
// order, each flow's shared resources with pair limits materialized in
// flow order, and the CSR membership of every shared resource.
func (a *fillScratch) build(s *Sim, flows []*Flow, g *groupFill) {
	a.epoch++
	g.vms = g.vms[:0]
	for _, f := range flows {
		a.localVM(g, f.src)
		a.localVM(g, f.dst)
	}
	nRes := int32(2 * len(g.vms))
	g.pairKeys = g.pairKeys[:0]
	g.eg, g.in, g.pair = g.eg[:0], g.in[:0], g.pair[:0]
	for _, f := range flows {
		g.eg = append(g.eg, 2*a.vmLocal[f.src])
		g.in = append(g.in, 2*a.vmLocal[f.dst]+1)
		pair := int32(-1)
		if !math.IsNaN(s.pairLimitAt(f.srcDC, f.dstDC)) {
			if n := len(s.regions) * len(s.regions); len(a.pairRes) < n {
				a.pairRes = make([]int32, n)
				for i := range a.pairRes {
					a.pairRes[i] = -1
				}
			}
			k := s.pairKey(f.srcDC, f.dstDC)
			pair = a.pairRes[k]
			if pair < 0 {
				pair = nRes
				nRes++
				a.pairRes[k] = pair
				a.touched = append(a.touched, k)
				g.pairKeys = append(g.pairKeys, k)
			}
		}
		g.pair = append(g.pair, pair)
	}
	for _, k := range a.touched {
		a.pairRes[k] = -1
	}
	a.touched = a.touched[:0]

	// CSR membership: count, prefix-sum, then fill in flow order.
	g.memStart = append(g.memStart[:0], make([]int32, nRes+1)...)
	for fi := range flows {
		g.memStart[g.eg[fi]+1]++
		g.memStart[g.in[fi]+1]++
		if g.pair[fi] >= 0 {
			g.memStart[g.pair[fi]+1]++
		}
	}
	for ri := int32(1); ri <= nRes; ri++ {
		g.memStart[ri] += g.memStart[ri-1]
	}
	g.memFlat = append(g.memFlat[:0], make([]int32, g.memStart[nRes])...)
	cursor := append(a.active[:0], g.memStart[:nRes]...)
	for fi := range flows {
		g.memFlat[cursor[g.eg[fi]]] = int32(fi)
		cursor[g.eg[fi]]++
		g.memFlat[cursor[g.in[fi]]] = int32(fi)
		cursor[g.in[fi]]++
		if p := g.pair[fi]; p >= 0 {
			g.memFlat[cursor[p]] = int32(fi)
			cursor[p]++
		}
	}
	a.active = cursor[:0]
	g.built = true
}

// setup loads the group's current numbers into the scratch: shared
// capacities (egress and ingress past the congestion knee, pair
// limits), and each flow's weight and cap.
func (a *fillScratch) setup(s *Sim, flows []*Flow, g *groupFill) {
	nf := len(flows)
	a.nRes = 2*len(g.vms) + len(g.pairKeys)
	if cap(a.resCap) < a.nRes {
		a.resCap = make([]float64, a.nRes)
		a.avail = make([]float64, a.nRes)
		a.availMin = make([]float64, a.nRes)
		a.sumW = make([]float64, a.nRes)
		a.dirty = make([]bool, a.nRes)
	}
	a.resCap = a.resCap[:a.nRes]
	if cap(a.memF) < len(g.vms) {
		a.memF = make([]float64, len(g.vms))
	}
	a.memF = a.memF[:len(g.vms)]
	for l, v := range g.vms {
		over := float64(s.vmConns[v] - s.cfg.CongestionKnee)
		if over < 0 {
			over = 0
		}
		cong := 1 / (1 + s.cfg.CongestionSlope*over)
		spec := &s.vms[v].spec
		a.resCap[2*l] = spec.EgressMbps * cong
		a.resCap[2*l+1] = spec.IngressMbps * cong
		a.memF[l] = memFactor(s.memUtil(v))
	}
	for p, k := range g.pairKeys {
		a.resCap[2*len(g.vms)+p] = s.pairLimits[k]
	}

	if cap(a.flows) < nf {
		a.flows = make([]fillFlow, nf)
		a.caps = make([]float64, nf)
	}
	a.flows = a.flows[:nf]
	a.caps = a.caps[:nf]
	for fi, f := range flows {
		srcDC, dstDC := f.srcDC, f.dstDC
		fluct := 1.0
		if p := s.fluct[srcDC][dstDC]; p != nil {
			fluct = p.factor()
		}
		memF := a.memF[g.in[fi]/2]
		cpuF := cpuFactor(s.vms[f.src].cpuLoad)
		capF := float64(f.conns) * s.perConnBase[srcDC][dstDC] * fluct * memF * cpuF * s.rampFactor(f)
		if s.severed(srcDC, dstDC) {
			capF = 0 // active DC partition: the pair delivers nothing
		}
		a.caps[fi] = capF
		a.flows[fi] = fillFlow{
			w:      float64(f.conns) / s.rttBiasPow[srcDC][dstDC],
			capMin: allocEps * math.Max(1, capF),
			eg:     g.eg[fi],
			in:     g.in[fi],
			pair:   g.pair[fi],
		}
	}
}

// fill runs progressive filling over the numbers setup loaded, writing
// the water levels and freeze rounds into g. With certify it also
// records the inputs that make g the certificate of this fill.
func (a *fillScratch) fill(g *groupFill, certify bool) {
	nf := len(a.flows)
	g.certified = certify
	if certify {
		g.shared = append(g.shared[:0], a.resCap[:a.nRes]...)
		g.caps = append(g.caps[:0], a.caps...)
		g.weights = g.weights[:0]
		for fi := range a.flows {
			g.weights = append(g.weights, a.flows[fi].w)
		}
	}
	g.thetas = g.thetas[:0]
	if cap(g.round) < nf {
		g.round = make([]int32, nf)
		g.byShared = make([]bool, nf)
	}
	g.round = g.round[:nf]
	g.byShared = g.byShared[:nf]

	a.active = a.active[:0]
	capTheta := math.Inf(1)
	for fi := range a.flows {
		fl := &a.flows[fi]
		fl.capAvail = a.caps[fi]
		g.byShared[fi] = false
		a.active = append(a.active, int32(fi))
		if t := fl.capAvail / fl.w; t < capTheta {
			capTheta = t
		}
	}
	a.liveRes = a.liveRes[:0]
	for ri := 0; ri < a.nRes; ri++ {
		a.avail[ri] = a.resCap[ri]
		a.availMin[ri] = allocEps * math.Max(1, a.resCap[ri])
		a.dirty[ri] = true
		a.liveRes = append(a.liveRes, int32(ri))
	}
	remaining := nf
	for round := int32(0); remaining > 0; round++ {
		// The water level is the least headroom per unit weight: over
		// the unfrozen flows' own caps (capTheta, gathered while they
		// were raised last round) and over the shared resources. Shared
		// weight sums are cached, and rescanned (in member order, for
		// bit-stable summation) only for resources that lost a member
		// last round. Resources whose members all froze leave the live
		// list: a weight is strictly positive, so sumW == 0 exactly
		// when no unfrozen member is left, and such a resource can
		// never constrain theta or freeze anything again.
		theta := capTheta
		live := a.liveRes[:0]
		for _, ri := range a.liveRes {
			if a.dirty[ri] {
				sum := 0.0
				for _, fi := range g.members(ri) {
					if !a.flows[fi].frozen {
						sum += a.flows[fi].w
					}
				}
				a.sumW[ri] = sum
				a.dirty[ri] = false
			}
			if a.sumW[ri] > 0 {
				live = append(live, ri)
				if t := a.avail[ri] / a.sumW[ri]; t < theta {
					theta = t
				}
			}
		}
		a.liveRes = live
		if math.IsInf(theta, 1) {
			break
		}
		g.thetas = append(g.thetas, theta)
		if theta < 0 {
			theta = 0
		}
		// Raise the water level for the unfrozen flows, in id order,
		// freezing those whose own cap saturates. The same pass drops
		// flows frozen last round from the active list and gathers the
		// next round's capTheta over the flows it leaves unfrozen.
		frozeAny := false
		capTheta = math.Inf(1)
		capArg := int32(-1)
		n := 0
		for _, fi := range a.active {
			fl := &a.flows[fi]
			if fl.frozen {
				continue
			}
			a.active[n] = fi
			n++
			inc := float64(theta * fl.w)
			fl.rate += inc
			a.avail[fl.eg] -= inc
			a.avail[fl.in] -= inc
			if fl.pair >= 0 {
				a.avail[fl.pair] -= inc
			}
			fl.capAvail -= inc
			if !(fl.capAvail > fl.capMin) {
				a.freeze(fl)
				g.round[fi] = round
				remaining--
				frozeAny = true
			} else if t := fl.capAvail / fl.w; t < capTheta {
				capTheta, capArg = t, fi
			}
		}
		a.active = a.active[:n]
		// Freeze flows on exhausted shared resources.
		for _, ri := range a.liveRes {
			if a.avail[ri] > a.availMin[ri] {
				continue
			}
			for _, fi := range g.members(ri) {
				if fl := &a.flows[fi]; !fl.frozen {
					a.freeze(fl)
					g.round[fi], g.byShared[fi] = round, true
					remaining--
					frozeAny = true
				}
			}
		}
		if !frozeAny {
			// Numerical stall: freeze everything to guarantee progress.
			for _, fi := range a.active {
				a.flows[fi].frozen = true
				g.round[fi] = round
				remaining--
			}
			break
		}
		if capArg >= 0 && a.flows[capArg].frozen {
			// A shared resource froze the flow that set capTheta:
			// gather it again over the flows still unfrozen.
			capTheta = math.Inf(1)
			for _, fi := range a.active {
				if fl := &a.flows[fi]; !fl.frozen {
					if t := fl.capAvail / fl.w; t < capTheta {
						capTheta = t
					}
				}
			}
		}
	}
}

// freeze marks fl frozen and its shared resources' weight sums stale.
func (a *fillScratch) freeze(fl *fillFlow) {
	fl.frozen = true
	a.dirty[fl.eg] = true
	a.dirty[fl.in] = true
	if fl.pair >= 0 {
		a.dirty[fl.pair] = true
	}
}

// certHolds reports whether the group's last fill, as g's certificate
// records it, is still the fill of the numbers setup just loaded, and
// brings the certificate up to date when it is. That requires the same
// shared capacities and weights, bit for bit (membership cannot have
// moved: any flow-set or limited-pair change re-derives the partition
// and drops every certificate), and that each flow whose cap changed
// leaves every round as it was: a shared resource froze it, its new
// cap/w never undercuts a round's raw θ, and its new cap does not
// saturate before the round it froze in. DESIGN.md §2 proves that the
// fill is then unchanged.
//
// The replay repeats the fill loop's own statements on the flow's cap
// headroom, so its rounding is the fill's rounding.
func (a *fillScratch) certHolds(g *groupFill) bool {
	if !g.certified || len(g.caps) != len(a.flows) || len(g.shared) != a.nRes {
		return false
	}
	for ri, v := range g.shared {
		if a.resCap[ri] != v {
			return false
		}
	}
	for fi, w := range g.weights {
		if a.flows[fi].w != w {
			return false
		}
	}
	for fi, old := range g.caps {
		capF := a.caps[fi]
		if capF == old {
			continue
		}
		if !g.byShared[fi] {
			return false
		}
		fl := &a.flows[fi]
		capAvail := capF
		last := g.round[fi]
		for round, raw := range g.thetas[:last+1] {
			if capAvail/fl.w < raw {
				return false // the cap would set this round's water level
			}
			theta := raw
			if theta < 0 {
				theta = 0
			}
			capAvail -= float64(theta * fl.w)
			if !(capAvail > fl.capMin) {
				if int32(round) < last {
					return false // the cap would freeze the flow early
				}
				// Saturating in its freeze round changes nothing now,
				// but the cap froze it too: it no longer certifies a
				// later replay.
				g.byShared[fi] = false
			}
		}
	}
	copy(g.caps, a.caps)
	return true
}

// attributeRetrans computes retransmission rates: it attributes
// overload pressure at each VM resource to that VM, proportional to
// how much demand (per-flow caps) exceeds effective capacity.
func (a *fillScratch) attributeRetrans(s *Sim, flows []*Flow, g *groupFill) {
	for _, v := range g.vms {
		s.vms[v].lastRetrans = 0
	}
	for ri := int32(0); ri < int32(2*len(g.vms)); ri++ {
		demand := 0.0
		conns := 0
		for _, fi := range g.members(ri) {
			demand += a.caps[fi]
			conns += flows[fi].conns
		}
		if a.resCap[ri] <= 0 {
			continue
		}
		pressure := demand/a.resCap[ri] - 1
		if pressure > 0 {
			s.vms[g.vms[ri/2]].lastRetrans += 2.0 * pressure * float64(conns)
		}
	}
}

// memFactor degrades per-connection throughput when the receiver runs
// out of buffer headroom (the paper's observation that "each connection
// requires a memory buffer, affecting runtime BW" [17]).
func memFactor(memUtil float64) float64 {
	if memUtil <= 0.85 {
		return 1
	}
	f := 1 - (memUtil-0.85)*2.5
	return math.Max(0.4, f)
}

// cpuFactor degrades sending rate under CPU pressure (sender-limited
// TCP; feature Ci of Table 3 exists because of this coupling).
func cpuFactor(cpuLoad float64) float64 {
	return 1 - 0.25*cpuLoad*cpuLoad
}
