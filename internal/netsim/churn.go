package netsim

import (
	"math"
	"time"

	"github.com/wanify/wanify/internal/geo"
	"github.com/wanify/wanify/internal/substrate"
)

// Flow-churn bookkeeping: the bottleneck-group index maintained as
// flows start and finish, plus the out-of-framework churn timers that
// cmd/wanify-bench records into BENCH_netsim.json.
//
// # Bottleneck groups
//
// Two flows interact in the allocator only when they share a resource:
// a VM's egress/ingress capacity, or a per-DC-pair `tc` limit. The
// transitive closure of "shares a resource" partitions the active flow
// set into independent bottleneck groups — connected components of the
// graph whose vertices are VMs and whose edges are (src, dst) per flow,
// plus links between flows on the same rate-limited DC pair. Groups
// share no state, so each can be water-filled on its own: sequentially
// in any order, or concurrently on a worker pool, with bit-identical
// results either way (see alloc.go).
//
// At paper scale (≤8 DCs, all-to-all shuffles) the whole flow set is
// one group and grouping changes nothing; the win appears at fleet
// scale, where traffic decomposes into many independent components and
// allocation cost drops from (total rounds × total flows) to the sum
// of each group's own rounds × flows.
//
// The index is maintained across churn with epoch-stamped slabs: a
// flow start unions its endpoints (and can only merge groups, which
// union-find handles incrementally), while a finish can split a group,
// so component assignment is re-derived from the live flow set at the
// next allocation that follows a flow start or finish, or a pair limit
// appearing or clearing — an O(flows α(VMs)) sweep. Any other event
// (ramp step, fluctuation tick, CPU load, resize, limit value) keeps
// the partition, its ordinals and its bucketing as they are. What
// persists between allocations is the dirty set: events record the
// group they touched (via the owning VM's root at the last
// allocation), and the next allocation refills only groups containing
// a dirtied or regrouped VM, keeping every other group's rates and
// retransmission attributions untouched. Each group slot also holds
// the group's fill certificate (alloc.go, layer 6); re-deriving the
// partition drops them all.

// groupIndex is the Sim's bottleneck-group state. All slabs are epoch
// stamped so per-allocation resets cost O(touched), not O(VMs).
type groupIndex struct {
	// regroup is set when the flow set or the set of rate-limited pairs
	// changed: the next allocation re-derives the partition.
	regroup bool

	// Union-find over VM ids, rebuilt when regroup is set.
	parent  []VMID
	ufEpoch []uint32
	epoch   uint32

	// vmRoot[v] is v's group root at the last completed allocation,
	// valid while vmRootEpoch[v] == rootEpoch. Scoped invalidation keys
	// dirt by these roots.
	vmRoot      []VMID
	vmRootEpoch []uint32
	rootEpoch   uint32

	// Dirt accumulated since the last allocation. dirtyRoots holds the
	// last-allocation roots of touched groups (duplicates are fine);
	// dirtyAll refills everything (fluctuation ticks, partitions).
	dirtyRoots []VMID
	rootDirty  []bool // scratch keyed by root VM during one allocation
	dirtyAll   bool

	// pairFirst links flows that share a rate-limited DC pair during
	// grouping: first source VM seen per pair key, reset via the
	// touched list. Sized numDCs² lazily, only when limits exist.
	pairFirst   []VMID
	pairFirstOK []bool
	pairTouched []int

	// Group assembly scratch for one allocation.
	ordOf    []int32 // per root VM: group ordinal (epoch-stamped)
	ordEpoch []uint32
	flowOrd  []int32 // per ordered-flow index: group ordinal
	roots    []VMID  // per ordinal: root VM
	counts   []int32 // per ordinal: member flows
	offsets  []int32 // per ordinal: start offset into bucketed
	cursor   []int32 // bucketing write cursors
	bucketed []*Flow // flows grouped by ordinal, id order within each
	needFill []bool  // per ordinal: group must be refilled
	dirtyG   []int32 // ordinals needing refill

	// fills[ord] is group ord's structure and fill certificate (see
	// groupFill), written only by the worker refilling that group.
	fills []groupFill
}

func (g *groupIndex) grow(nVMs int) {
	if len(g.parent) < nVMs {
		g.parent = make([]VMID, nVMs)
		g.ufEpoch = make([]uint32, nVMs)
		g.vmRoot = make([]VMID, nVMs)
		g.vmRootEpoch = make([]uint32, nVMs)
		g.rootDirty = make([]bool, nVMs)
		g.ordOf = make([]int32, nVMs)
		g.ordEpoch = make([]uint32, nVMs)
	}
}

// beginEpoch starts a fresh union-find pass over the live flow set.
func (g *groupIndex) beginEpoch(nVMs int) {
	g.grow(nVMs)
	g.epoch++
}

// find returns v's current root, lazily initializing the slot for this
// epoch and halving paths as it walks.
func (g *groupIndex) find(v VMID) VMID {
	if g.ufEpoch[v] != g.epoch {
		g.ufEpoch[v] = g.epoch
		g.parent[v] = v
		return v
	}
	for g.parent[v] != v {
		p := g.parent[v]
		if g.ufEpoch[p] != g.epoch {
			// Cannot happen (parents are always initialized), but keep
			// the walk safe against stale slabs.
			g.ufEpoch[p] = g.epoch
			g.parent[p] = p
		}
		g.parent[v] = g.parent[p] // path halving
		v = g.parent[v]
	}
	return v
}

func (g *groupIndex) union(a, b VMID) {
	ra, rb := g.find(a), g.find(b)
	if ra != rb {
		// Deterministic tie-break (lower VM id wins) so the root of a
		// component is a pure function of its edge set.
		if ra < rb {
			g.parent[rb] = ra
		} else {
			g.parent[ra] = rb
		}
	}
}

// linkLimitedPairs adds the pair-limit edges: every flow on a
// rate-limited DC pair is linked to the first flow seen on that pair,
// so the shared `tc` resource keeps its users in one group even when
// they touch disjoint VMs (multi-VM DCs).
func (g *groupIndex) linkLimitedPairs(s *Sim, order []*Flow) {
	if s.numLimits == 0 {
		return
	}
	if n := len(s.regions) * len(s.regions); len(g.pairFirst) < n {
		g.pairFirst = make([]VMID, n)
		g.pairFirstOK = make([]bool, n)
	}
	for _, f := range order {
		if math.IsNaN(s.pairLimitAt(f.srcDC, f.dstDC)) {
			continue
		}
		k := s.pairKey(f.srcDC, f.dstDC)
		if g.pairFirstOK[k] {
			g.union(f.src, g.pairFirst[k])
		} else {
			g.pairFirst[k] = f.src
			g.pairFirstOK[k] = true
			g.pairTouched = append(g.pairTouched, k)
		}
	}
	for _, k := range g.pairTouched {
		g.pairFirstOK[k] = false
	}
	g.pairTouched = g.pairTouched[:0]
}

// rebuild re-derives the partition of the live flow set (order, in id
// order) into bottleneck groups: union-find, group ordinals by first
// appearance, and bucketing. It decides which groups need a refill
// from the dirt recorded against the previous partition, then stamps
// the new one, and drops every group's structure and fill certificate.
func (g *groupIndex) rebuild(s *Sim, order []*Flow) {
	nf := len(order)
	g.regroup = false
	g.beginEpoch(len(s.vms))
	for _, f := range order {
		g.union(f.src, f.dst)
	}
	g.linkLimitedPairs(s, order)

	// Assign group ordinals by first appearance in id order and count
	// members.
	if cap(g.flowOrd) < nf {
		g.flowOrd = make([]int32, nf)
	}
	g.flowOrd = g.flowOrd[:nf]
	g.roots = g.roots[:0]
	g.counts = g.counts[:0]
	for fi, f := range order {
		r := g.find(f.src)
		var ord int32
		if g.ordEpoch[r] != g.epoch {
			g.ordEpoch[r] = g.epoch
			ord = int32(len(g.roots))
			g.ordOf[r] = ord
			g.roots = append(g.roots, r)
			g.counts = append(g.counts, 0)
		} else {
			ord = g.ordOf[r]
		}
		g.flowOrd[fi] = ord
		g.counts[ord]++
	}
	ng := len(g.roots)

	// Decide which groups to refill: those touched by a recorded event
	// (via their last-allocation root) or containing a VM that was not
	// grouped last time (its flows are new).
	if cap(g.needFill) < ng {
		g.needFill = make([]bool, ng)
	}
	g.needFill = g.needFill[:ng]
	for i := range g.needFill {
		g.needFill[i] = g.dirtyAll
	}
	if !g.dirtyAll {
		for _, r := range g.dirtyRoots {
			g.rootDirty[r] = true
		}
		for fi, f := range order {
			ord := g.flowOrd[fi]
			if g.needFill[ord] {
				continue
			}
			if g.vmDirty(f.src) || g.vmDirty(f.dst) {
				g.needFill[ord] = true
			}
		}
		for _, r := range g.dirtyRoots {
			g.rootDirty[r] = false
		}
	}

	// Bucket flows by group, preserving id order within each group.
	if cap(g.offsets) < ng+1 {
		g.offsets = make([]int32, ng+1)
		g.cursor = make([]int32, ng+1)
	}
	g.offsets = g.offsets[:ng+1]
	g.cursor = g.cursor[:ng]
	off := int32(0)
	for ord := 0; ord < ng; ord++ {
		g.offsets[ord] = off
		g.cursor[ord] = off
		off += g.counts[ord]
	}
	g.offsets[ng] = off
	if cap(g.bucketed) < nf {
		g.bucketed = make([]*Flow, nf)
	}
	g.bucketed = g.bucketed[:nf]
	for fi, f := range order {
		ord := g.flowOrd[fi]
		g.bucketed[g.cursor[ord]] = f
		g.cursor[ord]++
	}

	// Stamp the new grouping for scoped dirt until the next rebuild.
	g.rootEpoch++
	for _, f := range order {
		for _, v := range [2]VMID{f.src, f.dst} {
			if g.vmRootEpoch[v] != g.rootEpoch {
				g.vmRootEpoch[v] = g.rootEpoch
				g.vmRoot[v] = g.find(v)
			}
		}
	}

	for len(g.fills) < ng {
		g.fills = append(g.fills, groupFill{})
	}
	for i := range g.fills {
		g.fills[i].nFills, g.fills[i].built, g.fills[i].certified = 0, false, false
	}
}

// markDirtyGroups decides which groups of the kept partition need a
// refill. Every grouped VM is stamped with its current root, so each
// recorded root names its group directly.
func (g *groupIndex) markDirtyGroups() {
	for i := range g.needFill {
		g.needFill[i] = g.dirtyAll
	}
	if !g.dirtyAll {
		for _, r := range g.dirtyRoots {
			g.needFill[g.ordOf[r]] = true
		}
	}
}

// vmDirty reports whether v's group must be refilled: v was not part
// of the last partition, or its then-group was dirtied.
func (g *groupIndex) vmDirty(v VMID) bool {
	if g.vmRootEpoch[v] != g.rootEpoch {
		return true
	}
	return g.rootDirty[g.vmRoot[v]]
}

// dirtyVM records that an event touched VM v's group: the group v
// belonged to at the last allocation is refilled next time. A VM that
// was not grouped then (its flows are all new) needs no record — the
// refill decision treats unstamped VMs as dirty.
func (s *Sim) dirtyVM(v VMID) {
	s.allocDirty = true
	g := &s.groups
	if g.dirtyAll {
		return
	}
	if int(v) < len(g.vmRootEpoch) && g.vmRootEpoch[v] == g.rootEpoch {
		g.dirtyRoots = append(g.dirtyRoots, g.vmRoot[v])
	}
}

// dirtyFlow records an event scoped to one flow (ramp step, resize).
func (s *Sim) dirtyFlow(f *Flow) {
	s.dirtyVM(f.src)
	s.dirtyVM(f.dst)
}

// dirtyPair records an event scoped to one DC pair (tc limit change,
// per-connection cap override): every group with a flow on the pair is
// refilled. Connectivity may also change (a limit appearing can merge
// groups, one clearing can split), which needs no extra handling: the
// re-derived groups refill whenever they contain a dirtied VM.
func (s *Sim) dirtyPair(k int) {
	for _, f := range s.pairFlows[k] {
		s.dirtyVM(f.src)
	}
}

// invalidate marks the whole rate allocation stale.
func (s *Sim) invalidate() {
	s.allocDirty = true
	s.groups.dirtyAll = true
}

// invalidateFull marks the whole rate allocation stale and discards
// everything the next allocation could reuse: the partition is
// re-derived and every group runs the filling loop. Benchmarks and
// tests use it to time or check a full refill.
func (s *Sim) invalidateFull() {
	s.invalidate()
	s.groups.regroup = true
}

// AllocGroups reports the shape of the most recent allocation: how
// many independent bottleneck groups the live flow set decomposed
// into, and how many of them were actually refilled (the rest kept
// their rates under scoped invalidation).
func (s *Sim) AllocGroups() (groups, refilled int) {
	return s.lastGroups, s.lastRefilled
}

// ChurnNsPerOp times the allocator hot path outside the testing
// framework: one rate recomputation per flow start/finish churn event
// with 336 concurrent flows on the frozen 8-DC testbed, the same loop
// as BenchmarkAllocatorChurn. incremental selects the production path;
// false runs the from-scratch reference allocator (allocateReference).
//
// cmd/wanify-bench records both numbers into BENCH_netsim.json, and
// the CI regression guard compares the incremental/reference *ratio*
// against that committed baseline — the ratio cancels hardware speed,
// so the gate tracks the code property (how much the incremental
// architecture buys) rather than the runner the baseline happened to
// be recorded on.
func ChurnNsPerOp(incremental bool, rounds int) float64 {
	const nFlows = 336
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

	start := time.Now()
	for n := 0; n < rounds; n++ {
		k := n % nFlows
		old := flows[k]
		src, dst := old.src, old.dst
		old.Stop()
		flows[k] = s.startProbe(src, dst, n%7+1)
		if incremental {
			s.ensureAllocated()
		} else {
			s.allocateReference()
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(rounds)
}
