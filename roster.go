package wanify

// Multi-job deployments (DESIGN.md §5): N jobs over one cluster, each
// holding its share of ONE global plan. Both multi-job modes run on the
// same slot roster:
//
//   - A fixed job set (EnableJobSet, DeployJobSetAgents) is a roster
//     whose N slots are all occupied at deploy time and run to
//     completion.
//   - A dynamic job set (EnableDynamicJobSet) opens the same roster
//     with every slot free — the Framework re-entrancy layer the
//     serving control plane (internal/serve) runs on. AdmitJob claims a
//     free slot and ReleaseJob frees one while everything runs.
//
// Every occupancy change goes through rebalance: the current global
// plan is re-partitioned across the occupied slots, every running
// job's windows swap to their new share (agent.SwapWindow — the same
// primitive the re-gauging controller swaps with), and a newly
// occupied slot gets fresh agents. The shared runtime controller keeps
// arbitrating throughout: occupancy changes reswizzle its roster
// (Controller.SetGroups) at the instant they happen, and a re-gauge
// snapshot in flight simply applies against the post-churn roster.
//
// Slot identity is stable: a job keeps its slot index for its whole
// life, so connection policies and the controller's per-group swap
// state never shift under a running job. Free slots carry share weight
// zero — optimize.PartitionPlan hands them zero-connection windows and
// nobody deploys agents for them.
//
// A single job (Enable, DeployAgents) is NOT a roster of one slot: its
// agents throttle BW-rich links themselves (per VM, which differs from
// the cluster-level limits a roster installs on multi-VM DCs), and
// PartitionPlan's per-connection rescaling (MaxBW/maxC)·maxC is not
// bit-equal to MaxBW.

import (
	"fmt"

	"github.com/wanify/wanify/internal/agent"
	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/measure"
	"github.com/wanify/wanify/internal/optimize"
	"github.com/wanify/wanify/internal/predict"
	"github.com/wanify/wanify/internal/spark"
)

// JobSetOptions configures a multi-tenant WANify deployment: N
// concurrent jobs over one cluster, each receiving its share of the
// global plan's connection windows and achievable-BW targets.
type JobSetOptions struct {
	// Jobs is how many concurrent jobs share the cluster.
	Jobs int
	// Share selects the partitioning policy (fair, priority,
	// bytes-remaining).
	Share optimize.ShareMode
	// Priorities are the per-job weights under SharePriority (len
	// Jobs; nil degrades to fair).
	Priorities []float64
	// Remaining yields the live per-job remaining bytes under
	// ShareRemaining — typically spark.JobSet.RemainingBytes. Nil
	// degrades to fair; the hook is re-polled at every controller
	// replan so shares track job progress.
	Remaining func() []float64
	// Oversubscribe hands every job the WHOLE window instead of a
	// partition — the naive multi-tenant baseline (each job plans as
	// if it owned the cluster) the multijob experiment contrasts
	// against. Off by default.
	Oversubscribe bool
	// Optimize carries the §3.3 heterogeneity inputs of the shared
	// global optimization.
	Optimize OptimizeOptions
}

// DynamicJobSetOptions configures a dynamic multi-job deployment.
type DynamicJobSetOptions struct {
	// Slots is the maximum number of concurrently admitted jobs.
	Slots int
	// Share selects how occupied slots split the global plan:
	// ShareFair (default) or SharePriority (weights from AdmitJob).
	// ShareRemaining is a progress signal polled from one spark.JobSet;
	// a churning roster has no single set to poll, so it is rejected.
	Share optimize.ShareMode
	// Optimize carries the §3.3 heterogeneity inputs of the shared
	// global optimization.
	Optimize OptimizeOptions
}

// roster is the slot table of a multi-job deployment. opts.Jobs is the
// slot count and opts.Priorities holds one weight per slot (zero when
// none was given); used marks the occupied slots.
type roster struct {
	opts JobSetOptions
	used []bool
}

// openRoster opens an o.Jobs-slot roster over the given prediction,
// every slot occupied or every slot free.
func (f *Framework) openRoster(pred bwmatrix.Matrix, o JobSetOptions, occupied bool) {
	f.deployed = pred.Clone()
	prio := make([]float64, o.Jobs)
	copy(prio, o.Priorities)
	o.Priorities = prio
	r := &roster{opts: o, used: make([]bool, o.Jobs)}
	for g := range r.used {
		r.used[g] = occupied
	}
	f.roster = r
	f.jobAgents = make([][]*agent.Agent, o.Jobs)
}

// shares evaluates the roster's current per-slot share weights: the
// policy's weights for occupied slots, zero for free ones.
func (f *Framework) shares() []float64 {
	o := f.roster.opts
	var rem []float64
	if o.Share == optimize.ShareRemaining && o.Remaining != nil {
		rem = o.Remaining()
	}
	w := optimize.ShareWeights(o.Share, o.Jobs, o.Priorities, rem)
	for g, used := range f.roster.used {
		if !used {
			w[g] = 0
		}
	}
	return w
}

// partition splits a global plan into one plan per slot.
func (f *Framework) partition(plan optimize.Plan) []optimize.Plan {
	if f.roster.opts.Oversubscribe {
		parts := make([]optimize.Plan, f.roster.opts.Jobs)
		for g := range parts {
			parts[g] = plan
		}
		return parts
	}
	return optimize.PartitionPlan(plan, f.shares())
}

// rebalance partitions plan across the occupied slots: a slot without
// agents gets a fresh group loaded with its share, every other
// occupied slot swaps its new share in. Roster agents run with Throttle
// off; when Config.Agent requests throttling the deployment installs
// cluster-level limits from the global plan instead.
func (f *Framework) rebalance(pred bwmatrix.Matrix, plan optimize.Plan) {
	sim := f.cfg.Cluster
	agentCfg := f.cfg.Agent
	agentCfg.Throttle = false
	parts := f.partition(plan)
	for g, used := range f.roster.used {
		if !used {
			continue
		}
		rows := agent.ChunkPlan(sim, pred, parts[g])
		if f.jobAgents[g] == nil {
			f.jobAgents[g] = f.deployGroup(agentCfg, rows)
			continue
		}
		for _, a := range f.jobAgents[g] {
			a.SwapWindow(rows[a.VM()])
		}
	}
	if f.controller != nil {
		f.controller.SetGroups(f.rosterAgents(), f.jobAgents)
	}
}

// rosterAgents is the union of every slot's agents.
func (f *Framework) rosterAgents() []*agent.Agent {
	var union []*agent.Agent
	for _, group := range f.jobAgents {
		union = append(union, group...)
	}
	return union
}

// applyGlobalThrottles installs the §3.2.2 BW-rich-link caps at the
// cluster level: per source DC, links whose achievable bandwidth
// exceeds the mean are limited to it. Job-set deployments throttle
// here — once per cluster from the GLOBAL plan — because per-job
// agents each see only a slice of the achievable bandwidth and would
// fight over the shared tc limits.
func (f *Framework) applyGlobalThrottles(plan optimize.Plan) {
	sim := f.cfg.Cluster
	n := sim.NumDCs()
	thresholds := optimize.ThrottleThresholds(plan.MaxBW)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if plan.MaxBW[i][j] > thresholds[i] {
				sim.SetPairLimit(i, j, thresholds[i])
			} else {
				sim.ClearPairLimit(i, j)
			}
		}
	}
	f.throttled = true
}

// DeployJobSetAgents partitions the plan across the configured jobs
// and starts one agent per (job, VM), each loaded with its job's
// chunk. Any previous deployment (single- or multi-job) is stopped
// first.
func (f *Framework) DeployJobSetAgents(pred bwmatrix.Matrix, plan optimize.Plan, o JobSetOptions) ([][]*agent.Agent, error) {
	if o.Jobs < 1 {
		return nil, fmt.Errorf("wanify: job set needs at least one job, got %d", o.Jobs)
	}
	if o.Priorities != nil && len(o.Priorities) != o.Jobs {
		return nil, fmt.Errorf("wanify: %d priorities for %d jobs", len(o.Priorities), o.Jobs)
	}
	f.StopAgents()
	f.openRoster(pred, o, true)
	f.rebalance(pred, plan)
	if f.cfg.Agent.Throttle {
		f.applyGlobalThrottles(plan)
	}
	return f.jobAgents, nil
}

// JobAgents returns the per-slot agent groups (nil when no job set is
// deployed; a free slot's group is nil).
func (f *Framework) JobAgents() [][]*agent.Agent { return f.jobAgents }

// JobPolicies returns one connection policy per job, each consulting
// that job's agents — what a spark.JobRun plugs in as its Policy.
func (f *Framework) JobPolicies() []spark.ConnPolicy {
	out := make([]spark.ConnPolicy, len(f.jobAgents))
	for g, group := range f.jobAgents {
		out[g] = spark.NewAgentConn(group)
	}
	return out
}

// EnableJobSet is the multi-tenant Enable: snapshot → predict →
// optimize once → partition across jobs → deploy per-job agents (plus
// the shared arbitration controller when Config.Runtime is enabled).
// It returns the predicted matrix, one connection policy per job, and
// the measurement bill.
func (f *Framework) EnableJobSet(o JobSetOptions) (bwmatrix.Matrix, []spark.ConnPolicy, measure.Report, error) {
	pred, rep := f.DetermineRuntimeBW()
	plan := f.Optimize(pred, o.Optimize)
	if _, err := f.DeployJobSetAgents(pred, plan, o); err != nil {
		return nil, nil, rep, err
	}
	if f.cfg.Runtime.Enabled {
		f.StartController(o.Optimize)
	}
	return pred, f.JobPolicies(), rep, nil
}

// EnableDynamicJobSet gauges the cluster once (snapshot → predict →
// optimize) and opens a dynamic multi-job deployment with all slots
// free. When Config.Runtime is enabled the shared arbitration
// controller starts immediately — over an empty roster, which it
// tolerates: epochs aggregate nothing until the first AdmitJob attaches
// agents. Returns the predicted matrix and the measurement bill.
func (f *Framework) EnableDynamicJobSet(o DynamicJobSetOptions) (bwmatrix.Matrix, measure.Report, error) {
	if o.Slots < 1 {
		return nil, measure.Report{}, fmt.Errorf("wanify: dynamic job set needs at least one slot, got %d", o.Slots)
	}
	if o.Share == optimize.ShareRemaining {
		return nil, measure.Report{}, fmt.Errorf("wanify: dynamic job sets support fair or priority sharing only")
	}
	f.StopAgents()
	pred, rep := f.DetermineRuntimeBW()
	plan := f.Optimize(pred, o.Optimize)
	f.openRoster(pred, JobSetOptions{Jobs: o.Slots, Share: o.Share, Optimize: o.Optimize}, false)
	if f.cfg.Agent.Throttle {
		f.applyGlobalThrottles(plan)
	}
	if f.cfg.Runtime.Enabled {
		f.StartController(o.Optimize)
	}
	return pred, rep, nil
}

// DynamicSlots reports (occupied, total) slots of a job-set deployment,
// (0, 0) when none is enabled.
func (f *Framework) DynamicSlots() (used, total int) {
	if f.roster == nil {
		return 0, 0
	}
	for _, u := range f.roster.used {
		if u {
			used++
		}
	}
	return used, len(f.roster.used)
}

// currentBelief returns the prediction/plan pair the deployment is
// currently running: the controller's when one arbitrates (it owns the
// replan history), the enable-time pair otherwise.
func (f *Framework) currentBelief() (bwmatrix.Matrix, optimize.Plan) {
	if f.controller != nil {
		return f.controller.CurrentPred(), f.controller.CurrentPlan()
	}
	return f.deployed, f.plan
}

// AdmitJob claims a free slot for a new job with the given priority
// weight (ignored under ShareFair; weighed as optimize.ShareWeights
// does, so give positive priorities), re-partitions the current plan
// across the occupied slots — every running job's windows narrow to
// their new share within this call — and deploys the newcomer's agents.
// It returns the slot index and the connection policy the job's
// transfers must use. Errors when no slot is free (the caller queues).
func (f *Framework) AdmitJob(priority float64) (int, spark.ConnPolicy, error) {
	if f.roster == nil {
		return 0, nil, fmt.Errorf("wanify: AdmitJob without EnableDynamicJobSet")
	}
	slot := -1
	for i, used := range f.roster.used {
		if !used {
			slot = i
			break
		}
	}
	if slot < 0 {
		return 0, nil, fmt.Errorf("wanify: all %d job slots occupied", len(f.roster.used))
	}
	f.roster.used[slot] = true
	f.roster.opts.Priorities[slot] = priority
	f.rebalance(f.currentBelief())
	return slot, spark.NewAgentConn(f.jobAgents[slot]), nil
}

// ReleaseJob frees a slot — the job finished or was canceled — stopping
// its agents and widening the surviving jobs' windows back out to their
// new shares.
func (f *Framework) ReleaseJob(slot int) error {
	if f.roster == nil {
		return fmt.Errorf("wanify: ReleaseJob without EnableDynamicJobSet")
	}
	if slot < 0 || slot >= len(f.roster.used) || !f.roster.used[slot] {
		return fmt.Errorf("wanify: release of unoccupied slot %d", slot)
	}
	for _, a := range f.jobAgents[slot] {
		a.Stop()
	}
	f.jobAgents[slot] = nil
	f.roster.used[slot] = false
	f.roster.opts.Priorities[slot] = 0
	f.rebalance(f.currentBelief())
	return nil
}

// SetModel swaps the framework's prediction model — the serving layer's
// model-cache refresh hook. The new model takes effect at the next
// prediction (a controller re-gauge or DetermineRuntimeBW); windows
// already deployed are untouched until then. Nil is ignored.
func (f *Framework) SetModel(m *predict.Model) {
	if m != nil {
		f.model = m
	}
}
