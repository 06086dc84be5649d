// Package wanify is a from-scratch reproduction of WANify (Mohapatra &
// Oh, IISWC 2025): a framework that gauges achievable *runtime* WAN
// bandwidth for geo-distributed data analytics via a Random-Forest
// prediction model over cheap 1-second snapshots, and balances WAN
// usage by assigning an optimal *heterogeneous* number of parallel
// connections per DC pair — trading bandwidth on strong links for the
// weak links that gate job completion time.
//
// The package wires together the paper's architecture (Fig. 3):
//
//   - Offline module: the Bandwidth Analyzer collects labeled snapshots
//     (TrainOffline → internal dataset generation) and trains the WAN
//     Prediction Model (Random Forest, 100 trees).
//   - Online module: Runtime Bandwidth Determination predicts the
//     current runtime BW matrix from a snapshot
//     (Framework.DetermineRuntimeBW); the Global Optimizer derives
//     min/max connection windows and achievable-BW targets
//     (Framework.Optimize, Algorithm 1 + Eq. 2–3).
//   - Local Agents: one per VM, AIMD-tuning connection counts within
//     the window, monitoring achieved rates, and throttling BW-rich
//     links (Framework.DeployAgents).
//
// Everything runs against a deterministic WAN simulator standing in for
// the paper's 8-region AWS testbed; see DESIGN.md for the substitution
// argument and EXPERIMENTS.md for paper-vs-measured results.
package wanify

import (
	"fmt"

	"github.com/wanify/wanify/internal/agent"
	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/measure"
	"github.com/wanify/wanify/internal/ml/dataset"
	"github.com/wanify/wanify/internal/optimize"
	"github.com/wanify/wanify/internal/predict"
	rgauge "github.com/wanify/wanify/internal/runtime"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/spark"
	"github.com/wanify/wanify/internal/substrate"
)

// Config configures a Framework instance for one cluster.
type Config struct {
	// Cluster is the WAN substrate the deployment runs on (a netsim
	// simulation, a tracesim replay, or any future backend).
	Cluster substrate.Cluster
	// Rates prices measurement and query activity.
	Rates cost.Rates
	// Energy parameterizes the energy/carbon account behind the
	// carbon-aware placement scorer and the engine's per-job
	// EnergyBreakdown (zero value: DefaultEnergyRates).
	Energy cost.EnergyRates
	// Seed drives snapshot noise and any tie-breaking.
	Seed uint64
	// MaxConnsPerPair is the optimizer's M (default 8).
	MaxConnsPerPair int
	// RelationD is Algorithm 1's minimum significant BW difference
	// (default 30 Mbps, the paper's worked example).
	RelationD float64
	// Agent configures the local agents (epoch, thresholds, throttle).
	Agent agent.Config
	// Runtime configures the mid-job re-gauging controller
	// (internal/runtime). Default off: the plan computed at Enable time
	// stays fixed for the whole job, the base §4.1 behaviour.
	Runtime rgauge.Config
}

// Framework is a WANify deployment bound to one cluster.
type Framework struct {
	cfg   Config
	model *predict.Model
	rng   *simrand.Source

	predicted  bwmatrix.Matrix
	plan       optimize.Plan
	deployed   bwmatrix.Matrix // the matrix the deployed agents' plan was built from
	agents     []*agent.Agent
	controller *rgauge.Controller

	// optScratch backs the optimizer's interior temporaries across
	// replans (the plan itself is freshly allocated per Optimize call,
	// since plans outlive the next replan in agents and the controller).
	optScratch optimize.Scratch

	// Multi-job deployment state (EnableJobSet, EnableDynamicJobSet;
	// see roster.go): one agent group per slot.
	roster    *roster
	jobAgents [][]*agent.Agent
	throttled bool // cluster-level tc limits installed by the job set
}

// New builds a Framework around a trained prediction model.
func New(cfg Config, model *predict.Model) (*Framework, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("wanify: config needs a cluster backend")
	}
	if model == nil {
		return nil, fmt.Errorf("wanify: nil prediction model")
	}
	if cfg.MaxConnsPerPair == 0 {
		cfg.MaxConnsPerPair = optimize.DefaultM
	}
	if cfg.RelationD == 0 {
		cfg.RelationD = optimize.DefaultD
	}
	if cfg.Energy.IsZero() {
		cfg.Energy = cost.DefaultEnergyRates()
	}
	return &Framework{
		cfg:   cfg,
		model: model,
		rng:   simrand.Derive(cfg.Seed, "wanify"),
	}, nil
}

// Model returns the framework's prediction model.
func (f *Framework) Model() *predict.Model { return f.model }

// EnergyRates returns the deployment's energy/carbon parameters
// (Config.Energy, or the defaults when unset) — what schedulers and
// engines built next to this framework should price carbon with.
func (f *Framework) EnergyRates() cost.EnergyRates { return f.cfg.Energy }

// DetermineRuntimeBW takes a 1-second snapshot of the cluster and
// predicts the stable runtime bandwidth matrix — the §4.1.2 Runtime
// Bandwidth Determination sub-module. The returned matrix is shaped
// exactly like the static matrices existing GDA systems consume, so it
// can be fed to them unmodified (the Table 4 usage). The measurement
// report prices the snapshot.
func (f *Framework) DetermineRuntimeBW() (bwmatrix.Matrix, measure.Report) {
	features, rep := dataset.SnapshotFeatures(f.cfg.Cluster, f.rng.Derive("snapshot"))
	f.predicted = f.model.PredictMatrixInto(f.predicted, features)
	return f.predicted.Clone(), rep
}

// Predicted returns the most recent runtime-BW prediction (nil before
// DetermineRuntimeBW).
func (f *Framework) Predicted() bwmatrix.Matrix {
	if f.predicted == nil {
		return nil
	}
	return f.predicted.Clone()
}

// OptimizeOptions carries the heterogeneity inputs of §3.3.
type OptimizeOptions struct {
	// SkewWeights is ws: per-DC input-data weights (nil = uniform).
	SkewWeights []float64
	// RVec is the per-pair refactoring matrix for heterogeneous
	// providers (nil = all ones).
	RVec bwmatrix.Matrix
}

// Optimize runs global optimization (Algorithm 1 + Eq. 2–3) on a
// predicted runtime BW matrix, returning the connection/BW windows.
func (f *Framework) Optimize(pred bwmatrix.Matrix, opts OptimizeOptions) optimize.Plan {
	var plan optimize.Plan
	optimize.GlobalOptimizeInto(&plan, pred, optimize.Options{
		M:           f.cfg.MaxConnsPerPair,
		D:           f.cfg.RelationD,
		SkewWeights: opts.SkewWeights,
		RVec:        opts.RVec,
	}, &f.optScratch)
	f.plan = plan
	return f.plan
}

// Plan returns the most recent global-optimization plan.
func (f *Framework) Plan() optimize.Plan { return f.plan }

// DeployAgents starts one local agent per VM, loaded with the plan
// chunked per VM (association, §3.3.3). Any previously deployed agents
// are stopped first.
func (f *Framework) DeployAgents(pred bwmatrix.Matrix, plan optimize.Plan) []*agent.Agent {
	f.StopAgents()
	f.deployed = pred.Clone()
	f.agents = f.deployGroup(f.cfg.Agent, agent.ChunkPlan(f.cfg.Cluster, pred, plan))
	return f.agents
}

// deployGroup starts one agent per VM, each loaded with its row of a
// chunked plan — a single-job deployment's agents, or one job-set slot's.
func (f *Framework) deployGroup(cfg agent.Config, rows map[substrate.VMID]agent.PlanRow) []*agent.Agent {
	sim := f.cfg.Cluster
	var group []*agent.Agent
	for dc := 0; dc < sim.NumDCs(); dc++ {
		for _, vm := range sim.VMsOfDC(dc) {
			a := agent.New(sim, vm, cfg)
			a.ApplyPlan(rows[vm])
			a.Start()
			group = append(group, a)
		}
	}
	return group
}

// Agents returns the currently deployed agents (nil when none).
func (f *Framework) Agents() []*agent.Agent { return f.agents }

// StopAgents stops the re-gauging controller (when one is running) and
// all deployed agents — single-job and per-job alike — clearing their
// throttles and any cluster-level limits a job-set deployment holds.
func (f *Framework) StopAgents() {
	if f.controller != nil {
		f.controller.Stop()
		f.controller = nil
	}
	for _, a := range f.agents {
		a.Stop()
	}
	for _, group := range f.jobAgents {
		for _, a := range group {
			a.Stop()
		}
	}
	if f.throttled {
		sim := f.cfg.Cluster
		for i := 0; i < sim.NumDCs(); i++ {
			for j := 0; j < sim.NumDCs(); j++ {
				if i != j {
					sim.ClearPairLimit(i, j)
				}
			}
		}
		f.throttled = false
	}
	f.agents = nil
	f.jobAgents = nil
	f.deployed = nil
	f.roster = nil
}

// Controller returns the running re-gauging controller, or nil when
// Config.Runtime is disabled or agents are not deployed.
func (f *Framework) Controller() *rgauge.Controller { return f.controller }

// StartController launches the mid-job re-gauging loop over the
// currently deployed agents, re-planning with the given optimizer
// options whenever drift or staleness triggers (internal/runtime).
// Enable, EnableJobSet and EnableDynamicJobSet call this automatically
// when Config.Runtime.Enabled is set; callers driving the deploy steps
// by hand (including ones whose plan was built from a measured rather
// than predicted matrix) can invoke it directly after DeployAgents or
// DeployJobSetAgents. Over a job set it is ONE controller arbitrating
// for every slot: monitored rates aggregate across jobs per DC pair, a
// trigger re-gauges the cluster once, and each slot's partition of the
// new windows swaps in atomically (shares re-evaluated, so
// bytes-remaining sharing follows job progress).
func (f *Framework) StartController(opts OptimizeOptions) *rgauge.Controller {
	if f.deployed == nil {
		panic("wanify: StartController before DeployAgents")
	}
	if f.controller != nil {
		f.controller.Stop()
	}
	deps := rgauge.Deps{
		Cluster: f.cfg.Cluster,
		Agents:  f.agents,
		SnapshotOpts: func() measure.Options {
			return measure.SnapshotOptions(f.rng.Derive("snapshot"))
		},
		Predict: func(snap bwmatrix.Matrix, stats []substrate.VMStats) bwmatrix.Matrix {
			features := dataset.FeaturesFromSnapshot(f.cfg.Cluster, snap, stats)
			f.predicted = f.model.PredictMatrixInto(f.predicted, features)
			return f.predicted.Clone()
		},
		Optimize: func(pred bwmatrix.Matrix) optimize.Plan {
			return f.Optimize(pred, opts)
		},
	}
	if f.roster != nil {
		deps.Agents = f.rosterAgents()
		deps.Groups = f.jobAgents
		deps.Partition = f.partition
		if f.cfg.Agent.Throttle {
			deps.OnPlanSwap = func(_ bwmatrix.Matrix, plan optimize.Plan) {
				f.applyGlobalThrottles(plan)
			}
		}
	}
	f.controller = rgauge.Start(deps, f.cfg.Runtime, f.deployed, f.plan)
	return f.controller
}

// ConnPolicy returns the connection policy a spark engine should use so
// transfers are sized and managed by the deployed agents.
func (f *Framework) ConnPolicy() spark.ConnPolicy {
	return spark.NewAgentConn(f.agents)
}

// Enable is the one-call integration path (§4.1, "any GDA system that
// transfers data among DCs can reap WANify's benefits using the WANify
// Interface"): snapshot → predict → optimize → deploy agents — plus,
// when Config.Runtime is enabled, the mid-job re-gauging loop that
// revisits that plan as WAN conditions shift. It returns the predicted
// matrix (for the GDA system's placement decisions) and the connection
// policy (for its shuffle transfers).
func (f *Framework) Enable(opts OptimizeOptions) (bwmatrix.Matrix, spark.ConnPolicy, measure.Report) {
	pred, rep := f.DetermineRuntimeBW()
	plan := f.Optimize(pred, opts)
	f.DeployAgents(pred, plan)
	if f.cfg.Runtime.Enabled {
		f.StartController(opts)
	}
	return pred, f.ConnPolicy(), rep
}
