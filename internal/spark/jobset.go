package spark

import (
	"fmt"
	"math"

	"github.com/wanify/wanify/internal/substrate"
)

// JobRun binds one job to the scheduler and connection policy it runs
// under inside a JobSet. Policies are per-job on purpose: under WANify
// multi-tenancy each job's agents hold that job's slice of the global
// plan (optimize.PartitionPlan), so its transfers must consult its own
// Connections Managers, not a cluster-wide pool.
type JobRun struct {
	Job    Job
	Sched  Scheduler
	Policy ConnPolicy
	// StartDelayS delays the job's first stage relative to Run (0 =
	// the job enters with the set).
	StartDelayS float64
}

// JobSetResult is the outcome of a concurrent multi-job execution.
type JobSetResult struct {
	// Results holds one RunResult per job, in input order. JCTSeconds
	// is measured from each job's own (possibly delayed) start.
	Results []RunResult
	// MakespanS is the time from Run to the last job's completion.
	MakespanS float64
}

// jobPhase is where a running job currently is.
type jobPhase int8

const (
	phaseWaiting  jobPhase = iota // start delay not reached
	phaseTransfer                 // WAN transfers in flight
	phaseCompute                  // compute timer pending
	phaseDone
)

// jobState is one job's event-driven execution state.
type jobState struct {
	idx       int
	run       JobRun
	layout    []float64
	stage     int
	phase     jobPhase
	startedAt float64

	// Transfer-phase bookkeeping.
	transferStart float64
	pairs         []*pendingPair
	flows         []substrate.Flow
	flowsLeft     int
	curTransfer   [][]float64
	curPlacement  Placement

	// loadDeltas is the job's live CPU-load contribution, held between
	// a phase's shift-in and shift-out. Per job, because concurrent
	// jobs' phases overlap in time. loadHeld marks a live contribution
	// so releases are idempotent (see holdLoad).
	loadDeltas []float64
	loadHeld   bool

	// Fault-recovery state (see recovery.go), reset per stage.
	failedRecs   []*flowRec
	recovering   bool // a recovery wave is scheduled
	attempts     int  // waves run this stage
	stLost       float64
	stRecovered  float64
	stRecomputeS float64
	stWaves      int

	res RunResult
}

// JobSet interleaves N jobs' stages over one engine's shared substrate
// clock — the multi-tenant execution layer. Each job is a per-stage
// state machine; where RunJob's synchronous driver (runSync) steps one
// machine while owning the clock (AwaitFlows/RunFor between phases),
// Run is event-driven: stage transfers complete through flow
// callbacks, compute phases through substrate timers, and the set
// advances the clock until every machine reaches its end. The
// jobs' transfers therefore genuinely contend — flows of different
// jobs share DC-pair capacity inside the same allocator, and their
// compute loads compose through the engine's load ledger (each job
// sees the TCP slowdown the others' busy CPUs cause, and nobody's
// stage boundary clobbers anybody's load).
//
// Build one with NewJobSet, then call Run. RemainingBytes may be
// polled while Run drives the clock (from substrate callbacks, e.g.
// the re-gauging controller's bytes-remaining share weighting).
type JobSet struct {
	eng    *Engine
	states []*jobState

	startAt  float64
	deadline float64 // liveness bound, extended as phases schedule events
	running  int
	err      error

	// Open-mode state (NewOpenJobSet): an open set accepts Admit and
	// Cancel while an external driver advances the clock, instead of
	// being run to completion over a fixed roster by Run.
	open         bool
	computeRates []float64
	onDone       func(idx int, res RunResult)
}

// NewJobSet validates the jobs against the engine's cluster and
// prepares the runner. Policies default to SingleConn when nil.
func NewJobSet(e *Engine, runs []JobRun) (*JobSet, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("spark: job set needs at least one job")
	}
	n := e.sim.NumDCs()
	s := &JobSet{eng: e}
	for i, run := range runs {
		if err := run.Job.Validate(n); err != nil {
			return nil, err
		}
		if run.Sched == nil {
			return nil, fmt.Errorf("spark: job %q has no scheduler", run.Job.Name)
		}
		if run.Policy == nil {
			run.Policy = SingleConn{}
		}
		if run.StartDelayS < 0 {
			return nil, fmt.Errorf("spark: job %q has negative start delay", run.Job.Name)
		}
		s.states = append(s.states, &jobState{
			idx:    i,
			run:    run,
			layout: append([]float64(nil), run.Job.InputBytes...),
			res: RunResult{
				Job:            run.Job.Name,
				Scheduler:      run.Sched.Name(),
				MinShuffleMbps: math.Inf(1),
			},
		})
	}
	return s, nil
}

// RemainingBytes reports each job's current resident bytes (the data
// its remaining stages still have to process); finished jobs report 0.
// It is an ordinal signal for capacity sharing (optimize.
// ShareRemaining), not a WAN-volume prediction — how much of it will
// actually cross the WAN depends on placements not yet chosen.
func (s *JobSet) RemainingBytes() []float64 {
	out := make([]float64, len(s.states))
	for i, js := range s.states {
		if js.phase == phaseDone {
			continue
		}
		for _, b := range js.layout {
			out[i] += b
		}
	}
	return out
}

// NewOpenJobSet prepares an OPEN job set: one that starts with no jobs
// and accepts Admit (and Cancel) while something else — a serving
// control plane, a test harness — advances the substrate clock. Where
// Run owns the drive loop for a fixed roster, an open set is pure
// event machinery: admissions arm their start events at the current
// instant, jobs run exactly as under Run (same contention, same load
// ledger, same recovery), and completion surfaces through the OnJobDone
// hook instead of a collected result. The per-stage transfer watchdogs
// still bound liveness; the caller polls Err for a failed set.
func NewOpenJobSet(e *Engine) *JobSet {
	return &JobSet{
		eng:          e,
		open:         true,
		startAt:      e.sim.Now(),
		computeRates: e.ComputeRates(),
	}
}

// OnJobDone registers the completion hook an open set calls — within
// the substrate event that finishes the job — with the job's Admit
// index and final result. Canceled jobs do not fire it: the canceller
// already knows.
func (s *JobSet) OnJobDone(fn func(idx int, res RunResult)) { s.onDone = fn }

// Err reports the error that failed the set, nil while it is healthy.
func (s *JobSet) Err() error { return s.err }

// Running reports how many admitted jobs have not yet finished.
func (s *JobSet) Running() int { return s.running }

// Result returns the final result of job idx, with ok false while the
// job is still running (or was canceled mid-flight, leaving partials).
func (s *JobSet) Result(idx int) (RunResult, bool) {
	if idx < 0 || idx >= len(s.states) {
		return RunResult{}, false
	}
	js := s.states[idx]
	return js.res, js.phase == phaseDone
}

// Admit adds a job to an open set at the current simulated instant and
// returns its index (the identity OnJobDone and Cancel use). The job's
// first stage starts after run.StartDelayS, exactly as under Run.
func (s *JobSet) Admit(run JobRun) (int, error) {
	if !s.open {
		return 0, fmt.Errorf("spark: Admit on a closed job set (use NewOpenJobSet)")
	}
	if s.err != nil {
		return 0, fmt.Errorf("spark: job set already failed: %w", s.err)
	}
	e := s.eng
	if err := run.Job.Validate(e.sim.NumDCs()); err != nil {
		return 0, err
	}
	if run.Sched == nil {
		return 0, fmt.Errorf("spark: job %q has no scheduler", run.Job.Name)
	}
	if run.Policy == nil {
		run.Policy = SingleConn{}
	}
	if run.StartDelayS < 0 {
		return 0, fmt.Errorf("spark: job %q has negative start delay", run.Job.Name)
	}
	js := &jobState{
		idx:    len(s.states),
		run:    run,
		layout: append([]float64(nil), run.Job.InputBytes...),
		res: RunResult{
			Job:            run.Job.Name,
			Scheduler:      run.Sched.Name(),
			MinShuffleMbps: math.Inf(1),
		},
	}
	s.states = append(s.states, js)
	s.running++
	now := e.sim.Now()
	e.sim.After(run.StartDelayS, func(at float64) {
		if s.err != nil || js.phase == phaseDone {
			return
		}
		js.startedAt = at
		s.startStage(js, s.computeRates, at)
	})
	s.extendDeadline(now + run.StartDelayS + e.MaxStageTransferS)
	return js.idx, nil
}

// Cancel tears job idx out of an open set at the current instant: its
// in-flight flows stop (delivered bytes stay delivered — substrate
// flows keep their history), its held CPU load releases, and its state
// machine parks on done so every pending timer (compute completion,
// watchdog, recovery wave) finds a finished job and fires inert. The
// job's partial result remains readable via Result-with-ok-false
// semantics; co-tenants are untouched.
func (s *JobSet) Cancel(idx int) error {
	if !s.open {
		return fmt.Errorf("spark: Cancel on a closed job set")
	}
	if idx < 0 || idx >= len(s.states) {
		return fmt.Errorf("spark: cancel of unknown job %d", idx)
	}
	js := s.states[idx]
	if js.phase == phaseDone {
		return fmt.Errorf("spark: job %q already finished", js.run.Job.Name)
	}
	for _, f := range js.flows {
		if !f.Done() {
			f.Stop()
		}
	}
	s.releaseLoad(js)
	js.flows, js.pairs = nil, nil
	js.phase = phaseDone
	s.running--
	return nil
}

// Run executes all jobs concurrently and returns when the last one
// finishes. The first failing job aborts the whole set, stopping every
// outstanding transfer.
func (s *JobSet) Run() (JobSetResult, error) {
	if s.open {
		return JobSetResult{}, fmt.Errorf("spark: Run on an open job set (drive the clock externally)")
	}
	e := s.eng
	s.startAt = e.sim.Now()
	s.running = len(s.states)
	computeRates := e.ComputeRates()

	for _, js := range s.states {
		js := js
		e.sim.After(js.run.StartDelayS, func(now float64) {
			if s.err != nil || js.phase == phaseDone {
				return
			}
			js.startedAt = now
			s.startStage(js, computeRates, now)
		})
	}

	// Drive the shared clock. Every state transition happens inside
	// substrate events at exact instants; the tick only bounds how far
	// the clock runs between liveness checks, so its size does not
	// affect any recorded time. The deadline is a pure liveness bound:
	// every phase extends it past its own scheduled completion (the
	// transfer watchdog or the compute timer), so it trips only if a
	// scheduled event failed to fire — never on a slow-but-progressing
	// set, however compute-dominated.
	const tick = 5.0
	var maxDelay float64
	for _, js := range s.states {
		maxDelay = math.Max(maxDelay, js.run.StartDelayS)
	}
	s.extendDeadline(s.startAt + maxDelay + e.MaxStageTransferS)
	for s.running > 0 && s.err == nil {
		if e.sim.Now() > s.deadline+tick {
			s.abort(fmt.Errorf("spark: job set stalled at t=%.0fs with %d jobs unfinished", e.sim.Now(), s.running))
			break
		}
		e.sim.RunFor(tick)
	}
	if s.err != nil {
		return JobSetResult{}, s.err
	}

	out := JobSetResult{}
	for _, js := range s.states {
		out.Results = append(out.Results, js.res)
		end := js.startedAt + js.res.JCTSeconds
		if m := end - s.startAt; m > out.MakespanS {
			out.MakespanS = m
		}
	}
	return out, nil
}

// extendDeadline pushes the liveness bound to cover an event scheduled
// for time t.
func (s *JobSet) extendDeadline(t float64) {
	if t > s.deadline {
		s.deadline = t
	}
}

// transferDone builds the flow-completion callback counting a stage's
// outstanding flows. The stage's transfer phase ends only when no flow
// is in flight AND no failure is awaiting a recovery wave.
func (s *JobSet) transferDone(js *jobState, computeRates []float64) func() {
	return func() {
		js.flowsLeft--
		if js.flowsLeft == 0 && !js.recovering && len(js.failedRecs) == 0 {
			s.finishTransfers(js, computeRates, s.eng.sim.Now())
		}
	}
}

// startStage places the current stage and launches its WAN transfers;
// with nothing to move it proceeds straight to compute.
func (s *JobSet) startStage(js *jobState, computeRates []float64, now float64) {
	e := s.eng
	if js.stage == len(js.run.Job.Stages) {
		s.finishJob(js, now)
		return
	}
	js.failedRecs, js.recovering, js.attempts = nil, false, 0
	js.stLost, js.stRecovered, js.stRecomputeS, js.stWaves = 0, 0, 0, 0
	var alive []bool
	if e.Recovery.Enabled {
		alive = aliveDCs(e.sim)
		if countAlive(alive) == 0 {
			s.abort(fmt.Errorf("spark: job %q: no data center left alive", js.run.Job.Name))
			return
		}
		s.repairLayout(js, alive, computeRates)
	}
	recs, err := s.placeStage(js, alive, now, s.transferDone(js, computeRates))
	if err != nil {
		s.abort(err)
		return
	}
	if len(js.flows) == 0 {
		s.finishTransfers(js, computeRates, now)
		return
	}

	// Watchdog: a transfer phase that outlives MaxStageTransferS fails
	// the set, exactly as AwaitFlows does for the synchronous driver.
	s.extendDeadline(now + e.MaxStageTransferS)
	stageIdx := js.stage
	stage := js.run.Job.Stages[stageIdx]
	e.sim.After(e.MaxStageTransferS, func(float64) {
		if s.err != nil || js.phase != phaseTransfer || js.stage != stageIdx {
			return
		}
		s.abort(fmt.Errorf("spark: job %q stage %q: transfers not drained after %.1fs of simulated time",
			js.run.Job.Name, stage.Name, e.MaxStageTransferS))
	})
	// Arm failure handlers last: a flow born failed (endpoint already
	// dead) fires its handler synchronously from inside armRecs, which
	// needs the counters and watchdog above in place.
	s.armRecs(js, recs, computeRates)
}

// placeStage places the job's current stage (masked to the alive DCs
// when alive is non-nil), launches its WAN transfers and, when any flow
// started, holds the transfer-phase CPU load. each runs after every
// flow completion (nil for the synchronous driver, which awaits the
// flows instead). It returns the flows' recovery records.
func (s *JobSet) placeStage(js *jobState, alive []bool, now float64, each func()) ([]*flowRec, error) {
	e := s.eng
	n := e.sim.NumDCs()
	stage := js.run.Job.Stages[js.stage]
	p := js.run.Sched.Place(js.stage, stage, js.layout).Normalize()
	if len(p) != n {
		return nil, fmt.Errorf("spark: scheduler %q returned %d fractions for %d DCs",
			js.run.Sched.Name(), len(p), n)
	}
	if alive != nil {
		p = maskPlacement(p, alive)
	}
	var transfer [][]float64
	if stage.Kind == MapKind {
		transfer = MigrationMatrix(js.layout, p)
	} else {
		transfer = ShuffleMatrix(js.layout, p)
	}
	js.curTransfer = transfer
	js.curPlacement = p
	js.transferStart = now
	js.phase = phaseTransfer

	flows, pairs, wanBytes, recs := e.launchTransfers(transfer, js.run.Policy, each)
	js.flows = flows
	js.pairs = pairs
	js.flowsLeft = len(flows)
	js.res.WANBytes += wanBytes
	if len(flows) > 0 {
		js.loadDeltas = e.ledger().uniform(js.loadDeltas, e.transferLoad())
		s.holdLoad(js)
	}
	return recs, nil
}

// finishTransfers closes a stage's transfer phase (at the exact instant
// the last flow drained) and begins its compute phase.
func (s *JobSet) finishTransfers(js *jobState, computeRates []float64, now float64) {
	e := s.eng
	s.releaseLoad(js)
	rep := s.closeTransfers(js, computeRates, now)
	if rep.ComputeS <= 0 {
		s.endStage(js, rep, computeRates, now)
		return
	}
	js.phase = phaseCompute
	js.loadDeltas = e.computeLoadDeltas(js.loadDeltas, js.layout)
	s.holdLoad(js)
	s.extendDeadline(now + rep.ComputeS)
	e.sim.After(rep.ComputeS, func(end float64) {
		if s.err != nil || js.phase != phaseCompute {
			return
		}
		s.releaseLoad(js)
		s.endStage(js, rep, computeRates, end)
	})
}

// closeTransfers records a drained transfer phase: it builds the
// stage's report (ComputeS included), folds it into the job's totals
// and redistributes the layout per the stage's placement.
func (s *JobSet) closeTransfers(js *jobState, computeRates []float64, now float64) StageReport {
	e := s.eng
	n := e.sim.NumDCs()
	stage := js.run.Job.Stages[js.stage]
	rep := StageReport{
		Name:       stage.Name,
		Kind:       stage.Kind,
		Placement:  js.curPlacement,
		TransferS:  now - js.transferStart,
		PairMbps:   pairRates(n, js.pairs, js.transferStart),
		PairBytes:  js.curTransfer,
		LostBytes:  js.stLost,
		RecomputeS: js.stRecomputeS,
		Recoveries: js.stWaves,
	}
	rep.RecoveredBytes = js.stRecovered
	for _, pp := range js.pairs {
		rep.WANBytes += pp.bytes
		rep.DeliveredBytes += pp.delivered
	}
	js.res.LostBytes += js.stLost
	js.res.RecoveredBytes += js.stRecovered
	js.res.RecomputeS += js.stRecomputeS
	js.res.Recoveries += js.stWaves
	for i := range rep.PairMbps {
		for j := range rep.PairMbps[i] {
			if js.curTransfer[i][j] >= 1<<20 && rep.PairMbps[i][j] > 0 && rep.PairMbps[i][j] < js.res.MinShuffleMbps {
				js.res.MinShuffleMbps = rep.PairMbps[i][j]
			}
		}
	}
	js.flows, js.pairs = nil, nil

	// The stage's input is now distributed per the placement.
	total := 0.0
	for _, b := range js.layout {
		total += b
	}
	for j := 0; j < n; j++ {
		js.layout[j] = total * js.curPlacement[j]
	}

	computeS := computeSeconds(stage, js.layout, computeRates)
	if e.OverlapFetchCompute {
		// The transfer window already processed min(transfer, compute)
		// seconds of work; only the residue remains.
		computeS -= rep.TransferS
		if computeS < 0 {
			computeS = 0
		}
	}
	// Re-executed partitions (recovery with no surviving replica) are
	// recomputed work: it serializes with the stage's own compute and is
	// not hidden by fetch/compute overlap.
	rep.ComputeS = computeS + js.stRecomputeS
	return rep
}

// endStage records the stage and moves the job to its next one.
func (s *JobSet) endStage(js *jobState, rep StageReport, computeRates []float64, now float64) {
	s.advance(js, rep)
	s.startStage(js, computeRates, now)
}

// advance records a finished stage and steps the job past it.
func (s *JobSet) advance(js *jobState, rep StageReport) {
	js.res.Stages = append(js.res.Stages, rep)
	stage := js.run.Job.Stages[js.stage]
	for j := range js.layout {
		js.layout[j] *= stage.Selectivity
	}
	js.stage++
}

// finishJob completes a job's state machine.
func (s *JobSet) finishJob(js *jobState, now float64) {
	js.phase = phaseDone
	js.res.JCTSeconds = now - js.startedAt
	if math.IsInf(js.res.MinShuffleMbps, 1) {
		js.res.MinShuffleMbps = 0
	}
	for _, b := range js.layout {
		js.res.OutputBytes += b
	}
	js.res.Cost = s.eng.price(js.run.Job, js.res)
	js.res.Energy = s.eng.energy(js.res)
	s.running--
	if s.onDone != nil {
		s.onDone(js.idx, js.res)
	}
}

// runSync drives a one-job set through the stage machine with a
// synchronous clock driver — RunJob's fault-intolerant path. It owns
// the clock: each transfer phase is awaited (AwaitFlows) and each
// compute phase run out (RunFor) before the job moves on, so a phase
// ends only after every event at its end instant has fired, where Run
// ends it inside the completing event. Goldens pin both orders. A
// fault-failed flow or an undrained transfer fails the run; every
// outstanding flow is stopped first, so a failed run cannot leak live
// flows into a substrate shared with other tenants.
func (s *JobSet) runSync() (RunResult, error) {
	e := s.eng
	js := s.states[0]
	computeRates := e.ComputeRates()
	s.running = 1
	js.startedAt = e.sim.Now()
	for js.stage < len(js.run.Job.Stages) {
		recs, err := s.placeStage(js, nil, e.sim.Now(), nil)
		if err != nil {
			return RunResult{}, err
		}
		if len(js.flows) > 0 {
			err = e.sim.AwaitFlows(e.MaxStageTransferS, js.flows...)
			s.releaseLoad(js)
			for _, rec := range recs {
				if err == nil && rec.f.Failed() {
					err = fmt.Errorf("flow #%d dc%d->dc%d failed by a fault (enable Engine.Recovery to survive faults)",
						rec.f.ID(), rec.pp.i, rec.pp.j)
				}
			}
			if err != nil {
				for _, f := range js.flows {
					if !f.Done() {
						f.Stop()
					}
				}
				return RunResult{}, fmt.Errorf("spark: job %q stage %q: %w", js.run.Job.Name, js.run.Job.Stages[js.stage].Name, err)
			}
		}
		rep := s.closeTransfers(js, computeRates, e.sim.Now())
		if rep.ComputeS > 0 {
			js.loadDeltas = e.computeLoadDeltas(js.loadDeltas, js.layout)
			s.holdLoad(js)
			e.sim.RunFor(rep.ComputeS)
			s.releaseLoad(js)
		}
		s.advance(js, rep)
	}
	s.finishJob(js, e.sim.Now())
	return js.res, nil
}

// holdLoad shifts the job's current loadDeltas into the shared ledger
// and marks them held; releaseLoad undoes exactly one hold and is a
// no-op otherwise. The flag is what makes abort safe in transition
// windows: a compute phase's timer releases its load before endStage
// runs, but the job's phase field still says phaseCompute while the
// next startStage executes — an abort raised there (scheduler error)
// used to release the same load a second time, driving the co-tenant's
// composed CPU load in the ledger below its true value.
func (s *JobSet) holdLoad(js *jobState) {
	s.eng.ledger().shift(1, js.loadDeltas)
	js.loadHeld = true
}

func (s *JobSet) releaseLoad(js *jobState) {
	if !js.loadHeld {
		return
	}
	s.eng.ledger().shift(-1, js.loadDeltas)
	js.loadHeld = false
}

// abort fails the whole set: every outstanding flow of every job is
// stopped and every held load released, whatever phase each job is in,
// so an aborted set cannot leak flows or CPU load into a co-tenant's
// allocator state. Pending substrate timers (watchdogs, compute
// completions, recovery waves) cannot be cancelled, but every one of
// them checks s.err before acting and so fires inert.
func (s *JobSet) abort(err error) {
	if s.err != nil {
		return
	}
	s.err = err
	for _, js := range s.states {
		for _, f := range js.flows {
			if !f.Done() {
				f.Stop()
			}
		}
		s.releaseLoad(js)
		js.phase = phaseDone
	}
	s.running = 0
}

// RunJobSet is the convenience wrapper: build a JobSet over the engine
// and run it to completion.
func (e *Engine) RunJobSet(runs []JobRun) (JobSetResult, error) {
	s, err := NewJobSet(e, runs)
	if err != nil {
		return JobSetResult{}, err
	}
	return s.Run()
}
