// Command perfbench is the repository benchmark: one program that runs
// one of three workloads against the WANify reproduction, checks its
// outputs, and prints every metric by name and unit. Run it from the
// repository root through the launcher, which builds it first:
//
//	bash perfbench/run.sh --workload batch-8dc --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it start with
// "#" (environment, sample counts, digests) or list the metrics in a
// table. --trace 0 reports the end-to-end metrics from an untraced run;
// --trace 1 reports the per-layer metrics from a traced run.
//
// The benchmark drives the system only through its entry points:
// wanify.Framework, serve.Plane, spark.Engine, the gda schedulers and
// substrate.Cluster. It edits no program code; the traced run gets its
// numbers by decorating the interfaces the program already accepts.
//
// # Workloads
//
// Each workload takes --seed, which derives every input of the run
// (cluster seeds, the submission script, the replay's start time). The
// offline model is trained with a fixed seed, because a deployment
// trains once and set-up should do the same work in every run. Each
// workload runs a fixed script of ops (a "pass") from fresh state;
// the timed phase repeats passes until --seconds have passed, at least
// twice. An untimed warm-up round before timing fills the gda search
// pool and the allocator slabs.
//
//   - batch-8dc (closed loop, one job or job set at a time): the paper's
//     8-region netsim testbed, one t2.medium per DC. A rotating mix of
//     100 GB jobs (TeraSort, TPC-DS q78 and q95, TeraSort skewed onto 4
//     hot DCs), each on a fresh cluster warmed to t=600 s, goes through
//     Framework.Enable with throttling and the legacy re-gauging
//     controller, Tetrium placement on the predicted matrix, and
//     Engine.RunJob. Every fifth round runs 3 concurrent copies through
//     EnableJobSet and RunJobSet. An op is a job; a pass is 30 rounds
//     (42 jobs). Chosen because netsim water-filling does most of the
//     host work here and gda almost none, and because the single-job,
//     static job-set and legacy-controller paths all run here.
//   - serve-4dc (open loop on the simulated clock): a serve.Plane on a
//     4-DC netsim testbed with 4 slots, queue 32, a tenant quota of 8,
//     model refresh every 120 s through the LRU cache with a
//     deterministic retrain hook, and the hardened controller. A fault
//     schedule partitions one DC for 45 s every 300 s, so some gauges
//     are partial. 2500 submissions of 0.2-0.8 GB mixed jobs (hot-DC
//     and DC-restricted specs among them) arrive 1-3 simulated seconds
//     apart, plus one burst of 100 that overflows the queue; every 50th
//     accepted job is cancelled 0.25 s later. An op is a submission.
//     Arrivals are fixed in simulated time, so host speed never changes
//     what arrives when. The testbed's network seed is fixed; the
//     workload seed drives the script. Chosen because it is the only
//     workload that runs the admission path (dynamic slots, window
//     re-partition, agent redeploy, open JobSet admit), hardened gauging
//     under faults, and cache-miss retrains.
//   - plan-trace (closed loop, one planning round at a time): a GDA
//     query planner calls WANify's interface (the paper's Table 4
//     usage) over the bundled diurnal8 8-region trace replay. A round
//     advances the replay by 1800 s, gauges with DetermineRuntimeBW,
//     runs Optimize, places every stage of a fixed query batch (TPC-DS
//     82, 95, 11 and 78, and skewed TeraSort, 100 GB each) under
//     Tetrium, Kimchi and the cost, carbon and blend scorers (75
//     placements), and deploys the agents. An op is a round; a pass is
//     48 rounds, one simulated day. Chosen because gda descent does
//     most of the host work and the substrate is tracesim, not netsim:
//     a gda change should show here and not on batch-8dc, and a
//     netsim-only change should move this workload far less.
//
// # End-to-end metrics (--trace 0)
//
// "Host" is wall time of this program; "sim" is simulated time or a
// simulated outcome, deterministic per seed. A pure speed-up leaves
// every sim_* metric and gauge_acc bit-identical. Every workload
// reports every metric; where the natural definition is specific to one
// workload, the others use the nearest equivalent named below.
//
//	setup_s              s      lower   median of 3 set-ups in one run: the paper-scale
//	                                    offline module (wanify.TrainOffline, 15 sessions
//	                                    per size 2..8, 100 trees, sequential workers)
//	                                    plus the workload's warm-up round
//	ops_per_host_s       op/s   higher  median over passes of ops per host second spent
//	                                    inside ops (checks and scoring excluded); on
//	                                    serve-4dc, divided by the script's arrival rate
//	                                    (about 0.5 per simulated second) it is the
//	                                    fastest wanify-serve -speed the plane keeps up
//	                                    with
//	plan_ms_p50, _p95    ms     lower   host latency of the planning call a caller
//	                                    waits on: Enable/EnableJobSet (batch-8dc), every
//	                                    Plane.Submit (serve-4dc), one round from gauge
//	                                    to deploy (plan-trace)
//	alloc_mb_per_op      MB     lower   median over passes of heap bytes allocated
//	                                    inside ops, per op
//	retained_heap_mb     MB     lower   live heap after a forced GC at the end of the
//	                                    timed phase, the last pass's state still held
//	ok_frac              ratio  higher  ops that neither failed, were refused, nor
//	                                    failed an output check, over ops attempted
//	                                    (1 - failed_frac; a refusal by admission
//	                                    control counts against it but is not a failure)
//	sim_jct_mean_s       sim_s  lower   mean simulated job completion time; on
//	                                    plan-trace, of the query each round runs on its
//	                                    plan
//	sim_cost_usd_per_job USD    lower   mean itemized job cost (compute, WAN egress,
//	                                    storage)
//	sim_min_pair_mbps    Mbps   higher  batch-8dc and plan-trace: mean
//	                                    RunResult.MinShuffleMbps, the paper's "minimum
//	                                    BW of the cluster"; serve-4dc: mean weakest pair
//	                                    of 20 stable measurements under the plane's
//	                                    final deployment, throttles included
//	sim_queue_wait_p95_s sim_s  lower   serve-4dc: p95 admission-queue wait;
//	                                    batch-8dc and plan-trace, which have no
//	                                    admission queue: p95 over stages of the time
//	                                    a stage waits for its WAN input (TransferS)
//	gauge_acc            ratio  higher  share of DC pairs whose predicted runtime BW is
//	                                    within 100 Mbps of a stable simultaneous
//	                                    measurement (measure.StaticSimultaneous) at the
//	                                    same instant: on an identical twin cluster
//	                                    (batch-8dc), right after the round (plan-trace),
//	                                    or in 24 gauge rounds after the drain
//	                                    (serve-4dc)
//
// The sim_* metrics and gauge_acc are computed from the first pass;
// every later pass must reproduce a digest of all per-op simulated
// outcomes bit for bit, or the run reports correct=false. Running the
// same seed twice must print the same digest line.
//
// # Output checks
//
// A failed check counts the op as failed and sets correct=false.
// batch-8dc: every job completes, the WAN bytes launched equal the
// planned transfer bytes (and, for job sets, the bytes delivered), the
// cost is finite and positive, and each stage placement sums to 1.
// serve-4dc: submitted = done + canceled + refused + failed, the
// plane's counts match the script's, every telemetry line passes
// serve.ValidLine, and the plane is idle at the end. plan-trace: the
// predicted matrix is finite and non-negative, every plan window
// satisfies 1 <= min <= max <= M, every placement sums to 1, and the
// round's query completes with the batch-8dc checks.
//
// # Traced run and per-layer metrics (--trace 1)
//
// The traced run sets up once, then alternates untraced passes (the
// overhead baseline) with traced ones for --seconds.
// It decorates substrate.Cluster and substrate.Flow, the spark.Scheduler
// and spark.ConnPolicy values it passes in, and serve.Config.Train, and
// it opens spans around its own calls into Framework, Plane and Engine.
// Callbacks handed to Cluster.After/Every, StartFlow's onDone and
// Flow.OnFail are wrapped and attributed to the module that registered
// them, taken from the caller's package. Substrate calls made inside a
// callback become its child spans. Self time is a span's duration
// minus its children; per layer, the self times plus "unattributed"
// (the benchmark's own glue) and "check" (scoring and output checks,
// recorded as one span each) add up to the traced host time exactly.
// Spans stay in memory (the first 65536 are kept) and are written to
// .bench_build/spans/<workload>.jsonl when the run ends.
//
// Layer metrics and the end-to-end metric each should move:
//
//	netsim.*, tracesim.*      step_self_ms (RunFor/RunUntil/AwaitFlows minus the
//	                          callbacks they fire), read_ms and reads (Flow.Rate,
//	                          TransferredBytes, RemainingBytes, PairRate, VMStats,
//	                          which may reallocate lazily), flow_starts,
//	                          probe_starts, callbacks, host_us_per_sim_s:
//	                          ops_per_host_s on batch-8dc, little on plan-trace
//	measure.*                 self_ms (callbacks measure registers), snapshots,
//	                          probes, probes_failed, retries: plan_ms_p50 on
//	                          batch-8dc and plan-trace
//	wanify.gauge_self_ms      DetermineRuntimeBW minus substrate children: measure,
//	                          feature and predict CPU together, which cannot be
//	                          split from outside; with predict.calls,
//	                          wanify.enable_self_ms and wanify.deploy_ms:
//	                          plan_ms_* on batch-8dc and plan-trace
//	rf.train_ms, train_calls  the serve retrain hook: ops_per_host_s on serve-4dc;
//	                          rf.setup_train_ms and setup.analyzer_ms: setup_s
//	optimize.self_ms, calls   plan-trace rounds; expected small
//	gda.place_ms, places,     plan_ms_* and ops_per_host_s on plan-trace; no
//	place_us_p50              change predicted on batch-8dc
//	agent.self_ms, epochs,    ops_per_host_s on batch-8dc
//	setconns
//	runtime.self_ms, epochs,  controller epochs including replan collect, predict
//	replans, drift_epochs,    and optimize: ops_per_host_s on serve-4dc and
//	incidents                 batch-8dc
//	spark.self_ms, transfers, ops_per_host_s on batch-8dc and serve-4dc
//	wan_gb
//	serve.submit_self_ms,     plan_ms_* on serve-4dc (admit_us_p50 is read from
//	self_ms, admitted,        Plane.AdmitLatencyNanos)
//	queued, refused,
//	cache_hits, cache_misses,
//	admit_us_p50
//	gc.cycles, gc.pause_ms    alloc_mb_per_op and plan_ms_p95 on serve-4dc
//	trace.overhead_frac       1 - traced ops_per_host_s / untraced
//
// Seen from outside, some work lands in the layer that calls it: the
// plane builds its own Tetrium scheduler, so gda placement on serve-4dc
// counts under spark (the engine's callbacks call it), and measure's
// CPU runs inside wanify.gauge and the controller's runtime callbacks.
//
// # Environment
//
// One process, GOMAXPROCS = min(NumCPU, 2), GC percent pinned to 100,
// sequential RF training workers. The first output line records the Go
// version, GOMAXPROCS, CPU count and seed; the "# samples" line gives
// the sample count behind every percentile.
//
// # Relation to BENCH_netsim.json
//
// BENCH_netsim.json, written by cmd/wanify-bench, stays the CI
// ratio-guard report: isolated micro-benchmarks (allocator churn, gda
// place, rf train/predict) as optimized/reference ratios, plus
// per-experiment wall seconds. This benchmark does not read or write it.
// It measures end to end instead, with simulated outcomes and layer
// attribution, and is the yardstick for gain and no-regression claims.
package main
