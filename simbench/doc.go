// Command simbench is the repository benchmark: how long a pass of
// simulations takes on the host, what it costs in CPU and memory, whether
// the simulated outputs are right, and where the host time goes, layer by
// layer.
//
// Run it from the repository root through the wrapper, which builds it
// from the checkout's sources:
//
//	bash simbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// # Workloads
//
// Each workload is a closed loop: a fixed list of simulations, generated
// from --seed, run one after another from one goroutine with GOMAXPROCS
// 1. The simulation seeds start above 1000, outside the seeds 1..5 that
// EXPERIMENTS.md reports, so paper_err checks the model on held-out data.
//
//   - batch-compute: LR, KMeans, GM and TC on Hydra under spark and rupam,
//     six seeds, no faults. Scheduler calls are most of each RUPAM run's
//     time; netsim is about 15% of self CPU.
//   - batch-shuffle: TeraSort, SQL and PR under both schedulers, two seeds.
//     Netsim is about two thirds of self CPU; the default scheduler takes
//     a few percent of the time.
//   - streaming: streaming.Run over 48 generated topologies under each of
//     the default, resource and rupam placers, one forced migration per
//     run. The tick loop dominates; netsim is about 2%; no spark driver.
//   - federation-faults: federation.Run with 2 drivers and 4 apps under 16
//     random plans from chaos.FederationGen less node crashes, heartbeat
//     losses and driver crashes (agent crashes, message drop, dup, delay
//     and reorder, gray node faults) with the soak's hardened spark
//     config. The left-out kinds make a driver declare executors lost,
//     a path with known runtime defects (see federationGen). The only
//     workload that writes a WAL, runs the federation plane or recovers
//     from faults. The batch workloads configure no WAL; their small wal
//     share is the runtime's calls into a nil log.
//
// # Runs and checks
//
// Set-up (generating the list, which draws the fault plans, plus one
// warm-up simulation) repeats at least seven times and for at least a
// second; setup_s is the median. A first, untimed pass over the list
// records each simulation's fingerprint and the heap it ends with; it is
// the only pass that forces garbage collections. Then timed passes
// repeat, at least twice, while another pass would still end within
// --seconds of the first pass's start. The work of a pass, in simulated
// events, varies by about 2% from one --seed to another on the batch and
// streaming workloads and by about 4% on federation-faults, whose fault
// plans differ more. Only the simulations are timed. After each one,
// outside the timed region, the reference kernel runs (see below) and the
// simulation's outputs are checked: chaos.CheckInvariants for batch runs,
// streaming.CheckInvariants plus substrate conservation for streaming,
// and the run's own violations, chaos.CheckAppInvariants and
// chaos.CheckResourceConservation for federation. Every simulation must
// also reproduce the fingerprint of its first run in the invocation. A
// run that panics, breaks an invariant or changes its fingerprint counts
// as failed; the benchmark goes on, reports it in "failed" and exits 1.
//
// The command prints failed_frac (failed runs over attempted runs) and
// sim_digest, a hash of every simulated output of a pass. A change meant
// only to make the simulator faster must leave sim_digest unchanged.
//
// # Reference seconds
//
// The host the bounds were set on, a 2-vCPU VM, changes speed by up to a
// half within minutes as the machine's other tenants come and go. So
// every time the benchmark reports is in reference seconds: after each
// simulation (and each set-up), outside the timed region, the benchmark
// runs units of a fixed reference kernel (ref.go) for a quarter of the
// simulation's CPU time, and scales the pass's host times by
// refUnitSeconds over the median unit's host time. The kernel is a small
// discrete-event loop that uses no repository code, so a faster simulator
// shows in full. The command also prints the host times.
//
// # End-to-end metrics (--trace 0)
//
// Bare simulations: no decorator, no profiler, no tracing.
//
//   - wall_s, cpu_s: wall and user+sys CPU seconds of one pass, in
//     reference seconds, summed over the list from each simulation's
//     median across the timed passes. A garbage collection that a
//     simulation leaves running when it returns finishes during the
//     reference kernel and is not counted.
//   - events_per_cpu_s: simulated engine events per reference CPU second.
//   - allocs_per_event: host heap allocations per simulated event.
//   - heap_p90_mb: the heap a simulation holds when it ends, 90th
//     percentile over the list: live bytes after a collection forced
//     between the run and its checks in the untimed first pass, while the
//     whole simulated state is still reachable. For a given build and
//     seed it repeats within about 1%. The largest value is printed as
//     heap_peak_mb; over ten seeds of streaming its quartile spread was
//     13% of its median, that of the 90th percentile 4 to 5%.
//   - setup_s: median set-up wall time, in reference seconds.
//   - run_p50_ms: the median wall time of one simulation, in reference
//     milliseconds, over every run of every timed pass; the command
//     prints the sample count.
//
// failed_frac is printed, not returned as a metric, because it is 0 on a
// correct run and the result's failed and attempted fields carry it.
//
// # Per-layer metrics (--trace 1)
//
// After the untimed first pass, a third of the budget runs bare passes as
// the baseline, a third runs passes with the scheduler decorator
// (timedScheduler) under a CPU profile, and a third runs passes with a
// tracing.Collector attached, as -trace does. All must give the same
// sim_digest.
//
//   - harness.trace_overhead: decorated-and-profiled cpu_s over bare cpu_s,
//     minus 1. tracing.cpu_ratio: cpu_s with a Collector over bare cpu_s;
//     the cost users pay for -trace.
//   - core.busy_s, core.calls, core.us_per_call: inclusive time in and calls
//     into RUPAM per pass; spark.sched_busy_s the same for Spark's default
//     scheduler. simx.pending_mean and netsim.active_flows_mean are sampled
//     on every heartbeat. workloads.build_ms is hdfs.NewStore plus
//     workloads.Build per pass. These need the decorator, which only the
//     batch workloads can install; elsewhere they read 0.
//   - Counts per pass: simx.events; simx.ns_per_event (simx self CPU per
//     event); netsim.bytes; executor.attempts and executor.useful_frac
//     (successful attempts over attempts); core.chardb_records;
//     core.rupam_speedup (mean over apps of Spark over RUPAM simulated
//     duration); spark.heartbeats; wal.records, wal.bytes; federation.msgs,
//     federation.commits_per_msg, federation.msg_fault_frac,
//     federation.resyncs, federation.sim_makespan_s;
//     streaming.sim_throughput_hz, streaming.sim_p99_ms,
//     streaming.slo_attain, streaming.migrations. A layer the workload does
//     not run reads 0.
//   - paper_err: batch workloads only (0 elsewhere), the mean over
//     apps of |simulated speedup - paper speedup| / paper speedup against
//     the Figure 5 values in paper.go. TC is left out: the paper gives no
//     figure for it.
//   - <module>.cpu_share for simx, netsim, executor, core, spark, monitor,
//     wal, federation, streaming, runtime and other: each CPU sample of the
//     decorated passes is charged to the innermost frame of a listed
//     rupam/internal/<module> package, to "other" if its stack holds only
//     other rupam/internal packages, and to "runtime" if it holds none.
//     The profile is read with `go tool pprof -traces`; the benchmark's
//     own work (checks, reference kernel) carries the pprof label
//     simbench=harness and is left out. The shares sum to 1.
//
// # Which end-to-end metric each layer should move
//
//   - netsim.*: cpu_s, wall_s and events_per_cpu_s; a large effect on
//     batch-shuffle, some on federation-faults, none on streaming.
//   - core.*: cpu_s on batch-compute, a small effect on batch-shuffle.
//   - streaming.cpu_share: cpu_s and allocs_per_event on streaming only.
//   - wal.* and federation.*: cpu_s and wall_s on federation-faults; the
//     batch workloads configure no WAL.
//   - simx.* and runtime.cpu_share: events_per_cpu_s, allocs_per_event and
//     heap_p90_mb on every workload.
//   - executor.useful_frac and core.rupam_speedup: paper_err.
//   - tracing.cpu_ratio: no end-to-end metric, because tracing is off in
//     those runs.
package main
