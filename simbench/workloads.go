package main

import (
	"fmt"
	"time"

	"rupam/internal/chaos"
	"rupam/internal/cluster"
	"rupam/internal/core"
	"rupam/internal/executor"
	"rupam/internal/experiments"
	"rupam/internal/faults"
	"rupam/internal/federation"
	"rupam/internal/hdfs"
	"rupam/internal/simx"
	"rupam/internal/spark"
	"rupam/internal/streaming"
	"rupam/internal/tracing"
	"rupam/internal/workloads"
)

// instr selects how one simulation is instrumented. The zero value runs
// it bare, as the end-to-end metrics require.
type instr struct {
	// probe, when non-nil, wraps batch schedulers in timedScheduler and
	// times input building (hdfs.NewStore plus workloads.Build).
	probe *probe
	// collector attaches a tracing.Collector, as the -trace flag does.
	collector bool
}

// probe collects the timed calls of an instrumented pass.
type probe struct {
	sched schedStats
	build time.Duration
}

// outcome is what one finished simulation reports, computed outside the
// timed region.
type outcome struct {
	fingerprint string
	violations  []string
	counts      counts
}

// counts are the per-layer work counts of one or more simulations.
type counts struct {
	netBytes            float64
	attempts, useful    int
	heartbeats          int
	chardbRecords       int
	walRecords          uint64
	walBytes            int
	fedRuns             int
	fedMsgs, fedCommits int
	fedMsgFaults        int
	fedResyncs          int
	fedMakespan         float64
	strRuns             int
	strThroughput       float64
	strP99, strSLO      float64
	strMigrations       int
	batch               []batchRun
}

// batchRun is one batch simulation's simulated duration, for speedups.
type batchRun struct {
	app, sched string
	duration   float64
}

func (c *counts) add(o counts) {
	c.netBytes += o.netBytes
	c.attempts += o.attempts
	c.useful += o.useful
	c.heartbeats += o.heartbeats
	c.chardbRecords += o.chardbRecords
	c.walRecords += o.walRecords
	c.walBytes += o.walBytes
	c.fedRuns += o.fedRuns
	c.fedMsgs += o.fedMsgs
	c.fedCommits += o.fedCommits
	c.fedMsgFaults += o.fedMsgFaults
	c.fedResyncs += o.fedResyncs
	c.fedMakespan += o.fedMakespan
	c.strRuns += o.strRuns
	c.strThroughput += o.strThroughput
	c.strP99 += o.strP99
	c.strSLO += o.strSLO
	c.strMigrations += o.strMigrations
	c.batch = append(c.batch, o.batch...)
}

// sim is one simulation of a workload's fixed list.
type sim struct {
	label string
	// run executes the simulation and returns a function that checks its
	// outputs. Only run is timed.
	run func(in instr) (check func() outcome)
}

// workload is a named, seeded list of simulations run one after another.
type workload struct {
	name string
	sims func(seed uint64) []sim
}

var allWorkloads = []workload{
	{name: "batch-compute", sims: func(seed uint64) []sim {
		return batchSims(seed, []string{"LR", "KMeans", "GM", "TC"}, 6)
	}},
	{name: "batch-shuffle", sims: func(seed uint64) []sim {
		return batchSims(seed, []string{"TeraSort", "SQL", "PR"}, 2)
	}},
	{name: "streaming", sims: streamingSims},
	{name: "federation-faults", sims: federationSims},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// simSeeds derives a workload's simulation seeds from the benchmark
// seed. They start above 1000, so they are held out from seeds 1..5,
// which EXPERIMENTS.md reports and the model was tuned on.
func simSeeds(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = 1000 + seed*64 + uint64(i)
	}
	return out
}

// batchSims runs every app under both schedulers on perSeed seeds.
func batchSims(seed uint64, apps []string, perSeed int) []sim {
	var out []sim
	for _, s := range simSeeds(seed, perSeed) {
		for _, app := range apps {
			for _, sched := range []string{experiments.SchedSpark, experiments.SchedRUPAM} {
				spec := experiments.RunSpec{Workload: app, Scheduler: sched, Seed: s}
				out = append(out, sim{
					label: fmt.Sprintf("%s/%s/seed=%d", app, sched, s),
					run:   func(in instr) func() outcome { return runBatch(spec, in) },
				})
			}
		}
	}
	return out
}

// runBatch is experiments.Run with the benchmark's instrumentation
// points: it builds the run the same way, deriving every seed exactly as
// experiments.Run does, so a bare run reproduces its fingerprint.
func runBatch(spec experiments.RunSpec, in instr) func() outcome {
	executor.ResetRunSeq()
	eng := simx.NewEngine()
	clu := experiments.BuildCluster(eng, spec.Cluster)

	var start time.Time
	if in.probe != nil {
		start = time.Now()
	}
	store := hdfs.NewStore(clu.NodeNames(), 2, spec.Seed*2654435761+1)
	p := spec.Params
	if p.Seed == 0 {
		p.Seed = spec.Seed*7 + 42
	}
	app := workloads.Build(spec.Workload, store, p)
	if in.probe != nil {
		in.probe.build += time.Since(start)
	}

	var sched spark.Scheduler
	switch spec.Scheduler {
	case experiments.SchedRUPAM:
		sched = core.New(spec.RUPAM)
	case "", experiments.SchedSpark:
		sched = spark.NewDefaultScheduler()
	default:
		panic(fmt.Sprintf("simbench: unknown scheduler %q", spec.Scheduler))
	}
	inner := sched
	if in.probe != nil {
		sched = newTimedScheduler(sched, eng, clu.Net, &in.probe.sched)
	}

	cfg := spec.Spark
	cfg.Seed = spec.Seed*31 + 7
	cfg.Tracer = spec.Tracer
	if in.collector {
		cfg.Tracer = tracing.NewCollector()
	}
	if !spec.Trace && cfg.SampleInterval == 0 {
		cfg.SampleInterval = -1
	}
	rt := spark.NewRuntime(eng, clu, sched, cfg)
	res := rt.Run(app)

	return func() outcome {
		c := counts{
			netBytes:   netBytes(clu),
			heartbeats: res.Heartbeats,
			batch:      []batchRun{{app: spec.Workload, sched: spec.Scheduler, duration: res.Duration}},
		}
		c.attempts, c.useful = attemptCounts(res)
		if r, ok := inner.(*core.RUPAM); ok {
			c.chardbRecords = r.DB().RecordCount()
		}
		return outcome{
			fingerprint: chaos.Fingerprint(res),
			violations:  chaos.CheckInvariants(res, rt),
			counts:      c,
		}
	}
}

// streamingSims runs generated topologies under every placer. Each run
// forces one operator migration, so the exactly-once handoff is on the
// measured path.
func streamingSims(seed uint64) []sim {
	var out []sim
	for _, s := range simSeeds(seed, 48) {
		for _, placer := range streaming.PlacerNames {
			cfg := streaming.Config{Seed: s, Placer: placer, Topo: streamingTopo, Horizon: 60, ForceMigrateAt: 24}
			out = append(out, sim{
				label: fmt.Sprintf("streaming/%s/seed=%d", placer, s),
				run: func(in instr) func() outcome {
					c := cfg
					if in.collector {
						c.Collector = tracing.NewCollector()
					}
					res := streaming.Run(c)
					return func() outcome {
						v := streaming.CheckInvariants(res)
						v = append(v, chaos.CheckSubstrateConservation(res.Execs, res.Clu, res.Cache)...)
						return outcome{
							fingerprint: fmt.Sprintf("%016x", res.Fingerprint()),
							violations:  v,
							counts: counts{
								netBytes:      netBytes(res.Clu),
								strRuns:       1,
								strThroughput: res.ThroughputHz,
								strP99:        res.P99Ms,
								strSLO:        res.SLOAttain,
								strMigrations: len(res.Migrations),
							},
						}
					}
				},
			})
		}
	}
	return out
}

// streamingTopo is the topology envelope experiments.Streaming sweeps the
// placers over: offered load near what a good placement attains. The
// generator's default envelope also draws topologies that offer far more,
// and on one of them the runtime has a known defect: seed 3120 offers
// 76,000 records/s, and under the rupam placer (Horizon 60) migrations
// repeat and the backlog does not drain within the 180 s grace, which
// streaming.CheckInvariants reports. Default and resource placements of
// it drain. Of 51 seeded lists of 24 default-envelope topologies, one
// held such a topology; a benchmark workload must not fail, so the lists
// are drawn from the sweep's envelope.
var streamingTopo = streaming.TopoConfig{
	Sources: 3, Layers: 4, WidthMin: 3, WidthMax: 4,
	RateMin: 4000, RateMax: 7000,
	CyclesMin: 2e-4, CyclesMax: 4.5e-4,
	SelMin: 0.6, SelMax: 1.05,
	ParMin: 12, ParMax: 24,
}

// federationSims runs two drivers and four apps under a random fault plan
// drawn from federationGen: agent crashes, dropped, duplicated, delayed
// and reordered protocol messages, and gray node faults. The plans are
// drawn here, before any timed run.
func federationSims(seed uint64) []sim {
	nodes := cluster.NewHydra(cluster.New(simx.NewEngine())).NodeNames()
	var out []sim
	for _, s := range simSeeds(seed, 16) {
		cfg := federationConfig(s, nodes)
		out = append(out, sim{
			label: fmt.Sprintf("federation/seed=%d", s),
			run: func(in instr) func() outcome {
				c := cfg
				if in.collector {
					c.Spark.Tracer = tracing.NewCollector()
				}
				res := federation.Run(c)
				return func() outcome { return federationOutcome(res) }
			},
		})
	}
	return out
}

// federationConfig is one federated run: its plan is drawn from
// federationGen, and chaos.HardenedConfig carries the soak's
// per-application settings (federation.Run replaces their seed, sampling
// and time limit).
func federationConfig(seed uint64, nodes []string) federation.Config {
	plan := faults.RandomSchedule(seed, nodes, federationGen())
	return federation.Config{Drivers: 2, Apps: 4, Seed: seed, Faults: plan, Spark: chaos.HardenedConfig(seed)}
}

// federationGen is chaos.FederationGen without the fault kinds that make
// a driver declare executors lost: node crashes, heartbeat losses and
// driver crashes (a recovered driver declares the executors it cannot
// reach lost). The runtime has known defects on that path. In about one
// FederationGen plan in 120, an executor-loss rollback that lands just
// before the last job ends leaves the application completed with the
// rolled-back map tasks still pending (chaos.FederationSoak with seed
// 1834 reproduces it); 3 of the 16-plan lists of seeds 0..21 failed so.
// With node crashes and heartbeat losses left out but driver crashes
// kept, some plans instead count a result task's completion twice. A
// benchmark workload must not fail, so its plans leave all three kinds
// out; chaos.FederationSoak still draws them. Agent crashes, every
// message-fault kind and the gray node faults stay.
func federationGen() faults.GenConfig {
	g := chaos.FederationGen()
	g.Crashes = 0
	g.HeartbeatLosses = 0
	g.DriverCrashes = 0
	return g
}

// federationOutcome checks a federated run as chaos.FederationSoak does:
// the protocol's own violations, the per-application battery, and slot
// conservation over the shared substrate.
func federationOutcome(res *federation.Result) outcome {
	v := append([]string(nil), res.Violations...)
	c := counts{
		fedRuns:      1,
		fedMsgs:      res.MsgSent,
		fedCommits:   res.Commits,
		fedMsgFaults: res.MsgDropped + res.MsgDuped + res.MsgDelayed + res.MsgReordered,
		fedResyncs:   res.Resyncs,
		fedMakespan:  res.Makespan,
	}
	for i, rt := range res.AppRuntimes {
		for _, s := range chaos.CheckAppInvariants(res.AppResults[i], rt) {
			v = append(v, fmt.Sprintf("app %d: %s", i, s))
		}
		a, u := attemptCounts(res.AppResults[i])
		c.attempts += a
		c.useful += u
		c.heartbeats += res.AppResults[i].Heartbeats
		c.walRecords += rt.WAL().Seq()
		c.walBytes += len(rt.WAL().Bytes())
	}
	if len(res.AppRuntimes) > 0 {
		for _, s := range chaos.CheckResourceConservation(res.AppRuntimes[0]) {
			v = append(v, "conservation: "+s)
		}
		c.netBytes = netBytes(res.AppRuntimes[0].Clu)
	}
	return outcome{fingerprint: res.Fingerprint, violations: v, counts: c}
}

// attemptCounts returns a run's task attempts and how many succeeded.
func attemptCounts(res *spark.Result) (attempts, useful int) {
	for _, tk := range res.App.AllTasks() {
		for _, a := range tk.Attempts {
			attempts++
			if a.Succeeded() {
				useful++
			}
		}
	}
	return attempts, useful
}

// netBytes is the total bytes netsim flows moved, counted at the sender,
// loopback transfers included.
func netBytes(clu *cluster.Cluster) float64 {
	var b float64
	for _, n := range clu.Nodes {
		b += n.Net.TotalSent()
	}
	return b
}
