package experiments

import (
	"testing"

	"rupam/internal/core"
	"rupam/internal/hdfs"
	"rupam/internal/simx"
	"rupam/internal/spark"
	"rupam/internal/workloads"
)

// runWithRuntime mirrors Run but hands the runtime back for white-box
// inspection.
func runWithRuntime(t *testing.T, spec RunSpec) (*spark.Result, *spark.Runtime) {
	t.Helper()
	eng := simx.NewEngine()
	clu := BuildCluster(eng, spec.Cluster)
	store := hdfs.NewStore(clu.NodeNames(), 2, spec.Seed*2654435761+1)
	p := spec.Params
	if p.Seed == 0 {
		p.Seed = spec.Seed*7 + 42
	}
	app := workloads.Build(spec.Workload, store, p)
	var sched spark.Scheduler
	if spec.Scheduler == SchedRUPAM {
		sched = core.New(spec.RUPAM)
	} else {
		sched = spark.NewDefaultScheduler()
	}
	cfg := spec.Spark
	cfg.Seed = spec.Seed*31 + 7
	if !spec.Trace && cfg.SampleInterval == 0 {
		cfg.SampleInterval = -1
	}
	rt := spark.NewRuntime(eng, clu, sched, cfg)
	return rt.Run(app), rt
}
