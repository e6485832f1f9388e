// Custom cluster: the public API end to end on a user-defined topology
// and a hand-built workload — define heterogeneous nodes, place a
// dataset, express a custom application with the RDD API, and run it
// under RUPAM.
//
//	go run ./examples/custom-cluster
package main

import (
	"fmt"

	"rupam/internal/cluster"
	"rupam/internal/core"
	"rupam/internal/hdfs"
	"rupam/internal/rdd"
	"rupam/internal/simx"
	"rupam/internal/spark"
)

func main() {
	eng := simx.NewEngine()
	clu := cluster.New(eng)

	// A small shop: two fast compute boxes, one storage-heavy box with an
	// SSD, and one GPU box.
	for i := 1; i <= 2; i++ {
		clu.AddNode(cluster.NodeSpec{
			Name: fmt.Sprintf("compute%d", i), Class: "compute",
			Cores: 16, FreqGHz: 3.0, MemBytes: 32 * cluster.GB,
			NetBandwidth: cluster.GbE(10),
			DiskReadBW:   cluster.MBps(180), DiskWriteBW: cluster.MBps(160),
		})
	}
	clu.AddNode(cluster.NodeSpec{
		Name: "storage1", Class: "storage",
		Cores: 8, FreqGHz: 2.0, MemBytes: 64 * cluster.GB,
		NetBandwidth: cluster.GbE(10), SSD: true,
		DiskReadBW: cluster.MBps(900), DiskWriteBW: cluster.MBps(800),
	})
	clu.AddNode(cluster.NodeSpec{
		Name: "gpu1", Class: "accel",
		Cores: 8, FreqGHz: 2.2, MemBytes: 32 * cluster.GB,
		NetBandwidth: cluster.GbE(10),
		DiskReadBW:   cluster.MBps(200), DiskWriteBW: cluster.MBps(180),
		GPUs: 2, GPURateGHz: 50,
	})

	// 8 GB of event logs, replicated twice.
	store := hdfs.NewStore(clu.NodeNames(), 2, 1)
	logs := store.CreateSkewed("events", 8*cluster.GB, 64, 0.3)

	// A custom pipeline: parse (cached), featurize on the GPU, sessionize
	// with a shuffle, run three scoring iterations.
	ctx := rdd.NewContext("custom-analytics", store, 1)
	parsed := ctx.Read(logs).Map("parse", rdd.Profile{
		CPUPerByte: 20e-9, MemPerByte: 1.5, OutRatio: 0.8,
	}).Cache()

	sessions := parsed.Shuffle("sessionize", rdd.Profile{
		CPUPerByte: 15e-9, MemPerByte: 2, OutRatio: 0.5, Skew: 0.3,
	}, 32)
	sessions.Count("prepare")

	for i := 1; i <= 3; i++ {
		scored := parsed.Map("score", rdd.Profile{
			CPUPerByte: 30e-9, GPUPerByte: 120e-9, MemPerByte: 1.2, OutRatio: 1e-4,
		})
		scored.Shuffle("aggregate", rdd.Profile{CPUPerByte: 10e-9}, 8).
			Count(fmt.Sprintf("score-round-%d", i))
	}

	rt := spark.NewRuntime(eng, clu, core.New(core.Config{}), spark.Config{Seed: 1})
	res := rt.Run(ctx.App())

	fmt.Printf("application %q finished in %.1fs (%d tasks, %d jobs)\n",
		res.App.Name, res.Duration, res.App.NumTasks(), len(res.App.Jobs))
	for i, je := range res.JobEnds {
		fmt.Printf("  job %d done at %6.1fs\n", i+1, je)
	}
	gpu := 0
	for _, t := range res.App.AllTasks() {
		if m := t.SuccessMetrics(); m != nil && m.UsedGPU {
			gpu++
		}
	}
	fmt.Printf("tasks that ran on the GPUs: %d\n", gpu)
}
