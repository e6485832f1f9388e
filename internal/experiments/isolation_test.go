package experiments

import (
	"fmt"
	"sync"
	"testing"

	"rupam/internal/chaos"
	"rupam/internal/streaming"
)

// TestParallelRunsMatchSerial runs independent simulations side by side,
// one goroutine each, and requires every one to land on the fingerprint
// of the same run done alone. Under -race it also shows the simulations
// share no mutable state: each engine, cluster, network and executor set
// belongs to exactly one run.
func TestParallelRunsMatchSerial(t *testing.T) {
	batch := func(workload, scheduler string) func() string {
		return func() string {
			return chaos.Fingerprint(Run(RunSpec{Workload: workload, Scheduler: scheduler, Seed: 1}))
		}
	}
	runs := []func() string{
		batch("TeraSort", SchedRUPAM),
		batch("PR", SchedSpark),
		batch("LR", SchedRUPAM),
		func() string {
			res := streaming.Run(streaming.Config{
				Seed:    1,
				Placer:  "rupam",
				Topo:    streamingTopo(),
				Horizon: 30,
				Warmup:  5,
			})
			return fmt.Sprintf("%016x", res.Fingerprint())
		},
	}

	serial := make([]string, len(runs))
	for i, run := range runs {
		serial[i] = run()
	}

	parallel := make([]string, len(runs))
	var wg sync.WaitGroup
	for i, run := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parallel[i] = run()
		}()
	}
	wg.Wait()

	for i := range runs {
		if parallel[i] != serial[i] {
			t.Errorf("run %d: fingerprint %s in parallel, %s alone", i, parallel[i], serial[i])
		}
	}
}
