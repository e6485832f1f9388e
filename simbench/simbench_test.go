package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"rupam/internal/chaos"
	"rupam/internal/cluster"
	"rupam/internal/experiments"
	"rupam/internal/federation"
	"rupam/internal/simx"
)

// testBench is a bench over the first n simulations of a workload.
func testBench(t *testing.T, name string, n int) *bench {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	b := newBench(w, io.Discard)
	b.sims = w.sims(1)
	if n < len(b.sims) {
		b.sims = b.sims[:n]
	}
	return b
}

// subsets keeps each test short: batch-compute's first seed covers LR,
// KMeans, GM and TC under both schedulers, batch-shuffle's covers
// TeraSort, SQL and PR.
var subsets = map[string]int{
	"batch-compute":     8,
	"batch-shuffle":     6,
	"streaming":         3,
	"federation-faults": 1,
}

// The decorator and the tracing collector must not change a single
// simulated output: the digests of decorated and collector passes equal
// the bare one on every workload.
func TestTracedDigestEqualsUntraced(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			b := testBench(t, w.name, subsets[w.name])
			bare := b.pass(instr{})
			pr := &probe{}
			decorated := b.pass(instr{probe: pr})
			collected := b.pass(instr{collector: true})
			if b.failed != 0 {
				t.Fatalf("%d of %d runs failed", b.failed, b.attempted)
			}
			if decorated.digest != bare.digest || collected.digest != bare.digest {
				t.Fatalf("sim_digest bare %s, decorated %s, collector %s",
					bare.digest, decorated.digest, collected.digest)
			}
			if strings.HasPrefix(w.name, "batch-") && (pr.sched.coreCalls == 0 || pr.sched.sparkCalls == 0 || pr.sched.samples == 0) {
				t.Fatalf("decorator saw %d RUPAM calls, %d Spark calls, %d heartbeats",
					pr.sched.coreCalls, pr.sched.sparkCalls, pr.sched.samples)
			}
		})
	}
}

// Batch runs built by the benchmark reproduce experiments.Run exactly,
// bare and decorated.
func TestBatchRunMatchesExperimentsRun(t *testing.T) {
	for _, app := range []string{"LR", "PR", "TC", "KMeans"} {
		for _, sched := range []string{experiments.SchedSpark, experiments.SchedRUPAM} {
			spec := experiments.RunSpec{Workload: app, Scheduler: sched, Seed: 1001}
			want := chaos.Fingerprint(experiments.Run(spec))
			bare := runBatch(spec, instr{})().fingerprint
			decorated := runBatch(spec, instr{probe: &probe{}})().fingerprint
			if bare != want || decorated != want {
				t.Errorf("%s/%s: experiments.Run %s, bare %s, decorated %s", app, sched, want, bare, decorated)
			}
		}
	}
}

// federation-faults leaves out every fault that makes a driver declare
// an executor lost (see federationGen), and keeps agent crashes and
// message faults.
func TestFederationPlansLoseNoExecutor(t *testing.T) {
	nodes := cluster.NewHydra(cluster.New(simx.NewEngine())).NodeNames()
	s := simSeeds(1, 1)[0]
	res := federation.Run(federationConfig(s, nodes))
	lost := 0
	for _, rt := range res.AppRuntimes {
		lost += rt.ExecutorsLost
	}
	faulted := res.MsgDropped + res.MsgDuped + res.MsgDelayed + res.MsgReordered
	if lost != 0 || res.AgentCrashes == 0 || faulted == 0 {
		t.Fatalf("plan seed %d: %d executors lost, %d agent crashes, %d faulted messages; want 0, >0, >0",
			s, lost, res.AgentCrashes, faulted)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{{0.9, 9}, {0.5, 5}, {1, 10}, {0, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}

func TestPaperErrZeroAtPaperSpeedups(t *testing.T) {
	var runs []batchRun
	for app, s := range figure5 {
		runs = append(runs, batchRun{app, "spark", 10 * s}, batchRun{app, "rupam", 10})
	}
	// TC has no reference and must not count.
	runs = append(runs, batchRun{"TC", "spark", 30}, batchRun{"TC", "rupam", 10})
	err, ok := paperErr(speedups(runs))
	if !ok || math.Abs(err) > 1e-12 {
		t.Fatalf("paperErr at the paper's speedups = %g, %v; want 0", err, ok)
	}

	err, ok = paperErr(map[string]float64{"PR": 2.5 * 1.2, "SQL": 1.19 * 0.9})
	if !ok || math.Abs(err-0.15) > 1e-12 {
		t.Fatalf("paperErr = %g, %v; want 0.15", err, ok)
	}
	if _, ok := paperErr(map[string]float64{"TC": 1.2}); ok {
		t.Fatal("paperErr reported a value with no referenced app")
	}
}

func TestCPUSharesSumToOne(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			b := testBench(t, w.name, subsets[w.name])
			profileDir = t.TempDir()
			_, shares, err := b.profiledPasses(0, instr{})
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for _, name := range shareNames {
				s, ok := shares[name]
				if !ok || s < 0 || s > 1 {
					t.Fatalf("%s.cpu_share = %g (present %v)", name, s, ok)
				}
				sum += s
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("cpu shares sum to %g: %v", sum, shares)
			}
		})
	}
}

// The command prints, as its last line, exactly the metrics
// BENCHMARK.json declares, with the declared units.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(allWorkloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(allWorkloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the command", w.Name)
		}
	}
	profileDir = t.TempDir()
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var out bytes.Buffer
		if code := run([]string{"--workload", "batch-compute", "--seed", "3", "--seconds", "0.01", "--trace", trace}, &out, io.Discard); code != 0 {
			t.Fatalf("trace %s: exit code %d\n%s", trace, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]metric
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not the result: %v", trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("trace %s: result %+v", trace, res)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics printed, BENCHMARK.json declares %d", trace, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s printed %v (present %v), declared unit %s", trace, m.Name, got, ok, m.Unit)
			}
		}
	}
}

func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "bogus"},
		{"--workload", "streaming", "--trace", "2"},
		{"--workload", "streaming", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q; want 2 and nothing", args, code, out.String())
		}
	}
}

// A panicking run and a run that changes its fingerprint count as
// failures; neither stops the pass.
func TestFailuresAreCountedNotFatal(t *testing.T) {
	calls := 0
	b := newBench(workload{}, io.Discard)
	b.sims = []sim{
		{label: "panics", run: func(instr) func() outcome { panic("boom") }},
		{label: "drifts", run: func(instr) func() outcome {
			calls++
			fp := fmt.Sprint(calls)
			return func() outcome { return outcome{fingerprint: fp} }
		}},
		{label: "breaks", run: func(instr) func() outcome {
			return func() outcome { return outcome{fingerprint: "x", violations: []string{"lost a task"}} }
		}},
	}
	b.pass(instr{})
	if b.attempted != 3 || b.failed != 2 {
		t.Fatalf("first pass: %d failed of %d, want 2 of 3", b.failed, b.attempted)
	}
	b.pass(instr{})
	if b.attempted != 6 || b.failed != 5 {
		t.Fatalf("second pass: %d failed of %d, want 5 of 6", b.failed, b.attempted)
	}
}
