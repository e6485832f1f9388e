// Command rupam-bench regenerates every table and figure of the paper's
// evaluation (§IV) on the simulated Hydra cluster and prints the same
// rows/series the paper reports.
//
// Usage:
//
//	rupam-bench [-experiment all|tab2|tab4|fig2|fig3|fig5|fig6|tab5|fig7|fig8|fig9|ablations|faults|chaos|recovery|tracesanity|tenancy|preempt|elastic|federation|streaming|perf]
//	            [-runs N] [-seed N] [-csv DIR] [-json FILE] [-chaos-seeds N]
//	            [-tenancy-seeds N] [-tenancy-apps N] [-elastic-seeds N]
//	            [-federation-seeds N] [-streaming-seeds N]
//	            [-perf-scale smoke|standard] [-perf-reps N] [-perf-compare-unopt]
//	            [-baseline FILE] [-threshold F] [-kernel-baseline FILE]
//	            [-cpuprofile FILE] [-memprofile FILE] [-trace FILE]
//
// fig5 runs every workload under both schedulers -runs times (default 5,
// as in the paper); everything else uses a single seeded run. With -csv,
// the raw series behind Figures 2, 3 and 9 are also written as CSV files
// into DIR for replotting.
//
// "all" is the paper's tables and figures plus the ablations. It stays
// fault-free and byte-reproducible, so every other experiment must be
// requested explicitly:
//
//   - faults: PageRank under a seeded fault plan, both schedulers.
//   - chaos: a -chaos-seeds wide soak sweep with invariant checking.
//   - recovery: a -chaos-seeds wide driver-crash sweep checking each
//     crashed-and-recovered run against its unfailed reference.
//   - tracesanity: traced runs under both schedulers with trace-format,
//     determinism, decision-audit and critical-path invariant checks.
//   - tenancy: -tenancy-seeds open-loop arrival streams per scheduler on
//     the shared cluster, reporting per-pool throughput, latency
//     percentiles and slowdown versus isolated runs (-csv writes
//     tenancy_pools.csv).
//   - preempt: a -chaos-seeds wide preemption soak on the elastic instance
//     market, auditing the graceful-drain protocol end to end.
//   - elastic: the cost-vs-makespan Pareto sweep over acquisition policies
//     under identical reclamation plans (-csv writes elastic_pareto.csv).
//   - federation: the two-phase placement protocol's acceptance battery
//     and a -federation-seeds wide soak (multi-driver runs under driver
//     crashes, agent crash/restart episodes and an unreliable control
//     plane), then the 1/2/4-driver scaling sweep with its agent-churn
//     column gating makespan under agent faults within a tuned envelope
//     of fault-free (-csv writes federation_scale.csv and
//     federation_agent_churn.csv).
//   - streaming: -streaming-seeds seeded operator topologies under every
//     placement policy, gated on the paper's ordering: RUPAM's
//     demand-vector placement must sustain at least the throughput of
//     Storm-style resource-aware placement, which must sustain at least
//     blind round-robin (-csv writes streaming_throughput.csv).
//   - perf: the kernel-throughput battery, optionally gated against a
//     -baseline BENCH artifact. It measures wall time, which no artifact
//     may depend on.
//
// Every experiment but faults and tracesanity writes its full report to
// -json, and every sweep, gate or invariant violation exits nonzero.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"slices"
	"strings"
	"time"

	"rupam/internal/chaos"
	"rupam/internal/experiments"
	"rupam/internal/metrics"
	"rupam/internal/perf"
)

// options carries the parsed flags an experiment reads.
type options struct {
	w              io.Writer
	runs           int
	seed           uint64
	csvDir         string
	jsonPath       string
	chaosSeeds     int
	tenancySeeds   int
	tenancyApps    int
	elasticSeeds   int
	fedSeeds       int
	streamingSeeds int
	perfScale      string
	perfReps       int
	perfUnopt      bool
	baselinePath   string
	threshold      float64
	kernelBaseline string
}

// experiment is one -experiment value: the section title it prints,
// whether "all" runs it, and its body, which returns the exit code.
type experiment struct {
	name  string
	title string
	inAll bool
	run   func(o *options) int
}

// experimentTable lists every experiment in -experiment order. "all" is
// the paper's tables and figures plus the ablations, which stay
// fault-free and byte-identical run to run; the other ten (fault and soak
// sweeps, trace checks, multi-tenant, elastic, federation, streaming and
// perf) must be named.
var experimentTable = []experiment{
	{"tab2", "Table II", true, func(o *options) int { experiments.TableII(o.w); return 0 }},
	{"tab4", "Table IV", true, func(o *options) int { experiments.TableIV(o.w); return 0 }},
	{"fig2", "Figure 2", true, func(o *options) int {
		r := experiments.Fig2(o.seed)
		r.Print(o.w)
		return o.csv(csvFile{"fig2_trace.csv", func(w io.Writer) error {
			return metrics.WriteTraceCSV(w, r.Trace)
		}})
	}},
	{"fig3", "Figure 3", true, func(o *options) int {
		r := experiments.Fig3(o.seed)
		r.Print(o.w)
		return o.csv(csvFile{"fig3_tasks.csv", func(w io.Writer) error {
			return metrics.WriteTaskRowsCSV(w, r.Rows)
		}})
	}},
	{"fig5", "Figure 5", true, func(o *options) int { experiments.Fig5(o.runs).Print(o.w); return 0 }},
	{"fig6", "Figure 6", true, func(o *options) int { experiments.Fig6(nil, o.seed).Print(o.w); return 0 }},
	{"tab5", "Table V", true, func(o *options) int { experiments.Tab5(o.seed).Print(o.w); return 0 }},
	{"fig7", "Figure 7", true, func(o *options) int { experiments.Fig7(o.seed).Print(o.w); return 0 }},
	{"fig8", "Figure 8", true, func(o *options) int { experiments.Fig8(o.seed).Print(o.w); return 0 }},
	{"fig9", "Figure 9", true, func(o *options) int {
		r := experiments.Fig9(o.seed)
		r.Print(o.w)
		return o.csv(
			csvFile{"fig9_spark.csv", func(w io.Writer) error { return metrics.WriteBalanceCSV(w, r.Spark) }},
			csvFile{"fig9_rupam.csv", func(w io.Writer) error { return metrics.WriteBalanceCSV(w, r.RUPAM) }},
		)
	}},
	{"ablations", "Ablations", true, func(o *options) int { experiments.Ablations(o.seed).Print(o.w); return 0 }},
	{"faults", "Fault recovery", false, func(o *options) int { experiments.FaultRecovery(o.seed).Print(o.w); return 0 }},
	{"chaos", "Chaos soak", false, func(o *options) int {
		seeds, code := o.seedList("chaos-seeds", o.chaosSeeds)
		if code != 0 {
			return code
		}
		rep := chaos.Soak(chaos.Config{Seeds: seeds})
		return o.publish(rep, rep.Violations, "chaos sweep found %d invariant violations")
	}},
	{"recovery", "Crash recovery", false, func(o *options) int {
		seeds, code := o.seedList("chaos-seeds", o.chaosSeeds)
		if code != 0 {
			return code
		}
		rep := chaos.RecoverySoak(chaos.Config{Seeds: seeds})
		return o.publish(rep, rep.Violations, "recovery sweep found %d violations")
	}},
	{"tracesanity", "Trace sanity", false, func(o *options) int {
		rep := experiments.RunTraceSanity(o.seed)
		rep.Print(o.w)
		return verdict(len(rep.Violations), "trace sanity found %d invariant violations")
	}},
	{"tenancy", "Multi-tenant sweep", false, func(o *options) int {
		if o.tenancySeeds < 1 || o.tenancyApps < 1 {
			fmt.Fprintf(os.Stderr, "rupam-bench: -tenancy-seeds and -tenancy-apps must be at least 1\n")
			return 2
		}
		rep := experiments.Tenancy(experiments.TenancyConfig{
			BaseSeed: o.seed,
			Seeds:    o.tenancySeeds,
			Apps:     o.tenancyApps,
		})
		return o.publish(rep, rep.Violations, "tenancy sweep found %d invariant violations",
			csvFile{"tenancy_pools.csv", rep.WritePoolCSV})
	}},
	{"preempt", "Preemption soak", false, func(o *options) int {
		seeds, code := o.seedList("chaos-seeds", o.chaosSeeds)
		if code != 0 {
			return code
		}
		rep := chaos.PreemptionSoak(chaos.PreemptConfig{Seeds: seeds})
		return o.publish(rep, rep.Violations, "preemption soak found %d invariant violations")
	}},
	{"elastic", "Elastic Pareto sweep", false, func(o *options) int {
		if o.elasticSeeds < 0 {
			fmt.Fprintf(os.Stderr, "rupam-bench: -elastic-seeds must be non-negative, got %d\n", o.elasticSeeds)
			return 2
		}
		rep := experiments.Elastic(experiments.ElasticConfig{BaseSeed: o.seed, Seeds: o.elasticSeeds})
		return o.publish(rep, rep.Violations, "elastic sweep found %d violations",
			csvFile{"elastic_pareto.csv", rep.WriteParetoCSV})
	}},
	{"federation", "Federation soak + scaling sweep", false, func(o *options) int {
		seeds, code := o.seedList("federation-seeds", o.fedSeeds)
		if code != 0 {
			return code
		}
		rep := chaos.FederationSoak(chaos.FederationConfig{Seeds: seeds})
		rep.Print(o.w)
		if code = o.writeJSON(rep); code != 0 {
			return code
		}
		sweep := experiments.Federation(experiments.FederationConfig{BaseSeed: o.seed})
		sweep.Print(o.w)
		code = o.csv(
			csvFile{"federation_scale.csv", sweep.WriteCSV},
			csvFile{"federation_agent_churn.csv", sweep.WriteChurnCSV},
		)
		if code != 0 {
			return code
		}
		return verdict(rep.Violations+sweep.Violations, "federation sweep found %d invariant violations")
	}},
	{"streaming", "Streaming placement sweep", false, func(o *options) int {
		if o.streamingSeeds < 0 {
			fmt.Fprintf(os.Stderr, "rupam-bench: -streaming-seeds must be non-negative, got %d\n", o.streamingSeeds)
			return 2
		}
		rep := experiments.Streaming(experiments.StreamingConfig{BaseSeed: o.seed, Seeds: o.streamingSeeds})
		return o.publish(rep, rep.Violations, "streaming sweep found %d violations",
			csvFile{"streaming_throughput.csv", rep.WriteThroughputCSV})
	}},
	{"perf", "Perf battery", false, runPerf},
}

// experimentNames is every value -experiment accepts.
func experimentNames() []string {
	names := []string{"all"}
	for _, e := range experimentTable {
		names = append(names, e.name)
	}
	return names
}

func main() { os.Exit(run()) }

// run parses the flags and runs the chosen experiments, returning the
// exit code, so the deferred profile stop runs on every path.
func run() int {
	o := &options{w: os.Stdout}
	names := experimentNames()
	exp := flag.String("experiment", "all", "experiment to regenerate: "+strings.Join(names, "|"))
	flag.IntVar(&o.runs, "runs", 5, "repetitions for fig5")
	flag.Uint64Var(&o.seed, "seed", 1, "base PRNG seed")
	flag.StringVar(&o.csvDir, "csv", "", "directory for raw CSV series (fig2, fig3, fig9)")
	flag.IntVar(&o.chaosSeeds, "chaos-seeds", 20, "fault-plan seeds in the chaos sweep")
	flag.StringVar(&o.jsonPath, "json", "", "file for the JSON report of chaos, recovery, tenancy, preempt, elastic, federation, streaming or perf")
	flag.IntVar(&o.tenancySeeds, "tenancy-seeds", 5, "arrival-stream seeds in the tenancy sweep")
	flag.IntVar(&o.tenancyApps, "tenancy-apps", 10, "application arrivals per tenancy stream")
	flag.IntVar(&o.elasticSeeds, "elastic-seeds", 0, "arrival-stream seeds per policy in the elastic sweep (0 = default)")
	flag.IntVar(&o.fedSeeds, "federation-seeds", 5, "fault-plan seeds in the federation soak")
	flag.IntVar(&o.streamingSeeds, "streaming-seeds", 0, "topology seeds per placer in the streaming sweep (0 = default)")
	flag.StringVar(&o.perfScale, "perf-scale", "standard", "perf battery sweep size: smoke|standard")
	flag.IntVar(&o.perfReps, "perf-reps", 3, "perf battery repetitions per case (fastest kept)")
	flag.BoolVar(&o.perfUnopt, "perf-compare-unopt", true, "pair every perf case with a run under the unoptimized reference kernels")
	flag.StringVar(&o.baselinePath, "baseline", "", "BENCH JSON to compare the perf battery against (regressions fail the run)")
	flag.Float64Var(&o.threshold, "threshold", 0.15, "events/sec regression tolerated against -baseline")
	flag.StringVar(&o.kernelBaseline, "kernel-baseline", "", "kernel-baseline JSON to embed in the perf battery's -json artifact")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	tracePath := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()

	switch {
	case !slices.Contains(names, *exp):
		return usageError("unknown experiment %q (have: %s)", *exp, strings.Join(names, ", "))
	case o.runs < 1:
		return usageError("-runs must be at least 1, got %d", o.runs)
	case o.perfScale != perf.ScaleSmoke && o.perfScale != perf.ScaleStandard:
		return usageError("-perf-scale must be %s or %s, got %q", perf.ScaleSmoke, perf.ScaleStandard, o.perfScale)
	case o.perfReps < 1:
		return usageError("-perf-reps must be at least 1, got %d", o.perfReps)
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile, *tracePath)
	if err != nil {
		return fail(err)
	}
	defer stopProfiles()

	for _, e := range experimentTable {
		if *exp != e.name && !(*exp == "all" && e.inAll) {
			continue
		}
		fmt.Fprintf(o.w, "==== %s ====\n", e.title)
		start := time.Now()
		if code := e.run(o); code != 0 {
			return code
		}
		fmt.Fprintf(o.w, "(generated in %.1fs wall time)\n\n", time.Since(start).Seconds())
	}
	return 0
}

// runPerf runs the perf battery, writes it to -json, and gates it against
// -baseline when set.
func runPerf(o *options) int {
	rep := perf.RunBattery(perf.Options{
		Scale:        o.perfScale,
		CompareUnopt: o.perfUnopt,
		Reps:         o.perfReps,
		Progress:     func(s string) { fmt.Fprintln(o.w, s) },
	})
	if o.kernelBaseline != "" {
		kb, err := perf.ReadKernelBaseline(o.kernelBaseline)
		if err != nil {
			return fail(err)
		}
		rep.BaselineKernel = kb
		fmt.Fprintf(o.w, "kernel baseline %s: %.0f events/s -> %.0f events/s (%.2fx)\n",
			kb.Commit, kb.Total.EventsPerSec, rep.Total.EventsPerSec,
			rep.Total.EventsPerSec/kb.Total.EventsPerSec)
	}
	if code := o.writeJSON(rep); code != 0 || o.baselinePath == "" {
		return code
	}
	base, err := perf.ReadReportFile(o.baselinePath)
	if err != nil {
		return fail(err)
	}
	violations := perf.Compare(base, rep, o.threshold)
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "rupam-bench: perf regression: %s\n", v)
	}
	if len(violations) > 0 {
		return 1
	}
	fmt.Fprintf(o.w, "no regression against %s (threshold %.0f%%)\n", o.baselinePath, o.threshold*100)
	return 0
}

// seedList returns n consecutive seeds from -seed, or exit code 2 when n,
// set by the named flag, is below 1.
func (o *options) seedList(flagName string, n int) ([]uint64, int) {
	if n < 1 {
		fmt.Fprintf(os.Stderr, "rupam-bench: -%s must be at least 1, got %d\n", flagName, n)
		return nil, 2
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = o.seed + uint64(i)
	}
	return seeds, 0
}

// sweepReport is what every sweep experiment's report offers.
type sweepReport interface {
	Print(io.Writer)
	WriteJSON(io.Writer) error
}

// publish prints a sweep's report, writes its CSV artifacts and its -json
// report, then returns its verdict.
func (o *options) publish(rep sweepReport, violations int, found string, csvs ...csvFile) int {
	rep.Print(o.w)
	if code := o.csv(csvs...); code != 0 {
		return code
	}
	if code := o.writeJSON(rep); code != 0 {
		return code
	}
	return verdict(violations, found)
}

// verdict returns exit code 1, reporting the count through the format
// found, when there are violations, and 0 otherwise.
func verdict(violations int, found string) int {
	if violations == 0 {
		return 0
	}
	fmt.Fprintf(os.Stderr, "rupam-bench: "+found+"\n", violations)
	return 1
}

// writeJSON writes rep to -json when that is set.
func (o *options) writeJSON(rep interface{ WriteJSON(io.Writer) error }) int {
	if o.jsonPath == "" {
		return 0
	}
	return writeFile(o.jsonPath, o.jsonPath, rep.WriteJSON)
}

// csvFile is one CSV artifact an experiment writes into -csv.
type csvFile struct {
	name  string
	write func(io.Writer) error
}

// csv writes the files into -csv when that is set.
func (o *options) csv(files ...csvFile) int {
	if o.csvDir == "" {
		return 0
	}
	for _, c := range files {
		if err := os.MkdirAll(o.csvDir, 0o755); err != nil {
			return fail(err)
		}
		if code := writeFile(filepath.Join(o.csvDir, c.name), c.name, c.write); code != 0 {
			return code
		}
	}
	return 0
}

// writeFile creates path and fills it with write, returning exit code 1
// on any failure; a failed write is reported under name.
func writeFile(path, name string, write func(io.Writer) error) int {
	f, err := os.Create(path)
	if err != nil {
		return fail(err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fail(fmt.Errorf("writing %s: %w", name, err))
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	return 0
}

// fail reports err and returns exit code 1.
func fail(err error) int {
	fmt.Fprintf(os.Stderr, "rupam-bench: %v\n", err)
	return 1
}

// usageError reports a bad flag with the usage text and returns exit
// code 2.
func usageError(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "rupam-bench: "+format+"\n", args...)
	flag.Usage()
	return 2
}

// startProfiles wires the standard pprof/trace outputs around the run
// and returns the (idempotent) stop function; if one cannot start, it
// stops those already started and returns the error. Profiling the perf
// battery is the intended use:
//
//	rupam-bench -experiment perf -cpuprofile cpu.out
func startProfiles(cpu, mem, tr string) (func(), error) {
	var stops []func()
	done := false
	stop := func() {
		if done {
			return
		}
		done = true
		for _, s := range stops {
			s()
		}
	}
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if tr != "" {
		f, err := os.Create(tr)
		if err != nil {
			stop()
			return nil, err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			stop()
			return nil, err
		}
		stops = append(stops, func() {
			trace.Stop()
			f.Close()
		})
	}
	if mem != "" {
		stops = append(stops, func() {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rupam-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "rupam-bench: writing %s: %v\n", mem, err)
			}
		})
	}
	return stop, nil
}
