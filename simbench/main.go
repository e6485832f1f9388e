package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"rupam/internal/simx"
)

// Set-up runs at least setupReps times and for at least setupMin;
// setup_s is the median. Short set-ups repeat more, so their median is
// as steady as that of long ones.
const (
	setupReps = 7
	setupMin  = time.Second
)

// profileDir holds the CPU profile of a traced run, relative to the
// directory the benchmark runs in; run.sh builds into the same place.
var profileDir = ".bench_build/simbench"

func main() {
	// One P makes each run a strictly sequential closed loop: garbage
	// collection is charged inline to the simulation that caused it, so
	// wall and CPU time agree. In a same-seed test on a 2-vCPU host, pass
	// CPU time repeated within 1% with one P and spread over 13% with
	// two, where the collector's workers race the simulation for the
	// second, often stolen, vCPU.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs one workload and prints its metrics, the
// last line being the JSON result. It returns 2 on bad flags, 1 if any
// simulation failed its checks, and 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 20, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from bare runs; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "simbench: need -workload (one of %s), -seconds > 0 and -trace 0 or 1\n",
			strings.Join(names, ", "))
		return 2
	}

	b := newBench(w, stderr)
	setup := b.setup(*seed)
	budget := time.Duration(*seconds * float64(time.Second))
	fmt.Fprintf(stdout, "workload %s seed %d gomaxprocs %d sims/pass %d\n",
		w.name, *seed, runtime.GOMAXPROCS(0), len(b.sims))

	// The first pass records every simulation's fingerprint and the
	// heap it ends with; it is not timed, and counts towards the budget.
	start := time.Now()
	heaps, digest := b.probePass()
	budget -= time.Since(start)
	heapP90 := quantile(heaps, 0.9)
	var ms map[string]metric
	if *trace == 0 {
		bare := b.passes(budget, 2, instr{})
		ms = endToEnd(bare, setup, heapP90)
		fmt.Fprintf(stdout, "passes %d, run_p50_ms over %d samples\n", len(bare), len(bare)*len(b.sims))
		fmt.Fprintf(stdout, "host cpu_s %g s wall_s %g s setup_s %g s\n",
			typical(bare, hostCPU), typical(bare, hostWall), setup.host)
		fmt.Fprintf(stdout, "heap_peak_mb %g MB (largest of %d simulations)\n", quantile(heaps, 1), len(heaps))
		fmt.Fprintf(stdout, "sim_digest %s\n", digest)
	} else {
		ms = b.traced(budget, setup, heapP90, digest, stdout)
	}
	if len(ms) == 0 {
		return 1
	}

	failedFrac := float64(b.failed) / float64(b.attempted)
	fmt.Fprintf(stdout, "failed_frac %g (%d of %d runs)\n", failedFrac, b.failed, b.attempted)
	printMetrics(stdout, "", ms)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, ms})
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if b.failed > 0 {
		return 1
	}
	return 0
}

// printMetrics prints one "name value unit" line per metric, sorted by
// name.
func printMetrics(w io.Writer, prefix string, ms map[string]metric) {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s%s %g %s\n", prefix, k, ms[k].Value, ms[k].Unit)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench runs one workload's simulations and keeps the failure count.
type bench struct {
	w    workload
	sims []sim
	log  io.Writer
	// firstPrint holds each simulation's first fingerprint; every later
	// run of the same simulation must reproduce it.
	firstPrint        map[int]string
	kernel            *refKernel
	attempted, failed int
}

func newBench(w workload, log io.Writer) *bench {
	return &bench{w: w, log: log, firstPrint: make(map[int]string), kernel: newRefKernel()}
}

// setupTime is the median time of one set-up, in host and in reference
// seconds.
type setupTime struct{ host, ref float64 }

// setup generates the workload's inputs and runs one warm-up simulation,
// repeatedly, with the reference kernel after each set-up.
func (b *bench) setup(seed uint64) setupTime {
	var times []float64
	var ref refTime
	begin := time.Now()
	for len(times) < setupReps || time.Since(begin) < setupMin {
		cpu0, start := cpuSeconds(), time.Now()
		b.sims = b.w.sims(seed)
		finish, err := runGuarded(b.sims[0], instr{})
		times = append(times, time.Since(start).Seconds())
		cpu := cpuSeconds() - cpu0
		harness(func() { ref.follow(b.kernel, cpu) })
		b.check(0, finish, err)
	}
	host := median(times)
	return setupTime{host: host, ref: host * ref.wallScale()}
}

// pass is one run over the workload's list of simulations. Only the
// simulations are timed and counted; the reference kernel and the checks
// run between them, outside the timed region.
type pass struct {
	wall, cpu      []float64 // host seconds, per simulation
	ref            refTime   // the kernel, run after each simulation
	events, allocs uint64
	digest         string
	counts         counts
}

// passes runs at least min passes, and more while another pass, taking
// as long as the last one, would still end within d.
func (b *bench) passes(d time.Duration, min int, in instr) []pass {
	var out []pass
	start := time.Now()
	for {
		passStart := time.Now()
		out = append(out, b.pass(in))
		if len(out) >= min && time.Since(start)+time.Since(passStart) > d {
			return out
		}
	}
}

// probePass runs the list once, untimed, forcing a collection after
// each simulation, and returns the heap each simulation holds when it
// ends (live MB, while the finished simulation's state is still
// reachable) and the pass's sim_digest. The timed passes force no
// collection.
func (b *bench) probePass() (heapsMB []float64, digest string) {
	h := fnv.New64a()
	for i, s := range b.sims {
		finish, err := runGuarded(s, instr{})
		heapsMB = append(heapsMB, float64(liveHeap())/1e6)
		fmt.Fprintf(h, "%s %s\n", s.label, b.check(i, finish, err).fingerprint)
	}
	return heapsMB, fmt.Sprintf("%016x", h.Sum64())
}

func (b *bench) pass(in instr) pass {
	var engines []*simx.Engine
	simx.SetEngineObserver(func(e *simx.Engine) { engines = append(engines, e) })
	defer simx.SetEngineObserver(nil)

	var p pass
	digest := fnv.New64a()
	var ms runtime.MemStats
	for i, s := range b.sims {
		engines = engines[:0]
		runtime.ReadMemStats(&ms)
		allocs0 := ms.Mallocs
		cpu0 := cpuSeconds()
		start := time.Now()

		finish, err := runGuarded(s, in)

		wall := time.Since(start).Seconds()
		cpu := cpuSeconds() - cpu0
		runtime.ReadMemStats(&ms)
		p.wall = append(p.wall, wall)
		p.cpu = append(p.cpu, cpu)
		p.allocs += ms.Mallocs - allocs0
		for _, e := range engines {
			p.events += e.Fired()
		}
		harness(func() { p.ref.follow(b.kernel, cpu) })
		out := b.check(i, finish, err)
		p.counts.add(out.counts)
		fmt.Fprintf(digest, "%s %s\n", s.label, out.fingerprint)
	}
	p.digest = fmt.Sprintf("%016x", digest.Sum64())
	return p
}

// harness runs fn under the pprof label simbench=harness, which marks
// the benchmark's own work between simulations (the reference kernel and
// the checks) so a CPU profile can leave it out.
func harness(fn func()) {
	pprof.Do(context.Background(), harnessLabel, func(context.Context) { fn() })
}

var harnessLabel = pprof.Labels("simbench", "harness")

// runGuarded runs one simulation, turning a panic into an error.
func runGuarded(s sim, in instr) (finish func() outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s panicked: %v", s.label, r)
		}
	}()
	return s.run(in), nil
}

// check runs a finished simulation's checks and counts the run as failed
// if it panicked, broke an invariant or did not reproduce the fingerprint
// of its first run.
func (b *bench) check(i int, finish func() outcome, runErr error) (out outcome) {
	b.attempted++
	var problems []string
	if runErr != nil {
		problems = append(problems, runErr.Error())
	} else {
		harness(func() {
			defer func() {
				if r := recover(); r != nil {
					problems = append(problems, fmt.Sprintf("%s: check panicked: %v", b.sims[i].label, r))
				}
			}()
			out = finish()
		})
		for _, v := range out.violations {
			problems = append(problems, b.sims[i].label+": "+v)
		}
		if ref, ok := b.firstPrint[i]; !ok {
			b.firstPrint[i] = out.fingerprint
		} else if ref != out.fingerprint {
			problems = append(problems, fmt.Sprintf("%s: fingerprint %s, first run gave %s",
				b.sims[i].label, out.fingerprint, ref))
		}
	}
	if len(problems) > 0 {
		b.failed++
		for j, p := range problems {
			if j == 5 {
				fmt.Fprintf(b.log, "FAIL ... %d more\n", len(problems)-j)
				break
			}
			fmt.Fprintf(b.log, "FAIL %s\n", p)
		}
	}
	return out
}

// traced measures the per-layer metrics: bare passes for the baseline,
// then passes with the scheduler decorator under a CPU profile, then
// passes with a tracing.Collector attached. Each phase gets a third of
// the budget and at least one pass.
func (b *bench) traced(budget time.Duration, setup setupTime, heapP90 float64, digest string, stdout io.Writer) map[string]metric {
	third := budget / 3
	bare := b.passes(third, 1, instr{})

	pr := &probe{}
	probed, shares, err := b.profiledPasses(third, instr{probe: pr})
	if err != nil {
		fmt.Fprintf(b.log, "simbench: %v\n", err)
		return nil
	}
	collected := b.passes(third, 1, instr{collector: true})

	fmt.Fprintf(stdout, "sim_digest %s bare %s decorated %s collector %s\n",
		digest, bare[0].digest, probed[0].digest, collected[0].digest)
	printMetrics(stdout, "untraced ", endToEnd(bare, setup, heapP90))

	bareCPU := typical(bare, refCPU)
	probedCPU := typical(probed, refCPU)
	collCPU := typical(collected, refCPU)
	n := float64(len(probed))
	st := pr.sched
	c := bare[0].counts
	events := float64(bare[0].events)

	ms := map[string]metric{
		"harness.trace_overhead": {div(probedCPU, bareCPU) - 1, "ratio"},
		"tracing.cpu_ratio":      {div(collCPU, bareCPU), "ratio"},

		"core.busy_s":        {st.coreBusy.Seconds() / n, "s"},
		"core.calls":         {float64(st.coreCalls) / n, "count"},
		"core.us_per_call":   {div(float64(st.coreBusy.Microseconds()), float64(st.coreCalls)), "us"},
		"spark.sched_busy_s": {st.sparkBusy.Seconds() / n, "s"},

		"simx.pending_mean":        {div(st.pending, float64(st.samples)), "count"},
		"netsim.active_flows_mean": {div(st.activeFl, float64(st.samples)), "count"},
		"workloads.build_ms":       {float64(pr.build.Microseconds()) / 1000 / n, "ms"},

		"simx.events":       {events, "count"},
		"simx.ns_per_event": {div(shares["simx"]*bareCPU*1e9, events), "ns"},
		"netsim.bytes":      {c.netBytes, "B"},

		"executor.attempts":    {float64(c.attempts), "count"},
		"executor.useful_frac": {div(float64(c.useful), float64(c.attempts)), "ratio"},

		"core.chardb_records": {float64(c.chardbRecords), "count"},
		"spark.heartbeats":    {float64(c.heartbeats), "count"},

		"wal.records": {float64(c.walRecords), "count"},
		"wal.bytes":   {float64(c.walBytes), "B"},

		"federation.msgs":            {float64(c.fedMsgs), "count"},
		"federation.commits_per_msg": {div(float64(c.fedCommits), float64(c.fedMsgs)), "ratio"},
		"federation.msg_fault_frac":  {div(float64(c.fedMsgFaults), float64(c.fedMsgs)), "ratio"},
		"federation.resyncs":         {float64(c.fedResyncs), "count"},
		"federation.sim_makespan_s":  {div(c.fedMakespan, float64(c.fedRuns)), "s"},

		"streaming.sim_throughput_hz": {div(c.strThroughput, float64(c.strRuns)), "1/s"},
		"streaming.sim_p99_ms":        {div(c.strP99, float64(c.strRuns)), "ms"},
		"streaming.slo_attain":        {div(c.strSLO, float64(c.strRuns)), "ratio"},
		"streaming.migrations":        {float64(c.strMigrations), "count"},
	}
	for _, name := range shareNames {
		ms[name+".cpu_share"] = metric{shares[name], "ratio"}
	}
	sp := speedups(c.batch)
	var sum float64
	for _, s := range sp {
		sum += s
	}
	ms["core.rupam_speedup"] = metric{div(sum, float64(len(sp))), "ratio"}
	pe, _ := paperErr(sp)
	ms["paper_err"] = metric{pe, "ratio"}
	return ms
}

// profiledPasses runs passes under a CPU profile, written to the build
// directory, and returns them with each module's share of the CPU time.
func (b *bench) profiledPasses(d time.Duration, in instr) ([]pass, map[string]float64, error) {
	if err := os.MkdirAll(profileDir, 0o755); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(profileDir, "cpu-"+b.w.name+".pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, nil, err
	}
	ps := b.passes(d, 1, in)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, nil, err
	}
	shares, err := cpuShares(path)
	return ps, shares, err
}

// endToEnd summarises bare passes. Times are typical, in reference
// seconds; counts per pass are medians.
func endToEnd(ps []pass, setup setupTime, heapP90 float64) map[string]metric {
	cpu := typical(ps, refCPU)
	return map[string]metric{
		"wall_s":           {typical(ps, refWall), "s"},
		"cpu_s":            {cpu, "s"},
		"events_per_cpu_s": {div(float64(ps[0].events), cpu), "1/s"},
		"allocs_per_event": {median(field(ps, func(p pass) float64 {
			return div(float64(p.allocs), float64(p.events))
		})), "count"},
		"heap_p90_mb": {heapP90, "MB"},
		"setup_s":     {setup.ref, "s"},
		"run_p50_ms":  {runP50(ps), "ms"},
	}
}

func hostWall(p pass) []float64 { return p.wall }
func hostCPU(p pass) []float64  { return p.cpu }
func refWall(p pass) []float64  { return scaled(p.wall, p.ref.wallScale()) }
func refCPU(p pass) []float64   { return scaled(p.cpu, p.ref.cpuScale()) }

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// typical is the time of one pass built from each simulation's median
// over the passes, so a burst of host noise during one pass moves at
// most one sample of each simulation.
func typical(ps []pass, times func(pass) []float64) float64 {
	var sum float64
	xs := make([]float64, len(ps))
	for i := range times(ps[0]) {
		for j, p := range ps {
			xs[j] = times(p)[i]
		}
		sum += median(xs)
	}
	return sum
}

// runP50 is the median wall time of one simulation, in reference
// milliseconds, over every run of every timed pass.
func runP50(ps []pass) float64 {
	var runs []float64
	for _, p := range ps {
		runs = append(runs, refWall(p)...)
	}
	return median(runs) * 1000
}

// liveHeap forces a garbage collection and returns the bytes it found
// reachable.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("simbench: getrusage: %v", err))
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func field(ps []pass, f func(pass) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

// quantile is the q-quantile of xs by nearest rank: the smallest x with
// at least a share q of xs at or below it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// div is a/b, or 0 when b is 0 (a layer the workload does not use).
func div(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}
