package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// cpuModules are the layers a CPU sample can be charged to, besides
// "runtime" (no rupam/internal frame on the stack) and "other" (only
// frames of packages outside this list).
var cpuModules = []string{
	"simx", "netsim", "executor", "core", "spark",
	"monitor", "wal", "federation", "streaming",
}

// shareNames lists every bucket of cpuShares, in report order.
var shareNames = append(append([]string(nil), cpuModules...), "runtime", "other")

// cpuShares reads the CPU profile at path with `go tool pprof -traces`
// and returns each bucket's share of the sampled CPU time. Samples
// labelled simbench=harness were taken in the benchmark's own work between
// simulations and are left out. The shares sum to 1 unless no sample is left.
func cpuShares(path string) (map[string]float64, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns", "-tagignore=simbench=harness", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	weights, err := chargeTraces(out)
	if err != nil {
		return nil, err
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	shares := make(map[string]float64, len(shareNames))
	for _, name := range shareNames {
		shares[name] = div(weights[name], total)
	}
	return shares, nil
}

// chargeTraces sums the CPU nanoseconds of the samples that
// `go tool pprof -traces -unit=ns` prints by bucket. Each sample is a
// block after a line of dashes: label lines ("key:  value"), then the
// leaf frame after the sample's value, then one caller frame a line. A
// sample is charged to its innermost frame of a package
// rupam/internal/<m> with m in cpuModules; a stack with rupam/internal
// frames of other packages only goes to "other", one with no
// rupam/internal frame to "runtime".
func chargeTraces(out []byte) (map[string]float64, error) {
	listed := make(map[string]bool, len(cpuModules))
	for _, m := range cpuModules {
		listed[m] = true
	}
	weights := make(map[string]float64)
	var (
		inSample bool    // past the first separator
		leaf     bool    // the current sample's value and leaf are read
		value    float64 // the current sample's nanoseconds
		bucket   string  // the current sample's bucket so far
	)
	flush := func() {
		if leaf {
			weights[bucket] += value
		}
		leaf, value, bucket = false, 0, "runtime"
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSample = true
			continue
		}
		fields := strings.Fields(line)
		if !inSample || len(fields) == 0 || strings.HasSuffix(fields[0], ":") {
			continue
		}
		frame := fields[0]
		if !leaf {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("go tool pprof -traces: unexpected line %q", line)
			}
			leaf, value, frame = true, float64(d), fields[1]
		}
		if bucket != "runtime" && bucket != "other" {
			continue // already charged to an inner listed module
		}
		rest, ok := strings.CutPrefix(frame, "rupam/internal/")
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		if listed[rest] {
			bucket = rest
		} else {
			bucket = "other"
		}
	}
	flush()
	return weights, sc.Err()
}
