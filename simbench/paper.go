package main

import (
	"math"
	"sort"
)

// figure5 holds the RUPAM-over-Spark speedups the source paper reports
// in Figure 5 ("A Heterogeneity-Aware Task Scheduler for Spark", §IV-B),
// as transcribed in the "Figure 5 — overall performance" table of
// EXPERIMENTS.md. LR's value is read off Figure 6 at 8 iterations, the
// default LR run. TriangleCount is absent: the paper gives no figure for
// it.
var figure5 = map[string]float64{
	"LR":       2.1,
	"TeraSort": 1.32,
	"SQL":      1.19,
	"PR":       2.5,
	"GM":       1.014,
	"KMeans":   2.49,
}

// speedups returns, per app, the mean simulated Spark duration over the
// mean RUPAM duration. Apps missing either scheduler are left out.
func speedups(runs []batchRun) map[string]float64 {
	type sums struct{ spark, rupam []float64 }
	by := make(map[string]*sums)
	for _, r := range runs {
		s := by[r.app]
		if s == nil {
			s = &sums{}
			by[r.app] = s
		}
		if r.sched == "rupam" {
			s.rupam = append(s.rupam, r.duration)
		} else {
			s.spark = append(s.spark, r.duration)
		}
	}
	out := make(map[string]float64)
	for app, s := range by {
		if len(s.spark) > 0 && len(s.rupam) > 0 {
			out[app] = mean(s.spark) / mean(s.rupam)
		}
	}
	return out
}

// paperErr is the mean over apps with a Figure 5 reference of
// |simulated speedup - paper speedup| / paper speedup. ok is false when no
// app has a reference.
func paperErr(sim map[string]float64) (err float64, ok bool) {
	apps := make([]string, 0, len(sim))
	for app := range sim {
		if _, ok := figure5[app]; ok {
			apps = append(apps, app)
		}
	}
	if len(apps) == 0 {
		return 0, false
	}
	sort.Strings(apps) // fixed summation order
	for _, app := range apps {
		ref := figure5[app]
		err += math.Abs(sim[app]-ref) / ref
	}
	return err / float64(len(apps)), true
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
