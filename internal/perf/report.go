package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// SchemaV1 identifies the BENCH_<n>.json format this package emits.
const SchemaV1 = "rupam-bench/perf-v1"

// CaseResult is one battery case's counters in the BENCH artifact.
// Events and tasks are deterministic; wall time (and hence the /sec
// rates) is the only machine-dependent field.
type CaseResult struct {
	Name           string  `json:"name"`
	WallSec        float64 `json:"wall_sec"`
	Events         uint64  `json:"events"`
	EventsPerSec   float64 `json:"events_per_sec"`
	Tasks          int64   `json:"tasks"`
	TasksPerSec    float64 `json:"tasks_per_sec"`
	Allocs         uint64  `json:"allocs"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
}

// Report is the BENCH_<n>.json artifact: the per-case counters plus a
// whole-sweep aggregate.
type Report struct {
	Schema string       `json:"schema"`
	Scale  string       `json:"scale"`
	Reps   int          `json:"reps,omitempty"`
	Cases  []CaseResult `json:"cases"`
	Total  CaseResult   `json:"total"`
}

func rate(n, wall float64) float64 {
	if wall <= 0 {
		return 0
	}
	return n / wall
}

func perEvent(allocs, events uint64) float64 {
	if events == 0 {
		return 0
	}
	return float64(allocs) / float64(events)
}

func newCaseResult(name string, m Measurement) CaseResult {
	return CaseResult{
		Name:           name,
		WallSec:        m.Wall,
		Events:         m.Events,
		EventsPerSec:   rate(float64(m.Events), m.Wall),
		Tasks:          m.Tasks,
		TasksPerSec:    rate(float64(m.Tasks), m.Wall),
		Allocs:         m.Allocs,
		AllocsPerEvent: perEvent(m.Allocs, m.Events),
	}
}

// aggregate folds every case into the sweep total. Rates are computed
// over summed numerators and denominators (not averaged per case), so
// long cases weigh what they cost.
func (r *Report) aggregate() CaseResult {
	var wall float64
	var events, allocs uint64
	var tasks int64
	for _, c := range r.Cases {
		wall += c.WallSec
		events += c.Events
		tasks += c.Tasks
		allocs += c.Allocs
	}
	return newCaseResult("total", Measurement{Wall: wall, Events: events, Tasks: tasks, Allocs: allocs})
}

// line formats a case for progress output.
func (c CaseResult) line() string {
	s := fmt.Sprintf("%-24s %8.2fs wall  %12.0f events/s  %7.2f allocs/event",
		c.Name, c.WallSec, c.EventsPerSec, c.AllocsPerEvent)
	if c.TasksPerSec > 0 {
		s += fmt.Sprintf("  %8.1f tasks/s", c.TasksPerSec)
	}
	return s
}

// Print writes the human-readable report.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "perf battery (%s scale, schema %s)\n", r.Scale, r.Schema)
	for _, c := range r.Cases {
		fmt.Fprintln(w, "  "+c.line())
	}
	fmt.Fprintln(w, "  "+r.Total.line())
}

// WriteJSON emits the BENCH artifact.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport loads a BENCH artifact and validates its schema tag.
func ReadReport(rd io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(rd).Decode(&rep); err != nil {
		return nil, fmt.Errorf("perf: decoding report: %w", err)
	}
	if rep.Schema != SchemaV1 {
		return nil, fmt.Errorf("perf: unsupported schema %q (want %q)", rep.Schema, SchemaV1)
	}
	return &rep, nil
}

// ReadReportFile loads a BENCH artifact from disk.
func ReadReportFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadReport(f)
}

// Compare gates a new report against a baseline. Every baseline case
// must still exist, be at the same scale, and pass three gates:
//
//   - event count: exactly equal — the battery is deterministic, so
//     any drift is a behavior change, not noise;
//   - events/sec: at least (1-threshold) of the baseline's. This is
//     the catch-all, but it is machine-relative — it only means
//     something when baseline and current ran on comparable hardware;
//   - allocs/event: at most (1+threshold) of the baseline's plus 0.1.
//     Allocation counts are near-deterministic, so this gate holds
//     across machines where the raw rate gate cannot.
//
// It returns one violation string per failure; an empty slice means no
// regression. threshold absorbs noise (the CI gate uses 0.15).
func Compare(baseline, current *Report, threshold float64) []string {
	var violations []string
	if baseline.Scale != current.Scale {
		violations = append(violations,
			fmt.Sprintf("scale changed: baseline %q, current %q — not comparable", baseline.Scale, current.Scale))
		return violations
	}
	byName := make(map[string]CaseResult, len(current.Cases))
	for _, c := range current.Cases {
		byName[c.Name] = c
	}
	check := func(old, now CaseResult) {
		if old.Events != now.Events {
			violations = append(violations,
				fmt.Sprintf("%s: event count changed %d -> %d (battery is deterministic; regenerate the baseline deliberately)",
					old.Name, old.Events, now.Events))
		}
		if floor := old.EventsPerSec * (1 - threshold); now.EventsPerSec < floor {
			violations = append(violations,
				fmt.Sprintf("%s: events/sec regressed %.0f -> %.0f (floor %.0f at %.0f%% threshold)",
					old.Name, old.EventsPerSec, now.EventsPerSec, floor, threshold*100))
		}
		// Absolute slack of 0.1 allocs/event keeps the relative gate
		// from tripping on GC-internal jitter in near-zero-alloc cases.
		if ceil := old.AllocsPerEvent*(1+threshold) + 0.1; now.AllocsPerEvent > ceil {
			violations = append(violations,
				fmt.Sprintf("%s: allocs/event regressed %.2f -> %.2f (ceiling %.2f at %.0f%% threshold)",
					old.Name, old.AllocsPerEvent, now.AllocsPerEvent, ceil, threshold*100))
		}
	}
	for _, old := range baseline.Cases {
		now, ok := byName[old.Name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: case missing from current report", old.Name))
			continue
		}
		check(old, now)
	}
	check(baseline.Total, current.Total)
	return violations
}
