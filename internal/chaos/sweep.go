package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"rupam/internal/cluster"
	"rupam/internal/simx"
)

// sweepRecord is the part of a soak family's run record the sweep owns:
// the fingerprint a re-run must reproduce, the violation list, and the
// abort reason a panic overwrites (nil for records without one).
type sweepRecord[R any] interface {
	*R
	verdict() (fingerprint string, violations *[]string, aborted *string)
}

// sweep is the skeleton every soak family runs: each (seed, variant)
// pair, seed-major then in variant order, through run, which fills in
// the zero record it is handed. A run that panics keeps whatever it
// filled in, gains one "run panicked" violation and is not re-run.
// Unless skipVerify, every other pair runs a second time and must
// reproduce its first fingerprint. It returns the records and their
// violation total. Runs are serial: run ordering sorts on the
// process-global executor run sequence.
func sweep[R any, P sweepRecord[R]](seeds []uint64, variants []string, skipVerify bool,
	run func(rec *R, seed uint64, variant string)) (runs []R, violations int) {
	for _, seed := range seeds {
		for _, variant := range variants {
			rec, panicked := attempt[R, P](run, seed, variant)
			fp, vs, _ := P(&rec).verdict()
			if !skipVerify && !panicked {
				again, _ := attempt[R, P](run, seed, variant)
				if fp2, _, _ := P(&again).verdict(); fp2 != fp {
					*vs = append(*vs, fmt.Sprintf(
						"non-deterministic: fingerprint %s on re-run, %s first", fp2, fp))
				}
			}
			violations += len(*vs)
			runs = append(runs, rec)
		}
	}
	return runs, violations
}

// attempt makes one run, recovering a panic as a violation on its record.
func attempt[R any, P sweepRecord[R]](run func(*R, uint64, string), seed uint64, variant string) (rec R, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			_, vs, aborted := P(&rec).verdict()
			if aborted != nil {
				*aborted = "panic"
			}
			*vs = append(*vs, fmt.Sprintf("run panicked: %v", r))
			panicked = true
		}
	}()
	run(&rec, seed, variant)
	return rec, false
}

// printRuns writes one table row per run, each followed by its
// violations.
func printRuns[R any, P sweepRecord[R]](w io.Writer, runs []R, row func(*R) string) {
	for i := range runs {
		io.WriteString(w, row(&runs[i]))
		_, vs, _ := P(&runs[i]).verdict()
		for _, v := range *vs {
			fmt.Fprintf(w, "    VIOLATION: %s\n", v)
		}
	}
}

// printVerdict writes a report's footer: its kind of violations counted
// across its runs, in capitals when there are any.
func printVerdict(w io.Writer, violations, runs int, kind, unit string) {
	if violations == 0 {
		fmt.Fprintf(w, "0 %s violations across %d %s\n", kind, runs, unit)
	} else {
		fmt.Fprintf(w, "%d %s VIOLATIONS across %d %s\n", violations, strings.ToUpper(kind), runs, unit)
	}
}

// writeJSON writes a report as a deterministic, indented JSON artifact.
func writeJSON(w io.Writer, report any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// hydra builds the reference cluster on a throwaway engine: fault plans
// are drawn over its node names before a run builds its own cluster.
func hydra() *cluster.Cluster {
	return cluster.NewHydra(cluster.New(simx.NewEngine()))
}
