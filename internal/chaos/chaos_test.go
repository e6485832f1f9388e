package chaos

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"testing"
)

// report is what every soak family's report offers.
type report interface {
	WriteJSON(io.Writer) error
	Print(io.Writer)
}

// checkDigests pins a report's WriteJSON and Print bytes to SHA-256
// digests recorded from a known-good build, so a change to the sweep
// plumbing cannot silently change an artifact.
func checkDigests(t *testing.T, rep report, wantJSON, wantPrint string) {
	t.Helper()
	var j, p bytes.Buffer
	if err := rep.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	rep.Print(&p)
	if got := fmt.Sprintf("%x", sha256.Sum256(j.Bytes())); got != wantJSON {
		t.Errorf("WriteJSON digest %s, want %s:\n%s", got, wantJSON, j.String())
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(p.Bytes())); got != wantPrint {
		t.Errorf("Print digest %s, want %s:\n%s", got, wantPrint, p.String())
	}
}

// soakSeeds returns the test's seed budget: a handful under -short, a
// larger fixed sweep otherwise. Fixed (not time-derived) so CI failures
// reproduce with `go test -run TestChaosSoak`.
func soakSeeds(short bool) []uint64 {
	n := 12
	if short {
		n = 4
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return seeds
}

// TestChaosSoak is the soak invariant battery: random fault plans against
// both schedulers, every invariant checked after every run, every seed
// run twice for bit-identity.
func TestChaosSoak(t *testing.T) {
	rep := Soak(Config{Seeds: soakSeeds(testing.Short())})
	for _, rec := range rep.Runs {
		for _, v := range rec.Violations {
			t.Errorf("scheduler=%s seed=%d: %s", rec.Scheduler, rec.Seed, v)
		}
	}
	if t.Failed() {
		var buf bytes.Buffer
		rep.Print(&buf)
		t.Logf("full report:\n%s", buf.String())
	}
}

// TestSoakDeterministicReport re-runs a tiny sweep and requires the whole
// JSON artifact — not just per-run fingerprints — to be byte-identical.
func TestSoakDeterministicReport(t *testing.T) {
	cfg := Config{Seeds: []uint64{3, 7}}
	var a, b bytes.Buffer
	rep := Soak(cfg)
	checkDigests(t, rep,
		"1ea47b8e30e84870a4af2c8d048f37f122d5a9a6f07d322b3fcfd428b30bf5d6",
		"55c5901c1032cc011e5ccb3930d8ef270732be80acc5b10cfc25cd6b881b19d4")
	if err := rep.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := Soak(cfg).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("sweep artifact differs between identical invocations:\n%s\n---\n%s",
			a.String(), b.String())
	}
}

// TestSoakExercisesFaults guards against the harness silently generating
// schedules that never touch the run: across the sweep, at least some
// runs must observe gray failures (flakes) and fault-tolerance activity.
func TestSoakExercisesFaults(t *testing.T) {
	rep := Soak(Config{Seeds: soakSeeds(testing.Short()), SkipVerify: true})
	flakes, lost, events := 0, 0, 0
	for _, rec := range rep.Runs {
		flakes += rec.TaskFlakes
		lost += rec.ExecutorsLost
		events += rec.Events
	}
	if events == 0 {
		t.Fatal("sweep generated zero fault events")
	}
	if flakes == 0 {
		t.Error("no run observed a task flake; gray-failure path not exercised")
	}
	if lost == 0 {
		t.Error("no run lost an executor; crash/heartbeat path not exercised")
	}
}

// TestSoakUnknownScheduler: a bad scheduler name must surface as a
// recorded panic violation, not crash the sweep.
func TestSoakUnknownScheduler(t *testing.T) {
	rep := Soak(Config{Seeds: []uint64{1}, Schedulers: []string{"nope"}})
	if rep.Violations == 0 {
		t.Fatal("expected a violation for unknown scheduler")
	}
	if !strings.Contains(rep.Runs[0].Violations[0], "unknown scheduler") {
		t.Fatalf("unexpected violation: %v", rep.Runs[0].Violations)
	}
}
