package chaos

import (
	"bytes"
	"strings"
	"testing"
)

// TestStreamingSoakClean sweeps a few seeds across every placer with the
// full fault mix and expects zero violations: exactly-once across forced
// and fault-driven migrations, bounded backlog, flow conservation, clean
// drains, substrate conservation, and bit-identical re-runs.
func TestStreamingSoakClean(t *testing.T) {
	rep := StreamingSoak(StreamingConfig{Seeds: []uint64{1, 2, 3}})
	if rep.Violations != 0 {
		var b bytes.Buffer
		rep.Print(&b)
		t.Fatalf("streaming soak violations:\n%s", b.String())
	}
	if len(rep.Runs) != 9 {
		t.Fatalf("expected 3 seeds × 3 placers = 9 runs, got %d", len(rep.Runs))
	}
	for _, rec := range rep.Runs {
		if rec.Migrations == 0 {
			t.Errorf("%s/%d: no migration despite the forced trigger", rec.Placer, rec.Seed)
		}
		if rec.Fingerprint == "" || rec.Fingerprint == "0000000000000000" {
			t.Errorf("%s/%d: empty fingerprint", rec.Placer, rec.Seed)
		}
	}
}

// TestStreamingSoakArtifacts is a meta-test of the harness plumbing: the
// JSON artifact round-trips, the printout carries the verdict line, and
// both match their pinned digests.
func TestStreamingSoakArtifacts(t *testing.T) {
	rep := StreamingSoak(StreamingConfig{
		Seeds:   []uint64{4},
		Placers: []string{"rupam"},
	})
	var j bytes.Buffer
	if err := rep.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(j.String(), "\"placer\": \"rupam\"") {
		t.Fatalf("JSON artifact missing fields: %s", j.String())
	}
	var p bytes.Buffer
	rep.Print(&p)
	if !strings.Contains(p.String(), "invariant violations") &&
		!strings.Contains(p.String(), "INVARIANT VIOLATIONS") {
		t.Fatalf("printout missing verdict: %s", p.String())
	}
	checkDigests(t, rep,
		"1b71b7f6eaed97cbe4b6d5fd2e627ba6887934ed186d43061ecfc1a0eb25e401",
		"0598e415927dde5354ac670d45fa2ef26afd10f41a27916462f4efdb29f0b1cc")
}
