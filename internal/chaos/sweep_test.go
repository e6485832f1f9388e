package chaos

import (
	"fmt"
	"reflect"
	"testing"
)

// fakeRec is a minimal soak record for driving sweep with scripted runs.
type fakeRec struct {
	Seed        uint64
	Variant     string
	Fingerprint string
	Aborted     string
	Violations  []string
}

func (r *fakeRec) verdict() (string, *[]string, *string) {
	return r.Fingerprint, &r.Violations, &r.Aborted
}

// fakeRun returns a run function that fills in seed, variant and a
// fingerprint, counts its calls per pair in calls, and defers to hook
// (given the pair's call number, from 1) for scripted misbehaviour.
func fakeRun(calls map[string]int, hook func(rec *fakeRec, call int)) func(*fakeRec, uint64, string) {
	return func(rec *fakeRec, seed uint64, variant string) {
		key := fmt.Sprintf("%d/%s", seed, variant)
		calls[key]++
		rec.Seed, rec.Variant = seed, variant
		rec.Fingerprint = key
		if hook != nil {
			hook(rec, calls[key])
		}
	}
}

func TestSweepPanicIsOneViolationNotRerun(t *testing.T) {
	calls := map[string]int{}
	runs, violations := sweep([]uint64{1, 2}, []string{"a", "b"}, false,
		fakeRun(calls, func(rec *fakeRec, call int) {
			if rec.Seed == 2 && rec.Variant == "a" {
				panic("boom")
			}
		}))
	if violations != 1 {
		t.Fatalf("violations = %d, want 1: %+v", violations, runs)
	}
	got := runs[2]
	if want := []string{"run panicked: boom"}; !reflect.DeepEqual(got.Violations, want) {
		t.Errorf("panicked record violations = %q, want %q", got.Violations, want)
	}
	if got.Aborted != "panic" || got.Seed != 2 || got.Fingerprint != "2/a" {
		t.Errorf("panicked record lost what the run filled in or its abort reason: %+v", got)
	}
	want := map[string]int{"1/a": 2, "1/b": 2, "2/a": 1, "2/b": 2}
	if !reflect.DeepEqual(calls, want) {
		t.Errorf("calls per pair = %v, want %v (a panicked pair is not re-run)", calls, want)
	}
}

func TestSweepDetectsNonDeterminism(t *testing.T) {
	calls := map[string]int{}
	runs, violations := sweep([]uint64{5}, []string{"a", "b"}, false,
		fakeRun(calls, func(rec *fakeRec, call int) {
			if rec.Variant == "b" && call == 2 {
				rec.Fingerprint = "drifted"
			}
		}))
	if violations != 1 || len(runs[0].Violations) != 0 {
		t.Fatalf("want one violation, on the second pair only: %+v", runs)
	}
	want := []string{"non-deterministic: fingerprint drifted on re-run, 5/b first"}
	if !reflect.DeepEqual(runs[1].Violations, want) {
		t.Errorf("violations = %q, want %q", runs[1].Violations, want)
	}
	if runs[1].Fingerprint != "5/b" {
		t.Errorf("record keeps the re-run's fingerprint %q, want the first run's", runs[1].Fingerprint)
	}
}

func TestSweepOrderIsSeedMajor(t *testing.T) {
	runs, _ := sweep([]uint64{3, 1}, []string{"y", "x"}, false, fakeRun(map[string]int{}, nil))
	var order []string
	for _, rec := range runs {
		order = append(order, rec.Fingerprint)
	}
	if want := []string{"3/y", "3/x", "1/y", "1/x"}; !reflect.DeepEqual(order, want) {
		t.Errorf("record order = %v, want %v", order, want)
	}
}

func TestSweepSkipVerifyRunsEachPairOnce(t *testing.T) {
	calls := map[string]int{}
	runs, violations := sweep([]uint64{1, 2}, []string{"a", "b"}, true,
		fakeRun(calls, func(rec *fakeRec, call int) {
			if call == 2 {
				rec.Fingerprint = "drifted"
			}
		}))
	if len(runs) != 4 || violations != 0 {
		t.Fatalf("runs = %d, violations = %d; want 4 clean runs", len(runs), violations)
	}
	for pair, n := range calls {
		if n != 1 {
			t.Errorf("pair %s ran %d times under SkipVerify, want 1", pair, n)
		}
	}
}
