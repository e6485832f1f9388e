package chaos

import (
	"bytes"
	"testing"

	"rupam/internal/faults"
)

// tenancySeeds mirrors soakSeeds: small under -short, wider otherwise.
func tenancySeeds(short bool) []uint64 {
	n := 6
	if short {
		n = 2
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return seeds
}

// TestTenancySoak is the cross-application isolation battery: random
// fault plans (including a routed driver crash) against whole arrival
// streams under both schedulers; the tenant manager's invariants and each
// application's own accounting must hold, and every seed must reproduce
// bit-identically.
func TestTenancySoak(t *testing.T) {
	rep := TenancySoak(TenancyConfig{Seeds: tenancySeeds(testing.Short())})
	for _, rec := range rep.Runs {
		for _, v := range rec.Violations {
			t.Errorf("scheduler=%s seed=%d: %s", rec.Scheduler, rec.Seed, v)
		}
		if rec.Arrived != rec.Admitted+rec.Rejected {
			t.Errorf("scheduler=%s seed=%d: admission accounting %d != %d + %d",
				rec.Scheduler, rec.Seed, rec.Arrived, rec.Admitted, rec.Rejected)
		}
	}
	if t.Failed() {
		var buf bytes.Buffer
		rep.Print(&buf)
		t.Logf("full report:\n%s", buf.String())
	}
}

// TestTenancySoakRoutesDriverCrash guards the crash-routing path: with a
// plan that certainly contains driver crashes, some run in the sweep must
// actually crash and recover a tenant driver (visible as a completed run —
// recovery worked — under a plan whose events include DriverCrash).
func TestTenancySoakRoutesDriverCrash(t *testing.T) {
	gen := TenancyGen()
	gen.DriverCrashes = 2
	rep := TenancySoak(TenancyConfig{
		Seeds:      []uint64{2},
		Schedulers: []string{"spark"},
		Gen:        gen,
		SkipVerify: true,
	})
	if rep.Violations != 0 {
		for _, rec := range rep.Runs {
			for _, v := range rec.Violations {
				t.Errorf("%s", v)
			}
		}
	}
	plan := faults.RandomSchedule(2, hydra().NodeNames(), gen)
	if !plan.HasKind(faults.DriverCrash) {
		t.Fatal("generator produced no driver crash despite DriverCrashes=2")
	}
	if rep.Runs[0].Completed == 0 {
		t.Fatal("no application survived the driver-crash plan")
	}
}

// TestTenancyReportDeterministic requires the whole JSON artifact to be
// byte-identical across invocations.
func TestTenancyReportDeterministic(t *testing.T) {
	cfg := TenancyConfig{Seeds: []uint64{4}, Schedulers: []string{"rupam"}, SkipVerify: true}
	var a, b bytes.Buffer
	rep := TenancySoak(cfg)
	checkDigests(t, rep,
		"82b068e397b7dec6bcefa6b9fc67f1d21f7c960d8a747359fd244e622624f1bf",
		"6d6c1246b9e5520b736706c01cab37d2ae0b2bc32425616b9b4d5c984afc72c2")
	if err := rep.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := TenancySoak(cfg).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("tenancy artifact differs between identical invocations:\n%s\n---\n%s",
			a.String(), b.String())
	}
}
