package chaos

import "testing"

// TestFederationSoakSmoke sweeps a few seeds with crashes and message
// faults enabled; the full invariant battery must hold on every one.
func TestFederationSoakSmoke(t *testing.T) {
	rep := FederationSoak(FederationConfig{Seeds: []uint64{1, 2, 3}})
	if rep.Scenarios == 0 {
		t.Fatal("acceptance preamble did not run")
	}
	if got := len(rep.Runs); got != 3 {
		t.Fatalf("runs: got %d, want 3", got)
	}
	for _, rec := range rep.Runs {
		for _, v := range rec.Violations {
			t.Errorf("seed %d: %s", rec.Seed, v)
		}
		if rec.Completed+rec.Aborted == 0 {
			t.Errorf("seed %d: no applications resolved", rec.Seed)
		}
		if rec.Commits == 0 {
			t.Errorf("seed %d: no placements committed", rec.Seed)
		}
		if rec.AgentCrashes == 0 {
			t.Errorf("seed %d: no agent crash fired", rec.Seed)
		}
	}
	if rep.Violations != 0 {
		t.Fatalf("%d violations", rep.Violations)
	}
	checkDigests(t, rep,
		"3832de7961f865fe0c87d280b7845aad6aa358e790ee2477b2cb08e137e4dccd",
		"1fc0330f0ce5c651b40aeeb4ea9b8756c954ee2bf300c762f770dce40f0d07d0")
}

// TestFederationGenDrawsMessageFaults pins the sweep's generator mix to
// actually include the message-fault kinds the soak depends on.
func TestFederationGenDrawsMessageFaults(t *testing.T) {
	g := FederationGen()
	if g.MsgDrops == 0 || g.MsgDups == 0 || g.MsgDelays == 0 || g.MsgReorders == 0 {
		t.Fatalf("FederationGen missing message faults: %+v", g)
	}
	if g.DriverCrashes < 2 {
		t.Fatalf("FederationGen wants >=2 driver crashes, got %d", g.DriverCrashes)
	}
	if g.AgentCrashes < 1 {
		t.Fatalf("FederationGen wants >=1 agent crash, got %d", g.AgentCrashes)
	}
}
