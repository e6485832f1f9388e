package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestStreamingExperimentCLI drives the built binary end to end: the
// streaming experiment must validate its seed count, pass its placement
// gate on the default sweep, and emit the CSV and JSON artifacts CI
// uploads.
func TestStreamingExperimentCLI(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "rupam-bench")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	out, err := exec.Command(bin, "-experiment", "streaming", "-streaming-seeds", "-1").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("negative -streaming-seeds: want exit 2, got %v\n%s", err, out)
	}

	csvDir := filepath.Join(dir, "csv")
	jsonPath := filepath.Join(dir, "streaming.json")
	out, err = exec.Command(bin, "-experiment", "streaming",
		"-csv", csvDir, "-json", jsonPath).CombinedOutput()
	if err != nil {
		t.Fatalf("streaming experiment failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "placement gate holds") {
		t.Fatalf("gate verdict missing from output:\n%s", out)
	}

	csv, err := os.ReadFile(filepath.Join(csvDir, "streaming_throughput.csv"))
	if err != nil {
		t.Fatalf("CSV artifact not written: %v", err)
	}
	if !strings.HasPrefix(string(csv), "placer,seed,throughput_hz") {
		t.Fatalf("CSV header wrong:\n%s", csv[:120])
	}
	j, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("JSON artifact not written: %v", err)
	}
	// A clean report counts zero violations and omits gate_violations.
	if !strings.Contains(string(j), "\"violations\": 0") ||
		strings.Contains(string(j), "\"gate_violations\"") {
		t.Fatalf("JSON artifact not clean:\n%s", j)
	}
}

// TestCommittedCSVs regenerates the raw series behind Figures 2, 3 and 9
// with -csv and requires every file to match its committed copy in
// results_csv/ byte for byte: the committed series are the repository's
// claim about what the simulator produces.
func TestCommittedCSVs(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "rupam-bench")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	csvDir := filepath.Join(dir, "csv")
	for _, exp := range []string{"fig2", "fig3", "fig9"} {
		if out, err := exec.Command(bin, "-experiment", exp, "-csv", csvDir).CombinedOutput(); err != nil {
			t.Fatalf("%s: %v\n%s", exp, err, out)
		}
	}
	files, err := os.ReadDir(csvDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 4 {
		t.Fatalf("wrote %d CSV files, want 4 (fig2_trace, fig3_tasks, fig9_spark, fig9_rupam)", len(files))
	}
	for _, f := range files {
		got, err := os.ReadFile(filepath.Join(csvDir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "results_csv", f.Name()))
		if err != nil {
			t.Fatalf("%s has no committed copy: %v", f.Name(), err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from results_csv/%s; regenerate it with rupam-bench -experiment %s -csv results_csv",
				f.Name(), f.Name(), strings.SplitN(f.Name(), "_", 2)[0])
		}
	}
}
