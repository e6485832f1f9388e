package experiments

import (
	"testing"

	"rupam/internal/spark"
)

// runWithRuntime mirrors Run but hands the runtime back for white-box
// inspection.
func runWithRuntime(t *testing.T, spec RunSpec) (*spark.Result, *spark.Runtime) {
	t.Helper()
	rt, app := newRun(spec, nil)
	return rt.Run(app), rt
}
