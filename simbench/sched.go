package main

import (
	"time"

	"rupam/internal/cluster"
	"rupam/internal/core"
	"rupam/internal/executor"
	"rupam/internal/monitor"
	"rupam/internal/netsim"
	"rupam/internal/simx"
	"rupam/internal/spark"
	"rupam/internal/task"
	"rupam/internal/wal"
)

// schedStats accumulates what timedScheduler observes over many runs.
type schedStats struct {
	// busy and calls are split by the wrapped scheduler: RUPAM (package
	// core) or Spark's default scheduler (package spark).
	coreBusy, sparkBusy   time.Duration
	coreCalls, sparkCalls int

	// Queue depths sampled on every heartbeat.
	samples  int
	pending  float64 // sum of engine pending events
	activeFl float64 // sum of active network flows
}

// timedScheduler decorates a spark.Scheduler: it times every call into
// the wrapped scheduler (inclusive of the launches the call triggers) and
// samples the engine's and the network's queue depths on each heartbeat.
//
// The runtime discovers optional capabilities by type assertion, so the
// decorator implements every one of them and forwards to the wrapped
// scheduler when it has the capability. A wrapper that hid them would
// change behaviour: hiding RUPAM's RelocatesCache moves LR's simulated
// makespan at seed 1 from 300.2 s to 328.6 s.
type timedScheduler struct {
	inner  spark.Scheduler
	eng    *simx.Engine
	net    *netsim.Network
	st     *schedStats
	isCore bool
	depth  int // nesting of timed calls; only the outermost is timed
}

var (
	_ spark.CacheRelocator    = (*timedScheduler)(nil)
	_ spark.ExecutorLossAware = (*timedScheduler)(nil)
	_ spark.ExecutorSetAware  = (*timedScheduler)(nil)
	_ spark.RecoveryAware     = (*timedScheduler)(nil)
)

func newTimedScheduler(inner spark.Scheduler, eng *simx.Engine, net *netsim.Network, st *schedStats) *timedScheduler {
	_, isCore := inner.(*core.RUPAM)
	return &timedScheduler{inner: inner, eng: eng, net: net, st: st, isCore: isCore}
}

// timed runs fn and charges its wall time to the wrapped scheduler.
func (s *timedScheduler) timed(fn func()) {
	if s.depth > 0 {
		fn()
		return
	}
	s.depth++
	start := time.Now()
	fn()
	d := time.Since(start)
	s.depth--
	if s.isCore {
		s.st.coreBusy += d
		s.st.coreCalls++
	} else {
		s.st.sparkBusy += d
		s.st.sparkCalls++
	}
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) Bind(rt *spark.Runtime) { s.inner.Bind(rt) }

func (s *timedScheduler) HeapFor(node *cluster.Node) (h int64) {
	s.timed(func() { h = s.inner.HeapFor(node) })
	return h
}

func (s *timedScheduler) StageSubmitted(st *task.Stage) {
	s.timed(func() { s.inner.StageSubmitted(st) })
}

func (s *timedScheduler) Resubmit(t *task.Task, st *task.Stage) {
	s.timed(func() { s.inner.Resubmit(t, st) })
}

func (s *timedScheduler) TaskEnded(t *task.Task, r *executor.Run, out executor.Outcome) {
	s.timed(func() { s.inner.TaskEnded(t, r, out) })
}

func (s *timedScheduler) Heartbeat(node string, nm *monitor.NodeMetrics) {
	s.st.samples++
	s.st.pending += float64(s.eng.Pending())
	s.st.activeFl += float64(s.net.ActiveFlows())
	s.timed(func() { s.inner.Heartbeat(node, nm) })
}

func (s *timedScheduler) Schedule() { s.timed(s.inner.Schedule) }

// RelocatesCache forwards spark.CacheRelocator.
func (s *timedScheduler) RelocatesCache() bool {
	cr, ok := s.inner.(spark.CacheRelocator)
	return ok && cr.RelocatesCache()
}

// ExecutorLost forwards spark.ExecutorLossAware.
func (s *timedScheduler) ExecutorLost(node string) {
	if ela, ok := s.inner.(spark.ExecutorLossAware); ok {
		s.timed(func() { ela.ExecutorLost(node) })
	}
}

// ExecutorSetChanged forwards spark.ExecutorSetAware.
func (s *timedScheduler) ExecutorSetChanged() {
	if esa, ok := s.inner.(spark.ExecutorSetAware); ok {
		s.timed(esa.ExecutorSetChanged)
	}
}

// DriverRecovery forwards spark.RecoveryAware.
func (s *timedScheduler) DriverRecovery(ws *wal.State) {
	if ra, ok := s.inner.(spark.RecoveryAware); ok {
		s.timed(func() { ra.DriverRecovery(ws) })
	}
}

// PendingTasks forwards the queue-drain capability the invariant battery
// checks, so a wrapped run is checked exactly like a bare one.
func (s *timedScheduler) PendingTasks() int {
	pc, ok := s.inner.(interface{ PendingTasks() int })
	if !ok {
		return 0
	}
	return pc.PendingTasks()
}
