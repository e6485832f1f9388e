package tracing

import "fmt"

// This file is the elastic-substrate track: spot-preemption lifecycle
// instants (notice → drain moves → kill) recorded by the driver. All
// methods are nil-receiver safe.

// elasticInstant files one point event under the "elastic" category,
// optionally scoped to an application and pinned to a node's track.
func (c *Collector) elasticInstant(name, app, node string, args map[string]interface{}) {
	if c == nil {
		return
	}
	if args == nil {
		args = map[string]interface{}{}
	}
	if app != "" {
		args["app"] = app
	}
	c.instants = append(c.instants, instant{
		seq: c.nextSeq(), time: c.now(),
		name: name, cat: "elastic", node: node,
		args: args,
	})
}

// PreemptNotice records the driver hearing a spot-reclamation warning for
// a node (the grace window opens and the drain begins).
func (c *Collector) PreemptNotice(app, node string, grace float64) {
	c.elasticInstant(fmt.Sprintf("preempt notice %s", node), app, node,
		map[string]interface{}{"grace": grace})
}

// DrainMoved records one shuffle block re-replicated off a doomed node
// during its grace window.
func (c *Collector) DrainMoved(app, node, dest string, stage, index int, bytes int64) {
	c.elasticInstant(fmt.Sprintf("drain %s→%s", node, dest), app, node,
		map[string]interface{}{"stage": stage, "index": index, "bytes": bytes, "dest": dest})
}

// PreemptKill records the reclaimed instance dying: resolution is
// "drained" (nothing of value lost) or "killed" (attempts or outputs went
// down with it).
func (c *Collector) PreemptKill(app, node, resolution string, attempts int) {
	c.elasticInstant(fmt.Sprintf("preempt kill %s (%s)", node, resolution), app, node,
		map[string]interface{}{"resolution": resolution, "attempts_killed": attempts})
}
