package main

import (
	"container/heap"
	"strconv"
	"time"
)

// The host this benchmark was written on, a 2-vCPU VM, changes speed by
// up to a half within minutes as the machine's other tenants come and go:
// the same pass took 7.4 s of CPU in one run and 10.7 s fifteen minutes
// later. The benchmark therefore times a fixed reference kernel between
// the simulations and reports every time in reference seconds: host
// seconds scaled to a host on which one unit of the kernel takes
// refUnitSeconds. In five runs of batch-compute on that host, one per
// seed, the host CPU time of a pass ranged over 35% of its median and
// the reference CPU time over 6%.
//
// The kernel is a small discrete-event loop, the kind of work the
// simulator does: a binary heap of events, a map of nodes, a map of
// counters keyed by strings, and a water-filling pass over each node's
// flow rates. It uses no
// repository code, so a faster simulator shows in full, and it allocates
// nothing once built, so it leaves no garbage for the next simulation.
const (
	refUnitEvents = 5000
	// refUnitSeconds is a typical CPU time of one unit on the host the
	// bounds in BENCHMARK.json were set on, where it ranged from 0.8 to
	// 1.3 ms. It only fixes the scale.
	refUnitSeconds = 0.0012
	// refShare is the kernel's CPU time after each simulation, as a
	// share of the simulation's. The reference thus samples the host in
	// proportion to the time each simulation is exposed to it.
	refShare = 0.25
)

type refEvent struct {
	at   float64
	node int
}

type refHeap []*refEvent

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

type refNode struct {
	load  float64
	flows []float64
}

// refKernel is the reference kernel's state. It carries over from one
// unit to the next, so every unit does the same work on a warm structure.
type refKernel struct {
	rng   uint64
	nodes map[int]*refNode
	tags  []string
	count map[string]int
	queue refHeap
	sink  float64
}

func newRefKernel() *refKernel {
	k := &refKernel{rng: 88172645463325252, nodes: make(map[int]*refNode, 256), count: make(map[string]int)}
	for i := 0; i < 256; i++ {
		k.nodes[i] = &refNode{flows: make([]float64, 0, 32)}
	}
	for i := 0; i < 64; i++ {
		k.tags = append(k.tags, "tag"+strconv.Itoa(i))
	}
	for i := 0; i < 512; i++ {
		heap.Push(&k.queue, &refEvent{at: float64(k.next()%1000) / 10, node: int(k.next() % 256)})
	}
	return k
}

// next is a xorshift step.
func (k *refKernel) next() uint64 {
	k.rng ^= k.rng << 13
	k.rng ^= k.rng >> 7
	k.rng ^= k.rng << 17
	return k.rng
}

// unit fires refUnitEvents events.
func (k *refKernel) unit() {
	for i := 0; i < refUnitEvents; i++ {
		e := heap.Pop(&k.queue).(*refEvent)
		n := k.nodes[e.node]
		n.load += e.at * 0.001
		if len(n.flows) < cap(n.flows) {
			n.flows = append(n.flows, float64(k.next()%100))
		} else {
			var sum float64
			for _, f := range n.flows {
				sum += f
			}
			for j := range n.flows {
				n.flows[j] = n.flows[j] / (sum + 1) * 100
			}
			n.flows = n.flows[:0]
		}
		if i%8 == 0 {
			k.count[k.tags[k.next()%64]]++
		}
		k.sink += n.load
		e.at += float64(k.next()%100) / 10
		e.node = int(k.next() % 256)
		heap.Push(&k.queue, e)
	}
}

// refTime holds the host times of kernel units.
type refTime struct {
	cpu, wall []float64 // host seconds, one per unit
}

// follow runs kernel units after a piece of work that took cpu host
// seconds, at least one and until they have taken refShare of it.
func (r *refTime) follow(k *refKernel, cpu float64) {
	var spent float64
	for spent == 0 || spent < refShare*cpu {
		cpu0, start := cpuSeconds(), time.Now()
		k.unit()
		c := cpuSeconds() - cpu0
		r.cpu = append(r.cpu, c)
		r.wall = append(r.wall, time.Since(start).Seconds())
		spent += c
	}
}

// cpuScale and wallScale turn host CPU and wall seconds measured
// alongside the kernel into reference seconds. They use the median unit:
// a garbage collection the simulation left running slows the units it
// overlaps, and the median leaves those out.
func (r refTime) cpuScale() float64  { return div(refUnitSeconds, median(r.cpu)) }
func (r refTime) wallScale() float64 { return div(refUnitSeconds, median(r.wall)) }
