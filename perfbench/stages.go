package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
)

// half says which end-to-end metric a stage's time counts toward.
type half int

const (
	produce half = iota
	consume
)

// step is one stage call: a call into one module's public function, named
// "<layer>.<stage>" so its layer is the part before the first dot.
type step struct {
	name string
	half half
	call func() error
}

type stageRec struct {
	name       string
	half       half
	dur        time.Duration
	allocBytes uint64
	gcCycles   uint32
	gauges     map[string]int64 // traced only: registry gauges at stage end
}

// iteration is one produce+consume pass of a workload. Untraced, it only
// times stages; traced, it also records a span per stage under a
// per-iteration root, the allocation and GC deltas of each stage, and the
// registry's counter deltas over the whole iteration.
type iteration struct {
	traced bool
	ops    *ops
	root   *obs.Span
	stages []stageRec

	delta      obs.Snapshot // registry change over the iteration (traced only)
	peakRSSMiB float64
	// facts are per-iteration quantities the workload reads from its
	// outputs (record and MPI event counts, conflict pairs, ...).
	facts map[string]float64

	coverage  float64
	selfTimes map[string]float64 // layer -> seconds, "run" = root not covered by stages
}

// run calls the steps in order and stops at the first failure.
func (it *iteration) run(steps ...step) error {
	for _, s := range steps {
		if err := it.stage(s); err != nil {
			return err
		}
	}
	return nil
}

func (it *iteration) stage(s step) error {
	var before runtime.MemStats
	if it.traced {
		runtime.ReadMemStats(&before)
	}
	span := it.root.Child(s.name)
	start := time.Now()
	err := s.call()
	dur := time.Since(start)
	span.End()
	rec := stageRec{name: s.name, half: s.half, dur: dur}
	if it.traced {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		rec.allocBytes = after.TotalAlloc - before.TotalAlloc
		rec.gcCycles = after.NumGC - before.NumGC
		rec.gauges = obs.Default().Snapshot().Gauges
	}
	it.stages = append(it.stages, rec)
	it.ops.record("stage "+s.name, err)
	if err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	return nil
}

func (it *iteration) sum(h half) float64 {
	var d time.Duration
	for _, s := range it.stages {
		if s.half == h {
			d += s.dur
		}
	}
	return d.Seconds()
}

func (it *iteration) produce() float64 { return it.sum(produce) }
func (it *iteration) consume() float64 { return it.sum(consume) }
func (it *iteration) total() float64   { return it.produce() + it.consume() }

func (it *iteration) fact(name string, v float64) {
	if it.facts == nil {
		it.facts = map[string]float64{}
	}
	it.facts[name] = v
}

// attributeSpans computes, from the recorded spans, the share of the root
// span its stage children cover and each layer's self time: a span's
// duration minus the part its own children cover. Stage spans of one
// iteration run one after another, so children never overlap.
func (it *iteration) attributeSpans(spans []obs.SpanInfo) {
	root := it.root.ID()
	children := map[uint64]int64{}
	var rootDur int64
	for _, s := range spans {
		if s.ID == root {
			rootDur = s.DurNS
		}
		children[s.Parent] += s.DurNS
	}
	it.selfTimes = map[string]float64{}
	var covered int64
	for _, s := range spans {
		if s.Parent != root || root == 0 {
			continue
		}
		covered += s.DurNS
		layer, _, _ := strings.Cut(s.Name, ".")
		it.selfTimes[layer] += float64(s.DurNS-children[s.ID]) / 1e9
	}
	it.selfTimes["run"] = float64(rootDur-covered) / 1e9
	if rootDur > 0 {
		it.coverage = float64(covered) / float64(rootDur)
	}
}
