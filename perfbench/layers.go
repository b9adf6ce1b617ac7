package main

import (
	"fmt"
	"runtime"
	"time"

	semfs "repro"
	"repro/internal/core"
)

// layerMetric is one per-layer metric of a traced iteration. The comment
// on each group names the end-to-end metric and workload it should move.
type layerMetric struct {
	name, unit string
	value      func(*iteration) float64
}

var layerMetrics = []layerMetric{
	// apps / mpi / pfs: produce_s on flash-fbs-r256 and enzo-fpp-r16; the
	// allocation and GC deltas also move peak_rss_mb on flash-fbs-r256 and
	// should stay flat on enzo-fpp-r16. The pfs counters move produce_s on
	// enzo-fpp-r16 and wal-burst. MPI counts describe the workload.
	{"apps.generate.wall_s", "s", wall("apps.generate")},
	{"apps.generate.alloc_mb", "MiB", alloc("apps.generate")},
	{"apps.generate.gc_cycles", "count", gcCycles("apps.generate")},
	{"mpi.events", "count", fact("mpi.events")},
	{"mpi.collectives", "count", fact("mpi.collectives")},
	{"pfs.op.write.count", "count", counter("pfs.op.write.count")},
	{"pfs.op.read.count", "count", counter("pfs.op.read.count")},
	{"pfs.bytes.written", "bytes", counter("pfs.bytes.written")},
	{"pfs.bytes.read", "bytes", counter("pfs.bytes.read")},
	{"pfs.op.commit.count", "count", counter("pfs.op.commit.count")},
	{"pfs.op.publish.count", "count", counter("pfs.op.publish.count")},
	{"pfs.visibility.stale_reads.session", "count", counter("pfs.visibility.stale_reads.session")},

	// recorder / colfmt / storage: save moves produce_s, load moves
	// consume_s, both on enzo-fpp-r16.
	{"colfmt.save.wall_s", "s", wall("colfmt.save")},
	{"colfmt.save.alloc_mb", "MiB", alloc("colfmt.save")},
	{"colfmt.trace_bytes", "bytes", fact("colfmt.trace_bytes")},
	{"recorder.colfmt.blocks_encoded", "count", counter("recorder.colfmt.blocks_encoded")},
	{"storage.op.syncs", "count", counter("storage.op.syncs")},
	{"storage.op.write_bytes", "bytes", counter("storage.op.write_bytes")},
	{"colfmt.load.wall_s", "s", wall("colfmt.load")},
	{"colfmt.load.alloc_mb", "MiB", alloc("colfmt.load")},
	{"recorder.colfmt.blocks_decoded", "count", counter("recorder.colfmt.blocks_decoded")},
	{"recorder.colfmt.bytes_mapped", "bytes", counter("recorder.colfmt.bytes_mapped")},

	// core: extraction and passes move consume_s on enzo-fpp-r16 (and
	// repro-sweep for extraction and the cache counters); the
	// happens-before build moves consume_s on flash-fbs-r256; validation
	// moves consume_s on every trace workload.
	{"core.extract.wall_s", "s", wall("core.extract")},
	{"core.extract.alloc_mb", "MiB", alloc("core.extract")},
	{"core.passes.wall_s", "s", wall("core.passes")},
	{"core.passes.alloc_mb", "MiB", alloc("core.passes")},
	// AnalyzeParallelCtx runs the conflict pass as the fused multi-model
	// sweep, which records under its own histogram.
	{"core.pass.conflicts.wall_ns", "ns", histSum("core.pass.conflicts.wall_ns", "core.pass.fused-conflicts.wall_ns")},
	{"core.pass.patterns.wall_ns", "ns", histSum("core.pass.patterns.wall_ns")},
	{"core.pass.census.wall_ns", "ns", histSum("core.pass.census.wall_ns")},
	{"core.pass.meta-conflicts.wall_ns", "ns", histSum("core.pass.meta-conflicts.wall_ns")},
	{"core.pool.utilization_pct", "%", gaugeAfter("core.passes", "core.pool.utilization_pct")},
	{"core.extract.cache.hits", "count", counter("core.extract.cache.hits")},
	{"core.extract.cache.misses", "count", counter("core.extract.cache.misses")},
	{"core.hb.wall_s", "s", wall("core.hb")},
	{"core.hb.alloc_mb", "MiB", alloc("core.hb")},
	{"core.validate.wall_s", "s", wall("core.validate")},
	{"core.validate.unordered", "count", fact("core.validate.unordered")},
	{"core.conflicts.session", "count", fact("core.conflicts.session")},
	{"core.conflicts.commit", "count", fact("core.conflicts.commit")},
	{"core.conflicts.suppressed", "count", counter("core.conflicts.suppressed")},

	// report: consume_s on enzo-fpp-r16.
	{"report.render.wall_s", "s", wall("report.render")},

	// experiments / ckpt: the sweep moves produce_s on repro-sweep and
	// waits for its slowest configuration; artifacts and resume move
	// consume_s there.
	{"experiments.sweep.wall_s", "s", wall("experiments.sweep")},
	{"experiments.config.wall_ns.p50", "ns", histQuantile("experiments.config.wall_ns", 0.5)},
	{"experiments.config.wall_ns.max", "ns", histQuantile("experiments.config.wall_ns", 1)},
	{"experiments.artifacts.wall_s", "s", wall("experiments.artifacts")},
	{"experiments.resume.wall_s", "s", wall("experiments.resume")},
	{"ckpt.journal.appends", "count", counter("ckpt.journal.appends")},
	{"ckpt.journal.bytes", "bytes", counter("ckpt.journal.bytes")},
	{"ckpt.journal.fsync_ns.p50", "ns", histQuantile("ckpt.journal.fsync_ns", 0.5)},
	{"ckpt.journal.fsync_ns.max", "ns", histQuantile("ckpt.journal.fsync_ns", 1)},
	{"ckpt.resume.hits", "count", counter("ckpt.resume.hits")},

	// wal / consistency: the burst moves produce_s, recovery consume_s,
	// both on wal-burst. wal.ack.cost_ns is simulated time.
	{"wal.burst.wall_s", "s", wall("wal.burst")},
	{"wal.append.records", "count", counter("wal.append.records")},
	{"wal.append.bytes", "bytes", counter("wal.append.bytes")},
	{"wal.ack.cost_ns.p50", "ns", histQuantile("wal.ack.cost_ns", 0.5)},
	{"wal.ack.cost_ns.p99", "ns", histQuantile("wal.ack.cost_ns", 0.99)},
	{"wal.drain.batches", "count", counter("wal.drain.batches")},
	{"wal.drain.retries", "count", counter("wal.drain.retries")},
	{"wal.degrade.write_through", "count", counter("wal.degrade.write_through")},
	{"wal.queue.depth_peak", "count", gaugeAfter("wal.burst", "wal.queue.depth_peak")},
	{"wal.recover.wall_s", "s", wall("wal.recover")},
	{"wal.recover.records_kept", "count", counter("wal.recover.records_kept")},
	{"consistency.check.wall_ns", "ns", histSum("consistency.check.wall_ns")},
	{"consistency.check.events", "count", counter("consistency.check.events")},

	// Whole run: the stage spans' share of the root span, and each
	// layer's self time ("run" is the part of the root no stage covers).
	{"run.stage_coverage", "ratio", func(it *iteration) float64 { return it.coverage }},
	{"apps.self_s", "s", selfTime("apps")},
	{"colfmt.self_s", "s", selfTime("colfmt")},
	{"core.self_s", "s", selfTime("core")},
	{"report.self_s", "s", selfTime("report")},
	{"experiments.self_s", "s", selfTime("experiments")},
	{"wal.self_s", "s", selfTime("wal")},
	{"run.self_s", "s", selfTime("run")},
}

func wall(stage string) func(*iteration) float64 {
	return func(it *iteration) float64 {
		var d time.Duration
		for _, s := range it.stages {
			if s.name == stage {
				d += s.dur
			}
		}
		return d.Seconds()
	}
}

func alloc(stage string) func(*iteration) float64 {
	return func(it *iteration) float64 {
		var n uint64
		for _, s := range it.stages {
			if s.name == stage {
				n += s.allocBytes
			}
		}
		return float64(n) / (1 << 20)
	}
}

func gcCycles(stage string) func(*iteration) float64 {
	return func(it *iteration) float64 {
		var n uint32
		for _, s := range it.stages {
			if s.name == stage {
				n += s.gcCycles
			}
		}
		return float64(n)
	}
}

func gaugeAfter(stage, gauge string) func(*iteration) float64 {
	return func(it *iteration) float64 {
		for _, s := range it.stages {
			if s.name == stage {
				return float64(s.gauges[gauge])
			}
		}
		return 0
	}
}

func counter(name string) func(*iteration) float64 {
	return func(it *iteration) float64 { return float64(it.delta.Counters[name]) }
}

func histSum(names ...string) func(*iteration) float64 {
	return func(it *iteration) float64 {
		var sum int64
		for _, name := range names {
			sum += it.delta.Histograms[name].Sum
		}
		return float64(sum)
	}
}

func fact(name string) func(*iteration) float64 {
	return func(it *iteration) float64 { return it.facts[name] }
}

func selfTime(layer string) func(*iteration) float64 {
	return func(it *iteration) float64 { return it.selfTimes[layer] }
}

// histQuantile estimates a quantile of the iteration's observations from
// the registry histogram's power-of-two buckets, interpolating linearly
// inside the bucket that holds it. The maximum (q = 1) therefore reads as
// the upper edge of the highest occupied bucket.
func histQuantile(name string, q float64) func(*iteration) float64 {
	return func(it *iteration) float64 {
		h := it.delta.Histograms[name]
		if h.Count == 0 {
			return 0
		}
		target := q * float64(h.Count)
		seen := float64(h.Zero)
		if target <= seen {
			return 0
		}
		for _, b := range h.Buckets {
			if n := float64(b.N); seen+n >= target {
				return float64(b.Lo) + (target-seen)/n*float64(b.Hi-b.Lo)
			}
			seen += float64(b.N)
		}
		return float64(h.Buckets[len(h.Buckets)-1].Hi)
	}
}

// scalingRanks are the FLASH-fbs rank counts below the workload's 256 that
// a traced run also measures, for the happens-before and generation
// allocation scaling curves.
var scalingRanks = []int{64, 128}

// scalingPoints runs FLASH-fbs at each of scalingRanks and times the
// happens-before build on its trace, recording spans under a "scaling"
// root.
func (b *bench) scalingPoints() (map[string]metric, error) {
	root := b.spans.Start("scaling", "perfbench")
	defer root.End()
	out := map[string]metric{}
	for _, ranks := range scalingRanks {
		span := root.Child(fmt.Sprintf("apps.generate.r%d", ranks))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := semfs.Run("FLASH-fbs", semfs.RunOptions{Ranks: ranks, PPN: 8, Seed: b.cfg.seed})
		runtime.ReadMemStats(&after)
		span.End()
		if err != nil {
			return nil, err
		}
		span = root.Child(fmt.Sprintf("core.hb.r%d", ranks))
		start := time.Now()
		_, err = core.BuildHB(res.Trace)
		hb := time.Since(start)
		span.End()
		if err != nil {
			return nil, err
		}
		out[fmt.Sprintf("core.hb.wall_s.r%d", ranks)] = metric{hb.Seconds(), "s"}
		out[fmt.Sprintf("apps.generate.alloc_mb.r%d", ranks)] = metric{float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20), "MiB"}
	}
	return out, nil
}
