package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Parallel analysis engine. Every pass of the paper's offline analysis is
// embarrassingly parallel across rank streams (extraction, census, metadata
// events) or across files (conflict detection, pattern classification), so
// each pass has exactly one entry point of the form
//
//	Pass(ctx, input, workers) (result, error)
//
// which shards its input over a bounded worker pool and then performs a
// deterministic merge: shard results land in index-addressed slots and are
// folded back in input (rank or path) order, so the output is the same at
// every pool size. workers <= 1 is the reference schedule — ParallelFor
// degenerates to an in-order loop on the calling goroutine, and extraction
// walks every rank into one shared map — and the equivalence suites compare
// it against every other pool size.
//
// Cancellation is observed at task boundaries (no index is handed out after
// the context is done; in-flight tasks finish), and a cancelled pass
// returns ctx.Err() instead of a partial result.

// EffectiveWorkers normalizes a requested worker count: values <= 0 select
// runtime.GOMAXPROCS(0), everything else is used as given.
func EffectiveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// ParallelFor runs fn(i) for every i in [0, n) on a bounded pool of
// workers goroutines (see EffectiveWorkers; capped at n). Indices are
// handed out by an atomic counter, so the pool load-balances uneven work
// items. fn must be safe to call concurrently for distinct indices.
//
// The pool stops handing out indices once ctx is done and returns
// ctx.Err(). Cancellation is checked before every index — one in-flight fn
// per worker may still complete, so a cancelled call stops within one task
// boundary. A nil error means every index ran.
func ParallelFor(ctx context.Context, n, workers int, fn func(i int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	workers = EffectiveWorkers(workers)
	if workers > n {
		workers = n
	}
	poolRuns.Inc()
	poolTasks.Add(int64(n))
	poolWorkers.Set(int64(workers))
	poolQueue.SetMax(int64(n))
	if workers <= 1 {
		poolSerial.Inc()
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	// Utilization accounting (sum of per-worker active time over pool-size x
	// wall) and per-worker spans are live only while telemetry is on; the
	// task loop itself carries no instrumentation, so the disabled path adds
	// nothing per task.
	instrumented := obs.Default().Enabled()
	tracer := obs.Default().Tracer()
	start := time.Now()
	var busyNS atomic.Int64
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			span := tracer.Start("pool-worker", "core.pool").OnLane(w + 1)
			var t0 time.Time
			if instrumented {
				t0 = time.Now()
			}
			for ctx.Err() == nil {
				i := int(next.Add(1))
				if i >= n {
					break
				}
				fn(i)
			}
			if instrumented {
				busyNS.Add(time.Since(t0).Nanoseconds())
			}
			span.End()
		}(w)
	}
	wg.Wait()
	if instrumented {
		if wall := time.Since(start).Nanoseconds(); wall > 0 {
			poolUtilization.Set(busyNS.Load() * 100 / (int64(workers) * wall))
		}
	}
	return ctx.Err()
}

// extractRanks is the rank scheduler behind Extract and ExtractCursors;
// walk folds rank r's records into files. On one worker every rank walks
// into one shared map in rank order (the reference schedule). On a pool
// each rank walks into its own partial map, and the partials are merged in
// rank order, which reproduces the reference append order of every
// per-path table. The per-file §5.2 annotation is then sharded across
// files. A walk error fails the extraction; the lowest-ranked one is
// reported.
func extractRanks(ctx context.Context, n, workers int, walk func(r int, files map[string]*FileAccesses) error) ([]*FileAccesses, error) {
	defer startPass("extract")()
	var files map[string]*FileAccesses
	if EffectiveWorkers(workers) <= 1 || n <= 1 {
		files = make(map[string]*FileAccesses)
		for r := 0; r < n; r++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := walk(r, files); err != nil {
				return nil, fmt.Errorf("core: extracting rank %d: %w", r, err)
			}
		}
	} else {
		partial := make([]map[string]*FileAccesses, n)
		errs := make([]error, n)
		if err := ParallelFor(ctx, n, workers, func(r int) {
			partial[r] = make(map[string]*FileAccesses)
			errs[r] = walk(r, partial[r])
		}); err != nil {
			return nil, err
		}
		for r, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("core: extracting rank %d: %w", r, err)
			}
		}
		files = mergePartials(partial)
	}
	out := sortedFiles(files)
	if err := ParallelFor(ctx, len(out), workers, func(i int) { annotate(out[i]) }); err != nil {
		return nil, err
	}
	return out, nil
}

// mergePartials folds per-rank partial extraction maps in rank order, which
// reproduces the serial append order of every per-path table.
func mergePartials(partial []map[string]*FileAccesses) map[string]*FileAccesses {
	merged := make(map[string]*FileAccesses)
	for r := range partial {
		for p, part := range partial[r] {
			dst, ok := merged[p]
			if !ok {
				merged[p] = part
				continue
			}
			dst.Intervals = append(dst.Intervals, part.Intervals...)
			mergeTimes(dst.OpensByRank, part.OpensByRank)
			mergeTimes(dst.ClosesByRank, part.ClosesByRank)
			mergeTimes(dst.CommitsByRank, part.CommitsByRank)
		}
	}
	return merged
}

func mergeTimes(dst, src map[int32][]uint64) {
	for r, ts := range src {
		dst[r] = append(dst[r], ts...)
	}
}
