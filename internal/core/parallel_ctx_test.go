package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/pfs"
	"repro/internal/recorder"
)

func TestParallelForCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := ParallelFor(ctx, 100, workers, func(i int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: %d tasks ran under a cancelled context", workers, ran.Load())
		}
	}
}

func TestParallelForCtxStopsWithinTaskBoundary(t *testing.T) {
	const n, workers, cancelAt = 10_000, 4, 10
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	err := ParallelFor(ctx, n, workers, func(i int) {
		if ran.Add(1) == cancelAt {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	// Each worker may have one task in flight when cancel fires; none may
	// start a new one afterwards.
	if got := ran.Load(); got > cancelAt+workers {
		t.Fatalf("%d tasks ran, want <= %d (one in-flight per worker)", got, cancelAt+workers)
	}
}

func TestParallelForCtxNilErrorRunsAll(t *testing.T) {
	var ran atomic.Int32
	if err := ParallelFor(bg, 50, 4, func(i int) { ran.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 50 {
		t.Fatalf("ran %d/50 tasks", ran.Load())
	}
}

// synthTrace builds a deterministic multi-rank trace with shared and
// private files, small enough for unit tests but real enough that every
// analysis pass has work to cancel.
func synthTrace(ranks, filesPerRank int) *recorder.Trace {
	tr := &recorder.Trace{Meta: recorder.Meta{App: "ctx", Ranks: ranks},
		PerRank: make([][]recorder.Record, ranks)}
	for r := 0; r < ranks; r++ {
		var rs []recorder.Record
		ts := uint64(1)
		emit := func(fn recorder.Func, path string, args ...int64) {
			rs = append(rs, recorder.Record{Rank: int32(r), Layer: recorder.LayerPOSIX,
				Func: fn, TStart: ts, TEnd: ts + 1, Path: path, Args: args})
			ts += 2
		}
		for f := 0; f < filesPerRank; f++ {
			path := fmt.Sprintf("/pp/r%d.f%d", r, f)
			if f%2 == 0 {
				path = fmt.Sprintf("/shared/f%d", f)
			}
			fd := int64(100 + f)
			emit(recorder.FuncOpen, path, int64(recorder.OCreat|recorder.ORdwr), 0o644, fd)
			emit(recorder.FuncPwrite, "", fd, 64, int64(64*r), 64)
			emit(recorder.FuncClose, "", fd)
		}
		tr.PerRank[r] = rs
	}
	return tr
}

// TestAnalyzeParallelCtxCancelled runs every pass entry point under a
// cancelled context, on the reference schedule and on a pool: each must
// return context.Canceled, not a partial result.
func TestAnalyzeParallelCtxCancelled(t *testing.T) {
	tr := synthTrace(8, 40)
	fas := must(Extract(bg, tr, 1))
	uncached := synthTrace(8, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	passes := []struct {
		name string
		run  func(workers int) error
	}{
		{"Extract", func(w int) error { _, err := Extract(ctx, tr, w); return err }},
		{"ExtractCursors", func(w int) error {
			cursors := make([]RecordCursor, len(tr.PerRank))
			for r, rs := range tr.PerRank {
				cursors[r] = SliceCursor(rs)
			}
			_, err := ExtractCursors(ctx, cursors, w)
			return err
		}},
		{"ExtractSharedCtx", func(w int) error { _, err := ExtractSharedCtx(ctx, uncached, w); return err }},
		{"Conflicts", func(w int) error {
			_, err := Conflicts(ctx, fas, []pfs.Semantics{pfs.Session, pfs.Commit}, w)
			return err
		}},
		{"Analyze", func(w int) error { _, err := Analyze(ctx, tr, w); return err }},
		{"MetadataCensus", func(w int) error { _, err := MetadataCensus(ctx, tr, w); return err }},
		{"DetectMetadataConflicts", func(w int) error { _, err := DetectMetadataConflicts(ctx, tr, w); return err }},
		{"GlobalPattern", func(w int) error { _, err := GlobalPattern(ctx, fas, w); return err }},
		{"LocalPattern", func(w int) error { _, err := LocalPattern(ctx, fas, w); return err }},
		{"ClassifyHighLevel", func(w int) error {
			_, err := ClassifyHighLevel(ctx, fas, HLOptions{WorldSize: 8}, w)
			return err
		}},
	}
	for _, p := range passes {
		for _, w := range []int{1, 4} {
			if err := p.run(w); !errors.Is(err, context.Canceled) {
				t.Errorf("%s/workers=%d: err = %v, want Canceled", p.name, w, err)
			}
		}
	}
	// A cancelled shared extraction is not cached: the next call extracts.
	if got := must(ExtractSharedCtx(bg, uncached, 4)); !reflect.DeepEqual(got, must(Extract(bg, uncached, 1))) {
		t.Fatal("shared extraction after a cancelled one diverges from Extract")
	}
	// And uncancelled passes agree across schedules.
	if got, want := must(Analyze(bg, tr, 4)), must(Analyze(bg, tr, 1)); got != want {
		t.Fatalf("Analyze at 4 workers = %+v; want %+v", got, want)
	}
	InvalidateExtraction(tr)
	InvalidateExtraction(uncached)
}
