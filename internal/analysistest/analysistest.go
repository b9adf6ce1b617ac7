// Package analysistest is the serial-equivalence harness of the parallel
// analysis engine: the serial semfs.Analyze path is the correctness oracle
// (it is the literal transcription of the paper's algorithms), and any
// concurrent path must produce identical results. Tests at every layer
// reuse these helpers so the parallel engine can never silently diverge —
// add a worker count or a new workload here and every equivalence test
// picks it up.
package analysistest

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	semfs "repro"
	"repro/internal/core"
	"repro/internal/pfs"
	"repro/internal/recorder"
	"repro/internal/recorder/colfmt"
	"repro/internal/report"
	"repro/internal/storage"
)

// DefaultWorkerCounts covers the interesting pool shapes: GOMAXPROCS (0),
// the serial fallback (1), a small pool, an odd pool, and a pool far larger
// than any test trace's file count.
var DefaultWorkerCounts = []int{0, 1, 2, 5, 32}

// RequireEqual fails t unless the two analyses are identical, reporting the
// first field that differs (field-by-field beats one opaque DeepEqual on
// the whole struct: a census mismatch should not print conflict lists).
func RequireEqual(t testing.TB, label string, serial, parallel *semfs.Analysis) {
	t.Helper()
	check := func(field string, a, b any) {
		t.Helper()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: parallel %s diverges from serial oracle\nserial:   %+v\nparallel: %+v",
				label, field, a, b)
		}
	}
	check("Verdict", serial.Verdict, parallel.Verdict)
	check("SessionConflicts", serial.SessionConflicts, parallel.SessionConflicts)
	check("CommitConflicts", serial.CommitConflicts, parallel.CommitConflicts)
	check("Patterns", serial.Patterns, parallel.Patterns)
	check("Global", serial.Global, parallel.Global)
	check("Local", serial.Local, parallel.Local)
	check("Census", serial.Census, parallel.Census)
	check("MetaConflicts", serial.MetaConflicts, parallel.MetaConflicts)
	check("MetaSignature", serial.MetaSignature, parallel.MetaSignature)
}

// CheckTrace asserts AnalyzeParallelCtx(ctx, tr, w) == Analyze(tr) for
// every worker count (DefaultWorkerCounts when none given), and that the
// fused multi-model conflict engine matches the per-model oracle on the
// same trace.
func CheckTrace(t testing.TB, label string, tr *recorder.Trace, workerCounts ...int) {
	t.Helper()
	if len(workerCounts) == 0 {
		workerCounts = DefaultWorkerCounts
	}
	oracle := semfs.Analyze(tr)
	for _, w := range workerCounts {
		an, err := semfs.AnalyzeParallelCtx(context.Background(), tr, w)
		if err != nil {
			t.Fatalf("%s: %v", labelWorkers(label, w), err)
		}
		RequireEqual(t, labelWorkers(label, w), oracle, an)
	}
	CheckFused(t, label, tr, workerCounts...)
}

// AllModels lists the four consistency models the fused engine is checked
// against, strongest first.
var AllModels = []pfs.Semantics{pfs.Strong, pfs.Commit, pfs.Session, pfs.Eventual}

// CheckFused asserts the single-sweep multi-model engine (core.Conflicts,
// on one worker and on every pool size) produces byte-identical per-file
// conflict lists and signatures to the per-model oracle
// core.ConflictsOverFiles for every consistency model, and that the derived
// verdicts agree.
func CheckFused(t testing.TB, label string, tr *recorder.Trace, workerCounts ...int) {
	t.Helper()
	if len(workerCounts) == 0 {
		workerCounts = DefaultWorkerCounts
	}
	ctx := context.Background()
	fresh, err := core.Extract(ctx, tr, 1)
	if err != nil {
		t.Fatalf("%s: extract: %v", label, err)
	}
	wantByFile := make([]map[string][]core.Conflict, len(AllModels))
	wantSig := make([]core.ConflictSignature, len(AllModels))
	for i, m := range AllModels {
		wantByFile[i], wantSig[i] = core.ConflictsOverFiles(fresh, m)
	}

	requireModels := func(how string, ms []core.ModelConflicts) {
		t.Helper()
		for i, m := range AllModels {
			if ms[i].Model != m {
				t.Errorf("%s: %s model order: got %v want %v", label, how, ms[i].Model, m)
			}
			if ms[i].Signature != wantSig[i] {
				t.Errorf("%s: %s signature under %v diverges from per-model oracle\noracle: %+v\nfused:  %+v",
					label, how, m, wantSig[i], ms[i].Signature)
			}
			if !reflect.DeepEqual(ms[i].ByFile, wantByFile[i]) {
				t.Errorf("%s: %s conflicts under %v diverge from per-model oracle", label, how, m)
			}
		}
	}
	conflicts := func(fas []*core.FileAccesses, w int) []core.ModelConflicts {
		t.Helper()
		ms, err := core.Conflicts(ctx, fas, AllModels, w)
		if err != nil {
			t.Fatalf("%s: conflicts on %d workers: %v", label, w, err)
		}
		return ms
	}
	requireModels("fused-serial", conflicts(fresh, 1))
	shared, err := core.ExtractSharedCtx(ctx, tr, 1)
	if err != nil {
		t.Fatalf("%s: shared extraction: %v", label, err)
	}
	sessionI, commitI := indexOf(pfs.Session), indexOf(pfs.Commit)
	wantVerdict := core.VerdictFrom(wantSig[sessionI], wantSig[commitI])
	for _, w := range workerCounts {
		requireModels(fmt.Sprintf("fused-parallel/workers=%d", w), conflicts(shared, w))
		if got, err := core.Analyze(ctx, tr, w); err != nil || got != wantVerdict {
			t.Errorf("%s: fused verdict on %d workers %+v (%v), per-model oracle %+v", label, w, got, err, wantVerdict)
		}
	}
}

func indexOf(m pfs.Semantics) int {
	for i, x := range AllModels {
		if x == m {
			return i
		}
	}
	panic("model not in AllModels")
}

// CheckFormats is the on-disk format equivalence gate: tr is saved in the
// columnar and v1 formats plus both convert round trips, reloaded at every
// worker count, and each reload must carry byte-identical records (the
// strict v1 load is the disk oracle) and produce a byte-identical analysis
// and rendered report. The columnar directory is additionally consumed
// through the zero-copy cursor path (colfmt.OpenDirOn → core.ExtractCursors)
// which must reproduce the materializing extraction exactly.
func CheckFormats(t testing.TB, label string, tr *recorder.Trace, workerCounts ...int) {
	t.Helper()
	if len(workerCounts) == 0 {
		workerCounts = DefaultWorkerCounts
	}
	base := t.TempDir()
	dirs := []struct{ name, path string }{
		{"v1", filepath.Join(base, "v1")},
		{"columnar", filepath.Join(base, "col")},
		{"v1-to-columnar", filepath.Join(base, "conv-col")},
		{"columnar-to-v1", filepath.Join(base, "conv-v1")},
	}
	if err := semfs.SaveTraceFormat(dirs[0].path, tr, semfs.FormatV1); err != nil {
		t.Fatalf("%s: saving v1: %v", label, err)
	}
	if err := semfs.SaveTraceFormat(dirs[1].path, tr, semfs.FormatColumnar); err != nil {
		t.Fatalf("%s: saving columnar: %v", label, err)
	}
	if _, err := semfs.ConvertTrace(dirs[0].path, dirs[2].path, semfs.FormatColumnar, 0); err != nil {
		t.Fatalf("%s: converting v1->columnar: %v", label, err)
	}
	if _, err := semfs.ConvertTrace(dirs[1].path, dirs[3].path, semfs.FormatV1, 0); err != nil {
		t.Fatalf("%s: converting columnar->v1: %v", label, err)
	}

	// The strict v1 reload is the record-level oracle: the v1 decoder
	// predates the columnar format, so every other load path must agree
	// with it byte for byte.
	oracle, err := semfs.LoadTrace(dirs[0].path, 1)
	if err != nil {
		t.Fatalf("%s: loading v1 oracle: %v", label, err)
	}
	oracleAnalysis := semfs.Analyze(oracle)
	oracleReport := report.BuildRunReport(oracle).Render()
	oracleFA, err := core.Extract(context.Background(), oracle, 1)
	if err != nil {
		t.Fatalf("%s: extracting the v1 oracle: %v", label, err)
	}

	for _, d := range dirs {
		for _, w := range workerCounts {
			got, err := semfs.LoadTrace(d.path, w)
			if err != nil {
				t.Fatalf("%s/%s/workers=%d: load: %v", label, d.name, w, err)
			}
			if !reflect.DeepEqual(got.Meta, oracle.Meta) {
				t.Errorf("%s/%s/workers=%d: meta diverges:\noracle: %+v\ngot:    %+v",
					label, d.name, w, oracle.Meta, got.Meta)
			}
			if !reflect.DeepEqual(got.PerRank, oracle.PerRank) {
				t.Errorf("%s/%s/workers=%d: records diverge from the v1 oracle", label, d.name, w)
				continue
			}
			RequireEqual(t, fmt.Sprintf("%s/%s/workers=%d", label, d.name, w),
				oracleAnalysis, semfs.Analyze(got))
			if rep := report.BuildRunReport(got).Render(); rep != oracleReport {
				t.Errorf("%s/%s/workers=%d: rendered report diverges", label, d.name, w)
			}
		}
	}

	// Zero-copy cursor extraction over the mapped columnar directory.
	for _, w := range workerCounts {
		dr, err := colfmt.OpenDirOn(storage.OS(), dirs[1].path, w)
		if err != nil {
			t.Fatalf("%s/cursors/workers=%d: open: %v", label, w, err)
		}
		fas, err := core.ExtractCursors(context.Background(), dr.Cursors(), w)
		if cerr := dr.Close(); cerr != nil {
			t.Errorf("%s/cursors/workers=%d: close: %v", label, w, cerr)
		}
		if err != nil {
			t.Fatalf("%s/cursors/workers=%d: extract: %v", label, w, err)
		}
		if !reflect.DeepEqual(fas, oracleFA) {
			t.Errorf("%s/cursors/workers=%d: cursor extraction diverges from materialized extraction",
				label, w)
		}
	}
}

// CheckApp runs one registry application configuration and asserts
// serial/parallel analysis equivalence on its trace.
func CheckApp(t testing.TB, name string, o semfs.RunOptions, workerCounts ...int) {
	t.Helper()
	res, err := semfs.Run(name, o)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := res.Err(); err != nil {
		t.Fatalf("%s: rank error: %v", name, err)
	}
	CheckTrace(t, name, res.Trace, workerCounts...)
}

func labelWorkers(label string, w int) string {
	return fmt.Sprintf("%s/workers=%d", label, w)
}
