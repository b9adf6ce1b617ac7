package core

import (
	"context"

	"repro/internal/pfs"
)

// ModelConflicts is one model's slice of a fused analysis: the per-file
// conflict lists (files without conflicts omitted) and the aggregate
// Table 4 signature — exactly what ConflictsOverFiles returns for that model.
type ModelConflicts struct {
	Model     pfs.Semantics
	ByFile    map[string][]Conflict
	Signature ConflictSignature
}

// DetectConflictsMulti evaluates every model's conflict predicate (§5.2) in
// ONE offset-sorted sweep of the file's intervals, instead of one sweep per
// model. For each candidate pair the Conflict value is built at most once
// and shared across the models that admit it; per-model results are
// byte-identical to DetectConflicts (same cap, same class-preserving
// appender, same stable sort).
func DetectConflictsMulti(fa *FileAccesses, models []pfs.Semantics) [][]Conflict {
	out := make([][]Conflict, len(models))
	active := 0
	for _, m := range models {
		if m != pfs.Strong {
			active++
		}
	}
	if active == 0 {
		return out
	}
	apps := make([]conflictAppender, len(models))
	for i := range apps {
		apps[i].max = MaxConflictsPerFile
	}
	sweepOverlaps(fa.Intervals, false, func(p OverlapPair) {
		first, second := &fa.Intervals[p.A], &fa.Intervals[p.B]
		var c Conflict
		built := false
		for i, m := range models {
			if m == pfs.Strong || !conflictUnder(fa, m, first, second) {
				continue
			}
			if !built {
				c = Conflict{
					Path:        fa.Path,
					Kind:        kindOf(second),
					SameProcess: first.Rank == second.Rank,
					First:       *first,
					Second:      *second,
				}
				built = true
			}
			apps[i].add(c)
		}
	})
	var suppressed int64
	for i := range apps {
		suppressed += apps[i].suppressed
		sortConflicts(apps[i].out)
		out[i] = apps[i].out
	}
	if suppressed > 0 {
		conflictsSuppressed.Add(suppressed)
	}
	return out
}

// Conflicts is the fused conflict pass over already-extracted accesses:
// DetectConflictsMulti per file, sharded across files on the worker pool
// and merged in path order into one ModelConflicts per requested model
// (index-matching models). Per-model results are identical to
// ConflictsOverFiles. fas must not be mutated concurrently.
func Conflicts(ctx context.Context, fas []*FileAccesses, models []pfs.Semantics, workers int) ([]ModelConflicts, error) {
	defer startFusedPass(EffectiveWorkers(workers) <= 1)()
	per := make([][][]Conflict, len(fas))
	if err := ParallelFor(ctx, len(fas), workers, func(i int) {
		per[i] = DetectConflictsMulti(fas[i], models)
	}); err != nil {
		return nil, err
	}
	ms := make([]ModelConflicts, len(models))
	for j, m := range models {
		ms[j] = ModelConflicts{Model: m, ByFile: make(map[string][]Conflict)}
	}
	for i, fa := range fas { // path order
		for j, cs := range per[i] {
			if len(cs) > 0 {
				ms[j].ByFile[fa.Path] = cs
				ms[j].Signature.merge(Signature(cs))
			}
		}
	}
	return ms, nil
}
