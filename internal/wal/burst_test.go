package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pfs"
)

// TestBurstRunRecoverRoundTrip proves the uninterrupted half of the
// kill-and-recover contract for every model: the burst's WAL-mediated
// history satisfies the model's formal spec, and recovering its log
// directory replays to a state byte-identical to both the live run and a
// direct (WAL-free) run of the same writes.
func TestBurstRunRecoverRoundTrip(t *testing.T) {
	for _, sem := range pfs.AllSemantics() {
		sem := sem
		t.Run(sem.String(), func(t *testing.T) {
			t.Parallel()
			spec := BurstSpec{
				Semantics: sem,
				Ranks:     3,
				Records:   24,
				Block:     512,
				Log:       Options{Dir: t.TempDir(), NoFsync: true},
			}
			res, err := RunBurst(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Spec.OK() {
				t.Fatalf("live WAL-mediated history rejected: %s", res.Spec.Violation)
			}
			var acked int64
			for _, st := range res.Stats {
				acked += st.Acked + st.WriteThrough
			}
			if acked != int64(spec.Ranks*spec.Records) {
				t.Fatalf("acked+writethrough = %d, want %d", acked, spec.Ranks*spec.Records)
			}

			rep, err := RecoverBurst(spec)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Records != spec.Ranks*spec.Records || rep.Dropped != 0 {
				t.Fatalf("recovered %d records (dropped %d), want %d clean", rep.Records, rep.Dropped, spec.Ranks*spec.Records)
			}
			if !rep.Check.OK() {
				t.Fatalf("replayed history rejected: %s", rep.Check.Violation)
			}
			if err := diffDumps(res.Dump, rep.Dump); err != nil {
				t.Fatalf("recovered state differs from live run: %v", err)
			}
		})
	}
}

// TestRecoverBurstDetectsLoss proves the harness is not vacuous: silently
// deleting an acked record from the middle of a log makes recovery fail
// with an acked-write-loss (protocol mismatch) error.
func TestRecoverBurstDetectsLoss(t *testing.T) {
	dir := t.TempDir()
	spec := BurstSpec{Semantics: pfs.Commit, Ranks: 1, Records: 8, Block: 64,
		Log: Options{Dir: dir, NoFsync: true}}
	if _, err := RunBurst(spec); err != nil {
		t.Fatal(err)
	}
	// Rewrite rank 0's log without record 3 — a lost acked write.
	recs, _, err := RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, logName(0)))
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs[0] {
		if i == 3 {
			continue
		}
		if _, err := appendRecord(f, rec, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverBurst(spec); err == nil {
		t.Fatal("RecoverBurst accepted a log with a deleted acked record")
	}
}

// TestRecoverBurstDetectsStaleRecord: a log whose record 3 carries record
// 4's bytes at record 3's offset (a stale or misdirected payload, not a
// loss) must fail recovery. Only the content comparison can catch it, so
// this pins that neighbouring records get different bytes.
func TestRecoverBurstDetectsStaleRecord(t *testing.T) {
	dir := t.TempDir()
	spec := BurstSpec{Semantics: pfs.Commit, Ranks: 1, Records: 8, Block: 64,
		Log: Options{Dir: dir, NoFsync: true}}
	if _, err := RunBurst(spec); err != nil {
		t.Fatal(err)
	}
	recs, _, err := RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, logName(0)))
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs[0] {
		if i == 3 {
			rec.Data = recs[0][4].Data
		}
		if _, err := appendRecord(f, rec, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverBurst(spec); err == nil {
		t.Fatal("RecoverBurst accepted a log whose record 3 holds record 4's bytes")
	}
}

// sharedWord returns the offset of the first aligned 8-byte word of a that
// occurs at any byte offset of b, or -1.
func sharedWord(a, b []byte) int {
	for i := 0; i+8 <= len(a); i += 8 {
		if bytes.Contains(b, a[i:i+8]) {
			return i
		}
	}
	return -1
}

// TestBurstPayloadsSeparate: the payloads of adjacent records and adjacent
// ranks share no 8-byte word at any shift.
func TestBurstPayloadsSeparate(t *testing.T) {
	spec := BurstSpec{Block: 4096}.withDefaults()
	for _, at := range [][2]int{{0, 0}, {1, 7}, {3, 4095}} {
		r, k := at[0], at[1]
		base := spec.payload(r, k)
		for _, nb := range [][2]int{{r, k + 1}, {r + 1, k}, {r + 1, k + 1}, {r + 1, k - 1}} {
			if off := sharedWord(base, spec.payload(nb[0], nb[1])); off >= 0 {
				t.Fatalf("(rank %d, record %d) and (rank %d, record %d) share the word at %d", r, k, nb[0], nb[1], off)
			}
		}
	}
}
