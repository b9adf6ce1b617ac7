package mpiio

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/harness"
	"repro/internal/pfs"
	"repro/internal/recorder"
)

// run executes body on n ranks with a strong-semantics FS and returns the
// result.
func run(t *testing.T, n, ppn int, body func(ctx *harness.Ctx) error) *harness.Result {
	t.Helper()
	res, err := harness.Run(harness.Config{Ranks: n, PPN: ppn, Semantics: pfs.Strong},
		recorder.Meta{App: "mpiio-test", Library: "MPI-IO"}, body)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestIndependentWriteAtRoundTrip(t *testing.T) {
	res := run(t, 4, 2, func(ctx *harness.Ctx) error {
		f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/data", ModeCreate|ModeRdwr, Options{})
		if err != nil {
			return err
		}
		payload := bytes.Repeat([]byte{byte('A' + ctx.Rank)}, 32)
		if err := f.WriteAt(int64(ctx.Rank)*32, payload); err != nil {
			return err
		}
		ctx.MPI.Barrier()
		got, err := f.ReadAt(int64(ctx.Rank)*32, 32)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			ctx.Failf("read back %q", got)
		}
		if err := f.Close(); err != nil {
			return err
		}
		return ctx.Failures()
	})
	info, _, err := res.FS.Stat("/data")
	if err != nil || info.Size != 128 {
		t.Fatalf("file size = %d, %v", info.Size, err)
	}
}

func TestCollectiveWriteOnlyAggregatorsTouchFS(t *testing.T) {
	const ranks, ppn = 8, 2 // 4 nodes → 4 default aggregators
	res := run(t, ranks, ppn, func(ctx *harness.Ctx) error {
		f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/coll", ModeCreate|ModeWronly, Options{})
		if err != nil {
			return err
		}
		payload := bytes.Repeat([]byte{byte('a' + ctx.Rank)}, 100)
		if err := f.WriteAtAll(int64(ctx.Rank)*100, payload); err != nil {
			return err
		}
		return f.Close()
	})
	// Count which ranks issued POSIX writes.
	writers := map[int32]bool{}
	for _, rec := range res.Trace.Filter(func(r *recorder.Record) bool { return r.IsWriteOp() }) {
		writers[rec.Rank] = true
	}
	if len(writers) != 4 {
		t.Fatalf("expected 4 aggregator writers, got %d: %v", len(writers), writers)
	}
	for w := range writers {
		if w%2 != 0 { // node leaders are even ranks with ppn=2
			t.Fatalf("non-leader rank %d wrote", w)
		}
	}
	// All data must have landed correctly.
	info, _, err := res.FS.Stat("/coll")
	if err != nil || info.Size != 800 {
		t.Fatalf("size %d, %v", info.Size, err)
	}
}

func TestCollectiveWriteDataIntegrity(t *testing.T) {
	res := run(t, 6, 3, func(ctx *harness.Ctx) error {
		f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/ci", ModeCreate|ModeRdwr, Options{CBNodes: 2})
		if err != nil {
			return err
		}
		payload := bytes.Repeat([]byte{byte('0' + ctx.Rank)}, 10)
		if err := f.WriteAtAll(int64(ctx.Rank)*10, payload); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		got, err := f.ReadAt(0, 60)
		if err != nil {
			return err
		}
		want := []byte("000000000011111111112222222222333333333344444444445555555555")[:60]
		if !bytes.Equal(got, want) {
			ctx.Failf("file content %q, want %q", got, want)
		}
		if err := f.Close(); err != nil {
			return err
		}
		return ctx.Failures()
	})
	_ = res
}

func TestCollectiveWriteWithGaps(t *testing.T) {
	// Ranks 1 and 3 contribute nothing; data is non-contiguous.
	run(t, 4, 2, func(ctx *harness.Ctx) error {
		f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/gaps", ModeCreate|ModeRdwr, Options{CBNodes: 2})
		if err != nil {
			return err
		}
		var payload []byte
		if ctx.Rank%2 == 0 {
			payload = bytes.Repeat([]byte{byte('A' + ctx.Rank)}, 16)
		}
		if err := f.WriteAtAll(int64(ctx.Rank)*100, payload); err != nil {
			return err
		}
		ctx.MPI.Barrier()
		got, err := f.ReadAt(200, 16)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{'C'}, 16)) {
			ctx.Failf("rank2 block = %q", got)
		}
		if err := f.Close(); err != nil {
			return err
		}
		return ctx.Failures()
	})
}

func TestCollectiveReadAtAll(t *testing.T) {
	run(t, 4, 2, func(ctx *harness.Ctx) error {
		f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/cr", ModeCreate|ModeRdwr, Options{})
		if err != nil {
			return err
		}
		if ctx.Rank == 0 {
			if err := f.WriteAt(0, []byte("aaaabbbbccccdddd")); err != nil {
				return err
			}
		}
		ctx.MPI.Barrier()
		got, err := f.ReadAtAll(int64(ctx.Rank)*4, 4)
		if err != nil {
			return err
		}
		want := bytes.Repeat([]byte{byte('a' + ctx.Rank)}, 4)
		if !bytes.Equal(got, want) {
			ctx.Failf("collective read = %q, want %q", got, want)
		}
		if err := f.Close(); err != nil {
			return err
		}
		return ctx.Failures()
	})
}

func TestSetViewDisplacement(t *testing.T) {
	res := run(t, 2, 2, func(ctx *harness.Ctx) error {
		f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/view", ModeCreate|ModeWronly, Options{})
		if err != nil {
			return err
		}
		f.SetView(1000, 0, 0)
		if err := f.WriteAt(int64(ctx.Rank)*8, bytes.Repeat([]byte{'v'}, 8)); err != nil {
			return err
		}
		return f.Close()
	})
	info, _, err := res.FS.Stat("/view")
	if err != nil || info.Size != 1016 {
		t.Fatalf("size with displacement = %d, %v", info.Size, err)
	}
}

func TestIndividualPointerOps(t *testing.T) {
	run(t, 1, 1, func(ctx *harness.Ctx) error {
		f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/ptr", ModeCreate|ModeRdwr, Options{})
		if err != nil {
			return err
		}
		if err := f.Write([]byte("abcd")); err != nil {
			return err
		}
		if err := f.Write([]byte("efgh")); err != nil {
			return err
		}
		f.SeekPtr(0, recorder.SeekSet)
		got, err := f.Read(8)
		if err != nil {
			return err
		}
		if string(got) != "abcdefgh" {
			ctx.Failf("pointer I/O got %q", got)
		}
		if err := f.Close(); err != nil {
			return err
		}
		return ctx.Failures()
	})
}

func TestMPIIOLayerRecordsEmitted(t *testing.T) {
	res := run(t, 2, 2, func(ctx *harness.Ctx) error {
		f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/rec", ModeCreate|ModeWronly, Options{})
		if err != nil {
			return err
		}
		f.WriteAtAll(int64(ctx.Rank)*4, []byte("data"))
		f.Sync()
		f.SetAtomicity(false)
		f.SetSize(100)
		return f.Close()
	})
	seen := map[recorder.Func]int{}
	for _, r := range res.Trace.Filter(func(r *recorder.Record) bool { return r.Layer == recorder.LayerMPIIO }) {
		seen[r.Func]++
	}
	for _, fn := range []recorder.Func{
		recorder.FuncMPIFileOpen, recorder.FuncMPIFileWriteAtAll,
		recorder.FuncMPIFileSync, recorder.FuncMPIFileSetAtomicity,
		recorder.FuncMPIFileSetSize, recorder.FuncMPIFileClose,
	} {
		if seen[fn] == 0 {
			t.Errorf("no MPI-IO record for %v (have %v)", fn, seen)
		}
	}
}

func TestCBNodesCapsAggregators(t *testing.T) {
	run(t, 8, 2, func(ctx *harness.Ctx) error {
		f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/agg", ModeCreate|ModeWronly, Options{CBNodes: 2})
		if err != nil {
			return err
		}
		aggs := f.Aggregators()
		if len(aggs) != 2 || aggs[0] != 0 || aggs[1] != 2 {
			ctx.Failf("aggregators = %v, want [0 2]", aggs)
		}
		if err := f.Close(); err != nil {
			return err
		}
		return ctx.Failures()
	})
}

func TestDoubleCloseFails(t *testing.T) {
	run(t, 1, 1, func(ctx *harness.Ctx) error {
		f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/dc", ModeCreate|ModeWronly, Options{})
		if err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := f.Close(); err == nil {
			ctx.Failf("double close accepted")
		}
		return ctx.Failures()
	})
}

// TestCollectiveWriteReadSharedSlots drives two-phase I/O on 8 ranks over
// the shared Allgather slots: each rank overwrites its write buffer as soon
// as WriteAtAll returns (under -race this catches any rank still reading
// it), contributions overlap their neighbours', and ReadAtAll requests
// straddle aggregator domains.
func TestCollectiveWriteReadSharedSlots(t *testing.T) {
	const ranks, ppn, block = 8, 2, 48
	run(t, ranks, ppn, func(ctx *harness.Ctx) error {
		f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/shared", ModeCreate|ModeRdwr, Options{CBBufferSize: 40})
		if err != nil {
			return err
		}
		for round := 0; round < 3; round++ {
			buf := bytes.Repeat([]byte{byte('A' + round*ranks + ctx.Rank)}, block)
			// Rank r writes [32r, 32r+48): its last 16 bytes overlap rank r+1.
			if err := f.WriteAtAll(int64(ctx.Rank)*32, buf); err != nil {
				return err
			}
			for i := range buf {
				buf[i] = 0
			}
		}
		ctx.MPI.Barrier()
		off, n := int64(ctx.Rank)*32+7, int64(40) // ends inside the file
		got, err := f.ReadAtAll(off, n)
		if err != nil {
			return err
		}
		want, err := f.ReadAt(off, n)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			ctx.Failf("collective read %q, independent read %q", got, want)
		}
		if err := f.Close(); err != nil {
			return err
		}
		return ctx.Failures()
	})
}

// TestCollectiveWriteAfterDetach pins the departed-slot rule: a rank that
// leaves the job deposits no request, its Allgather slot stays nil, and the
// survivors' collective writes skip it instead of failing. The file ends up
// holding exactly the survivors' second-round bytes, with a hole where the
// departed rank's block would have been.
func TestCollectiveWriteAfterDetach(t *testing.T) {
	const ranks, ppn, block, gone = 8, 2, 24, 3 // rank 3 is not an aggregator
	errGone := errors.New("rank left the job")
	res, err := harness.Run(harness.Config{Ranks: ranks, PPN: ppn, Semantics: pfs.Strong},
		recorder.Meta{App: "mpiio-test", Library: "MPI-IO"}, func(ctx *harness.Ctx) error {
			f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/detach", ModeCreate|ModeRdwr, Options{})
			if err != nil {
				return err
			}
			if ctx.Rank == gone {
				ctx.MPI.Detach()
				return errGone
			}
			for round := 0; round < 2; round++ {
				buf := bytes.Repeat([]byte{byte('A' + round*ranks + ctx.Rank)}, block)
				if err := f.WriteAtAll(int64(ctx.Rank)*block, buf); err != nil {
					return err
				}
			}
			return f.Close()
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errs) != 1 || !errors.Is(res.Errs[0], errGone) {
		t.Fatalf("want only the departed rank's error, got %v", res.Errs)
	}
	want := make([]byte, ranks*block)
	for r := 0; r < ranks; r++ {
		if r != gone {
			copy(want[r*block:], bytes.Repeat([]byte{byte('A' + ranks + r)}, block))
		}
	}
	if got := res.FS.ContentDump()["/detach"]; !bytes.Equal(got, want) {
		t.Fatalf("file after detach:\n got %q\nwant %q", got, want)
	}
}
