package colfmt

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/recorder"
)

// goldenRecords is a fixed record set spanning several 7-record blocks:
// repeated and new dictionary strings, pathless ops, renames, negative and
// multi-valued args, and a non-monotone timestamp.
func goldenRecords() []recorder.Record {
	paths := []string{"/ckpt/a.h5", "/ckpt/b.h5", "/out/log", ""}
	recs := make([]recorder.Record, 0, 30)
	t := uint64(1000)
	for i := 0; i < 30; i++ {
		r := recorder.Record{
			Rank:   3,
			Layer:  recorder.LayerPOSIX,
			Func:   recorder.FuncPwrite,
			TStart: t,
			TEnd:   t + uint64(i%4)*5,
			Path:   paths[i%len(paths)],
			Args:   []int64{int64(i), int64(i) * 4096, -int64(i % 3)},
		}
		switch i % 6 {
		case 1:
			r.Func = recorder.FuncRename
			r.Path2 = fmt.Sprintf("/ckpt/renamed-%d", i/6)
			r.Args = nil
		case 3:
			r.Layer = recorder.LayerHDF5
			r.Func = recorder.FuncH5Dwrite
			r.Args = []int64{int64(i)}
		case 5:
			r.Func = recorder.FuncClose
			r.Path = ""
			r.Args = nil
		}
		recs = append(recs, r)
		if i == 17 {
			t -= 40 // clock step backwards: a negative timestamp delta
		} else {
			t += uint64(i%5) * 11
		}
	}
	return recs
}

// TestEncodeStreamGolden pins the SEMFSCOL1 stream bytes. The golden was
// written by the encoder as it stood before block framing moved into
// package frame; any diff is an on-disk layout change.
func TestEncodeStreamGolden(t *testing.T) {
	recs := goldenRecords()
	var buf bytes.Buffer
	if err := EncodeStream(&buf, 3, recs, EncodeOptions{BlockRecords: 7}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_stream.col"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("stream drifted from golden: %d bytes vs %d\n got: %q\nwant: %q",
			buf.Len(), len(want), buf.Bytes(), want)
	}
	r, err := NewReader(want)
	if err != nil {
		t.Fatal(err)
	}
	var got []recorder.Record
	c := r.Cursor()
	for c.Next() {
		rec := *c.Record()
		rec.Args = append([]int64(nil), rec.Args...)
		if len(rec.Args) == 0 {
			rec.Args = nil
		}
		got = append(got, rec)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	requireRecordsEqual(t, recs, got)
	if s := c.Stats(); s.Blocks != 5 {
		t.Errorf("golden decoded in %d blocks, want 5", s.Blocks)
	}
}
