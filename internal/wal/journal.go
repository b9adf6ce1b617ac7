package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/frame"
	"repro/internal/storage"
)

// On-disk record framing for the host-side write-ahead log: one frame per
// acknowledged write (DESIGN.md §17), tagged "WALR" — the ckpt journal's
// shape, so the torn-tail salvage argument carries over. The payload is
//
//	uvarint len(path) | path | uvarint off | uvarint now | data
//
// (data length is the payload remainder — no separate length field).
// Records are appended then fsync'd before the write is acknowledged, so
// after a crash at most the final record is torn; recovery keeps every
// complete record and truncates the tail.
const (
	recTag     = "WALR"
	maxPayload = 1 << 30
)

// Record is one acknowledged-but-possibly-undrained write as persisted in a
// per-rank log file.
type Record struct {
	Path string
	Off  int64
	Now  uint64
	Data []byte
}

func encodePayload(rec Record) ([]byte, error) {
	if rec.Off < 0 {
		return nil, fmt.Errorf("wal: negative offset %d", rec.Off)
	}
	buf := make([]byte, 0, 2*binary.MaxVarintLen64+binary.MaxVarintLen64+len(rec.Path)+len(rec.Data))
	buf = binary.AppendUvarint(buf, uint64(len(rec.Path)))
	buf = append(buf, rec.Path...)
	buf = binary.AppendUvarint(buf, uint64(rec.Off))
	buf = binary.AppendUvarint(buf, rec.Now)
	buf = append(buf, rec.Data...)
	if len(buf) > maxPayload {
		return nil, fmt.Errorf("wal: record payload %d exceeds %d", len(buf), maxPayload)
	}
	return buf, nil
}

func decodePayload(payload []byte) (Record, error) {
	plen, n := binary.Uvarint(payload)
	if n <= 0 || plen > uint64(len(payload)-n) {
		return Record{}, errors.New("wal: corrupt path length")
	}
	rest := payload[n:]
	path := string(rest[:plen])
	rest = rest[plen:]
	off, n := binary.Uvarint(rest)
	if n <= 0 || off > math.MaxInt64 {
		// The encoder refuses negative offsets, so one that decodes negative
		// was never acknowledged.
		return Record{}, errors.New("wal: corrupt offset")
	}
	rest = rest[n:]
	now, n := binary.Uvarint(rest)
	if n <= 0 {
		return Record{}, errors.New("wal: corrupt timestamp")
	}
	data := rest[n:]
	return Record{Path: path, Off: int64(off), Now: now, Data: data}, nil
}

// appendPoints names the kill point of each frame.Append stage. The torn
// point is what lets the kill-and-recover harness manufacture a genuinely
// torn tail; before/after-fsync bracket the durability boundary — a write is
// acked iff the crash lands after wal.append.after-fsync.
var appendPoints = [...]string{
	frame.Begin:      "wal.append.begin",
	frame.Torn:       "wal.append.torn",
	frame.BeforeSync: "wal.append.before-fsync",
	frame.AfterSync:  "wal.append.after-fsync",
}

func hitAppendPoint(s frame.Stage) { storage.HitKillPoint(appendPoints[s]) }

// appendRecord frames, appends and (unless noFsync) fsyncs one record.
func appendRecord(f storage.File, rec Record, noFsync bool) (int64, error) {
	payload, err := encodePayload(rec)
	if err != nil {
		return 0, err
	}
	var sync func() error
	if !noFsync {
		// Host wall time, not simulated: the one genuinely nondeterministic
		// instrument in the package, same caveat as ckpt.journal.fsync_ns.
		sync = func() error {
			start := time.Now()
			err := f.Sync()
			appendFsyncNS.Observe(time.Since(start).Nanoseconds())
			return err
		}
	}
	n, err := frame.Append(f, recTag, payload, hitAppendPoint, sync)
	if err != nil {
		return 0, err
	}
	appendRecords.Inc()
	appendBytes.Add(int64(n))
	return int64(n), nil
}

// RecoverStats summarizes one log file's salvage.
type RecoverStats struct {
	Records   int   // complete records kept
	Dropped   int   // torn/corrupt tail records discarded (≤1 under append discipline)
	TailBytes int64 // bytes past the last complete record
}

func (s RecoverStats) String() string {
	return fmt.Sprintf("records=%d dropped=%d tail_bytes=%d", s.Records, s.Dropped, s.TailBytes)
}

// recoverRecords decodes the valid prefix of a log stream: every complete
// record in append order, plus the offset the prefix ends at. A record that
// does not decode ends the prefix like a checksum failure — anything after
// it was never acknowledged.
func recoverRecords(r io.Reader) ([]Record, RecoverStats, int64, error) {
	var recs []Record
	end, s, err := frame.Scan(r, recTag, maxPayload, func(p []byte) error {
		rec, err := decodePayload(p)
		if err == nil {
			recs = append(recs, rec)
		}
		return err
	})
	return recs, RecoverStats{Records: s.Frames, Dropped: s.Dropped, TailBytes: s.TailBytes}, end, err
}
