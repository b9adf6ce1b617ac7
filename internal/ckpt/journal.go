package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/frame"
	"repro/internal/storage"
)

// The journal is an append-only write-ahead log of completed work units,
// one frame per unit (DESIGN.md §17) tagged "CKJR", with
// payload
//
//	uvarint key length | key | blob
//
// Commit discipline (the paper's commit-semantics model, applied to our own
// durability): a record exists once Append's fsync returns, and not before.
// Recovery scans records in order, keeping the last blob per key, and stops
// at the first torn or corrupt record — which, under append discipline, can
// only be the tail left by a crash mid-append. The tail is measured,
// reported, and truncated away so subsequent appends land on a clean
// boundary.
const (
	recTag = "CKJR"
	// maxPayload bounds a declared payload length: recovery must not trust a
	// torn length field into allocating gigabytes.
	maxPayload = 1 << 30
)

// RecoverStats reports what journal recovery salvaged and what it dropped.
type RecoverStats struct {
	Records   int   // committed records recovered (including superseded keys)
	Keys      int   // distinct keys after last-wins replay
	Dropped   int   // torn/corrupt tail records cut (0 or 1 under append discipline)
	TailBytes int64 // bytes truncated with the torn tail
}

// Degraded reports whether recovery had to cut anything.
func (s RecoverStats) Degraded() bool { return s.Dropped > 0 || s.TailBytes > 0 }

func (s RecoverStats) String() string {
	if !s.Degraded() {
		return fmt.Sprintf("journal: %d record(s), %d key(s), clean tail", s.Records, s.Keys)
	}
	return fmt.Sprintf("journal: %d record(s), %d key(s); salvage cut %d torn record(s), %d byte(s)",
		s.Records, s.Keys, s.Dropped, s.TailBytes)
}

// encodePayload renders key + blob as a record payload.
func encodePayload(key string, blob []byte) []byte {
	p := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+len(key)+len(blob)), uint64(len(key)))
	return append(append(p, key...), blob...)
}

// decodePayload splits a record payload back into key + blob.
func decodePayload(p []byte) (string, []byte, error) {
	klen, n := binary.Uvarint(p)
	if n <= 0 || klen > uint64(len(p)-n) {
		return "", nil, errors.New("ckpt: corrupt payload key length")
	}
	return string(p[n : n+int(klen)]), p[n+int(klen):], nil
}

// appendPoints names the kill point of each frame.Append stage, so a
// crash-recovery harness can die with the journal untouched (begin), with a
// torn tail (torn), with a complete-but-unsynced record (before-fsync), or
// just after the commit (after-fsync).
var appendPoints = [...]string{
	frame.Begin:      "ckpt.append.begin",
	frame.Torn:       "ckpt.append.torn",
	frame.BeforeSync: "ckpt.append.before-fsync",
	frame.AfterSync:  "ckpt.append.after-fsync",
}

func hitAppendPoint(s frame.Stage) { faults.Hit(appendPoints[s]) }

// appendRecord writes one record to f and makes it durable.
func appendRecord(f storage.File, key string, blob []byte) (int64, error) {
	payload := encodePayload(key, blob)
	if len(payload) > maxPayload {
		return 0, fmt.Errorf("ckpt: record for %q is %d bytes, over the %d limit", key, len(payload), maxPayload)
	}
	n, err := frame.Append(f, recTag, payload, hitAppendPoint, func() error {
		start := time.Now()
		err := f.Sync()
		if err == nil {
			journalFsyncNS.Observe(time.Since(start).Nanoseconds())
		}
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("ckpt: journal append: %w", err)
	}
	journalAppends.Inc()
	journalBytes.Add(int64(n))
	return int64(n), nil
}

// replayJournal returns the payload callback that replays records into
// byKey, last blob per key winning. A payload that does not decode ends the
// valid prefix like a checksum failure.
func replayJournal(byKey map[string][]byte) func([]byte) error {
	return func(p []byte) error {
		key, blob, err := decodePayload(p)
		if err == nil {
			byKey[key] = blob
		}
		return err
	}
}

// recoverStats completes frame scan stats with the distinct-key count.
func recoverStats(s frame.Stats, keys int) RecoverStats {
	return RecoverStats{Records: s.Frames, Keys: keys, Dropped: s.Dropped, TailBytes: s.TailBytes}
}
