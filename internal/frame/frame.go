// Package frame is the durable framing every log in the repo shares: the
// ckpt journal, the write-ahead log, the flight-recorder dump and the
// columnar trace blocks. A frame is
//
//	tag (1 or 4 bytes) | u32le payload length | u32le CRC-32C(payload) | payload
//
// and a log is a sequence of frames. Under append discipline only the last
// frame can be damaged — a crash mid-append tears it — so readers keep the
// valid prefix and cut everything from the first bad frame on. This package
// is the only code that knows the header layout and the checksum; the logs
// above it are payload codecs.
package frame

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// HeaderLen is the header size of a frame with a tagLen-byte tag.
func HeaderLen(tagLen int) int { return tagLen + 4 + 4 }

// AppendHeader appends the header of the frame carrying payload under tag.
// Writing the header then the payload is the same as writing AppendFrame's
// bytes; encoders with the payload already in a buffer of their own use it
// to skip the copy.
func AppendHeader(dst []byte, tag string, payload []byte) []byte {
	dst = append(dst, tag...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
}

// AppendFrame appends the complete frame carrying payload under tag.
func AppendFrame(dst []byte, tag string, payload []byte) []byte {
	return append(AppendHeader(dst, tag, payload), payload...)
}

// Damage is the typed error Parse returns for a frame it cannot accept.
type Damage uint8

const (
	// Short: the bytes end inside the header or the payload (a torn tail).
	Short Damage = iota + 1
	// TooLarge: the declared payload length exceeds the caller's bound, so
	// the length field cannot be trusted.
	TooLarge
	// BadCRC: the payload is complete but does not match its checksum.
	BadCRC
)

func (d Damage) Error() string {
	return [...]string{Short: "frame: short", TooLarge: "frame: payload length over bound", BadCRC: "frame: CRC mismatch"}[d]
}

// Parse decodes the frame at the start of b without copying: tag and
// payload alias b, and n is the frame's full length. Checks run in layout
// order — header present, length within maxPayload, payload present,
// checksum — and the first failure is returned as a Damage. On BadCRC tag,
// payload and n are still set, so a reader that can resync past a corrupt
// frame knows where the next one starts; on Short and TooLarge only the tag
// (when present) is.
func Parse(b []byte, tagLen, maxPayload int) (tag, payload []byte, n int, err error) {
	hl := HeaderLen(tagLen)
	if len(b) < hl {
		return nil, nil, 0, Short
	}
	tag = b[:tagLen]
	plen := binary.LittleEndian.Uint32(b[tagLen:])
	if uint64(plen) > uint64(maxPayload) {
		return tag, nil, 0, TooLarge
	}
	if uint64(plen) > uint64(len(b)-hl) {
		return tag, nil, 0, Short
	}
	n = hl + int(plen)
	payload = b[hl:n]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[tagLen+4:]) {
		return tag, payload, n, BadCRC
	}
	return tag, payload, n, nil
}

// Stats is what a Scan kept and cut.
type Stats struct {
	Frames    int   // frames in the valid prefix
	Dropped   int   // frames cut at the end of the prefix: 0, or 1 when a tail was cut
	TailBytes int64 // bytes after the valid prefix
}

// Scan reads frames tagged tag from r until the first one that is torn,
// foreign, longer than maxPayload, fails its checksum or is rejected by fn,
// and returns the offset where the valid prefix ends (the point to truncate
// to before appending again). fn sees each payload of the prefix in order
// and may keep it: every payload is a fresh allocation. Damage is counted in
// Stats, never returned; the error is only ever one of r's.
func Scan(r io.Reader, tag string, maxPayload int, fn func(payload []byte) error) (int64, Stats, error) {
	br := bufio.NewReader(r)
	var (
		stats Stats
		end   int64 // offset just past the last accepted frame
		read  int64 // bytes consumed from br
		hdr   = make([]byte, HeaderLen(len(tag)))
	)
	for {
		n, err := io.ReadFull(br, hdr)
		read += int64(n)
		if err == io.EOF {
			break // clean end on a frame boundary
		}
		if err != nil && err != io.ErrUnexpectedEOF {
			return end, stats, err
		}
		if err != nil || string(hdr[:len(tag)]) != tag {
			stats.Dropped++ // torn header or foreign bytes
			break
		}
		plen := binary.LittleEndian.Uint32(hdr[len(tag):])
		if uint64(plen) > uint64(maxPayload) {
			stats.Dropped++
			break
		}
		payload := make([]byte, plen)
		n, err = io.ReadFull(br, payload)
		read += int64(n)
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return end, stats, err
		}
		if err != nil || crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[len(tag)+4:]) {
			stats.Dropped++ // torn or corrupt payload
			break
		}
		if fn(payload) != nil {
			stats.Dropped++
			break
		}
		stats.Frames++
		end = read
	}
	// Everything after the prefix is tail damage: drain it so the count
	// covers bytes never read.
	rest, err := io.Copy(io.Discard, br)
	stats.TailBytes = read + rest - end
	return end, stats, err
}

// File is a log file opened for recovery and further appends.
type File interface {
	io.Reader
	io.Seeker
	Truncate(size int64) error
}

// Salvage scans f from its current offset (see Scan), truncates the torn
// tail and leaves f positioned at the end of the valid prefix, so the next
// Append lands on a frame boundary.
func Salvage(f File, tag string, maxPayload int, fn func(payload []byte) error) (Stats, error) {
	end, stats, err := Scan(f, tag, maxPayload, fn)
	if err != nil {
		return stats, err
	}
	if err := f.Truncate(end); err != nil {
		return stats, fmt.Errorf("frame: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		return stats, err
	}
	return stats, nil
}

// Stage is a point in Append's commit sequence, reported to its kill hook.
type Stage uint8

const (
	Begin      Stage = iota // nothing written yet
	Torn                    // the first half of the frame is written
	BeforeSync              // the whole frame is written, not yet synced
	AfterSync               // committed (or, without sync, fully written)
)

// Append commits one frame to w. It writes the frame in two halves and
// calls kill at every Stage, so a crash harness can die with the log
// untouched, torn mid-frame, complete but unsynced, or just after the
// commit. sync, when non-nil, makes the frame durable between BeforeSync
// and AfterSync; nil appends without an fsync. It returns the frame length.
func Append(w io.Writer, tag string, payload []byte, kill func(Stage), sync func() error) (int, error) {
	rec := AppendFrame(make([]byte, 0, HeaderLen(len(tag))+len(payload)), tag, payload)
	kill(Begin)
	half := len(rec) / 2
	if _, err := w.Write(rec[:half]); err != nil {
		return 0, err
	}
	kill(Torn)
	if _, err := w.Write(rec[half:]); err != nil {
		return 0, err
	}
	kill(BeforeSync)
	if sync != nil {
		if err := sync(); err != nil {
			return 0, err
		}
	}
	kill(AfterSync)
	return len(rec), nil
}
