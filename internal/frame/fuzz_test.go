package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// fuzzTags are the tags of the four logs built on frames: the ckpt journal,
// the write-ahead log, the flight-recorder dump and a columnar data block.
var fuzzTags = []string{"CKJR", "WALR", "FLTR", "\x01"}

const fuzzMaxPayload = 1 << 16

var errReject = errors.New("rejected")

// fuzzCodec stands in for a payload codec: it rejects payloads starting
// with 0xEE, which must end the valid prefix like a checksum failure.
func fuzzCodec(p []byte) error {
	if len(p) > 0 && p[0] == 0xEE {
		return errReject
	}
	return nil
}

// fuzzSeeds returns one valid log per tag, with payloads shaped like each
// log's own: key|blob, path|off|now|data, a flight event, a column block.
func fuzzSeeds() [][]byte {
	ckpt := binary.AppendUvarint(nil, 7)
	ckpt = append(ckpt, "unit-01result"...)
	wal := binary.AppendUvarint(nil, 2)
	wal = append(wal, "/f"...)
	wal = binary.AppendUvarint(wal, 4096)
	wal = binary.AppendUvarint(wal, 120)
	wal = append(wal, "data"...)
	event := make([]byte, 53)
	event[0] = 1
	binary.LittleEndian.PutUint64(event[1:], 42)
	block := []byte{3, 1, 5, '/', 'c', 'k', 'p', 't', 1, 7, 1, 1, 1, 1, 2, 0, 0}
	payloads := [][]byte{ckpt, wal, event, block}
	var logs [][]byte
	for i, tag := range fuzzTags {
		log := AppendFrame(nil, tag, payloads[i])
		log = AppendFrame(log, tag, nil)
		log = AppendFrame(log, tag, payloads[(i+1)%len(payloads)])
		logs = append(logs, log)
	}
	return logs
}

// FuzzFrame checks the framing contract on arbitrary bytes under each tag:
// Scan never panics and never reports damage as an error; the valid prefix
// plus the tail is the whole input; rescanning the prefix gives the same
// frames with no tail; and zero-copy Parse walks to the same prefix with the
// same payloads.
func FuzzFrame(f *testing.F) {
	for i, log := range fuzzSeeds() {
		tag := uint8(i)
		f.Add(log, tag)
		f.Add(log[:len(log)-3], tag)                    // torn payload
		f.Add(log[:HeaderLen(len(fuzzTags[i]))-1], tag) // torn header
		flipped := bytes.Clone(log)
		flipped[len(flipped)-2] ^= 0x10 // bit flip in the last payload
		f.Add(flipped, tag)
		flipped = bytes.Clone(log)
		flipped[len(fuzzTags[i])] ^= 0x80 // bit flip in the first length
		f.Add(flipped, tag)
		flipped = bytes.Clone(log)
		flipped[HeaderLen(len(fuzzTags[i]))] ^= 0x01 // bit flip in the first payload
		f.Add(flipped, tag)
		flipped = bytes.Clone(log)
		flipped[len(fuzzTags[i])+3] = 0xff // first length over the bound
		f.Add(flipped, tag)
	}
	f.Fuzz(func(t *testing.T, data []byte, tagIdx uint8) {
		tag := fuzzTags[int(tagIdx)%len(fuzzTags)]
		var scanned [][]byte
		end, s, err := Scan(bytes.NewReader(data), tag, fuzzMaxPayload, func(p []byte) error {
			if err := fuzzCodec(p); err != nil {
				return err
			}
			scanned = append(scanned, p)
			return nil
		})
		if err != nil {
			t.Fatalf("damage reported as an error: %v", err)
		}
		if end+s.TailBytes != int64(len(data)) {
			t.Fatalf("prefix %d + tail %d != input %d", end, s.TailBytes, len(data))
		}
		if s.Frames != len(scanned) || (s.Dropped == 1) != (s.TailBytes > 0) || s.Dropped > 1 {
			t.Fatalf("inconsistent stats %+v for %d frames", s, len(scanned))
		}

		var rescanned [][]byte
		end2, s2, err := Scan(bytes.NewReader(data[:end]), tag, fuzzMaxPayload, func(p []byte) error {
			rescanned = append(rescanned, p)
			return fuzzCodec(p)
		})
		if err != nil || end2 != end || s2.TailBytes != 0 || s2.Dropped != 0 || !equalFrames(rescanned, scanned) {
			t.Fatalf("rescan of the prefix: end %d stats %+v err %v, want end %d and the same %d frames",
				end2, s2, err, end, len(scanned))
		}

		var parsed [][]byte
		off := 0
		for {
			gotTag, payload, n, err := Parse(data[off:], len(tag), fuzzMaxPayload)
			if err != nil || string(gotTag) != tag || fuzzCodec(payload) != nil {
				break
			}
			parsed = append(parsed, payload)
			off += n
		}
		if int64(off) != end || !equalFrames(parsed, scanned) {
			t.Fatalf("Parse walked to %d with %d frames; Scan to %d with %d", off, len(parsed), end, len(scanned))
		}
	})
}

// equalFrames compares payload lists, treating nil and empty alike.
func equalFrames(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
