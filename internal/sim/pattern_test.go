package sim

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// refMix is splitmix64's finalizer, written out independently of mix64.
func refMix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// refPattern is the one-word-at-a-time reference for Pattern: it computes
// each word from its index alone and truncates the last one.
func refPattern(n int, key uint64) []byte {
	out := make([]byte, 0, n+8)
	seed := refMix(key)
	for j := uint64(1); len(out) < n; j++ {
		out = binary.LittleEndian.AppendUint64(out, refMix(seed+j*0x9e3779b97f4a7c15))
	}
	return out[:n]
}

func pattern(n int, key uint64) []byte {
	b := make([]byte, n)
	Pattern(b, key)
	return b
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

func TestPatternKnownAnswer(t *testing.T) {
	// Key 0 seeds the stream at mix64(0) = 0, so the words are splitmix64's
	// published output for seed 0.
	got := pattern(24, 0)
	for j, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if w := binary.LittleEndian.Uint64(got[8*j:]); w != want {
			t.Fatalf("word %d = %#x, want %#x", j, w, want)
		}
	}
}

func TestPatternDeterministic(t *testing.T) {
	for _, key := range []uint64{0, 1, 0xdeadbeef, ^uint64(0)} {
		a, b := pattern(4096, key), pattern(4096, key)
		if !bytes.Equal(a, b) {
			t.Fatalf("key %#x: two calls differ", key)
		}
		// Pattern overwrites whatever dst held.
		dirty := bytes.Repeat([]byte{0xa5}, 4096)
		Pattern(dirty, key)
		if !bytes.Equal(dirty, a) {
			t.Fatalf("key %#x: result depends on prior dst contents", key)
		}
	}
}

func TestPatternPrefix(t *testing.T) {
	const key = 0x5eed
	full := pattern(4096+17, key)
	for n := 0; n <= 4096; n += 7 {
		for k := 1; k <= 17; k++ {
			if got := pattern(n+k, key); !bytes.Equal(got[:n], full[:n]) || !bytes.Equal(got, full[:n+k]) {
				t.Fatalf("Pattern(%d) is not a prefix of Pattern(%d)", n, n+k)
			}
		}
	}
}

func TestPatternTails(t *testing.T) {
	for n := 0; n <= 17; n++ {
		for _, key := range []uint64{0, 7, 1 << 63} {
			if got, want := pattern(n, key), refPattern(n, key); !bytes.Equal(got, want) {
				t.Fatalf("n=%d key=%#x: got %x, want %x", n, key, got, want)
			}
		}
	}
}

// TestPatternKeySeparation: neighbouring keys (off by one, by one bit, by
// the golden-ratio stride callers multiply indices with) give streams that
// share no word at any shift, so a stale read of a neighbour never matches.
func TestPatternKeySeparation(t *testing.T) {
	base := uint64(0x243f6a8885a308d3)
	keys := []uint64{base, base + 1, base - 1, base ^ 1<<32, base ^ 1<<63,
		base + 0x9e3779b97f4a7c15, base + 0xbf58476d1ce4e5b9}
	for i := range keys {
		for j := range keys {
			if i == j {
				continue
			}
			if at := sharedWord(pattern(4096, keys[i]), pattern(4096, keys[j])); at >= 0 {
				t.Fatalf("keys %#x and %#x share the word at offset %d", keys[i], keys[j], at)
			}
		}
	}
}

func FuzzPattern(f *testing.F) {
	f.Add(uint64(0), uint16(0))
	f.Add(uint64(1), uint16(13))
	f.Add(^uint64(0), uint16(4096))
	f.Fuzz(func(t *testing.T, key uint64, n uint16) {
		if got, want := pattern(int(n), key), refPattern(int(n), key); !bytes.Equal(got, want) {
			t.Fatalf("n=%d key=%#x: kernel and reference differ", n, key)
		}
	})
}

// BenchmarkPattern fills one 4 KiB record, the WAL burst's block size.
func BenchmarkPattern(b *testing.B) {
	buf := make([]byte, 4096)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Pattern(buf, uint64(i))
	}
}
