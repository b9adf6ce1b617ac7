package apps

import (
	"bytes"
	"testing"
)

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

// TestFillStreamsSeparate: checkFill only catches a stale read if the record
// it expects differs from its neighbours. Payloads of adjacent steps (dumps,
// frames, checkpoints) and adjacent ranks share no 8-byte word at any shift,
// so even a shifted or partial stale read mismatches.
func TestFillStreamsSeparate(t *testing.T) {
	const n = 4096
	for _, tag := range []string{"hacc", "enzo:Density", "paradis", "wave", "trjhdr", "lmp"} {
		for _, at := range [][2]int{{0, 0}, {3, 5}, {15, 63}} {
			r, s := at[0], at[1]
			base := fill(tag, r, s, n)
			for _, nb := range [][2]int{{r, s + 1}, {r + 1, s}, {r + 1, s + 1}, {r + 1, s - 1}} {
				if off := sharedWord(base, fill(tag, nb[0], nb[1], n)); off >= 0 {
					t.Fatalf("%s: (rank %d, step %d) and (rank %d, step %d) share the word at %d",
						tag, r, s, nb[0], nb[1], off)
				}
			}
		}
	}
}
