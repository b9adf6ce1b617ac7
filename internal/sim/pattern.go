package sim

import "encoding/binary"

// gamma is splitmix64's stream increment (the golden-ratio constant).
const gamma = 0x9e3779b97f4a7c15

// mix64 is splitmix64's output finalizer: a bijection on uint64 that
// avalanches every input bit into every output bit.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Pattern fills dst with the deterministic content stream named by key:
// word j (8 bytes, little-endian) is mix64(mix64(key) + (j+1)·gamma), and a
// short tail takes the leading bytes of the next word. The simulated I/O
// layers generate their payloads here, so a reader that knows the key
// regenerates the expected bytes and a stale or torn read shows as a
// mismatch. Pattern(n) is a prefix of Pattern(n+k) for the same key. No word
// depends on the previous one's output, so the loop costs two multiplies and
// one 8-byte store per word.
func Pattern(dst []byte, key uint64) {
	w := mix64(key)
	for ; len(dst) >= 8; dst = dst[8:] {
		w += gamma
		binary.LittleEndian.PutUint64(dst, mix64(w))
	}
	if len(dst) > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], mix64(w+gamma))
		copy(dst, tail[:])
	}
}
