package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func iv(t uint64, rank int32, os, oe int64, write bool) Interval {
	return Interval{T: t, TEnd: t + 1, Rank: rank, Os: os, Oe: oe, Write: write,
		To: NoTime, TcCommit: NoTime, TcClose: NoTime}
}

func collectPairs(ivs []Interval, detect func([]Interval, func(OverlapPair)) RankPairTable) ([]OverlapPair, RankPairTable) {
	var pairs []OverlapPair
	table := detect(ivs, func(p OverlapPair) { pairs = append(pairs, p) })
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	return pairs, table
}

func TestOverlapBasic(t *testing.T) {
	ivs := []Interval{
		iv(10, 0, 0, 100, true),   // 0
		iv(20, 1, 50, 150, false), // 1: overlaps 0
		iv(30, 2, 100, 200, true), // 2: touches 0 (no overlap), overlaps 1
		iv(40, 3, 500, 600, true), // 3: disjoint
	}
	pairs, table := collectPairs(ivs, DetectOverlaps)
	// Candidate pairs (earlier op is a write): (0,1) write-read, (1,2) has
	// earlier=1 which is a read → skipped.
	want := []OverlapPair{{A: 0, B: 1}}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("pairs = %v, want %v", pairs, want)
	}
	if table[rankKey(0, 1)] != 1 || table[rankKey(1, 2)] != 1 {
		t.Fatalf("table = %v", table)
	}
	if table[rankKey(0, 2)] != 0 || table[rankKey(0, 3)] != 0 {
		t.Fatalf("touching or disjoint intervals counted as overlap: %v", table)
	}
}

func TestOverlapContained(t *testing.T) {
	ivs := []Interval{
		iv(10, 0, 0, 1000, true),
		iv(20, 1, 400, 500, true), // fully inside
	}
	pairs, _ := collectPairs(ivs, DetectOverlaps)
	if len(pairs) != 1 || pairs[0] != (OverlapPair{A: 0, B: 1}) {
		t.Fatalf("pairs = %v", pairs)
	}
}

func TestOverlapTimeOrdersPairs(t *testing.T) {
	// Later-by-offset but earlier-by-time: pair must be time-ordered.
	ivs := []Interval{
		iv(50, 0, 0, 100, false), // read at t=50
		iv(10, 1, 50, 60, true),  // write at t=10
	}
	pairs, _ := collectPairs(ivs, DetectOverlaps)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %v", pairs)
	}
	if pairs[0].A != 1 || pairs[0].B != 0 {
		t.Fatalf("pair not time-ordered: %v", pairs[0])
	}
}

func TestOverlapSkipsReadReadPairs(t *testing.T) {
	ivs := []Interval{
		iv(10, 0, 0, 100, false),
		iv(20, 1, 0, 100, false),
	}
	pairs, table := collectPairs(ivs, DetectOverlaps)
	if len(pairs) != 0 {
		t.Fatalf("read-read pair materialized: %v", pairs)
	}
	if table[rankKey(0, 1)] != 1 {
		t.Fatal("read-read overlap must still count in the rank table")
	}
}

func TestOverlapMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		ivs := make([]Interval, n)
		for i := range ivs {
			os := int64(rng.Intn(500))
			ivs[i] = iv(uint64(rng.Intn(1000)), int32(rng.Intn(4)), os, os+int64(rng.Intn(100)+1), rng.Intn(2) == 0)
		}
		gotPairs, gotTable := collectPairs(ivs, DetectOverlaps)
		wantPairs, wantTable := collectPairs(ivs, DetectOverlapsBruteForce)
		if !reflect.DeepEqual(gotPairs, wantPairs) {
			t.Fatalf("trial %d: pair mismatch\n got %v\nwant %v\nivs=%v", trial, gotPairs, wantPairs, ivs)
		}
		if len(gotTable) != len(wantTable) {
			t.Fatalf("trial %d: table size mismatch %v vs %v", trial, gotTable, wantTable)
		}
		for k, v := range wantTable {
			if gotTable[k] != v {
				t.Fatalf("trial %d: table[%v] = %d, want %d", trial, k, gotTable[k], v)
			}
		}
	}
}

func TestOverlapEmptyAndSingle(t *testing.T) {
	if got := DetectOverlaps(nil, nil); len(got) != 0 {
		t.Fatal("empty input should produce empty table")
	}
	single := []Interval{iv(1, 0, 0, 10, true)}
	if got := DetectOverlaps(single, func(OverlapPair) { t.Fatal("pair from single interval") }); len(got) != 0 {
		t.Fatal("single interval cannot overlap")
	}
}

func TestOverlapIdenticalOffsets(t *testing.T) {
	// Several writes to exactly the same range (the HDF5 metadata shape).
	ivs := []Interval{
		iv(10, 0, 96, 368, true),
		iv(20, 1, 96, 368, true),
		iv(30, 2, 96, 368, true),
	}
	pairs, _ := collectPairs(ivs, DetectOverlaps)
	if len(pairs) != 3 { // (0,1), (0,2), (1,2)
		t.Fatalf("expected 3 pairs, got %v", pairs)
	}
}

// TestOverlapEmptyIntervalOverlapsNothing: a zero-length interval shares no
// byte with anything, whatever the timestamp order of the tuples that tie
// on its offset.
func TestOverlapEmptyIntervalOverlapsNothing(t *testing.T) {
	for _, emptyT := range []uint64{1, 3} {
		ivs := []Interval{
			iv(emptyT, 0, 5, 5, true),
			iv(2, 1, 5, 10, true),
			iv(4, 2, 0, 10, true), // contains the empty interval's offset
		}
		pairs, table := collectPairs(ivs, DetectOverlaps)
		if table[rankKey(0, 1)] != 0 || table[rankKey(0, 2)] != 0 {
			t.Fatalf("empty interval at t=%d counted as overlapping: %v", emptyT, table)
		}
		if want := []OverlapPair{{A: 1, B: 2}}; !reflect.DeepEqual(pairs, want) {
			t.Fatalf("empty interval at t=%d: pairs = %v, want %v", emptyT, pairs, want)
		}
	}
}
