package core

import (
	"container/heap"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// Test oracles for Algorithm 1 (DetectOverlaps): the O(n²) brute force and
// the per-rank k-way merge variant the paper sketches. Both report the same
// rank-pair table and the same time-ordered write-first pairs as
// DetectOverlaps; the property tests, FuzzDetectOverlaps and
// BenchmarkOverlapDetection compare them.

// DetectOverlapsBruteForce is the O(n²) reference: every pair of intervals
// is tested for overlap directly.
func DetectOverlapsBruteForce(ivs []Interval, onPair func(OverlapPair)) RankPairTable {
	table := make(RankPairTable)
	for i := 0; i < len(ivs); i++ {
		for j := i + 1; j < len(ivs); j++ {
			a, b := &ivs[i], &ivs[j]
			if max(a.Os, b.Os) < min(a.Oe, b.Oe) { // the byte ranges share a byte
				table[rankKey(a.Rank, b.Rank)]++
				if onPair != nil {
					first, second := i, j
					if earlier(ivs, second, first) {
						first, second = second, first
					}
					if ivs[first].Write {
						onPair(OverlapPair{A: first, B: second})
					}
				}
			}
		}
	}
	return table
}

// DetectOverlapsMerge is the variant the paper sketches ("sorting can be
// replaced by merging as records for each rank are already sorted"): the
// intervals are partitioned per rank, each rank's list is sorted by start
// offset independently (in parallel), and the sweep consumes them through a
// k-way merge instead of one global sort. Results are identical to
// DetectOverlaps.
func DetectOverlapsMerge(ivs []Interval, onPair func(OverlapPair)) RankPairTable {
	table := make(RankPairTable)
	if len(ivs) < 2 {
		return table
	}
	// Partition indices by rank.
	perRank := make(map[int32][]int)
	for i := range ivs {
		if ivs[i].Oe > ivs[i].Os { // an empty interval overlaps nothing
			perRank[ivs[i].Rank] = append(perRank[ivs[i].Rank], i)
		}
	}
	lists := make([][]int, 0, len(perRank))
	for _, l := range perRank {
		lists = append(lists, l)
	}
	// Sort each rank's list by offset, concurrently.
	var wg sync.WaitGroup
	for _, l := range lists {
		wg.Add(1)
		go func(l []int) {
			defer wg.Done()
			slices.SortFunc(l, func(a, b int) int {
				ia, ib := &ivs[a], &ivs[b]
				switch {
				case ia.Os != ib.Os:
					if ia.Os < ib.Os {
						return -1
					}
					return 1
				case ia.T != ib.T:
					if ia.T < ib.T {
						return -1
					}
					return 1
				default:
					return a - b
				}
			})
		}(l)
	}
	wg.Wait()

	// K-way merge into offset order, sweeping with the active-window check
	// of Algorithm 1: an interval overlaps every later-starting interval
	// until one starts at or past its end.
	h := &mergeHeap{ivs: ivs}
	for _, l := range lists {
		if len(l) > 0 {
			h.items = append(h.items, mergeItem{list: l})
		}
	}
	heap.Init(h)
	// Active window: intervals whose Oe may still cover upcoming starts.
	var active []int
	for h.Len() > 0 {
		it := &h.items[0]
		idx := it.list[it.pos]
		it.pos++
		if it.pos >= len(it.list) {
			heap.Pop(h)
		} else {
			heap.Fix(h, 0)
		}
		cur := &ivs[idx]
		// Drop exhausted actives and pair with the rest.
		kept := active[:0]
		for _, a := range active {
			if ivs[a].Oe <= cur.Os {
				continue
			}
			kept = append(kept, a)
			table[rankKey(ivs[a].Rank, cur.Rank)]++
			if onPair != nil {
				first, second := a, idx
				if earlier(ivs, second, first) {
					first, second = second, first
				}
				if ivs[first].Write {
					onPair(OverlapPair{A: first, B: second})
				}
			}
		}
		active = append(kept, idx)
	}
	return table
}

type mergeItem struct {
	list []int
	pos  int
}

type mergeHeap struct {
	ivs   []Interval
	items []mergeItem
}

func (h *mergeHeap) Len() int { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool {
	a := &h.ivs[h.items[i].list[h.items[i].pos]]
	b := &h.ivs[h.items[j].list[h.items[j].pos]]
	if a.Os != b.Os {
		return a.Os < b.Os
	}
	return a.T < b.T
}
func (h *mergeHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x any)    { h.items = append(h.items, x.(mergeItem)) }
func (h *mergeHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// BenchmarkOverlapDetection compares Algorithm 1 against its merge and
// brute-force oracles as the record count grows (the paper notes the sweep
// is linear in practice).
func BenchmarkOverlapDetection(b *testing.B) {
	mk := func(n int) []Interval {
		ivs := make([]Interval, n)
		for i := range ivs {
			// Mostly disjoint strided blocks with occasional overlaps.
			base := int64(i) * 100
			if i%17 == 0 {
				base -= 50
			}
			ivs[i] = Interval{T: uint64(i), TEnd: uint64(i) + 1,
				Rank: int32(i % 64), Os: base, Oe: base + 100, Write: i%2 == 0}
		}
		return ivs
	}
	detectors := []struct {
		name   string
		detect func([]Interval, func(OverlapPair)) RankPairTable
		sizes  []int
	}{
		{"algorithm1", DetectOverlaps, []int{100, 1000, 10000}},
		{"merge", DetectOverlapsMerge, []int{100, 1000, 10000}},
		{"bruteforce", DetectOverlapsBruteForce, []int{100, 1000}},
	}
	for _, d := range detectors {
		for _, n := range d.sizes {
			ivs := mk(n)
			b.Run(fmt.Sprintf("%s/n=%d", d.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					d.detect(ivs, func(OverlapPair) {})
				}
			})
		}
	}
}

// FuzzDetectOverlaps decodes arbitrary bytes into intervals — zero-length
// ones, ranks past the dense table limit and negative ranks (the map-table
// path) included — and requires DetectOverlaps to report the same rank-pair
// table and the same time-ordered write-first pairs as both oracles.
func FuzzDetectOverlaps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 10, 1, 0, 1, 0, 5, 10, 2, 1})
	f.Add([]byte{0, 0, 4, 0, 1, 1, 0, 0, 4, 4, 2, 0})       // zero-length intervals
	f.Add([]byte{1, 44, 0, 8, 3, 1, 1, 45, 2, 9, 4, 0})     // ranks >= 256
	f.Add([]byte{255, 255, 0, 8, 3, 1, 0, 1, 2, 9, 4, 1})   // negative rank
	f.Add([]byte{0, 7, 0, 8, 9, 1, 0, 7, 0, 8, 9, 1, 0, 7}) // identical tuples
	f.Fuzz(func(t *testing.T, data []byte) {
		// Six bytes per interval: rank (int16), offset, length, time,
		// and a write bit.
		const rec = 6
		if len(data) > rec*64 {
			data = data[:rec*64]
		}
		ivs := make([]Interval, 0, len(data)/rec)
		for i := 0; i+rec <= len(data); i += rec {
			d := data[i : i+rec]
			os := int64(d[2])
			ivs = append(ivs, Interval{
				Rank: int32(int16(uint16(d[0])<<8 | uint16(d[1]))),
				Os:   os, Oe: os + int64(d[3]),
				T: uint64(d[4]), TEnd: uint64(d[4]) + 1,
				Write: d[5]&1 == 1,
			})
		}
		gotPairs, gotTable := collectPairs(ivs, DetectOverlaps)
		for _, o := range []struct {
			name   string
			detect func([]Interval, func(OverlapPair)) RankPairTable
		}{{"brute force", DetectOverlapsBruteForce}, {"merge", DetectOverlapsMerge}} {
			wantPairs, wantTable := collectPairs(ivs, o.detect)
			if !reflect.DeepEqual(gotPairs, wantPairs) {
				t.Fatalf("pairs differ from the %s oracle\n got %v\nwant %v\nivs %v", o.name, gotPairs, wantPairs, ivs)
			}
			if !reflect.DeepEqual(gotTable, wantTable) {
				t.Fatalf("table differs from the %s oracle\n got %v\nwant %v\nivs %v", o.name, gotTable, wantTable, ivs)
			}
		}
	})
}
