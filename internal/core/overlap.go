package core

import (
	"math"
	"slices"
	"sync"
)

// OverlapPair indexes two overlapping intervals within a FileAccesses'
// Intervals slice, ordered so that Intervals[A].T <= Intervals[B].T.
type OverlapPair struct {
	A, B int
}

// RankPairTable is the paper's table P: counts of overlapping operation
// pairs per (rank, rank) pair, with the smaller rank first.
type RankPairTable map[[2]int32]int

// denseRankLimit bounds the rank universe served by the dense rank-pair
// accumulator; larger (or negative) ranks fall back to the map. 256 ranks
// costs a 256 KiB pooled scratch table, far past the registry's scales.
const denseRankLimit = 256

// sweepBuf is the reusable scratch of one overlap sweep: the index
// permutation Algorithm 1 sorts, and the dense rank-pair accumulator with
// its touched-cell list. Pooled so the per-file conflict sweep allocates
// nothing beyond its outputs.
type sweepBuf struct {
	idx     []int32
	dense   []int32 // denseRankLimit*denseRankLimit cells, zeroed between uses
	touched []int32 // dense cells written this sweep, for O(touched) reset
}

var sweepBufs = sync.Pool{New: func() any { return new(sweepBuf) }}

// DetectOverlaps implements Algorithm 1: sort the tuples by starting
// offset, then sweep — for each interval, scan forward until an interval
// starts at or beyond its end (subsequent tuples cannot overlap it). The
// returned table counts overlapping pairs per rank pair.
//
// onPair, when non-nil, is invoked for every overlapping pair (time-ordered)
// where the earlier operation is a write — the candidate conflicts of §4.1;
// read-read overlaps are tallied in the table but never materialized, which
// keeps read-heavy workloads (e.g. LBANN, where every rank reads the whole
// file) from generating quadratic pair lists. (The conflict layer adds the
// write-side counterpart of that guard: see MaxConflictsPerFile.)
func DetectOverlaps(ivs []Interval, onPair func(OverlapPair)) RankPairTable {
	table := sweepOverlaps(ivs, true, onPair)
	if table == nil {
		table = make(RankPairTable)
	}
	return table
}

// sweepOverlaps is the engine behind DetectOverlaps and the fused conflict
// pass: one offset-sorted sweep over a pooled index permutation. When
// wantTable is false (the conflict paths, which discard the table) no
// rank-pair accounting runs at all; when true, small rank universes are
// counted in a pooled dense table and converted to the map form once at the
// end, so the hot loop never hashes.
func sweepOverlaps(ivs []Interval, wantTable bool, onPair func(OverlapPair)) RankPairTable {
	if len(ivs) < 2 {
		if wantTable {
			return make(RankPairTable)
		}
		return nil
	}
	sb := sweepBufs.Get().(*sweepBuf)
	defer sweepBufs.Put(sb)
	if cap(sb.idx) < len(ivs) {
		sb.idx = make([]int32, 0, len(ivs))
	}
	// An empty interval transfers no bytes and overlaps nothing; leaving it
	// out of the permutation also keeps the sweep from pairing it with an
	// interval that starts at its offset only when the tie order puts that
	// interval first.
	idx := sb.idx[:0]
	minRank, maxRank := int32(math.MaxInt32), int32(math.MinInt32)
	for i := range ivs {
		if ivs[i].Oe <= ivs[i].Os {
			continue
		}
		idx = append(idx, int32(i))
		minRank = min(minRank, ivs[i].Rank)
		maxRank = max(maxRank, ivs[i].Rank)
	}
	n := len(idx)
	// Total order (offset, time, index): deterministic regardless of input
	// permutation, and a typed comparator — no reflect-based swaps.
	slices.SortFunc(idx, func(a, b int32) int {
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
			return int(a - b)
		}
	})

	var table RankPairTable
	dense := minRank >= 0 && maxRank < denseRankLimit
	if wantTable {
		if dense {
			if sb.dense == nil {
				sb.dense = make([]int32, denseRankLimit*denseRankLimit)
			}
			sweepDenseTables.Inc()
		} else {
			table = make(RankPairTable)
			sweepMapTables.Inc()
		}
	}

	for a := 0; a < n; a++ {
		ia := &ivs[idx[a]]
		for b := a + 1; b < n; b++ {
			ib := &ivs[idx[b]]
			if ib.Os >= ia.Oe {
				break // sorted by Os: no later tuple overlaps ia
			}
			if wantTable {
				if dense {
					lo, hi := ia.Rank, ib.Rank
					if lo > hi {
						lo, hi = hi, lo
					}
					cell := int32(lo)*denseRankLimit + int32(hi)
					if sb.dense[cell] == 0 {
						sb.touched = append(sb.touched, cell)
					}
					sb.dense[cell]++
				} else {
					table[rankKey(ia.Rank, ib.Rank)]++
				}
			}
			if onPair == nil {
				continue
			}
			// Time-order the pair; candidate conflicts need the earlier
			// operation to be a write.
			first, second := int(idx[a]), int(idx[b])
			if earlier(ivs, second, first) {
				first, second = second, first
			}
			if ivs[first].Write {
				onPair(OverlapPair{A: first, B: second})
			}
		}
	}

	if wantTable && dense {
		table = make(RankPairTable, len(sb.touched))
		for _, cell := range sb.touched {
			table[[2]int32{cell / denseRankLimit, cell % denseRankLimit}] = int(sb.dense[cell])
			sb.dense[cell] = 0
		}
		sb.touched = sb.touched[:0]
	}
	return table
}

func rankKey(a, b int32) [2]int32 {
	if a > b {
		a, b = b, a
	}
	return [2]int32{a, b}
}

// earlier deterministically orders two intervals by entry time, breaking
// timestamp ties by slice index so Algorithm 1 and its test oracles
// (brute force, k-way merge) always agree.
func earlier(ivs []Interval, i, j int) bool {
	if ivs[i].T != ivs[j].T {
		return ivs[i].T < ivs[j].T
	}
	return i < j
}
