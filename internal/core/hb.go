package core

import (
	"fmt"
	"sort"

	"repro/internal/recorder"
)

// HB is the happens-before relation reconstructed from a trace's MPI-layer
// records, used for the §5.2 validation: matching sends to receives and
// collective invocations to each other, so we can confirm that the
// timestamp order of conflicting I/O operations matches the execution order
// imposed by the program's synchronization.
type HB struct {
	ranks  int
	events [][]hbEvent // per rank, in stream order
}

type hbEvent struct {
	rec *recorder.Record
	vc  []int32 // vc[r] = number of rank-r MPI events known (inclusive)
	seq int64   // collective sequence number, -1 for p2p
}

type nodeID struct{ rank, idx int }

// hbLink is an event's one cross-rank predecessor, if any. The program-order
// predecessor (idx-1 on the same rank) is implicit.
type hbLink struct {
	send nodeID // matched send of a receive; rank -1 otherwise
	coll int32  // collective instance the event joins; -1 for p2p
}

// collInst is one collective instance: its participants and, once the first
// participant is walked, the join of their program-order predecessors.
type collInst struct {
	parts []nodeID
	join  []int32
}

// BuildHB reconstructs the happens-before relation. Send k from r to s with
// a tag matches receive k on s from r with that tag; collective records
// match by their sequence-number argument.
//
// A collective instance is a virtual join node: every participant's
// program-order predecessor happens-before it, and it happens-before every
// participant's completion. Its clock is one max-merge over the
// predecessors, which each participant inherits before bumping its own
// entry — O(C·R²) for C instances over R ranks, plus O(P·R) for P
// point-to-point and program-order events.
func BuildHB(tr *recorder.Trace) (*HB, error) {
	hb := &HB{ranks: len(tr.PerRank)}
	hb.events = make([][]hbEvent, hb.ranks)

	// Collect MPI events per rank.
	total := 0
	for rank, rs := range tr.PerRank {
		for i := range rs {
			if rs[i].Layer != recorder.LayerMPI {
				continue
			}
			seq := int64(-1)
			if isCollective(rs[i].Func) {
				seq = rs[i].Arg(2)
			}
			hb.events[rank] = append(hb.events[rank], hbEvent{rec: &rs[i], seq: seq})
		}
		total += len(hb.events[rank])
	}

	// Cross-rank edges: send→recv and collective joins.
	links := make([][]hbLink, hb.ranks)
	sendQueues := make(map[[3]int][]nodeID) // (src,dst,tag) -> send nodes in order
	recvCount := make(map[[3]int]int)
	instOf := make(map[int64]int32) // collective seq -> index into insts
	var insts []collInst
	for rank, evs := range hb.events {
		links[rank] = make([]hbLink, len(evs))
		for i := range evs {
			n := nodeID{rank, i}
			l := &links[rank][i]
			*l = hbLink{send: nodeID{-1, -1}, coll: -1}
			ev := &evs[i]
			switch ev.rec.Func {
			case recorder.FuncMPISend:
				key := [3]int{rank, int(ev.rec.Arg(0)), int(ev.rec.Arg(1))}
				sendQueues[key] = append(sendQueues[key], n)
			default:
				if ev.seq >= 0 {
					k, ok := instOf[ev.seq]
					if !ok {
						k = int32(len(insts))
						instOf[ev.seq] = k
						insts = append(insts, collInst{})
					}
					insts[k].parts = append(insts[k].parts, n)
					l.coll = k
				}
			}
		}
	}
	// Match receives to sends.
	for rank, evs := range hb.events {
		for i := range evs {
			ev := &evs[i]
			if ev.rec.Func != recorder.FuncMPIRecv {
				continue
			}
			key := [3]int{int(ev.rec.Arg(0)), rank, int(ev.rec.Arg(1))}
			k := recvCount[key]
			recvCount[key] = k + 1
			sends := sendQueues[key]
			if k >= len(sends) {
				return nil, fmt.Errorf("core: receive %d on rank %d from %d tag %d has no matching send",
					k, rank, ev.rec.Arg(0), ev.rec.Arg(1))
			}
			links[rank][i].send = sends[k]
		}
	}

	// Vector clocks in timestamp order (simulation timestamps respect the
	// edges, so a single pass by TStart is a valid topological order).
	// The sort keys sit inline so comparisons stay in cache.
	type walkKey struct {
		tEnd, tStart uint64
		n            nodeID
	}
	order := make([]walkKey, 0, total)
	for rank, evs := range hb.events {
		for i := range evs {
			order = append(order, walkKey{evs[i].rec.TEnd, evs[i].rec.TStart, nodeID{rank, i}})
		}
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].tEnd != order[b].tEnd {
			return order[a].tEnd < order[b].tEnd
		}
		return order[a].tStart < order[b].tStart
	})
	// Every clock, join vectors included, is carved from one slab.
	slab := make([]int32, (total+len(insts))*hb.ranks)
	alloc := func() []int32 {
		vc := slab[:hb.ranks:hb.ranks]
		slab = slab[hb.ranks:]
		return vc
	}
	var merges int64
	merge := func(vc []int32, p, n nodeID) error {
		pv := hb.events[p.rank][p.idx].vc
		if pv == nil {
			return fmt.Errorf("core: predecessor %v of %v not yet processed (timestamps violate happens-before)", p, n)
		}
		// Branch-free and bounds-check-free: the compare-and-branch form
		// ran up to 30% faster or slower depending only on where the
		// linker placed this loop.
		for r, v := range pv[:len(vc)] {
			vc[r] = max(vc[r], v)
		}
		merges += int64(len(vc))
		return nil
	}
	for _, k := range order {
		n := k.n
		vc := alloc()
		l := links[n.rank][n.idx]
		if l.coll >= 0 {
			inst := &insts[l.coll]
			if inst.join == nil {
				join := alloc()
				for _, q := range inst.parts {
					if q.idx == 0 {
						continue
					}
					if err := merge(join, nodeID{q.rank, q.idx - 1}, n); err != nil {
						return nil, err
					}
				}
				inst.join = join
			}
			copy(vc, inst.join)
			merges += int64(len(vc))
		} else {
			if n.idx > 0 {
				if err := merge(vc, nodeID{n.rank, n.idx - 1}, n); err != nil {
					return nil, err
				}
			}
			if l.send.rank >= 0 {
				if err := merge(vc, l.send, n); err != nil {
					return nil, err
				}
			}
		}
		if own := int32(n.idx + 1); own > vc[n.rank] {
			vc[n.rank] = own
		}
		hb.events[n.rank][n.idx].vc = vc
	}
	hbEvents.Add(int64(total))
	hbCollectives.Add(int64(len(insts)))
	hbMergeOps.Add(merges)
	return hb, nil
}

func isCollective(f recorder.Func) bool {
	switch f {
	case recorder.FuncMPIBarrier, recorder.FuncMPIBcast, recorder.FuncMPIReduce,
		recorder.FuncMPIAllreduce, recorder.FuncMPIGather, recorder.FuncMPIGatherv,
		recorder.FuncMPIScatter, recorder.FuncMPIAllgather, recorder.FuncMPIAlltoall:
		return true
	}
	return false
}

// OrderedIO reports whether an I/O operation on rankA ending at tAEnd
// happens-before an I/O operation on rankB starting at tB, according to the
// program's synchronization. Same-rank operations are ordered by program
// order; cross-rank ordering requires an MPI event on rankA at or after
// tAEnd that happens-before an MPI event on rankB at or before tB.
func (hb *HB) OrderedIO(rankA int32, tAEnd uint64, rankB int32, tB uint64) bool {
	if rankA == rankB {
		return tAEnd <= tB
	}
	x := hb.firstEventAtOrAfter(int(rankA), tAEnd)
	y := hb.lastEventAtOrBefore(int(rankB), tB)
	if x < 0 || y < 0 {
		return false
	}
	ex := &hb.events[rankA][x]
	ey := &hb.events[rankB][y]
	// Same collective instance: entry at all ranks precedes completion at
	// any rank, so the pair is synchronized.
	if ex.seq >= 0 && ex.seq == ey.seq {
		return true
	}
	return ey.vc[rankA] >= int32(x+1)
}

// firstEventAtOrAfter and lastEventAtOrBefore binary-search a rank's MPI
// events: a rank's calls do not overlap, so TStart and TEnd are both
// monotone in stream order.
func (hb *HB) firstEventAtOrAfter(rank int, t uint64) int {
	evs := hb.events[rank]
	i := sort.Search(len(evs), func(i int) bool { return evs[i].rec.TStart >= t })
	if i == len(evs) {
		return -1
	}
	return i
}

func (hb *HB) lastEventAtOrBefore(rank int, t uint64) int {
	evs := hb.events[rank]
	return sort.Search(len(evs), func(i int) bool { return evs[i].rec.TEnd > t }) - 1
}

// ValidateConflicts checks the §5.2 property for a set of detected
// conflicts: every conflicting pair must be ordered by the program's
// synchronization (the applications are race-free). It returns the pairs
// that are NOT provably ordered.
func ValidateConflicts(hb *HB, conflicts []Conflict) []Conflict {
	var unordered []Conflict
	for _, c := range conflicts {
		if !hb.OrderedIO(c.First.Rank, c.First.TEnd, c.Second.Rank, c.Second.T) {
			unordered = append(unordered, c)
		}
	}
	return unordered
}
