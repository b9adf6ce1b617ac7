package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/recorder"
)

// buildHBOracle is the all-pairs happens-before construction BuildHB
// replaced, kept unchanged as a differential oracle.
//
// It reconstructs the happens-before relation. Send k from r to s with
// a tag matches receive k on s from r with that tag; collective records
// match by their sequence-number argument.
func buildHBOracle(tr *recorder.Trace) (*HB, error) {
	hb := &HB{ranks: len(tr.PerRank)}
	hb.events = make([][]hbEvent, hb.ranks)

	// Collect MPI events per rank.
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
	}

	// Build edges: program order, send→recv, collective joins (via a
	// virtual node joining every participant's predecessor).
	preds := make(map[nodeID][]nodeID)
	sendQueues := make(map[[3]int][]nodeID) // (src,dst,tag) -> send nodes in order
	recvCount := make(map[[3]int]int)
	collParts := make(map[int64][]nodeID)

	for rank := range hb.events {
		for i := range hb.events[rank] {
			n := nodeID{rank, i}
			if i > 0 {
				preds[n] = append(preds[n], nodeID{rank, i - 1})
			}
			ev := &hb.events[rank][i]
			switch ev.rec.Func {
			case recorder.FuncMPISend:
				key := [3]int{rank, int(ev.rec.Arg(0)), int(ev.rec.Arg(1))}
				sendQueues[key] = append(sendQueues[key], n)
			default:
				if ev.seq >= 0 {
					collParts[ev.seq] = append(collParts[ev.seq], n)
				}
			}
		}
	}
	// Match receives to sends.
	for rank := range hb.events {
		for i := range hb.events[rank] {
			ev := &hb.events[rank][i]
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
			n := nodeID{rank, i}
			preds[n] = append(preds[n], sends[k])
		}
	}
	// Collectives: every participant's predecessor happens-before every
	// participant's completion.
	for _, parts := range collParts {
		for _, a := range parts {
			if a.idx == 0 {
				continue
			}
			pred := nodeID{a.rank, a.idx - 1}
			for _, b := range parts {
				if b != a {
					preds[b] = append(preds[b], pred)
				}
			}
		}
	}

	// Vector clocks in timestamp order (simulation timestamps respect the
	// edges, so a single pass by TStart is a valid topological order).
	order := make([]nodeID, 0)
	for rank := range hb.events {
		for i := range hb.events[rank] {
			order = append(order, nodeID{rank, i})
		}
	}
	sort.Slice(order, func(a, b int) bool {
		ea := hb.events[order[a].rank][order[a].idx].rec
		eb := hb.events[order[b].rank][order[b].idx].rec
		if ea.TEnd != eb.TEnd {
			return ea.TEnd < eb.TEnd
		}
		return ea.TStart < eb.TStart
	})
	for _, n := range order {
		ev := &hb.events[n.rank][n.idx]
		vc := make([]int32, hb.ranks)
		for _, p := range preds[n] {
			pv := hb.events[p.rank][p.idx].vc
			if pv == nil {
				return nil, fmt.Errorf("core: predecessor %v of %v not yet processed (timestamps violate happens-before)", p, n)
			}
			// Branch-free and bounds-check-free: the compare-and-branch form
			// ran up to 30% faster or slower depending only on where the
			// linker placed this loop.
			for r, v := range pv[:len(vc)] {
				vc[r] = max(vc[r], v)
			}
		}
		if own := int32(n.idx + 1); own > vc[n.rank] {
			vc[n.rank] = own
		}
		ev.vc = vc
	}
	return hb, nil
}

// orderedIOOracle is OrderedIO with the linear event scans BuildHB's
// binary searches replaced.
func orderedIOOracle(hb *HB, rankA int32, tAEnd uint64, rankB int32, tB uint64) bool {
	if rankA == rankB {
		return tAEnd <= tB
	}
	x, y := -1, -1
	for i, ev := range hb.events[rankA] {
		if ev.rec.TStart >= tAEnd {
			x = i
			break
		}
	}
	evsB := hb.events[rankB]
	for i := len(evsB) - 1; i >= 0; i-- {
		if evsB[i].rec.TEnd <= tB {
			y = i
			break
		}
	}
	if x < 0 || y < 0 {
		return false
	}
	ex := &hb.events[rankA][x]
	ey := &hb.events[rankB][y]
	if ex.seq >= 0 && ex.seq == ey.seq {
		return true
	}
	return ey.vc[rankA] >= int32(x+1)
}

// compareHB builds tr's happens-before relation both ways and fails on any
// event whose vector clock differs from the oracle's.
func compareHB(t *testing.T, tr *recorder.Trace) (got, want *HB) {
	t.Helper()
	got, err := BuildHB(tr)
	if err != nil {
		t.Fatal(err)
	}
	want, err = buildHBOracle(tr)
	if err != nil {
		t.Fatal(err)
	}
	for rank, evs := range want.events {
		if len(got.events[rank]) != len(evs) {
			t.Fatalf("rank %d: %d events, oracle %d", rank, len(got.events[rank]), len(evs))
		}
		for i := range evs {
			if !slices.Equal(got.events[rank][i].vc, evs[i].vc) {
				t.Fatalf("rank %d event %d (%v): clock %v, oracle %v",
					rank, i, evs[i].rec.Func, got.events[rank][i].vc, evs[i].vc)
			}
		}
	}
	return got, want
}

// compareOrderedIO checks OrderedIO against the oracle for every ordered
// pair of data operations on different ranks.
func compareOrderedIO(t *testing.T, tr *recorder.Trace, got, want *HB) {
	t.Helper()
	type op struct {
		rank       int32
		start, end uint64
	}
	var ops []op
	for rank, rs := range tr.PerRank {
		for _, r := range rs {
			if r.IsDataOp() {
				ops = append(ops, op{int32(rank), r.TStart, r.TEnd})
			}
		}
	}
	pairs := 0
	for _, a := range ops {
		for _, b := range ops {
			if a.rank == b.rank {
				continue
			}
			pairs++
			g := got.OrderedIO(a.rank, a.end, b.rank, b.start)
			w := orderedIOOracle(want, a.rank, a.end, b.rank, b.start)
			if g != w {
				t.Fatalf("OrderedIO(%d@%d, %d@%d) = %v, oracle %v", a.rank, a.end, b.rank, b.start, g, w)
			}
		}
	}
	if pairs == 0 && tr.Meta.Ranks > 1 {
		t.Fatal("no cross-rank I/O pairs compared")
	}
}

// flashTraces memoizes FLASH-fbs traces by rank count across tests.
var flashTraces = map[int]*recorder.Trace{}

func flashTrace(t *testing.T, ranks int) *recorder.Trace {
	t.Helper()
	if tr, ok := flashTraces[ranks]; ok {
		return tr
	}
	cfg, _ := apps.Lookup("FLASH-fbs")
	res, err := apps.Execute(cfg, apps.Options{Ranks: ranks, PPN: 8, Seed: 1, Semantics: pfs.Strong})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	flashTraces[ranks] = res.Trace
	return res.Trace
}

func TestBuildHBMatchesOracleOnPrograms(t *testing.T) {
	for _, p := range hbPrograms {
		t.Run(p.name, func(t *testing.T) {
			tr, _ := buildHB(t, p.ranks, p.body)
			got, want := compareHB(t, tr)
			compareOrderedIO(t, tr, got, want)
		})
	}
}

// TestBuildHBMatchesOracleAfterDetach runs collectives and messages on
// eight ranks, one of which fails mid-run and detaches: later collectives
// have seven participants.
func TestBuildHBMatchesOracleAfterDetach(t *testing.T) {
	const ranks, dead = 8, 3
	res, err := harness.Run(harness.Config{Ranks: ranks, Semantics: pfs.Strong},
		recorder.Meta{App: "hb-detach"}, func(ctx *harness.Ctx) error {
			fd, err := ctx.OS.Open("/f", recorder.OCreat|recorder.ORdwr, 0o644)
			if err != nil {
				return err
			}
			for step := 0; step < 4; step++ {
				if ctx.Rank == dead && step == 2 {
					return errors.New("injected failure")
				}
				ctx.OS.Pwrite(fd, make([]byte, 16), int64(16*(step*ranks+ctx.Rank)))
				ctx.MPI.Allgather([]byte{byte(ctx.Rank)})
				// A ring over the ranks that are still alive.
				next, prev := (ctx.Rank+1)%ranks, (ctx.Rank+ranks-1)%ranks
				if step >= 2 {
					if next == dead {
						next = (next + 1) % ranks
					}
					if prev == dead {
						prev = (prev + ranks - 1) % ranks
					}
				}
				ctx.MPI.Send(next, step, []byte("tok"))
				ctx.MPI.Recv(prev, step)
				ctx.OS.Pread(fd, 16, int64(16*(step*ranks+prev)))
				ctx.MPI.Barrier()
			}
			return ctx.OS.Close(fd)
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err() == nil {
		t.Fatal("expected the injected rank failure")
	}
	counts := map[int64]int{}
	for _, rs := range res.Trace.PerRank {
		for _, r := range rs {
			if r.Layer == recorder.LayerMPI && isCollective(r.Func) {
				counts[r.Arg(2)]++
			}
		}
	}
	partial := 0
	for _, n := range counts {
		if n < ranks {
			partial++
		}
	}
	if partial == 0 {
		t.Fatal("no collective ran with fewer participants")
	}
	got, want := compareHB(t, res.Trace)
	compareOrderedIO(t, res.Trace, got, want)
}

// TestBuildHBMatchesOracleOnRegistry compares every event's clock for all
// registry configurations at the default 64-rank scale, plus OrderedIO on
// every session-semantics conflict pair.
func TestBuildHBMatchesOracleOnRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 25 configurations at 64 ranks")
	}
	for _, cfg := range apps.Registry() {
		t.Run(cfg.Name(), func(t *testing.T) {
			var tr *recorder.Trace
			if cfg.Name() == "FLASH-fbs" {
				tr = flashTrace(t, 64)
			} else {
				res, err := apps.Execute(cfg, apps.Options{Ranks: 64, PPN: 8, Seed: 1, Semantics: pfs.Strong})
				if err != nil {
					t.Fatal(err)
				}
				if err := res.Err(); err != nil {
					t.Fatal(err)
				}
				tr = res.Trace
			}
			got, want := compareHB(t, tr)
			byFile, _ := AnalyzeConflicts(tr, pfs.Session)
			for _, cs := range byFile {
				for _, c := range cs {
					g := got.OrderedIO(c.First.Rank, c.First.TEnd, c.Second.Rank, c.Second.T)
					w := orderedIOOracle(want, c.First.Rank, c.First.TEnd, c.Second.Rank, c.Second.T)
					if g != w {
						t.Fatalf("conflict %+v: OrderedIO %v, oracle %v", c, g, w)
					}
				}
			}
		})
	}
}

// TestHBMergeOpsLinearInEvents bounds BuildHB's clock-merge work by
// 2 x MPI events x ranks on FLASH-fbs, whose collectives span every rank.
// The all-pairs construction spends p*(p-1)*R merges on each p-participant
// collective alone, which the test also checks overshoots the bound.
func TestHBMergeOpsLinearInEvents(t *testing.T) {
	reg := obs.Default()
	defer reg.SetEnabled(reg.Enabled())
	reg.SetEnabled(true)
	for _, ranks := range []int{64, 128} {
		tr := flashTrace(t, ranks)
		events := 0
		parts := map[int64]int64{}
		for _, rs := range tr.PerRank {
			for _, r := range rs {
				if r.Layer != recorder.LayerMPI {
					continue
				}
				events++
				if isCollective(r.Func) {
					parts[r.Arg(2)]++
				}
			}
		}
		before := hbMergeOps.Value()
		if _, err := BuildHB(tr); err != nil {
			t.Fatal(err)
		}
		merges := hbMergeOps.Value() - before
		bound := 2 * int64(events) * int64(ranks)
		var allPairs int64
		for _, p := range parts {
			allPairs += p * (p - 1) * int64(ranks)
		}
		t.Logf("ranks=%d events=%d merge_ops=%d bound=%d all-pairs collective merges=%d",
			ranks, events, merges, bound, allPairs)
		if merges <= 0 || merges > bound {
			t.Errorf("ranks=%d: merge_ops %d outside (0, %d]", ranks, merges, bound)
		}
		if allPairs <= bound {
			t.Errorf("ranks=%d: all-pairs merges %d do not exceed the bound %d; the test no longer discriminates", ranks, allPairs, bound)
		}
	}
}
