package wal

// The WAL payoff benchmarks behind BENCH_pr7.json. Both report the
// *simulated* per-write cost as ns/op (via b.ReportMetric), which is fully
// deterministic for a fixed iteration count — unlike host wall time it
// transfers across machines, so CI gates it directly: the WAL's local
// acknowledgement must stay an order of magnitude under the strong-
// semantics PFS round trip. allocs/op and B/op are measured as usual.

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/pfs"
)

const benchBlock = 4096

// BenchmarkWALWriteAck: acknowledgement cost of a WAL-fronted write — the
// local append's modeled cost, not the PFS round trip.
func BenchmarkWALWriteAck(b *testing.B) {
	fs := pfs.New(pfs.Options{Semantics: pfs.Strong})
	c := fs.NewClient(0, 0)
	// Watermark high enough that the foreground path never degrades to
	// write-through; the background drainer keeps the queue bounded.
	l, err := Open(0, Options{Dir: b.TempDir(), NoFsync: true, Watermark: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	var now uint64 = 10
	h, _, err := l.Open(c, "/bench.dat", pfs.OCreat|pfs.ORdwr, now)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, benchBlock)
	var simTotal uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 10
		cost, err := l.Write(h, int64(i)*benchBlock, data, now)
		if err != nil {
			b.Fatal(err)
		}
		simTotal += cost
	}
	b.StopTimer()
	if err := l.Barrier(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(simTotal)/float64(b.N), "ns/op")
}

// BenchmarkWALDirectWrite: the same write straight against the PFS under
// strong semantics — the per-operation lock round trip the WAL hides.
func BenchmarkWALDirectWrite(b *testing.B) {
	fs := pfs.New(pfs.Options{Semantics: pfs.Strong})
	c := fs.NewClient(0, 0)
	var now uint64 = 10
	h, _, err := c.Open("/bench.dat", pfs.OCreat|pfs.ORdwr, now)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, benchBlock)
	var simTotal uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 10
		cost, err := h.Write(int64(i)*benchBlock, data, now)
		if err != nil {
			b.Fatal(err)
		}
		simTotal += cost
	}
	b.StopTimer()
	b.ReportMetric(float64(simTotal)/float64(b.N), "ns/op")
}

// BenchmarkBurst is one wal-burst iteration at a fixed 1,000 records of
// 4 KiB from one rank: RunBurst (WAL appends, drain, formal spec check)
// then RecoverBurst (replay, payload verification, direct-run
// comparison). Appends are not fsynced, so the time is CPU, not the disk.
// Unlike the two benchmarks above, ns/op here is host wall time.
func BenchmarkBurst(b *testing.B) {
	root := b.TempDir()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec := BurstSpec{Semantics: pfs.Commit, Ranks: 1, Records: 1000, Block: benchBlock, CommitEvery: 16,
			Log: Options{Dir: filepath.Join(root, strconv.Itoa(i)), NoFsync: true}}
		if _, err := RunBurst(spec); err != nil {
			b.Fatal(err)
		}
		if _, err := RecoverBurst(spec); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := os.RemoveAll(spec.Log.Dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
