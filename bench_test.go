package semfs

// Benchmarks, one per table and figure of the paper plus ablations for the
// design choices DESIGN.md calls out. Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Absolute numbers measure this reproduction's simulator, not the paper's
// testbed; the claims are the shapes (who wins, what scales how) — see
// EXPERIMENTS.md.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/recorder"
)

// benchScale keeps full-registry benchmarks affordable.
var benchScale = experiments.Scale{Ranks: 16, PPN: 2, Seed: 1}

var (
	benchOnce    sync.Once
	benchResults *experiments.Results
	benchErr     error
	benchSink    int
)

func allResults(b *testing.B) *experiments.Results {
	b.Helper()
	benchOnce.Do(func() {
		benchResults, benchErr = experiments.RunAll(benchScale)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchResults
}

// BenchmarkTable1SemanticsModels measures the four consistency models'
// write+publish+read path (the mechanism behind Table 1's categorization).
func BenchmarkTable1SemanticsModels(b *testing.B) {
	for _, sem := range pfs.AllSemantics() {
		b.Run(sem.String(), func(b *testing.B) {
			fs := pfs.New(pfs.Options{Semantics: sem})
			w := fs.NewClient(0, 0)
			r := fs.NewClient(1, 0)
			hw, _, err := w.Open("/f", pfs.OCreat|pfs.OWronly, 1)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := uint64(i + 10)
				if _, err := hw.Write(int64(i%64)*4096, buf, now); err != nil {
					b.Fatal(err)
				}
				if _, err := hw.Commit(now); err != nil {
					b.Fatal(err)
				}
				hr, _, err := r.Open("/f", pfs.ORdonly, now)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := hr.Read(int64(i%64)*4096, 4096, now); err != nil {
					b.Fatal(err)
				}
				if _, err := hr.Close(now); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3HighLevelPatterns regenerates the Table 3 classification
// for all 25 configurations.
func BenchmarkTable3HighLevelPatterns(b *testing.B) {
	res := allResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := experiments.Table3(res)
		if len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable4ConflictDetection regenerates the Table 4 conflict
// signatures (session + commit) for all 25 configurations.
func BenchmarkTable4ConflictDetection(b *testing.B) {
	res := allResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table4Rows(res)
		if len(rows) != 25 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

// BenchmarkFigure1AccessPatterns regenerates the global/local pattern mixes.
func BenchmarkFigure1AccessPatterns(b *testing.B) {
	res := allResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text, csv := experiments.Figure1(res)
		if len(text) == 0 || len(csv) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure2FlashPatterns regenerates the FLASH offset/time scatter
// series (six panels).
func BenchmarkFigure2FlashPatterns(b *testing.B) {
	res := allResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		panels := experiments.Figure2(res)
		if len(panels) != 10 {
			b.Fatalf("%d panels", len(panels))
		}
	}
}

// BenchmarkFigure3MetadataCensus regenerates the metadata-operation matrix.
func BenchmarkFigure3MetadataCensus(b *testing.B) {
	res := allResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := experiments.Figure3(res)
		if len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkAppTraceGeneration measures end-to-end simulated runs of
// representative applications (the workload generator itself).
func BenchmarkAppTraceGeneration(b *testing.B) {
	for _, name := range []string{"FLASH-fbs", "FLASH-nofbs", "LAMMPS-ADIOS", "LBANN", "HACC-IO-POSIX"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Run(name, RunOptions{Ranks: 16, PPN: 2, Seed: uint64(i + 1)})
				if err != nil || res.Err() != nil {
					b.Fatal(err, res.Err())
				}
			}
		})
	}
}

// BenchmarkOverlapDetection compares Algorithm 1 against the brute-force
// oracle as the record count grows (the paper notes the sweep is linear in
// practice).
func BenchmarkOverlapDetection(b *testing.B) {
	mk := func(n int) []core.Interval {
		ivs := make([]core.Interval, n)
		for i := range ivs {
			// Mostly disjoint strided blocks with occasional overlaps.
			base := int64(i) * 100
			if i%17 == 0 {
				base -= 50
			}
			ivs[i] = core.Interval{T: uint64(i), TEnd: uint64(i) + 1,
				Rank: int32(i % 64), Os: base, Oe: base + 100, Write: i%2 == 0}
		}
		return ivs
	}
	for _, n := range []int{100, 1000, 10000} {
		ivs := mk(n)
		b.Run(fmt.Sprintf("algorithm1/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.DetectOverlaps(ivs, func(core.OverlapPair) {})
			}
		})
	}
	for _, n := range []int{100, 1000, 10000} {
		ivs := mk(n)
		b.Run(fmt.Sprintf("merge/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.DetectOverlapsMerge(ivs, func(core.OverlapPair) {})
			}
		})
	}
	for _, n := range []int{100, 1000} {
		ivs := mk(n)
		b.Run(fmt.Sprintf("bruteforce/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.DetectOverlapsBruteForce(ivs, func(core.OverlapPair) {})
			}
		})
	}
}

// BenchmarkMetadataConflictDetection measures the §7-extension analysis.
func BenchmarkMetadataConflictDetection(b *testing.B) {
	res := allResults(b)
	tr := res.ByName["MACSio-Silo"].Trace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs := core.DetectMetadataConflicts(tr)
		if len(cs) == 0 {
			b.Fatal("no metadata dependencies found")
		}
	}
}

// BenchmarkPFSSemanticsThroughput is the ablation of DESIGN.md: simulated
// cost of canonical write workloads across the four consistency models.
// The metric to read is simulated-elapsed-ms (reported as sim_ms/op), not
// host time.
func BenchmarkPFSSemanticsThroughput(b *testing.B) {
	for _, workload := range experiments.PFSBenchWorkloads() {
		for _, sem := range pfs.AllSemantics() {
			b.Run(workload+"/"+sem.String(), func(b *testing.B) {
				var elapsed uint64
				for i := 0; i < b.N; i++ {
					r, err := experiments.PFSBench(workload, sem, 16, 2, 4096, 16)
					if err != nil {
						b.Fatal(err)
					}
					elapsed = r.ElapsedNS
				}
				b.ReportMetric(float64(elapsed)/1e6, "sim_ms/op")
			})
		}
	}
}

// BenchmarkScaleSweep regenerates the §6.1 scale-invariance run: the same
// application at growing rank counts.
func BenchmarkScaleSweep(b *testing.B) {
	for _, ranks := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("FLASH-nofbs/ranks=%d", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Run("FLASH-nofbs", RunOptions{Ranks: ranks, PPN: 8, Seed: 1})
				if err != nil || res.Err() != nil {
					b.Fatal(err, res.Err())
				}
				_, sig := core.AnalyzeConflicts(res.Trace, pfs.Session)
				if !sig.WAWDiff {
					b.Fatal("scale run lost the WAW-D signature")
				}
			}
		})
	}
}

// BenchmarkTraceEncodeDecode measures the binary trace format round trip.
func BenchmarkTraceEncodeDecode(b *testing.B) {
	res := allResults(b)
	tr := res.ByName["FLASH-nofbs"].Trace
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var n int
			for rank, rs := range tr.PerRank {
				var buf countWriter
				if err := recorder.EncodeRankStream(&buf, rank, rs); err != nil {
					b.Fatal(err)
				}
				n += buf.n
			}
			b.SetBytes(int64(n))
		}
	})
}

type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

func (w *countWriter) WriteString(s string) (int, error) { w.n += len(s); return len(s), nil }

// BenchmarkHappensBefore measures happens-before reconstruction and
// conflict-order validation on FLASH-fbs, whose collectives span every
// rank, at the rank counts the paper studied. The trace and its conflicts
// are produced outside the timer; allocs/op and B/op track the clock slab
// and are machine-independent.
func BenchmarkHappensBefore(b *testing.B) {
	for _, ranks := range []int{64, 256} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			res, err := Run("FLASH-fbs", RunOptions{Ranks: ranks, PPN: 8, Semantics: Strong})
			if err == nil {
				err = res.Err()
			}
			if err != nil {
				b.Fatal(err)
			}
			byFile, _ := core.AnalyzeConflicts(res.Trace, pfs.Session)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hb, err := core.BuildHB(res.Trace)
				if err != nil {
					b.Fatal(err)
				}
				for _, cs := range byFile {
					if un := core.ValidateConflicts(hb, cs); len(un) > 0 {
						b.Fatal("unsynchronized conflicts")
					}
				}
			}
		})
	}
}

// BenchmarkAnalyzeParallel compares the serial analysis oracle against the
// sharded engine over the full registry trace set at growing pool sizes.
// Speedup only materializes with free hardware threads: on a machine with
// >=8 cores expect workers=8 to finish the sweep at least 2x faster than
// serial; on a 1-2 core host the parallel path degrades to roughly serial
// cost plus scheduling noise. Record the host's core count with the numbers.
func BenchmarkAnalyzeParallel(b *testing.B) {
	res := allResults(b)
	sweep := func(b *testing.B, analyze func(tr *recorder.Trace) *Analysis) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			for _, name := range res.Ordered {
				an := analyze(res.ByName[name].Trace)
				if len(an.Patterns) == 0 {
					b.Fatalf("%s: empty analysis", name)
				}
				benchSink += an.Global.Total()
			}
		}
	}
	b.Run("serial", func(b *testing.B) {
		sweep(b, Analyze)
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel/workers=%d", workers), func(b *testing.B) {
			sweep(b, func(tr *recorder.Trace) *Analysis {
				return AnalyzeParallel(tr, workers)
			})
		})
	}

	// Telemetry overhead: the same sweep with the obs registry disabled
	// (every instrument short-circuits on one atomic load) versus enabled.
	// The acceptance bar is disabled-vs-baseline within ~2%; the sub-
	// benchmarks above run with the registry in its default enabled state,
	// so compare "telemetry=off" here against "parallel/workers=4" there.
	reg := obs.Default()
	for _, on := range []bool{false, true} {
		name := "telemetry=off"
		if on {
			name = "telemetry=on"
		}
		b.Run(name, func(b *testing.B) {
			was := reg.Enabled()
			reg.SetEnabled(on)
			defer reg.SetEnabled(was)
			sweep(b, func(tr *recorder.Trace) *Analysis {
				return AnalyzeParallel(tr, 4)
			})
		})
	}
}

// BenchmarkFusedAnalyze compares the fused single-sweep multi-model
// conflict engine against the pre-fusion per-model path over the full
// registry at benchScale. Three shapes:
//
//   - per-model: one AnalyzeConflicts call per model — two extractions and
//     two full sweeps per trace (the pre-PR production path);
//   - fused-cold: one AnalyzeConflictsAll call with the extraction cache
//     invalidated every iteration — one extraction plus one sweep;
//   - fused-warm: the same with the cache hot — one sweep, zero extractions
//     (the steady state of report/figure pipelines revisiting a trace).
//
// The equivalence of the two engines is proven by internal/analysistest
// (CheckFused over randomized traces and all registry apps), so the delta
// here is pure performance.
func BenchmarkFusedAnalyze(b *testing.B) {
	res := allResults(b)
	models := []pfs.Semantics{pfs.Session, pfs.Commit}
	b.Run("per-model", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, name := range res.Ordered {
				tr := res.ByName[name].Trace
				for _, m := range models {
					_, sig := core.AnalyzeConflicts(tr, m)
					if sig.Any() {
						benchSink++
					}
				}
			}
		}
	})
	b.Run("fused-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, name := range res.Ordered {
				tr := res.ByName[name].Trace
				core.InvalidateExtraction(tr)
				for _, mc := range core.AnalyzeConflictsAll(tr, models...) {
					if mc.Signature.Any() {
						benchSink++
					}
				}
			}
		}
	})
	b.Run("fused-warm", func(b *testing.B) {
		for _, name := range res.Ordered {
			core.ExtractShared(res.ByName[name].Trace) // prime the cache
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, name := range res.Ordered {
				for _, mc := range core.AnalyzeConflictsAll(res.ByName[name].Trace, models...) {
					if mc.Signature.Any() {
						benchSink++
					}
				}
			}
		}
	})
}

// BenchmarkExtract measures offset reconstruction over a large trace.
func BenchmarkExtract(b *testing.B) {
	res := allResults(b)
	tr := res.ByName["FLASH-fbs"].Trace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fas := core.Extract(tr)
		if len(fas) == 0 {
			b.Fatal("no files")
		}
	}
}
