package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	semfs "repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/recorder"
	"repro/internal/report"
	"repro/internal/wal"
)

// workload is one benchmark input set. iterate runs the timed stages;
// check verifies the iteration's outputs (untimed) and records facts;
// cleanup drops the iteration's state so the next one starts cold.
type workload interface {
	iterate(it *iteration) error
	check(it *iteration)
	cleanup()
	// descriptors describes the last iteration's inputs and outputs.
	descriptors() map[string]any
}

type workloadDef struct {
	name  string
	build func(e *env, cfg config) (workload, error)
}

// The workloads stress different layers, so a change aimed at one layer
// has a workload that exercises it and one that bypasses it:
//
//   - flash-fbs-r256: 256 participants in every collective, so MPI
//     collective copying (produce) and the collective term of the
//     happens-before build (consume) dominate.
//   - enzo-fpp-r16: file-per-process HDF5 at 16 ranks, about 14 I/O
//     records per MPI event, so the relaxed-semantics PFS path, columnar
//     save/load, extraction, the analysis passes and the report dominate,
//     and the collective terms stay small.
//   - repro-sweep: 25 small traces, so per-trace fixed costs dominate
//     (pool spin-up, extraction-cache churn, checkpoint append and fsync,
//     decode); the only workload running the netcdf, adios and silo layers.
//   - wal-burst: the WAL checkpoint burst and its recovery, the only
//     workload running the wal and consistency layers. Appends are not
//     fsynced: with an fsync per append the burst measures this host's
//     shared disk, whose latency drifted from run to run by far more than
//     any bound the benchmark could hold. One rank writes all records:
//     a burst of two ranks runs on both cores at once, so a co-tenant
//     taking one core slows it by half again, while one rank and its
//     drainer barely notice.
var workloads = []workloadDef{
	{"flash-fbs-r256", func(e *env, cfg config) (workload, error) {
		o := semfs.RunOptions{Ranks: 256, PPN: 8, Semantics: semfs.Strong}
		if cfg.toy {
			o.Ranks, o.PPN = 8, 4
		}
		return newPipeline(e, cfg, "FLASH-fbs", o)
	}},
	{"enzo-fpp-r16", func(e *env, cfg config) (workload, error) {
		o := semfs.RunOptions{Ranks: 16, PPN: 8, Steps: 3000, Semantics: semfs.Session, Verify: true}
		if cfg.toy {
			o.Ranks, o.PPN, o.Steps = 8, 4, 30
		}
		return newPipeline(e, cfg, "ENZO-HDF5", o)
	}},
	{"repro-sweep", func(e *env, cfg config) (workload, error) {
		s := experiments.Scale{Ranks: 64, PPN: 8, Params: experiments.DefaultScale().Params}
		s.Params.Steps = 40
		if cfg.toy {
			s.Ranks, s.PPN, s.Params.Steps = 8, 4, 4
		}
		return newSweep(e, cfg, s)
	}},
	{"wal-burst", func(e *env, cfg config) (workload, error) {
		spec := wal.BurstSpec{Semantics: pfs.Commit, Ranks: 1, Records: 8000, Block: 4096, CommitEvery: 16}
		if cfg.toy {
			spec.Records = 200
		}
		return newWALBurst(e, cfg, spec), nil
	}},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// verdictRow is one configuration's row of the verdicts table.
type verdictRow struct {
	weakest    string
	perProcess bool
}

// readVerdicts parses the verdicts table semrepro writes: a configuration
// name, the weakest sufficient model, and "yes" when per-process ordering
// is needed.
func readVerdicts(path string) (map[string]verdictRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("expected verdicts: %w", err)
	}
	defer f.Close()
	rows := map[string]verdictRow{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 {
			continue
		}
		if _, err := pfs.ParseSemantics(fields[1]); err != nil {
			continue // title, header and rule lines
		}
		rows[fields[0]] = verdictRow{weakest: fields[1], perProcess: len(fields) > 2 && fields[2] == "yes"}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("expected verdicts: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("expected verdicts: no rows in %s", path)
	}
	return rows, nil
}

// traceFacts counts a trace's records, MPI events and collective
// instances (collective records share their instance's sequence number).
func traceFacts(tr *recorder.Trace) (records, mpiEvents, collectives int) {
	seqs := map[int64]bool{}
	for _, rs := range tr.PerRank {
		records += len(rs)
		for i := range rs {
			if rs[i].Layer != recorder.LayerMPI {
				continue
			}
			mpiEvents++
			switch rs[i].Func {
			case recorder.FuncMPIBarrier, recorder.FuncMPIBcast, recorder.FuncMPIReduce,
				recorder.FuncMPIAllreduce, recorder.FuncMPIGather, recorder.FuncMPIGatherv,
				recorder.FuncMPIScatter, recorder.FuncMPIAllgather, recorder.FuncMPIAlltoall:
				seqs[rs[i].Arg(2)] = true
			}
		}
	}
	return records, mpiEvents, len(seqs)
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// pipeline is the trace-to-verdict flow of `semtrace -out` followed by
// `semanalyze -report`: simulate and record, save through the storage
// backend, then load from the saved directory (not the in-memory trace),
// extract, run the analysis passes, build the happens-before relation,
// validate the session conflicts against it and render the run report.
type pipeline struct {
	e    *env
	app  string
	opts semfs.RunOptions
	want verdictRow
	dir  string

	res       *semfs.Result
	tr        *semfs.Trace
	fas       []*core.FileAccesses
	an        *semfs.Analysis
	hb        *core.HB
	unordered []core.Conflict
	report    string

	desc map[string]any
}

func newPipeline(e *env, cfg config, app string, o semfs.RunOptions) (*pipeline, error) {
	rows, err := readVerdicts(cfg.verdicts)
	if err != nil {
		return nil, err
	}
	want, ok := rows[app]
	if !ok {
		return nil, fmt.Errorf("expected verdicts: no row for %s", app)
	}
	o.Seed = cfg.seed
	return &pipeline{e: e, app: app, opts: o, want: want, dir: filepath.Join(e.dir, "trace")}, nil
}

func (p *pipeline) iterate(it *iteration) error {
	ctx := context.Background()
	w := p.e.workers
	return it.run(
		step{"apps.generate", produce, func() (err error) {
			p.res, err = semfs.Run(p.app, p.opts)
			return err
		}},
		step{"colfmt.save", produce, func() error {
			return semfs.SaveTraceOn(p.e.backend, p.dir, p.res.Trace)
		}},
		step{"colfmt.load", consume, func() (err error) {
			p.tr, err = semfs.LoadTraceOn(p.e.backend, p.dir, w)
			return err
		}},
		step{"core.extract", consume, func() (err error) {
			p.fas, err = core.ExtractSharedCtx(ctx, p.tr, w)
			return err
		}},
		step{"core.passes", consume, func() (err error) {
			p.an, err = semfs.AnalyzeParallelCtx(ctx, p.tr, w)
			return err
		}},
		step{"core.hb", consume, func() (err error) {
			p.hb, err = core.BuildHB(p.tr)
			return err
		}},
		// The §5.2 validation as semfs.ValidateSynchronization performs it,
		// with the happens-before build timed as its own stage.
		step{"core.validate", consume, func() error {
			byFile, _ := core.ConflictsOverFiles(p.fas, pfs.Session)
			p.unordered = nil
			for _, cs := range byFile {
				p.unordered = append(p.unordered, core.ValidateConflicts(p.hb, cs)...)
			}
			return nil
		}},
		step{"report.render", consume, func() error {
			p.report = report.BuildRunReport(p.tr).Render()
			return nil
		}},
	)
}

func (p *pipeline) check(it *iteration) {
	o := it.ops
	o.check("rank errors", len(p.res.RankErrors) == 0, "%d rank errors, first: %v", len(p.res.RankErrors), p.res.Err())
	o.check("load round trip", p.tr.NumRecords() == p.res.Trace.NumRecords(),
		"loaded %d records, generated %d", p.tr.NumRecords(), p.res.Trace.NumRecords())
	v := p.an.Verdict
	o.check("verdict", v.Weakest.String() == p.want.weakest && v.NeedsPerProcessOrdering == p.want.perProcess,
		"%s: weakest %s per-process %v, expected %s per-process %v",
		p.app, v.Weakest, v.NeedsPerProcessOrdering, p.want.weakest, p.want.perProcess)
	o.check("happens-before", len(p.unordered) == 0, "%d unsynchronized conflicting pairs", len(p.unordered))
	o.check("report", strings.Contains(p.report, p.app), "rendered report does not name %s", p.app)
	// The serial path is the correctness oracle for the parallel engine.
	o.check("parallel analysis equals serial oracle", reflect.DeepEqual(p.an, semfs.Analyze(p.tr)),
		"AnalyzeParallelCtx differs from Analyze")

	records, mpiEvents, collectives := traceFacts(p.tr)
	traceBytes, err := dirBytes(p.dir)
	o.record("trace size", err)
	session, commit := 0, 0
	for _, cs := range p.an.SessionConflicts {
		session += len(cs)
	}
	for _, cs := range p.an.CommitConflicts {
		commit += len(cs)
	}
	it.fact("mpi.events", float64(mpiEvents))
	it.fact("mpi.collectives", float64(collectives))
	it.fact("colfmt.trace_bytes", float64(traceBytes))
	it.fact("core.validate.unordered", float64(len(p.unordered)))
	it.fact("core.conflicts.session", float64(session))
	it.fact("core.conflicts.commit", float64(commit))
	p.desc = map[string]any{
		"app": p.app, "ranks": p.opts.Ranks, "ppn": p.opts.PPN, "steps": p.opts.Steps,
		"semantics": p.opts.Semantics.String(), "verify": p.opts.Verify,
		"records": records, "mpi_events": mpiEvents, "mpi_collectives": collectives,
		"files": len(p.fas), "trace_bytes": traceBytes,
	}
}

func (p *pipeline) cleanup() {
	if p.tr != nil {
		core.InvalidateExtraction(p.tr)
	}
	p.res, p.tr, p.fas, p.an, p.hb, p.unordered = nil, nil, nil, nil, nil, nil
	os.RemoveAll(p.dir)
}

func (p *pipeline) descriptors() map[string]any { return p.desc }

// sweep is the `semrepro -checkpoint` then `-resume` flow: every registry
// configuration journaled into a checkpoint store, every paper artifact
// rendered, then a resume pass replayed from the journal with every
// artifact rendered again.
type sweep struct {
	e     *env
	scale experiments.Scale
	want  string
	dir   string
	hits  *obs.Counter

	cold, warm       *experiments.Results
	coldArt, warmArt artifacts
	resumeHits       int64

	desc map[string]any
}

type artifacts struct {
	all, verdicts string
}

func newSweep(e *env, cfg config, s experiments.Scale) (*sweep, error) {
	want, err := os.ReadFile(cfg.verdicts)
	if err != nil {
		return nil, fmt.Errorf("expected verdicts: %w", err)
	}
	s.Seed = cfg.seed
	return &sweep{e: e, scale: s, want: string(want), dir: filepath.Join(e.dir, "ckpt"),
		hits: obs.Default().Counter("ckpt.resume.hits")}, nil
}

// render produces every artifact semrepro writes for the sweep.
func render(r *experiments.Results) artifacts {
	var b strings.Builder
	b.WriteString(experiments.Table3(r))
	b.WriteString(experiments.Table4(r))
	text, csv := experiments.Figure1(r)
	b.WriteString(text)
	b.WriteString(csv)
	fig2 := experiments.Figure2(r)
	names := make([]string, 0, len(fig2))
	for name := range fig2 {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b.WriteString(name)
		b.WriteString(fig2[name])
	}
	b.WriteString(experiments.Figure3(r))
	verdicts := experiments.VerdictsReport(r)
	b.WriteString(verdicts)
	b.WriteString(experiments.MetaTable(r))
	return artifacts{all: b.String(), verdicts: verdicts}
}

// runSweep opens the checkpoint store and runs the registry sweep through
// it, as one semrepro invocation does.
func (s *sweep) runSweep(resume bool) (*experiments.Results, error) {
	store, err := experiments.OpenCheckpointOn(s.e.backend, s.dir, s.scale)
	if err != nil {
		return nil, err
	}
	res, err := experiments.RunAllCtx(context.Background(), s.scale,
		experiments.SweepOptions{Workers: s.e.workers, Checkpoint: store, Resume: resume})
	return res, errors.Join(err, store.Close())
}

func (s *sweep) iterate(it *iteration) error {
	return it.run(
		step{"experiments.sweep", produce, func() (err error) {
			s.cold, err = s.runSweep(false)
			return err
		}},
		step{"experiments.artifacts", consume, func() error {
			s.coldArt = render(s.cold)
			return nil
		}},
		step{"experiments.resume", consume, func() (err error) {
			hits := s.hits.Value()
			s.warm, err = s.runSweep(true)
			s.resumeHits = s.hits.Value() - hits
			if err == nil {
				s.warmArt = render(s.warm)
			}
			return err
		}},
	)
}

func (s *sweep) check(it *iteration) {
	o := it.ops
	n := len(semfs.Applications())
	o.check("configurations ok", len(s.cold.Ordered) == n, "%d of %d configurations ok", len(s.cold.Ordered), n)
	o.check("resumed configurations ok", len(s.warm.Ordered) == n, "%d of %d resumed configurations ok", len(s.warm.Ordered), n)
	o.check("verdicts", s.coldArt.verdicts == s.want, "verdicts report differs from the expected table:\n%s", s.coldArt.verdicts)
	o.check("resumed artifacts", s.warmArt.all == s.coldArt.all, "artifacts rendered after resume differ from the cold ones")
	o.check("resume hits", s.resumeHits == int64(n), "ckpt.resume.hits = %d, want %d", s.resumeHits, n)

	var records, mpiEvents, collectives, files int
	for _, name := range s.cold.Ordered {
		tr := s.cold.ByName[name].Trace
		r, m, c := traceFacts(tr)
		records, mpiEvents, collectives = records+r, mpiEvents+m, collectives+c
		files += len(core.ExtractShared(tr))
	}
	journal, err := dirBytes(s.dir)
	o.record("checkpoint size", err)
	it.fact("mpi.events", float64(mpiEvents))
	it.fact("mpi.collectives", float64(collectives))
	s.desc = map[string]any{
		"configurations": n, "ranks": s.scale.Ranks, "ppn": s.scale.PPN, "steps": s.scale.Params.Steps,
		"records": records, "mpi_events": mpiEvents, "mpi_collectives": collectives,
		"files": files, "trace_bytes": journal,
	}
}

func (s *sweep) cleanup() {
	for _, r := range []*experiments.Results{s.cold, s.warm} {
		if r == nil {
			continue
		}
		for _, res := range r.ByName {
			core.InvalidateExtraction(res.Trace)
		}
	}
	s.cold, s.warm = nil, nil
	os.RemoveAll(s.dir)
}

func (s *sweep) descriptors() map[string]any { return s.desc }

// walBurst is `semrepro -wal-burst` followed by `-wal-recover`: per-rank
// write-ahead logs (appends not fsynced, see workloads), then salvage and
// replay with the zero-acked-write-loss, formal-spec and direct-run checks.
type walBurst struct {
	e    *env
	spec wal.BurstSpec

	res *wal.BurstResult
	rep *wal.RecoveryReport

	desc map[string]any
}

func newWALBurst(e *env, cfg config, spec wal.BurstSpec) *walBurst {
	spec.Seed = cfg.seed
	spec.Log = wal.Options{Dir: filepath.Join(e.dir, "wal"), Backend: e.backend, NoFsync: true}
	return &walBurst{e: e, spec: spec}
}

func (w *walBurst) iterate(it *iteration) error {
	return it.run(
		step{"wal.burst", produce, func() (err error) {
			w.res, err = wal.RunBurst(w.spec)
			return err
		}},
		// RecoverBurst returns nil only with zero acked-write loss, the
		// replayed history accepted by the model's spec, and replayed state
		// identical to a direct run.
		step{"wal.recover", consume, func() (err error) {
			w.rep, err = wal.RecoverBurst(w.spec)
			return err
		}},
	)
}

func (w *walBurst) check(it *iteration) {
	o := it.ops
	o.check("burst spec", w.res.Spec.OK(), "burst history rejected: %v", w.res.Spec.Violation)
	want := w.spec.Ranks * w.spec.Records
	o.check("recovered records", w.rep.Records == want, "recovered %d records, want %d", w.rep.Records, want)
	logBytes, err := dirBytes(w.spec.Log.Dir)
	o.record("log size", err)
	w.desc = map[string]any{
		"semantics": w.spec.Semantics.String(), "ranks": w.spec.Ranks, "records_per_rank": w.spec.Records,
		"block": w.spec.Block, "commit_every": w.spec.CommitEvery,
		"records": want, "mpi_events": 0, "files": 1, "trace_bytes": logBytes,
	}
}

func (w *walBurst) cleanup() {
	w.res, w.rep = nil, nil
	os.RemoveAll(w.spec.Log.Dir)
}

func (w *walBurst) descriptors() map[string]any { return w.desc }
