package core

import (
	"context"
	"sort"

	"repro/internal/recorder"
)

// originName maps a record's originating layer to the categories Figure 3
// uses: the MPI library (MPI-IO), HDF5, other I/O libraries, or the
// application itself.
func originName(l recorder.Layer) string {
	switch l {
	case recorder.LayerMPIIO:
		return "MPI"
	case recorder.LayerHDF5:
		return "HDF5"
	case recorder.LayerNetCDF:
		return "NetCDF"
	case recorder.LayerADIOS:
		return "ADIOS"
	case recorder.LayerSilo:
		return "Silo"
	default:
		return "App"
	}
}

// Census is the Figure 3 data for one application configuration: for each
// POSIX metadata/utility operation used, how many calls were issued and
// from which layer they originated.
type Census struct {
	// Counts[origin][func] = number of calls.
	Counts map[string]map[recorder.Func]int
}

// Funcs returns the metadata operations observed, sorted by name.
func (c *Census) Funcs() []recorder.Func {
	set := make(map[recorder.Func]bool)
	for _, m := range c.Counts {
		for f := range m {
			set[f] = true
		}
	}
	out := make([]recorder.Func, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Origins returns the layer categories observed, sorted.
func (c *Census) Origins() []string {
	out := make([]string, 0, len(c.Counts))
	for o := range c.Counts {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// Total returns the total number of metadata calls.
func (c *Census) Total() int {
	n := 0
	for _, m := range c.Counts {
		for _, v := range m {
			n += v
		}
	}
	return n
}

// Used reports whether a given operation appears at all.
func (c *Census) Used(f recorder.Func) bool {
	for _, m := range c.Counts {
		if m[f] > 0 {
			return true
		}
	}
	return false
}

// MetadataCensus reproduces the §6.4 analysis: it counts every POSIX
// metadata/utility operation in the trace and attributes each call to the
// I/O layer that issued it (the outermost enclosing library record, or the
// application when none). On a pool, per-rank partial censuses are merged
// by addition (commutative, so any merge order is exact).
func MetadataCensus(ctx context.Context, tr *recorder.Trace, workers int) (*Census, error) {
	defer startPass("census")()
	out := &Census{Counts: make(map[string]map[recorder.Func]int)}
	n := len(tr.PerRank)
	if EffectiveWorkers(workers) <= 1 || n <= 1 {
		// Reference schedule: every rank tallies into one census in order.
		if err := ParallelFor(ctx, n, 1, func(r int) { censusRank(tr.PerRank[r], out) }); err != nil {
			return nil, err
		}
		return out, nil
	}
	partial := make([]*Census, n)
	if err := ParallelFor(ctx, n, workers, func(r int) {
		c := &Census{Counts: make(map[string]map[recorder.Func]int)}
		censusRank(tr.PerRank[r], c)
		partial[r] = c
	}); err != nil {
		return nil, err
	}
	for _, c := range partial {
		for origin, m := range c.Counts {
			dst, ok := out.Counts[origin]
			if !ok {
				dst = make(map[recorder.Func]int)
				out.Counts[origin] = dst
			}
			for f, v := range m {
				dst[f] += v
			}
		}
	}
	return out, nil
}

// censusRank tallies one rank's metadata operations into c.
func censusRank(rs []recorder.Record, c *Census) {
	origins, _ := attributeOrigins(rs)
	for i := range rs {
		r := &rs[i]
		if !r.IsMetadataOp() {
			continue
		}
		origin := originName(origins[i])
		m, ok := c.Counts[origin]
		if !ok {
			m = make(map[recorder.Func]int)
			c.Counts[origin] = m
		}
		m[r.Func]++
	}
}
