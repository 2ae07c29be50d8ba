package core

import (
	"fmt"
	"testing"
	"time"

	"sparsedysta/internal/sched"
	"sparsedysta/internal/sparsity"
	"sparsedysta/internal/trace"
)

// slopedTraces returns profiling traces whose latency falls with
// sparsity, so the LUT's latency-vs-sparsity slopes are non-zero and the
// predictor's estimates move with every monitored reading.
func slopedTraces(layers int) []trace.SampleTrace {
	var out []trace.SampleTrace
	for _, sp := range []float64{0.2, 0.45, 0.7} {
		tr := trace.SampleTrace{
			LayerLatency:  make([]time.Duration, layers),
			LayerSparsity: make([]float64, layers),
		}
		for l := range tr.LayerLatency {
			s := sp + 0.02*float64(l)
			tr.LayerSparsity[l] = s
			tr.LayerLatency[l] = time.Duration(float64(time.Millisecond*time.Duration(1+l%3)) * (1 - 0.6*s))
		}
		out = append(out, tr)
	}
	return out
}

// TestRecycledStateEqualsFresh: a request state recycled through Dysta's
// free list must be indistinguishable from a freshly allocated one, for
// every predictor configuration and both release paths (the final
// OnLayerComplete and OnExtract). The first request leaves the LastN
// window ring mid-rotation (7 and 2 observations against N = 3), so a
// reset that kept any of the ring's state would change the second
// request's coefficient. The engine extracts only never-started tasks;
// the extract case still runs two layers first so the released state is
// dirty.
func TestRecycledStateEqualsFresh(t *testing.T) {
	kA := trace.Key{Model: "first", Pattern: sparsity.Dense}
	kB := trace.Key{Model: "second", Pattern: sparsity.Dense}
	lut := synthLUT(t, map[trace.Key][]trace.SampleTrace{
		kA: slopedTraces(8), kB: slopedTraces(5),
	})
	monA := []float64{0.9, 0.1, 0.8, 0.15, 0.7, 0.05, 0.95, 0.3}
	monB := []float64{0.25, 0.6, 0.35, 0.5, 0.4}

	for _, strat := range []Strategy{LastOne, LastN, AverageAll} {
		for _, mode := range []CoeffMode{SparsityRatio, DensityRatio} {
			for _, literal := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.Strategy, cfg.Mode, cfg.LiteralAlg3 = strat, mode, literal
				for _, via := range []string{"completion", "extract"} {
					name := strat.String() + "/" + mode.String() + "/" + via
					if literal {
						name += "/literal"
					}
					t.Run(name, func(t *testing.T) {
						checkRecycledEqualsFresh(t, cfg, lut, kA, kB, monA, monB, via)
					})
				}
			}
		}
	}
}

func checkRecycledEqualsFresh(t *testing.T, cfg Config, lut *trace.StatsSet,
	kA, kB trace.Key, monA, monB []float64, via string) {
	d := New(cfg, lut)
	d.EnableScalable()
	now := time.Duration(0)

	first := &sched.Task{ID: 1, Key: kA, SLO: 40 * time.Millisecond}
	d.OnArrival(first, now)
	used := state(first)
	if via == "completion" {
		for l, mon := range monA {
			now += time.Millisecond
			first.NextLayer, first.LastRun = l+1, now
			first.Done = l == len(monA)-1
			d.OnLayerComplete(first, l, mon, now)
		}
	} else {
		for l, mon := range monA[:2] {
			now += time.Millisecond
			first.NextLayer, first.LastRun = l+1, now
			d.OnLayerComplete(first, l, mon, now)
		}
		d.OnExtract(first, now)
	}
	if first.Attachment != nil {
		t.Fatal("attachment survives release")
	}

	fresh := New(cfg, lut)
	fresh.EnableScalable()
	arrival := now
	mk := func() *sched.Task {
		return &sched.Task{ID: 2, Key: kB, Arrival: arrival, SLO: 12 * time.Millisecond, LastRun: arrival}
	}
	rec, ref := mk(), mk()
	d.OnArrival(rec, now)
	fresh.OnArrival(ref, now)
	if state(rec) != used {
		t.Fatal("arrival allocated a new state instead of reusing the released one")
	}
	compare := func(at string) {
		t.Helper()
		a, b := state(rec), state(ref)
		if a.staticScore != b.staticScore || a.remainMS != b.remainMS || a.isolMS != b.isolMS {
			t.Fatalf("%s: recycled (static %v, remain %v, isol %v) != fresh (static %v, remain %v, isol %v)",
				at, a.staticScore, a.remainMS, a.isolMS, b.staticScore, b.remainMS, b.isolMS)
		}
		for _, q := range []float64{1, 3} {
			if sa, sb := d.cachedScore(rec, now, q), fresh.cachedScore(ref, now, q); sa != sb {
				t.Fatalf("%s: recycled cachedScore %v != fresh %v (queue %v)", at, sa, sb, q)
			}
		}
	}
	compare("arrival")
	for l, mon := range monB {
		now += 2 * time.Millisecond
		done := l == len(monB)-1
		for _, task := range []*sched.Task{rec, ref} {
			task.NextLayer, task.LastRun, task.Done = l+1, now, done
		}
		d.OnLayerComplete(rec, l, mon, now)
		fresh.OnLayerComplete(ref, l, mon, now)
		if !done {
			compare(fmt.Sprintf("layer %d", l))
		}
	}
	if rec.Attachment != nil {
		t.Fatal("second request's attachment survives completion")
	}
}
