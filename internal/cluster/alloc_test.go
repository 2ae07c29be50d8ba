package cluster

import (
	"testing"

	"sparsedysta/internal/core"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/workload"
)

// TestStreamedDystaMarginalAllocs pins the allocation cost of one more
// streamed request on the datacenter hot path — lazy arrivals into 16
// Dysta engines on the scalable pick with bounded capture — at one: the
// workload.Request the stream hands out. Tasks recycle through the task
// pool and Dysta's request states through the scheduler's free list, so
// doubling the request count must add (nearly) nothing else. The
// difference of two runs cancels every fixed cost (Phase 1, engine and
// heap construction); the 0.1 slack covers amortized slice growth and
// the tasks reallocated after a GC empties the pool. Allocation counts
// do not depend on the machine, so the bound is exact anywhere.
func TestStreamedDystaMarginalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a random share of released tasks, so the count is not exact")
	}
	sc := workload.MultiAttNN()
	prof, eval, err := workload.BuildStores(sc, 30, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	lut, err := trace.NewStatsSet(prof)
	if err != nil {
		t.Fatal(err)
	}
	est := sched.NewEstimator(lut)
	load, curve := SparsityAwareLoad(lut, est), SparsityAwareCurve(lut, est)
	mallocs := func(n int) float64 {
		return testing.AllocsPerRun(1, func() {
			// 400 req/s keeps 16 engines at ~83% utilization: queues stay
			// in steady state instead of growing with the horizon.
			src, err := workload.NewStream(sc, eval, workload.GenConfig{
				Requests: n, RatePerSec: 400, SLOMultiplier: 10, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunStream(func(int) sched.Scheduler { return core.NewDefault(lut) }, src, Config{
				Engines:  16,
				Dispatch: NewLeastLoad("load", load).WithCurve(curve),
				Sched:    sched.Options{BoundedCapture: true, ScalablePick: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Requests != n {
				t.Fatalf("streamed %d of %d requests", res.Requests, n)
			}
		})
	}
	const n = 20_000
	one, two := mallocs(n), mallocs(2*n)
	per := (two - one) / n
	t.Logf("%.4f allocations per additional streamed request", per)
	if per > 1.1 {
		t.Errorf("%.3f allocations per additional streamed request (%.0f at %d, %.0f at %d), want <= 1.1",
			per, one, n, two, 2*n)
	}
}
