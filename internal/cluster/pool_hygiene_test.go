package cluster

import (
	"reflect"
	"testing"
	"time"

	"sparsedysta/internal/core"
	"sparsedysta/internal/sched"
)

// TestPooledRunsByteIdentical is the pooled-object hygiene pin: the same
// seeded configuration run twice in one process must produce byte-
// identical results. The first run populates the process-wide task pool,
// so the second run executes almost entirely on recycled Task structs —
// any state that leaks through the pool (a field releaseTask forgot to
// zero, a scheduler retaining a completed task's pointer into its next
// decision) shows up as divergence here. Within each run, every
// scheduler with per-request state also recycles it through its own
// free list: states released at completion and by OnExtract (migration)
// are reused by later arrivals, so a field their reset forgot would make
// the schedule diverge from the fresh-state run of the other suites.
// The config deliberately stacks every recycling-hostile subsystem:
// bounded capture (the only mode that releases tasks), migration (tasks
// change engines mid-flight), churn (crash/redistribute paths), and the
// three schedulers that allocate per-request state on the scalable path
// — Dysta (predictor), PREMA (token state keyed off task identity) and
// SDRM3 (class-heap slots). CI runs this under -race, which covers the
// concurrent half of the hygiene claim.
func TestPooledRunsByteIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		reqs, est, lut := randomStream(seed, 120)
		load := SparsityAwareLoad(lut, est)
		curve := SparsityAwareCurve(lut, est)
		plan, err := GenChurn(4, time.Second, 100*time.Millisecond, 20*time.Millisecond, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []struct {
			name string
			mk   func() sched.Scheduler
		}{
			{"Dysta", func() sched.Scheduler { return core.NewDefault(lut) }},
			{"PREMA", func() sched.Scheduler { return sched.NewPREMA(est) }},
			{"SDRM3", func() sched.Scheduler { return sched.NewSDRM3(est) }},
		} {
			run := func() Result {
				res, err := Run(func(int) sched.Scheduler { return spec.mk() }, reqs, Config{
					Engines:           4,
					Dispatch:          NewLeastLoad("load", load).WithCurve(curve),
					SignalInterval:    2 * time.Millisecond,
					Rebalance:         Steal{Load: load, Curve: curve},
					RebalanceInterval: time.Millisecond,
					MigrationCost:     200 * time.Microsecond,
					Churn:             &plan,
					RetryMax:          3,
					Sched: sched.Options{
						BoundedCapture: true,
						ScalablePick:   true,
						Exemplars:      8,
						ExemplarSeed:   1,
					},
				})
				if err != nil {
					t.Fatalf("%s seed %d: %v", spec.name, seed, err)
				}
				return res
			}
			first, second := run(), run()
			if first.Migrations == 0 {
				t.Errorf("%s seed %d: no migration, so the OnExtract release path went unexercised", spec.name, seed)
			}
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("%s seed %d: pooled rerun diverges from first run:\n%+v\nvs\n%+v",
					spec.name, seed, first, second)
			}
		}
	}
}
