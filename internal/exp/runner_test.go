package exp

import (
	"encoding/json"
	"reflect"
	"testing"

	"sparsedysta/internal/core"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/workload"
)

// TestParallelRunnerMatchesSequential: the worker-pool grid runner must
// produce byte-identical Results to the sequential reference path
// (RunSeeds + AverageResults) for a fixed seed protocol, regardless of
// worker count.
func TestParallelRunnerMatchesSequential(t *testing.T) {
	opts := tiny()
	opts.Seeds = 3
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	specs := StandardScheds()

	// Sequential reference.
	want := map[string]sched.Result{}
	for _, spec := range specs {
		rs, err := p.RunSeeds(spec, 30, 10, opts)
		if err != nil {
			t.Fatal(err)
		}
		avg, err := sched.AverageResults(rs)
		if err != nil {
			t.Fatal(err)
		}
		avg.Scheduler = spec.Name
		want[spec.Name] = avg
	}

	for _, workers := range []int{1, 4, 16} {
		par := opts
		par.Workers = workers
		got, err := p.RunPoint(specs, 30, 10, par)
		if err != nil {
			t.Fatal(err)
		}
		// Byte-level comparison: any float divergence (reordered
		// accumulation, a different seed derivation) must surface.
		a, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("workers=%d: parallel results diverge from sequential:\n%s\nvs\n%s",
				workers, a, b)
		}
	}
}

// TestRunGridShape: grid results come back ordered as the input points.
func TestRunGridShape(t *testing.T) {
	opts := tiny()
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	points := []Point{{Rate: 20, MSLO: 10}, {Rate: 30, MSLO: 10}, {Rate: 30, MSLO: 40}}
	grid, err := p.RunGrid(StandardScheds()[:2], points, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != len(points) {
		t.Fatalf("grid has %d points, want %d", len(grid), len(points))
	}
	for i, pr := range grid {
		if pr.Point != points[i] {
			t.Errorf("grid[%d].Point = %+v, want %+v", i, pr.Point, points[i])
		}
		if len(pr.Results) != 2 {
			t.Errorf("grid[%d] has %d results", i, len(pr.Results))
		}
	}
	if _, err := p.RunGrid(StandardScheds()[:1], points, Options{}); err == nil {
		t.Error("zero-seed grid accepted")
	}
}

// TestStandardSchedsIncrementalEquivalence: every scheduler of the
// paper's Table 5 lineup — including Dysta, whose incremental path caches
// predictor-derived score components — must produce bit-identical
// schedules on its default engine path and the reference PickNext over a
// real generated workload. The reference run hides the fast-path methods
// behind a plain sched.Scheduler; for schedulers with only PickNext the
// two runs take the same path.
func TestStandardSchedsIncrementalEquivalence(t *testing.T) {
	opts := tiny()
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(p.Scenario, p.Eval, workload.GenConfig{
		Requests: 200, RatePerSec: 30, SLOMultiplier: 10, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	record := sched.Options{RecordTimeline: true, RecordTasks: true}

	// Dysta config variants: every ablation ships results through the
	// cachedScore fast path, so each non-default branch (gamma strategy,
	// coefficient space, static-only, literal Alg. 3, knob extremes)
	// must also match the reference scoring.
	variants := []struct {
		name string
		mut  func(*core.Config)
	}{
		{"Dysta/last-n", func(c *core.Config) { c.Strategy = core.LastN }},
		{"Dysta/average-all", func(c *core.Config) { c.Strategy = core.AverageAll }},
		{"Dysta/density-ratio", func(c *core.Config) { c.Mode = core.DensityRatio }},
		{"Dysta/w-o-sparse", func(c *core.Config) { c.DynamicEnabled = false }},
		{"Dysta/literal-alg3", func(c *core.Config) { c.LiteralAlg3 = true }},
		{"Dysta/eta-0", func(c *core.Config) { c.Eta = 0 }},
		{"Dysta/no-demotion", func(c *core.Config) { c.DemotionMS = 0; c.PenaltyWeight = 100 }},
	}
	specs := WithOracle(StandardScheds())
	for _, v := range variants {
		cfg := core.DefaultConfig()
		v.mut(&cfg)
		specs = append(specs, SchedSpec{Name: v.name, New: func(p *Pipeline) sched.Scheduler {
			return core.New(cfg, p.LUT)
		}})
	}

	for _, spec := range specs {
		fast, err := sched.Run(spec.New(p), reqs, record)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := sched.Run(struct{ sched.Scheduler }{spec.New(p)}, reqs, record)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Errorf("%s: incremental and reference schedules diverge", spec.Name)
		}
	}
}

// TestScalablePickIsPure: ScalablePick is a performance flag, so every
// scheduler must produce DeepEqual per-seed results with it on and off —
// on one engine with materialized arrivals and full capture, and on a
// 4-engine load-dispatched cluster with streamed arrivals and bounded
// capture. Both setups queue deeply enough that picks choose among many
// ready tasks.
func TestScalablePickIsPure(t *testing.T) {
	opts := tiny()
	opts.Seeds = 2
	opts.Requests = 300
	p, err := NewPipeline(workloadAttNN(), opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	cluster := opts
	cluster.Engines, cluster.Dispatch = 4, "load"
	cluster.Stream, cluster.Capture = true, "bounded"
	specs := append(WithOracle(StandardScheds()), SchedSpec{"Dysta-w/o-sparse",
		func(p *Pipeline) sched.Scheduler { return core.NewWithoutSparse(p.LUT) }})
	for _, setup := range []struct {
		name string
		opts Options
		rate float64
	}{
		{"single-engine", opts, 40},
		{"cluster-stream", cluster, 160},
	} {
		for _, spec := range specs {
			off, err := p.RunSeeds(spec, setup.rate, 10, setup.opts)
			if err != nil {
				t.Fatal(err)
			}
			flagged := setup.opts
			flagged.ScalablePick = true
			on, err := p.RunSeeds(spec, setup.rate, 10, flagged)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(off, on) {
				t.Errorf("%s/%s: ScalablePick changed the results", setup.name, spec.Name)
			}
		}
	}
}
