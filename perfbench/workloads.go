package main

import (
	"fmt"
	"time"

	"sparsedysta/internal/cluster"
	"sparsedysta/internal/core"
	"sparsedysta/internal/exp"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/workload"
)

// bench is one workload bound to a seed. setup runs Phase 1 (the timed
// set-up) and simulate runs the simulation over its outputs, untraced
// with tr == nil and through the timing wrappers otherwise; both must
// produce the same run.
type bench interface {
	setup() error
	simulate(tr *tracer) (run, error)
	// scenarios lists the scenarios whose Phase 1 setup builds.
	scenarios() []workload.Scenario
	// pipelineSeed is the Phase 1 seed.
	pipelineSeed() uint64
}

// run is the outcome of one simulation: the results it pools and the
// number of requests it offered.
type run struct {
	// rows are the pooled results: the seed-averaged (scheduler, point)
	// rows of a grid, or the single result of a cluster run.
	rows []sched.Result
	// cells is the number of seeds behind each row (1 for a cluster run).
	cells int
	// offered counts the simulated requests the run offered.
	offered int
	// clusterRes is the cluster run's own result (nil for a grid).
	clusterRes *cluster.Result
	// streamed is the number of requests drawn from a lazy stream, 0
	// for materialized arrivals.
	streamed int
	// turnarounds holds every completion's simulated turnaround when the
	// run's own percentiles come from a bucketed histogram (bounded
	// capture); the benchmark reports exact percentiles from them and
	// checks the histogram's against them.
	turnarounds []time.Duration
}

// fingerprint renders every simulated number of the run, so two runs
// compare exactly.
func (r run) fingerprint() string {
	if len(r.turnarounds) > 0 {
		return fmt.Sprintf("%+v %v %v", *r.clusterRes, nearestRank(r.turnarounds, 50), nearestRank(r.turnarounds, 99))
	}
	if r.clusterRes != nil {
		return fmt.Sprintf("%+v", *r.clusterRes)
	}
	return fmt.Sprintf("%+v", r.rows)
}

// The benchmark seed drives Phase 1: the profiling traces the
// schedulers learn from and the evaluation traces the requests replay,
// i.e. every request's per-layer latency and sparsity. The arrival
// instants, the model mix and the churn plan come from fixed streams, as
// exp's cell seeds do: at ~90% load their randomness moved the violation
// rate and p99 of a 2x10^5-request stream by 8-15% between seeds, more
// than a regression bound can absorb.
const (
	arrivalSeed = 17
	churnSeed   = 29
)

// phase1Opts is the paper protocol's Phase 1 size: 100 profiling and 400
// evaluation samples per model-pattern pair.
func paperOpts() exp.Options {
	opts := exp.DefaultOptions()
	opts.Workers = 1
	return opts
}

// --- paper-table5 ----------------------------------------------------------

// paperTable5 is the paper's headline protocol: both Table 3 scenarios at
// their two operating points, the six Table 5 schedulers, 5 seeds x 1000
// requests, M_slo 10, one engine, through exp.RunGrid.
type paperTable5 struct {
	seed  uint64
	pipes []*exp.Pipeline
	// requests per cell; the paper protocol's 1000 unless a test shrinks it.
	requests int
}

func (w *paperTable5) scenarios() []workload.Scenario {
	return []workload.Scenario{workload.MultiAttNN(), workload.MultiCNN()}
}

func (w *paperTable5) pipelineSeed() uint64 { return w.seed }

func (w *paperTable5) setup() error {
	w.pipes = w.pipes[:0]
	for _, sc := range w.scenarios() {
		p, err := exp.NewPipeline(sc, paperOpts(), w.seed)
		if err != nil {
			return err
		}
		w.pipes = append(w.pipes, p)
	}
	return nil
}

// table5Rates are the operating points of each scenario, in
// scenarios() order.
var table5Rates = [][]float64{exp.AttNNRates, exp.CNNRates}

func (w *paperTable5) simulate(tr *tracer) (run, error) {
	opts := paperOpts()
	opts.Requests = w.requests
	out := run{cells: opts.Seeds}
	for i, p := range w.pipes {
		specs := exp.StandardScheds()
		if tr != nil {
			specs = wrapSpecs(specs, tr)
		}
		points := exp.RatePoints(table5Rates[i], 10)
		var start time.Time
		if tr != nil {
			start = tr.enter()
		}
		grid, err := p.RunGrid(specs, points, opts)
		if tr != nil {
			tr.exit(&tr.root, start)
		}
		if err != nil {
			return run{}, err
		}
		for _, pr := range grid {
			for _, spec := range specs {
				out.rows = append(out.rows, pr.Results[spec.Name])
			}
		}
		out.offered += len(points) * len(specs) * opts.Seeds * opts.Requests
	}
	return out, nil
}

// --- cluster workloads -----------------------------------------------------

// cnnPipeline is the Phase 1 of both cluster workloads: the paper's
// data-center scenario (multi-cnn on Eyeriss).
type cnnPipeline struct {
	seed uint64
	// requests is the stream length.
	requests int
	pipe     *exp.Pipeline
}

func (c *cnnPipeline) scenarios() []workload.Scenario {
	return []workload.Scenario{workload.MultiCNN()}
}

func (c *cnnPipeline) pipelineSeed() uint64 { return c.seed }

func (c *cnnPipeline) setup() error {
	p, err := exp.NewPipeline(workload.MultiCNN(), paperOpts(), c.seed)
	c.pipe = p
	return err
}

// rate is the arrival rate that loads a cluster of the given capacity
// (in reference engines) to the given fraction, measured against the
// mean isolated latency of the evaluation traces.
func (c *cnnPipeline) rate(capacity, load float64) (float64, error) {
	meanIso, err := workload.MeanIsolated(c.pipe.Scenario, c.pipe.Eval)
	if err != nil {
		return 0, err
	}
	return load * capacity / meanIso.Seconds(), nil
}

// estimates returns the sparsity-aware load estimate and its curve form,
// timed when tr is set. Every policy of a run shares them, as exp does.
func (c *cnnPipeline) estimates(tr *tracer) (func(*sched.Task) time.Duration, func(*sched.Task) []time.Duration) {
	load := cluster.SparsityAwareLoad(c.pipe.LUT, c.pipe.Est)
	curve := cluster.SparsityAwareCurve(c.pipe.LUT, c.pipe.Est)
	if tr != nil {
		return wrapLoad(load, tr), wrapCurve(curve, tr)
	}
	return load, curve
}

// newDysta is the per-engine scheduler factory, wrapped when traced.
func (c *cnnPipeline) newDysta(tr *tracer) func(int) sched.Scheduler {
	return func(int) sched.Scheduler {
		s := sched.Scheduler(core.NewDefault(c.pipe.LUT))
		if tr != nil {
			s = wrapScheduler(s, tr)
		}
		return s
	}
}

// wrapPolicies installs the cluster wrappers on cfg when traced.
func wrapPolicies(cfg *cluster.Config, tr *tracer) {
	if tr == nil {
		return
	}
	cfg.Dispatch = wrapDispatcher(cfg.Dispatch, tr)
	cfg.Admission = wrapAdmission(cfg.Admission, tr)
	if cfg.Rebalance != nil {
		cfg.Rebalance = wrapRebalance(cfg.Rebalance, tr)
	}
}

// runCluster times the cluster entry point as the trace root.
func runCluster(tr *tracer, f func() (cluster.Result, error)) (cluster.Result, error) {
	if tr == nil {
		return f()
	}
	start := tr.enter()
	res, err := f()
	tr.exit(&tr.root, start)
	return res, err
}

// Data-center stream sizing: 16 engines at 90% of the capacity the
// evaluation traces imply.
const (
	streamEngines  = 16
	streamLoad     = 0.9
	streamRequests = 200_000
	streamSLO      = 4
)

// datacenterStream is the paper's data-center scenario on the streaming
// hot path: lazy arrivals into 16 Dysta engines on the scalable pick,
// sparsity-aware least-load dispatch on exact signals, bounded capture.
type datacenterStream struct{ cnnPipeline }

func (w *datacenterStream) simulate(tr *tracer) (run, error) {
	load, curve := w.estimates(tr)
	rate, err := w.rate(streamEngines, streamLoad)
	if err != nil {
		return run{}, err
	}
	stream, err := workload.NewStream(w.pipe.Scenario, w.pipe.Eval, workload.GenConfig{
		Requests: w.requests, RatePerSec: rate, SLOMultiplier: streamSLO, Seed: arrivalSeed,
	})
	if err != nil {
		return run{}, err
	}
	var src sched.RequestSource = stream
	if tr != nil {
		src = &tracedSource{inner: stream, tr: tr}
	}
	// Bounded capture keeps no per-request state, so the exact
	// percentiles come from the completion observer: 8 bytes per request
	// held by the benchmark, not by the simulator.
	turnarounds := make([]time.Duration, 0, w.requests)
	observe := func(o sched.TaskOutcome) { turnarounds = append(turnarounds, o.Completion-o.Arrival) }
	cfg := cluster.Config{
		Engines:   streamEngines,
		Dispatch:  cluster.NewLeastLoad("load", load).WithCurve(curve),
		Admission: cluster.AdmitAll{},
		Sched:     sched.Options{BoundedCapture: true, ScalablePick: true, Observer: observe},
	}
	wrapPolicies(&cfg, tr)
	res, err := runCluster(tr, func() (cluster.Result, error) {
		return cluster.RunStream(w.newDysta(tr), src, cfg)
	})
	if err != nil {
		return run{}, err
	}
	return run{rows: []sched.Result{res.Result}, cells: 1, offered: res.Offered,
		clusterRes: &res, streamed: w.requests, turnarounds: turnarounds}, nil
}

// Control-plane sizing. The churn horizon is the stream's expected span,
// never a fixed wall of virtual time: a 4 h horizon fires ~10^5 events
// and the run measures nothing but the fault injector.
const (
	controlSpecs      = "4x1,4x2"
	controlRequests   = 100_000
	controlLoad       = 0.6
	controlBurst      = 4
	controlSignals    = 20 * time.Millisecond
	controlRebalance  = 10 * time.Millisecond
	controlMigration  = 1 * time.Millisecond
	controlRetryMax   = 1
	controlScaleMin   = 2
	controlFailures   = 200 // expected failures per engine over the span
	controlRepairFrac = 0.2
)

// controlPlane exercises every control-plane closure of the cluster run:
// a heterogeneous cluster under MMPP bursts, stale signals, SLO shedding,
// work stealing, churn with capped retries and the autoscaler, on
// materialized arrivals with full capture.
type controlPlane struct{ cnnPipeline }

func (w *controlPlane) simulate(tr *tracer) (run, error) {
	load, curve := w.estimates(tr)
	_, specs, err := exp.ParseEngines(controlSpecs)
	if err != nil {
		return run{}, err
	}
	var capacity float64
	for _, s := range specs {
		capacity += 1 / s.LatencyScale
	}
	rate, err := w.rate(capacity, controlLoad)
	if err != nil {
		return run{}, err
	}
	proc, err := exp.NewTraffic("mmpp", rate, w.requests, controlBurst)
	if err != nil {
		return run{}, err
	}
	gen := func() ([]*workload.Request, error) {
		return workload.Generate(w.pipe.Scenario, w.pipe.Eval, workload.GenConfig{
			Requests: w.requests, RatePerSec: rate, SLOMultiplier: 10,
			Seed: arrivalSeed, Process: proc,
		})
	}
	var reqs []*workload.Request
	if tr != nil {
		start := tr.enter()
		reqs, err = gen()
		tr.exit(&tr.generate, start)
	} else {
		reqs, err = gen()
	}
	if err != nil {
		return run{}, err
	}
	horizon := time.Duration(float64(w.requests) / rate * float64(time.Second))
	mtbf := horizon / controlFailures
	plan, err := cluster.GenChurn(len(specs), horizon, mtbf,
		time.Duration(float64(mtbf)*controlRepairFrac), churnSeed)
	if err != nil {
		return run{}, err
	}
	scaler := exp.NewAutoscaler(reqs, controlScaleMin, len(specs), load)
	scaler.Curve = curve
	cfg := cluster.Config{
		Specs:    specs,
		Dispatch: cluster.NewLeastLoad("load", load).WithCurve(curve),
		Admission: cluster.SLOShed{
			Iso:   cluster.RequestIsolated(w.pipe.LUT, w.pipe.Est),
			Load:  load,
			Curve: curve,
		},
		SignalInterval:    controlSignals,
		Rebalance:         cluster.Steal{Load: load, Curve: curve},
		RebalanceInterval: controlRebalance,
		MigrationCost:     controlMigration,
		Churn:             &plan,
		RetryMax:          controlRetryMax,
		Autoscale:         scaler,
	}
	wrapPolicies(&cfg, tr)
	res, err := runCluster(tr, func() (cluster.Result, error) {
		return cluster.Run(w.newDysta(tr), reqs, cfg)
	})
	if err != nil {
		return run{}, err
	}
	return run{rows: []sched.Result{res.Result}, cells: 1, offered: res.Offered,
		clusterRes: &res}, nil
}

// newBench resolves a workload name.
func newBench(name string, seed uint64) (bench, error) {
	switch name {
	case "paper-table5":
		return &paperTable5{seed: seed, requests: exp.DefaultOptions().Requests}, nil
	case "datacenter-stream":
		return &datacenterStream{cnnPipeline{seed: seed, requests: streamRequests}}, nil
	case "control-plane":
		return &controlPlane{cnnPipeline{seed: seed, requests: controlRequests}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: paper-table5, datacenter-stream, control-plane)", name)
}

// phase1Stages times Phase 1 stage by stage, in CPU time like setup_s,
// for the traced run:
// BuildStores, NewStatsSet and NewEstimator, the three steps
// exp.NewPipeline takes, over every scenario of the workload.
func phase1Stages(b bench) (stores, stats time.Duration, traces int, _ error) {
	opts := paperOpts()
	for _, sc := range b.scenarios() {
		t0 := cpuTime()
		prof, eval, err := workload.BuildStores(sc, opts.ProfileSamples, opts.EvalSamples, b.pipelineSeed())
		if err != nil {
			return 0, 0, 0, err
		}
		t1 := cpuTime()
		lut, err := trace.NewStatsSet(prof)
		if err != nil {
			return 0, 0, 0, err
		}
		sched.NewEstimator(lut)
		stats += cpuTime() - t1
		stores += t1 - t0
		for _, k := range prof.Keys() {
			traces += len(prof.Get(k)) + len(eval.Get(k))
		}
	}
	return stores, stats, traces, nil
}
