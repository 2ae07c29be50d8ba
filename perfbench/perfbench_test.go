package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"sparsedysta/internal/cluster"
	"sparsedysta/internal/exp"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/workload"
)

// fakeSched is a minimal scheduler; the embedding types below add the
// optional interfaces in every combination.
type fakeSched struct{}

func (fakeSched) Name() string                                             { return "fake" }
func (fakeSched) OnArrival(*sched.Task, time.Duration)                     {}
func (fakeSched) OnLayerComplete(*sched.Task, int, float64, time.Duration) {}
func (fakeSched) PickNext(ready []*sched.Task, _ time.Duration) *sched.Task {
	return ready[0]
}

type incMethods struct{}

func (incMethods) PickNextIncremental(*sched.ReadyQueue, time.Duration) *sched.Task { return nil }

type scalableMethods struct{}

func (scalableMethods) EnableScalable()                                               {}
func (scalableMethods) PickNextScalable(*sched.ReadyQueue, time.Duration) *sched.Task { return nil }

type extractMethods struct{}

func (extractMethods) OnExtract(*sched.Task, time.Duration) {}

type optionalSet struct{ inc, scalable, extract bool }

func optionalOf(s sched.Scheduler) optionalSet {
	_, inc := s.(sched.IncrementalScheduler)
	_, sc := s.(sched.ScalableScheduler)
	_, ex := s.(sched.TaskExtractor)
	return optionalSet{inc, sc, ex}
}

// TestSchedulerWrapperFidelity pins that the wrapper implements exactly
// the optional interfaces of the scheduler it wraps, for every
// combination and for every scheduler the benchmark runs: the engine
// chooses its pick path, and migration its permission to extract, by
// type assertion.
func TestSchedulerWrapperFidelity(t *testing.T) {
	scheds := []sched.Scheduler{
		fakeSched{},
		struct {
			fakeSched
			incMethods
		}{},
		struct {
			fakeSched
			scalableMethods
		}{},
		struct {
			fakeSched
			extractMethods
		}{},
		struct {
			fakeSched
			incMethods
			scalableMethods
		}{},
		struct {
			fakeSched
			incMethods
			extractMethods
		}{},
		struct {
			fakeSched
			scalableMethods
			extractMethods
		}{},
		struct {
			fakeSched
			incMethods
			scalableMethods
			extractMethods
		}{},
	}
	p, err := exp.NewPipeline(workload.MultiAttNN(), exp.Options{ProfileSamples: 4, EvalSamples: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range exp.WithOracle(exp.StandardScheds()) {
		scheds = append(scheds, spec.New(p))
	}
	seen := map[optionalSet]bool{}
	for i, s := range scheds {
		want := optionalOf(s)
		seen[want] = true
		w := wrapScheduler(s, newTracer())
		if got := optionalOf(w); got != want {
			t.Errorf("scheduler %d (%s): wrapper implements %+v, wrapped %+v", i, s.Name(), got, want)
		}
		if w.Name() != s.Name() {
			t.Errorf("scheduler %d: wrapper named %q, wrapped %q", i, w.Name(), s.Name())
		}
	}
	if len(seen) != 8 {
		t.Errorf("covered %d of 8 optional-interface combinations", len(seen))
	}
}

// TestPolicyWrappersForward pins that the cluster wrappers forward Name,
// Reset, LoadFunc and CurveFunc, and that a policy without an estimate
// yields nil ones, which the cluster treats as absent.
func TestPolicyWrappersForward(t *testing.T) {
	p, err := exp.NewPipeline(workload.MultiCNN(), exp.Options{ProfileSamples: 4, EvalSamples: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	load := cluster.SparsityAwareLoad(p.LUT, p.Est)
	curve := cluster.SparsityAwareCurve(p.LUT, p.Est)
	tr := newTracer()

	hooks := func(x any) (hasLoad, hasCurve bool) {
		return x.(loadFuncer).LoadFunc() != nil, x.(curveFuncer).CurveFunc() != nil
	}
	for _, c := range []struct {
		wrapped         any
		name            string
		hasLoad, hasCur bool
	}{
		{wrapDispatcher(cluster.NewLeastLoad("load", load).WithCurve(curve), tr), "load", true, true},
		{wrapDispatcher(cluster.NewLeastLoad("blind", load), tr), "blind", true, false},
		{wrapDispatcher(cluster.NewJSQ(), tr), "jsq", false, false},
		{wrapAdmission(cluster.SLOShed{Load: load, Curve: curve}, tr), "slo", true, true},
		{wrapAdmission(cluster.AdmitAll{}, tr), "none", false, false},
		{wrapRebalance(cluster.Steal{Load: load, Curve: curve}, tr), "steal", true, true},
		{wrapRebalance(cluster.NoRebalance{}, tr), "none", false, false},
	} {
		name := c.wrapped.(interface{ Name() string }).Name()
		if name != c.name {
			t.Errorf("wrapper named %q, want %q", name, c.name)
		}
		if l, cu := hooks(c.wrapped); l != c.hasLoad || cu != c.hasCur {
			t.Errorf("%s: load %v curve %v, want %v %v", name, l, cu, c.hasLoad, c.hasCur)
		}
	}

	// Reset reaches a stateful dispatcher: round-robin restarts at 0.
	rr := wrapDispatcher(cluster.NewRoundRobin(), tr)
	sig := make([]cluster.EngineSignal, 3)
	first := rr.Pick(sig, &workload.Request{}, 0)
	if second := rr.Pick(sig, &workload.Request{}, 0); second == first {
		t.Fatalf("round-robin picked %d twice", first)
	}
	rr.Reset()
	if again := rr.Pick(sig, &workload.Request{}, 0); again != first {
		t.Errorf("after Reset round-robin picked %d, want %d", again, first)
	}
	if tr.dispatch.calls != 3 {
		t.Errorf("timed %d dispatch calls, want 3", tr.dispatch.calls)
	}
}

// TestTracedRunsMatchUntraced runs every workload at a small size and
// checks that the traced run reproduces the untraced one exactly, that
// the output checks pass, and that the layers each workload exists for
// were timed.
func TestTracedRunsMatchUntraced(t *testing.T) {
	for _, c := range []struct {
		name  string
		b     bench
		timed func(tr *tracer) map[string]int64
	}{
		{"paper-table5", &paperTable5{seed: 3, requests: 60}, func(tr *tracer) map[string]int64 {
			return map[string]int64{"pick": tr.pick.calls, "root": tr.root.calls, "Dysta pick": tr.picks["Dysta"].calls}
		}},
		{"datacenter-stream", &datacenterStream{cnnPipeline{seed: 3, requests: 3000}}, func(tr *tracer) map[string]int64 {
			return map[string]int64{"next": tr.next.calls, "dispatch": tr.dispatch.calls,
				"load": tr.load.calls, "curve": tr.curve.calls, "admit": tr.admit.calls}
		}},
		{"control-plane", &controlPlane{cnnPipeline{seed: 3, requests: 3000}}, func(tr *tracer) map[string]int64 {
			return map[string]int64{"generate": tr.generate.calls, "plan": tr.plan.calls,
				"moves": tr.movesPlanned, "extract": tr.extract.calls, "admitted": tr.admitted}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.b.setup(); err != nil {
				t.Fatal(err)
			}
			plain, err := c.b.simulate(nil)
			if err != nil {
				t.Fatal(err)
			}
			if problems := check(plain); len(problems) > 0 {
				t.Fatalf("checks failed: %v", problems)
			}
			tr := newTracer()
			traced, err := c.b.simulate(tr)
			if err != nil {
				t.Fatal(err)
			}
			if traced.fingerprint() != plain.fingerprint() {
				t.Fatal("traced run differs from the untraced run")
			}
			for layer, n := range c.timed(tr) {
				if n == 0 {
					t.Errorf("layer %s was never timed", layer)
				}
			}
			if len(tr.stack) != 1 {
				t.Errorf("tracer stack depth %d after the run, want 1", len(tr.stack))
			}
		})
	}
}

// TestCheckCatchesLostRequests pins that outcome conservation is
// checked: a result that loses a request fails the run.
func TestCheckCatchesLostRequests(t *testing.T) {
	res := sched.Result{Offered: 10, Requests: 9, Violations: 1}
	if problems := check(run{rows: []sched.Result{res}, cells: 1, offered: 10}); len(problems) == 0 {
		t.Fatal("a result accounting for 9 of 10 offered requests passed the checks")
	}
	res.Requests = 10
	if problems := check(run{rows: []sched.Result{res}, cells: 1, offered: 10}); len(problems) > 0 {
		t.Fatalf("a conserving result failed the checks: %v", problems)
	}
}

// TestCheckCatchesHistogramDrift pins the bounded-capture check: a
// histogram percentile more than one bucket away from the exact one
// fails the run.
func TestCheckCatchesHistogramDrift(t *testing.T) {
	turnarounds := make([]time.Duration, 100)
	for i := range turnarounds {
		turnarounds[i] = time.Duration(100-i) * time.Millisecond
	}
	res := sched.Result{Offered: 100, Requests: 100, P50Latency: 50 * time.Millisecond, P99Latency: 99 * time.Millisecond}
	r := run{rows: []sched.Result{res}, cells: 1, offered: 100, turnarounds: turnarounds}
	if problems := check(r); len(problems) > 0 {
		t.Fatalf("exact percentiles failed the checks: %v", problems)
	}
	r.rows[0].P50Latency = 60 * time.Millisecond
	if problems := check(r); len(problems) == 0 {
		t.Fatal("a p50 20% above the exact one passed the checks")
	}
}

// TestUnknownWorkloadPrintsNoResult pins the failure contract: a bad
// invocation exits nonzero without a result line.
func TestUnknownWorkloadPrintsNoResult(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if stdout.Len() != 0 {
		t.Errorf("printed %q on a failed invocation", stdout.String())
	}
	if !strings.Contains(stderr.String(), "unknown workload") {
		t.Errorf("stderr %q does not name the problem", stderr.String())
	}
}

// TestCalibrationKernelIsFixed pins the calibration kernel's work: the
// host metrics are in units of its CPU time, so a change to it rescales
// every host metric between commits.
func TestCalibrationKernelIsFixed(t *testing.T) {
	table, remain, heap := make([]uint64, calTableLen), make([]float64, calJobs), make([]int32, calJobs)
	if got, want := calKernel(table, remain, heap), uint64(0xa0180687e19675d); got != want {
		t.Fatalf("calibration kernel checksum %#x, want %#x: the calibrated unit changed", got, want)
	}
	if d, err := calibrate(); err != nil || d <= 0 {
		t.Fatalf("calibrate() = %v, %v", d, err)
	}
}
