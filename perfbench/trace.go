package main

import (
	"time"

	"sparsedysta/internal/cluster"
	"sparsedysta/internal/exp"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/workload"
)

// span aggregates every timed call through one layer boundary: how many
// calls crossed it, their total host time, and their self time (total
// minus the time of timed calls nested inside them). The benchmark keeps
// aggregates rather than one span per call because a streamed run makes
// ~10^8 scheduler calls.
type span struct {
	calls int64
	total time.Duration
	self  time.Duration
}

// nsPerCall is the mean host time of one call, 0 without calls.
func (s *span) nsPerCall() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.total) / float64(s.calls)
}

// tracer times calls at the public seams of the simulator from outside:
// every wrapper below brackets its forwarded call with enter/exit. The
// stack holds, per open call, the time its timed children took, which is
// what turns totals into self times. The simulator is single-threaded
// per run, so the tracer is not synchronized.
type tracer struct {
	stack []time.Duration

	root     span // the run entry point: cluster.Run/RunStream or exp RunGrid
	pick     span
	picks    map[string]*span // per scheduler name
	update   span             // OnLayerComplete
	arrival  span
	extract  span
	dispatch span
	admit    span
	plan     span
	load     span
	curve    span
	next     span // sched.RequestSource.Next
	generate span // workload.Generate (materialized arrivals)

	admitted     int64
	movesPlanned int64
	// layers and simLayerTime sum the layer counts and executed
	// simulated time of completed requests: their ratio is the mean
	// simulated layer latency the decision cost is weighed against.
	layers       int64
	simLayerTime time.Duration
}

func newTracer() *tracer {
	return &tracer{stack: make([]time.Duration, 1, 16), picks: map[string]*span{}}
}

// enter opens a timed call and returns its start instant.
func (tr *tracer) enter() time.Time {
	tr.stack = append(tr.stack, 0)
	return time.Now()
}

// exit closes the innermost open call into s, charges its duration to
// the enclosing call as child time and returns it.
func (tr *tracer) exit(s *span, start time.Time) time.Duration {
	d := time.Since(start)
	n := len(tr.stack) - 1
	s.calls++
	s.total += d
	s.self += d - tr.stack[n]
	tr.stack = tr.stack[:n]
	tr.stack[n-1] += d
	return d
}

// pickSpan returns the per-scheduler pick aggregate for name.
func (tr *tracer) pickSpan(name string) *span {
	s, ok := tr.picks[name]
	if !ok {
		s = &span{}
		tr.picks[name] = s
	}
	return s
}

// schedCalls is the host time of every scheduler call, the numerator of
// the decision-cost ratio.
func (tr *tracer) schedCalls() time.Duration {
	return tr.pick.total + tr.update.total + tr.arrival.total + tr.extract.total
}

// --- sched.Scheduler -------------------------------------------------------

// tracedSched times the four calls every scheduler serves. The optional
// pick paths and the extraction hook live on the part types below, and
// wrapScheduler composes exactly the parts the wrapped scheduler has:
// the engine picks its code path (and migration its permission to
// extract) by type assertion, so a wrapper with more or fewer methods
// than its scheduler would take a different path than the untraced run.
type tracedSched struct {
	inner sched.Scheduler
	tr    *tracer
	pick  *span
}

func (s *tracedSched) Name() string { return s.inner.Name() }

func (s *tracedSched) OnArrival(t *sched.Task, now time.Duration) {
	start := s.tr.enter()
	s.inner.OnArrival(t, now)
	s.tr.exit(&s.tr.arrival, start)
}

func (s *tracedSched) OnLayerComplete(t *sched.Task, layer int, monitored float64, now time.Duration) {
	// Read before the call: a completed task may be recycled by the
	// engine right after it, and the scheduler may release state.
	if t.Done {
		s.tr.layers += int64(t.NumLayers())
		s.tr.simLayerTime += t.ExecTime
	}
	start := s.tr.enter()
	s.inner.OnLayerComplete(t, layer, monitored, now)
	s.tr.exit(&s.tr.update, start)
}

func (s *tracedSched) PickNext(ready []*sched.Task, now time.Duration) *sched.Task {
	start := s.tr.enter()
	t := s.inner.PickNext(ready, now)
	s.endPick(start)
	return t
}

// endPick closes a pick of any path into the run-wide and the
// per-scheduler aggregates; the latter is a view of the same call, not a
// nested one, so it takes no part in the self-time stack.
func (s *tracedSched) endPick(start time.Time) {
	d := s.tr.exit(&s.tr.pick, start)
	s.pick.calls++
	s.pick.total += d
}

type incPick struct {
	s   *tracedSched
	inc sched.IncrementalScheduler
}

func (p incPick) PickNextIncremental(q *sched.ReadyQueue, now time.Duration) *sched.Task {
	start := p.s.tr.enter()
	t := p.inc.PickNextIncremental(q, now)
	p.s.endPick(start)
	return t
}

type scalablePick struct {
	s  *tracedSched
	sc sched.ScalableScheduler
}

func (p scalablePick) EnableScalable() { p.sc.EnableScalable() }

func (p scalablePick) PickNextScalable(q *sched.ReadyQueue, now time.Duration) *sched.Task {
	start := p.s.tr.enter()
	t := p.sc.PickNextScalable(q, now)
	p.s.endPick(start)
	return t
}

type extractHook struct {
	s  *tracedSched
	ex sched.TaskExtractor
}

func (h extractHook) OnExtract(t *sched.Task, now time.Duration) {
	start := h.s.tr.enter()
	h.ex.OnExtract(t, now)
	h.s.tr.exit(&h.s.tr.extract, start)
}

// wrapScheduler returns a timing wrapper implementing exactly the
// optional interfaces (IncrementalScheduler, ScalableScheduler,
// TaskExtractor) that inner implements.
func wrapScheduler(inner sched.Scheduler, tr *tracer) sched.Scheduler {
	b := &tracedSched{inner: inner, tr: tr, pick: tr.pickSpan(inner.Name())}
	inc, isInc := inner.(sched.IncrementalScheduler)
	sc, isSc := inner.(sched.ScalableScheduler)
	ex, isEx := inner.(sched.TaskExtractor)
	i, s, e := incPick{b, inc}, scalablePick{b, sc}, extractHook{b, ex}
	switch {
	case isInc && isSc && isEx:
		return struct {
			*tracedSched
			incPick
			scalablePick
			extractHook
		}{b, i, s, e}
	case isInc && isSc:
		return struct {
			*tracedSched
			incPick
			scalablePick
		}{b, i, s}
	case isInc && isEx:
		return struct {
			*tracedSched
			incPick
			extractHook
		}{b, i, e}
	case isSc && isEx:
		return struct {
			*tracedSched
			scalablePick
			extractHook
		}{b, s, e}
	case isInc:
		return struct {
			*tracedSched
			incPick
		}{b, i}
	case isSc:
		return struct {
			*tracedSched
			scalablePick
		}{b, s}
	case isEx:
		return struct {
			*tracedSched
			extractHook
		}{b, e}
	}
	return b
}

// wrapSpecs wraps the scheduler factory of every spec.
func wrapSpecs(specs []exp.SchedSpec, tr *tracer) []exp.SchedSpec {
	out := make([]exp.SchedSpec, len(specs))
	for i, spec := range specs {
		newSched := spec.New
		out[i] = exp.SchedSpec{Name: spec.Name, New: func(p *exp.Pipeline) sched.Scheduler {
			return wrapScheduler(newSched(p), tr)
		}}
	}
	return out
}

// --- cluster seams -------------------------------------------------------

// The cluster finds a policy's load estimate, its curve form and its
// reset hook by type assertion on these method sets; the wrappers
// forward all three so a traced run keeps the board's load estimate and
// the dispatcher's per-run reset.
type loadFuncer interface {
	LoadFunc() func(*sched.Task) time.Duration
}

type curveFuncer interface {
	CurveFunc() func(*sched.Task) []time.Duration
}

type resetter interface{ Reset() }

// policyHooks forwards LoadFunc, CurveFunc and Reset to the wrapped
// policy. For a policy without an estimate the funcs are nil, which the
// cluster treats exactly like a policy lacking the method; Reset on a
// stateless policy does nothing.
type policyHooks struct{ inner any }

func (h policyHooks) LoadFunc() func(*sched.Task) time.Duration {
	if lp, ok := h.inner.(loadFuncer); ok {
		return lp.LoadFunc()
	}
	return nil
}

func (h policyHooks) CurveFunc() func(*sched.Task) []time.Duration {
	if cp, ok := h.inner.(curveFuncer); ok {
		return cp.CurveFunc()
	}
	return nil
}

func (h policyHooks) Reset() {
	if r, ok := h.inner.(resetter); ok {
		r.Reset()
	}
}

type tracedDispatcher struct {
	policyHooks
	inner cluster.Dispatcher
	tr    *tracer
}

func wrapDispatcher(d cluster.Dispatcher, tr *tracer) *tracedDispatcher {
	return &tracedDispatcher{policyHooks{d}, d, tr}
}

func (d *tracedDispatcher) Name() string { return d.inner.Name() }

func (d *tracedDispatcher) Pick(sig []cluster.EngineSignal, r *workload.Request, now time.Duration) int {
	start := d.tr.enter()
	i := d.inner.Pick(sig, r, now)
	d.tr.exit(&d.tr.dispatch, start)
	return i
}

type tracedAdmission struct {
	policyHooks
	inner cluster.Admission
	tr    *tracer
}

func wrapAdmission(a cluster.Admission, tr *tracer) *tracedAdmission {
	return &tracedAdmission{policyHooks{a}, a, tr}
}

func (a *tracedAdmission) Name() string { return a.inner.Name() }

func (a *tracedAdmission) Admit(sig []cluster.EngineSignal, r *workload.Request, now time.Duration) bool {
	start := a.tr.enter()
	ok := a.inner.Admit(sig, r, now)
	a.tr.exit(&a.tr.admit, start)
	if ok {
		a.tr.admitted++
	}
	return ok
}

type tracedRebalance struct {
	policyHooks
	inner cluster.RebalancePolicy
	tr    *tracer
}

func wrapRebalance(p cluster.RebalancePolicy, tr *tracer) *tracedRebalance {
	return &tracedRebalance{policyHooks{p}, p, tr}
}

func (p *tracedRebalance) Name() string { return p.inner.Name() }

func (p *tracedRebalance) Plan(views []cluster.EngineView, now, cost time.Duration) []cluster.Move {
	start := p.tr.enter()
	moves := p.inner.Plan(views, now, cost)
	p.tr.exit(&p.tr.plan, start)
	p.tr.movesPlanned += int64(len(moves))
	return moves
}

// wrapLoad times a per-task load estimate (dispatch, admission, the
// engines' incremental backlog and the rebalancer all call it).
func wrapLoad(load func(*sched.Task) time.Duration, tr *tracer) func(*sched.Task) time.Duration {
	return func(t *sched.Task) time.Duration {
		start := tr.enter()
		d := load(t)
		tr.exit(&tr.load, start)
		return d
	}
}

// wrapCurve times a per-task remaining-work curve lookup.
func wrapCurve(curve func(*sched.Task) []time.Duration, tr *tracer) func(*sched.Task) []time.Duration {
	return func(t *sched.Task) []time.Duration {
		start := tr.enter()
		c := curve(t)
		tr.exit(&tr.curve, start)
		return c
	}
}

// tracedSource times the lazy arrival iterator.
type tracedSource struct {
	inner sched.RequestSource
	tr    *tracer
}

func (s *tracedSource) Next() (*workload.Request, bool) {
	start := s.tr.enter()
	r, ok := s.inner.Next()
	s.tr.exit(&s.tr.next, start)
	return r, ok
}
