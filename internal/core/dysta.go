package core

import (
	"time"

	"sparsedysta/internal/sched"
	"sparsedysta/internal/trace"
)

// Dysta is the bi-level scheduler (paper §4.2). It implements
// sched.Scheduler; construct it with New and run it under sched.Run.
//
// Per-request state lives in a task attachment set at arrival, and the
// score components that only change at task events — the predictor's
// refined remaining latency and isolated estimate — are cached there, so
// a scheduling decision is a scan of cheap float arithmetic with no map
// lookups and no predictor evaluations (the IncrementalScheduler fast
// path). The reference PickNext recomputes everything from the predictor
// and must agree bit-for-bit; the equivalence tests enforce this.
type Dysta struct {
	cfg Config
	lut *trace.StatsSet

	// h is the scalable-pick heap (Options.ScalablePick), ordered by
	// (staticScore, ID) when the dynamic level is disabled — the score
	// itself, so the pick is the heap minimum — and by (remainMS, ID)
	// otherwise. remainMS is a provable lower bound of the dynamic score
	// in BOTH regimes: every term the score adds to remain (Eta*slack,
	// Eta*penalty, the demotion constant) is non-negative, and float
	// addition of a non-negative term never rounds below the other
	// operand, so cachedScore(t) >= state(t).remainMS holds in float
	// arithmetic, not just in the reals. PickNextScalable runs a pruned
	// DFS over the heap: the heap property makes every descendant's
	// remainMS >= the node's, so a subtree whose root bound strictly
	// exceeds the best exact score found so far cannot contain the
	// argmin (nor a tie, strictness preserving the min-ID tie-break)
	// and is skipped. Visited nodes are re-scored with cachedScore, so
	// the pick is bit-identical to the reference scan regardless of how
	// much the pruning helps. nil until EnableScalable.
	h *sched.TaskHeap
	// stack is the DFS's reused index stack.
	stack []int

	free sched.FreeList[requestState]
}

// requestState is the per-request bookkeeping of the dynamic level,
// attached to the task at arrival.
type requestState struct {
	// staticScore is the arrival-time score of the static level (Alg. 1),
	// in milliseconds. It fully determines ordering when the dynamic
	// level is disabled (Dysta-w/o-sparse).
	staticScore float64
	// remainMS and isolMS cache ms(pred.Remaining(NextLayer)) and
	// ms(pred.Isolated()): they change only when the request executes a
	// layer (NextLayer advances and the predictor observes), so refresh
	// happens there rather than at every scheduling decision.
	remainMS, isolMS float64
	// pred refines remaining-latency estimates from monitored sparsity.
	// It sits last so the three fields a pick reads share the state's
	// first cache line.
	pred Predictor
}

// New returns a Dysta scheduler over the profiling LUT. It panics on an
// invalid configuration (construction-time programming error).
func New(cfg Config, lut *trace.StatsSet) *Dysta {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Dysta{cfg: cfg, lut: lut}
}

// NewDefault returns Dysta with DefaultConfig.
func NewDefault(lut *trace.StatsSet) *Dysta { return New(DefaultConfig(), lut) }

// NewWithoutSparse returns the Dysta-w/o-sparse ablation (Fig. 13).
func NewWithoutSparse(lut *trace.StatsSet) *Dysta {
	return New(DefaultConfig().WithoutSparse(), lut)
}

// Name implements sched.Scheduler.
func (d *Dysta) Name() string {
	if !d.cfg.DynamicEnabled {
		return "Dysta-w/o-sparse"
	}
	return "Dysta"
}

// Config returns the scheduler's configuration.
func (d *Dysta) Config() Config { return d.cfg }

// state returns the task's attachment, or nil for a task the scheduler
// never saw arrive.
func state(t *sched.Task) *requestState {
	s, _ := t.Attachment.(*requestState)
	return s
}

// heapKey is the scalable heap's ordering key: the score lower bound
// (remainMS, or the exact staticScore without the dynamic level). Tasks
// without state sort last, mirroring cachedScore's defensive 1e18.
func (d *Dysta) heapKey(t *sched.Task) float64 {
	s := state(t)
	if s == nil {
		return 1e18
	}
	if !d.cfg.DynamicEnabled {
		return s.staticScore
	}
	return s.remainMS
}

// EnableScalable implements sched.ScalableScheduler: switch to the
// heap-maintained pick. Must precede the first arrival (the engine calls
// it at construction).
func (d *Dysta) EnableScalable() {
	d.h = sched.NewTaskHeap(func(a, b *sched.Task) bool {
		ka, kb := d.heapKey(a), d.heapKey(b)
		return ka < kb || (ka == kb && a.ID < b.ID)
	})
}

// PickNextScalable implements sched.ScalableScheduler: the exact
// reference argmin via bound-pruned DFS over the heap (see the field
// doc on h for why the pruning cannot change the pick).
func (d *Dysta) PickNextScalable(q *sched.ReadyQueue, now time.Duration) *sched.Task {
	if !d.cfg.DynamicEnabled {
		// The key IS the score: the heap minimum is the reference pick,
		// tie-break included.
		return d.h.Min()
	}
	n := d.h.Len()
	if n <= 1 {
		// A lone candidate is the argmin; no score is needed.
		return d.h.Min()
	}
	queueLen := float64(q.Len())
	var best *sched.Task
	bestScore := 0.0
	// Pre-order walk: the right child is pushed first so the left
	// subtree is explored first.
	stack := append(d.stack[:0], 0)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t := d.h.At(i)
		if best != nil && d.heapKey(t) > bestScore {
			continue
		}
		sc := d.cachedScore(t, now, queueLen)
		if best == nil || sc < bestScore || (sc == bestScore && t.ID < best.ID) {
			best, bestScore = t, sc
		}
		if r := 2*i + 2; r < n {
			stack = append(stack, r)
		}
		if l := 2*i + 1; l < n {
			stack = append(stack, l)
		}
	}
	d.stack = stack
	return best
}

// refresh re-derives the cached score components from the predictor.
func (s *requestState) refresh(t *sched.Task) {
	s.remainMS = ms(s.pred.Remaining(t.NextLayer))
	s.isolMS = ms(s.pred.Isolated())
}

// OnArrival implements sched.Scheduler: the static level (Alg. 1).
// Lat_n is the LUT's average latency for the model-pattern pair — the
// pattern-aware estimate of line 5 — and the score is
// Lat_n + Beta * (SLO_n - Lat_n).
func (d *Dysta) OnArrival(t *sched.Task, _ time.Duration) {
	st := d.lut.MustLookup(t.Key)
	lat := ms(st.AvgTotal)
	slack := ms(t.SLO) - lat
	// Every field is rewritten below, so a recycled state is
	// indistinguishable from a fresh one.
	s := d.free.Get()
	s.staticScore = lat + d.cfg.Beta*slack
	s.pred.reset(&d.cfg, st)
	s.refresh(t)
	t.Attachment = s
	if d.h != nil {
		d.h.Push(t)
	}
}

// OnLayerComplete implements sched.Scheduler: the hardware monitor's
// sparsity reading feeds the request's sparse latency predictor (Alg. 2
// line 7, Alg. 3), and the cached score components are re-derived. A
// completed request's state is released.
func (d *Dysta) OnLayerComplete(t *sched.Task, layer int, monitored float64, _ time.Duration) {
	if t.Done {
		d.release(t)
		return
	}
	if s := state(t); s != nil {
		if d.cfg.DynamicEnabled {
			s.pred.Observe(layer, monitored)
		}
		s.refresh(t)
		if d.h != nil {
			d.h.Fix(t)
		}
	}
}

// OnExtract implements sched.TaskExtractor: all of Dysta's per-request
// state (static score, predictor) lives in the attachment, and a migrated
// request has executed no layer, so the predictor holds no monitored
// sparsity worth carrying — the adopting engine's OnArrival rebuilds an
// identical fresh state from the LUT.
func (d *Dysta) OnExtract(t *sched.Task, _ time.Duration) { d.release(t) }

// release detaches a departing task: its heap slot goes first (the heap
// keys on the state), then its state returns to the free list.
func (d *Dysta) release(t *sched.Task) {
	if d.h != nil {
		d.h.Remove(t)
	}
	if s := state(t); s != nil {
		d.free.Put(s)
	}
	t.Attachment = nil
}

// PickNext implements sched.Scheduler: the dynamic level (Alg. 2). Every
// queued request is re-scored with its refined remaining time, slack and
// preemption penalty; the minimum score runs next. With the dynamic level
// disabled, arrival-time static scores order the queue instead. This is
// the reference implementation: it evaluates the predictor from scratch
// for every task.
func (d *Dysta) PickNext(ready []*sched.Task, now time.Duration) *sched.Task {
	best := ready[0]
	bestScore := d.score(best, now, len(ready))
	for _, t := range ready[1:] {
		if sc := d.score(t, now, len(ready)); sc < bestScore || (sc == bestScore && t.ID < best.ID) {
			best, bestScore = t, sc
		}
	}
	return best
}

// PickNextIncremental implements sched.IncrementalScheduler: the same
// argmin as PickNext, computed from the cached score components.
func (d *Dysta) PickNextIncremental(q *sched.ReadyQueue, now time.Duration) *sched.Task {
	tasks := q.Tasks()
	queueLen := float64(len(tasks))
	var best *sched.Task
	var bestScore float64
	for _, t := range tasks {
		sc := d.cachedScore(t, now, queueLen)
		if best == nil || sc < bestScore || (sc == bestScore && t.ID < best.ID) {
			best, bestScore = t, sc
		}
	}
	return best
}

// cachedScore is the fast-path score: identical arithmetic to score, with
// the predictor-derived terms read from the attachment cache.
func (d *Dysta) cachedScore(t *sched.Task, now time.Duration, queueLen float64) float64 {
	s := state(t)
	if s == nil {
		return 1e18
	}
	if !d.cfg.DynamicEnabled {
		return s.staticScore
	}
	remain := s.remainMS
	slack := ms(t.Deadline()-now) - remain
	demotion := 0.0
	if slack < 0 {
		slack = 0
		demotion = d.cfg.DemotionMS
	}
	penalty := 0.0
	if s.isolMS > 0 && queueLen > 0 {
		penalty = (ms(t.SinceLastRun(now)) / s.isolMS) / queueLen * d.cfg.PenaltyWeight
	}
	return remain + d.cfg.Eta*(slack+penalty) + demotion
}

// score computes the request's current score in milliseconds from
// scratch (Alg. 2 lines 7-11). Negative slack is clamped to zero so a
// task that can no longer meet its deadline competes on remaining time
// instead of hijacking the queue (the EDF overload pathology); the clamp
// is a documented refinement of the literal Alg. 2 (see DESIGN.md §6).
func (d *Dysta) score(t *sched.Task, now time.Duration, queueLen int) float64 {
	s := state(t)
	if s == nil {
		// Defensive: a task the scheduler never saw arrive sorts last.
		return 1e18
	}
	if !d.cfg.DynamicEnabled {
		return s.staticScore
	}
	remain := ms(s.pred.Remaining(t.NextLayer))
	slack := ms(t.Deadline()-now) - remain
	demotion := 0.0
	if slack < 0 {
		slack = 0
		demotion = d.cfg.DemotionMS
	}
	isol := ms(s.pred.Isolated())
	penalty := 0.0
	if isol > 0 && queueLen > 0 {
		penalty = (ms(t.SinceLastRun(now)) / isol) / float64(queueLen) * d.cfg.PenaltyWeight
	}
	return remain + d.cfg.Eta*(slack+penalty) + demotion
}

// ms converts a duration to float64 milliseconds, the score unit (matching
// the FP16 operand scale of the hardware implementation).
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

var (
	_ sched.IncrementalScheduler = (*Dysta)(nil)
	_ sched.ScalableScheduler    = (*Dysta)(nil)
	_ sched.TaskExtractor        = (*Dysta)(nil)
)
