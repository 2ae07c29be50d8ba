package sched

import (
	"time"

	"sparsedysta/internal/trace"
)

// PREMA implements the predictive multi-task scheduling algorithm of Choi
// & Rhu (HPCA 2020), adapted per paper §6.1: the candidate condition is
// Token_i >= Threshold (the paper's modification, so scheduling works from
// the very first decision), and execution-time estimates come from the
// offline profiling LUT, sparsity-blind as in the original.
//
// PREMA's mechanism: each task carries a static priority; while waiting it
// accumulates tokens proportional to priority and waiting time, and spends
// them when dispatched. Tasks whose tokens reach the threshold form the
// candidate set (all tasks, if none qualify); among candidates the task
// with the shortest estimated remaining time runs — so PREMA behaves like
// SJF with token-based starvation protection, matching its near-SJF ANTT
// and violation numbers in the paper's Table 5.
//
// Per-task bookkeeping (priority, tokens, accrual clock, profile) lives in
// a task attachment set at arrival, so every scheduling decision is free
// of map lookups.
type PREMA struct {
	est *Estimator
	// Threshold is the token level that makes a task a candidate.
	Threshold float64

	lastPick *Task

	// Scalable-pick state (Options.ScalablePick), nil until
	// EnableScalable. The eager accrue() materializes every ready
	// task's tokens at every pick — an O(queue) pass the scalable path
	// replaces with LAZY accrual: tokens are a pure function
	// tokens + prio*ms(now - lastSeen) of the per-task state, touched
	// only at the events that change its slope (dispatch resets, layer
	// completions). Candidacy (tokens >= Threshold) then becomes a
	// precomputed threshold-CROSSING INSTANT per task, and the pick is
	// three heap lookups: promote due crossers from crossH (keyed by
	// crossing time) into candH (keyed by (remaining, ID)), take
	// candH's minimum against the lastPick's standing candidacy, and
	// fall back to remH's all-tasks minimum when no candidate exists.
	//
	// This is the ONE documented inexact scalable path: summing
	// per-pick rounded increments (eager) and rounding one accumulated
	// span (lazy) differ in the last float ulps, so a task can cross
	// the threshold one scheduling decision earlier or later than under
	// the reference, and picks may diverge near the boundary. The
	// equivalence tests therefore compare aggregate metrics under a
	// tolerance rather than schedules bit-for-bit (see scalable.go).
	remH   *IndexedHeap // all ready tasks, keyed (remaining, ID)
	candH  *IndexedHeap // tasks past the threshold, keyed (remaining, ID)
	crossH *IndexedHeap // tasks below it, keyed (crossing instant, ID)

	free FreeList[premaState]
}

// premaState is PREMA's per-task attachment. The idx fields are the
// task's positions in the scalable heaps (-1 when absent).
type premaState struct {
	prio     float64
	tokens   float64
	lastSeen time.Duration
	st       *trace.Stats

	cross                     time.Duration
	remIdx, candIdx, crossIdx int
}

// NewPREMA returns the PREMA baseline with the default threshold.
func NewPREMA(est *Estimator) *PREMA {
	return &PREMA{est: est, Threshold: 64}
}

// Name implements Scheduler.
func (*PREMA) Name() string { return "PREMA" }

// state returns the task's attachment, creating a zero state for tasks
// the scheduler never saw arrive (mirroring the zero values the map-based
// bookkeeping used to yield).
func (p *PREMA) state(t *Task) *premaState {
	if s, ok := t.Attachment.(*premaState); ok {
		return s
	}
	return p.attachZero(t)
}

// attachZero is state's slow path, kept out of line so state inlines
// into the per-task loops of the pick paths.
func (p *PREMA) attachZero(t *Task) *premaState {
	s := p.free.Get()
	*s = premaState{st: p.est.stats(t), remIdx: -1, candIdx: -1, crossIdx: -1}
	t.Attachment = s
	return s
}

// release detaches a departing task: its heap slots go first (their
// index stores write through the attachment), then its state returns to
// the free list, and a dangling last-pick reference is dropped.
func (p *PREMA) release(t *Task) {
	if s, ok := t.Attachment.(*premaState); ok {
		if p.remH != nil {
			p.dropScalable(s, t)
		}
		p.free.Put(s)
	}
	t.Attachment = nil
	if p.lastPick == t {
		p.lastPick = nil
	}
}

// remainingOf reads the profiled remaining time through the attachment.
func (p *PREMA) remainingOf(t *Task) time.Duration {
	if s, ok := t.Attachment.(*premaState); ok {
		return s.st.AvgRemaining(t.NextLayer)
	}
	return p.est.Remaining(t)
}

// crossAt returns the instant the task's lazily-accrued tokens reach
// the threshold: lastSeen plus the remaining deficit over the accrual
// slope. Already-qualified tasks cross immediately.
func (p *PREMA) crossAt(s *premaState) time.Duration {
	if s.tokens >= p.Threshold {
		return s.lastSeen
	}
	if s.prio <= 0 {
		// No accrual: never crosses. A sentinel far past any simulated
		// horizon keeps it ordered without a special case.
		return 1 << 62
	}
	wait := (p.Threshold - s.tokens) / s.prio // ms until crossing
	return s.lastSeen + time.Duration(wait*float64(time.Millisecond))
}

// EnableScalable implements ScalableScheduler. Must precede the first
// arrival (the engine calls it at construction).
func (p *PREMA) EnableScalable() {
	remLess := func(a, b *Task) bool {
		ra, rb := p.remainingOf(a), p.remainingOf(b)
		return ra < rb || (ra == rb && a.ID < b.ID)
	}
	p.remH = NewIndexedHeap(remLess, func(t *Task, i int) {
		if s, ok := t.Attachment.(*premaState); ok {
			s.remIdx = i
		}
	})
	p.candH = NewIndexedHeap(remLess, func(t *Task, i int) {
		if s, ok := t.Attachment.(*premaState); ok {
			s.candIdx = i
		}
	})
	p.crossH = NewIndexedHeap(
		func(a, b *Task) bool {
			ca, cb := p.state(a).cross, p.state(b).cross
			return ca < cb || (ca == cb && a.ID < b.ID)
		},
		func(t *Task, i int) {
			if s, ok := t.Attachment.(*premaState); ok {
				s.crossIdx = i
			}
		})
}

// dropScalable releases a departing task's heap slots.
func (p *PREMA) dropScalable(s *premaState, t *Task) {
	if s.remIdx >= 0 {
		p.remH.RemoveAt(s.remIdx)
	}
	if s.candIdx >= 0 {
		p.candH.RemoveAt(s.candIdx)
	}
	if s.crossIdx >= 0 {
		p.crossH.RemoveAt(s.crossIdx)
	}
}

// PickNextScalable implements ScalableScheduler (see the field doc for
// the lazy-accrual contract).
func (p *PREMA) PickNextScalable(q *ReadyQueue, now time.Duration) *Task {
	// Promote every task whose crossing instant has passed; promotions
	// are permanent until a dispatch resets the tokens, exactly like
	// eager tokens only falling at dispatch.
	for p.crossH.Len() > 0 {
		t := p.crossH.Min()
		s := p.state(t)
		if s.cross > now {
			break
		}
		p.crossH.RemoveAt(s.crossIdx)
		p.candH.Push(t)
	}
	best := p.candH.Min()
	// The running task is a candidate by fiat (it occupies the NPU
	// until preempted), whatever its token balance.
	if lp := p.lastPick; lp != nil {
		if s, ok := lp.Attachment.(*premaState); ok && s.candIdx < 0 && q.Contains(lp) {
			if best == nil {
				best = lp
			} else if rl, rb := p.remainingOf(lp), p.remainingOf(best); rl < rb || (rl == rb && lp.ID < best.ID) {
				best = lp
			}
		}
	}
	if best == nil {
		best = p.remH.Min()
	}
	// Dispatch semantics mirror dispatch(): a change of pick spends the
	// new task's tokens, demoting it back below the threshold.
	if best != p.lastPick {
		s := p.state(best)
		s.tokens = 0
		s.lastSeen = now
		s.cross = p.crossAt(s)
		if s.candIdx >= 0 {
			p.candH.RemoveAt(s.candIdx)
			p.crossH.Push(best)
		} else if s.crossIdx >= 0 {
			p.crossH.FixAt(s.crossIdx)
		}
		p.lastPick = best
	}
	return best
}

// OnArrival implements Scheduler: assign the task's static priority.
// PREMA assigns priorities by task criticality; with uniform SLO
// multipliers, criticality is driven by job length — short jobs receive
// high priority so they are not starved by long-running tenants.
func (p *PREMA) OnArrival(t *Task, now time.Duration) {
	st := p.est.stats(t)
	s := p.free.Get()
	*s = premaState{
		prio:     priorityForLatency(st.AvgTotal),
		lastSeen: now,
		st:       st,
		remIdx:   -1, candIdx: -1, crossIdx: -1,
	}
	t.Attachment = s
	if p.remH != nil {
		p.remH.Push(t)
		s.cross = p.crossAt(s)
		if s.tokens >= p.Threshold {
			p.candH.Push(t)
		} else {
			p.crossH.Push(t)
		}
	}
}

// priorityForLatency buckets estimated isolated latency into PREMA's
// discrete priority levels (shorter job -> higher priority).
func priorityForLatency(iso time.Duration) float64 {
	switch {
	case iso < 20*time.Millisecond:
		return 8
	case iso < 60*time.Millisecond:
		return 4
	case iso < 200*time.Millisecond:
		return 2
	default:
		return 1
	}
}

// OnLayerComplete implements Scheduler: the task that just executed was
// not waiting, so its accrual clock resets; a completed task's bookkeeping
// is released. Clearing lastPick there is behaviorally free (a completed
// task is never in the ready queue, so every lastPick comparison against
// ready tasks already fails) and mandatory: under bounded capture the
// engine recycles completed tasks, and a dangling lastPick would
// spuriously grant running-task candidacy to whichever new request
// reuses the allocation.
func (p *PREMA) OnLayerComplete(t *Task, _ int, _ float64, now time.Duration) {
	if t.Done {
		p.release(t)
		return
	}
	s := p.state(t)
	s.lastSeen = now
	if p.remH != nil {
		// The remaining estimate shrank and the accrual clock moved:
		// repair whichever heaps key on them.
		s.cross = p.crossAt(s)
		if s.remIdx >= 0 {
			p.remH.FixAt(s.remIdx)
		}
		if s.candIdx >= 0 {
			p.candH.FixAt(s.candIdx)
		} else if s.crossIdx >= 0 {
			p.crossH.FixAt(s.crossIdx)
		}
	}
}

// OnExtract implements TaskExtractor: the migrated request forfeits its
// accumulated tokens (starvation credit is engine-local seniority — part
// of the price of moving), and a dangling last-pick reference is dropped
// so the departed task cannot shadow the next dispatch decision.
func (p *PREMA) OnExtract(t *Task, _ time.Duration) { p.release(t) }

// accrue credits waiting-time tokens to every ready task since the last
// decision; the running task accrues nothing while executing (it was not
// waiting).
func (p *PREMA) accrue(ready []*Task, now time.Duration) {
	for _, t := range ready {
		s := p.state(t)
		if wait := ms(now - s.lastSeen); wait > 0 {
			s.tokens += s.prio * wait
		}
		s.lastSeen = now
	}
}

// dispatch finalizes a pick: a fresh dispatch spends the task's
// accumulated tokens.
func (p *PREMA) dispatch(t *Task) *Task {
	if t != p.lastPick {
		p.state(t).tokens = 0
		p.lastPick = t
	}
	return t
}

// PickNext implements Scheduler (the reference implementation). The
// running task stays a candidate (it occupies the NPU until preempted);
// tokens are spent when a *different* task is dispatched, matching
// PREMA's dispatch-slot semantics rather than per-layer churn.
func (p *PREMA) PickNext(ready []*Task, now time.Duration) *Task {
	p.accrue(ready, now)

	candidates := make([]*Task, 0, len(ready))
	for _, t := range ready {
		if p.state(t).tokens >= p.Threshold || t == p.lastPick {
			candidates = append(candidates, t)
		}
	}
	if len(candidates) == 0 {
		candidates = ready
	}

	best := candidates[0]
	bestRem := p.est.Remaining(best)
	for _, t := range candidates[1:] {
		rem := p.est.Remaining(t)
		if rem < bestRem || (rem == bestRem && t.ID < best.ID) {
			best, bestRem = t, rem
		}
	}
	return p.dispatch(best)
}

// PickNextIncremental implements IncrementalScheduler: accrue tokens,
// then track the candidate and overall (remaining, ID) minima in one
// scan with no candidate-slice allocation.
func (p *PREMA) PickNextIncremental(q *ReadyQueue, now time.Duration) *Task {
	p.accrue(q.Tasks(), now)
	var cand, all *Task
	var candRem, allRem time.Duration
	for _, t := range q.Tasks() {
		s := p.state(t)
		rem := s.st.AvgRemaining(t.NextLayer)
		if all == nil || rem < allRem || (rem == allRem && t.ID < all.ID) {
			all, allRem = t, rem
		}
		if s.tokens >= p.Threshold || t == p.lastPick {
			if cand == nil || rem < candRem || (rem == candRem && t.ID < cand.ID) {
				cand, candRem = t, rem
			}
		}
	}
	if cand == nil {
		cand = all
	}
	return p.dispatch(cand)
}

var (
	_ IncrementalScheduler = (*PREMA)(nil)
	_ ScalableScheduler    = (*PREMA)(nil)
	_ TaskExtractor        = (*PREMA)(nil)
)
