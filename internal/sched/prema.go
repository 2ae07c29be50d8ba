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

	free FreeList[premaState]
}

// premaState is PREMA's per-task attachment.
type premaState struct {
	prio     float64
	tokens   float64
	lastSeen time.Duration
	st       *trace.Stats
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
	*s = premaState{st: p.est.stats(t)}
	t.Attachment = s
	return s
}

// release detaches a departing task: its state returns to the free
// list, and a dangling last-pick reference is dropped.
func (p *PREMA) release(t *Task) {
	if s, ok := t.Attachment.(*premaState); ok {
		p.free.Put(s)
	}
	t.Attachment = nil
	if p.lastPick == t {
		p.lastPick = nil
	}
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
	}
	t.Attachment = s
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
	p.state(t).lastSeen = now
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
	_ TaskExtractor        = (*PREMA)(nil)
)
