package sched

import (
	"time"

	"sparsedysta/internal/trace"
)

// SDRM3 implements the MapScore scheduler of Kim et al. (ASPLOS 2024),
// adapted per paper §6.1: MapScore is the weighted sum of Urgency and
// Fairness with the hardware-preference term Pref pinned to 1 (a single
// accelerator) and Alpha tuned following SDRM3's own methodology.
//
// Urgency grows as a task's deadline approaches relative to its estimated
// remaining work; Fairness grows with the service deficit a task has
// accumulated relative to uniform progress. The highest MapScore runs.
// Because Fairness keeps rotating service toward the most-starved task,
// the schedule approaches layer-granularity processor sharing under load —
// which inflates both ANTT and violations exactly as the paper observes
// (Table 5: SDRM3 trails even FCFS on these single-accelerator workloads).
type SDRM3 struct {
	est *Estimator
	// Alpha weights Urgency against Fairness.
	Alpha float64

	// Scalable-pick state (Options.ScalablePick). MapScore moves with
	// the clock for every task, so no single time-invariant key orders
	// it; but within one ISOLATION CLASS — tasks sharing the profiled
	// iso = AvgTotal, i.e. one class per model — fairness at any instant
	// is ordered (in real arithmetic) by the integer k = Arrival +
	// ExecTime: fairness = (ms(now-Arrival) - ms(ExecTime))/iso, and for
	// a shared now and iso the numerators order by -(Arrival+ExecTime).
	// Each class therefore keeps an IndexedHeap min-ordered by (k, ID),
	// whose root is the class's fairness maximum. The pick DFS-walks
	// each class heap under the upper bound
	//     score <= Alpha + ms(now-k)/iso + guard,
	// monotone decreasing in k: Urgency is clamped to [0,1] so the
	// Alpha term is at most Alpha (float multiplication by a value <= 1
	// never rounds above Alpha), and the guard absorbs the float
	// rounding by which the two ms() divisions can deviate from the
	// real-arithmetic ordering — it overestimates the true error (a few
	// ulps) by orders of magnitude while staying far below real score
	// gaps, so pruning loses little. A subtree is skipped only when its
	// bound is STRICTLY below the best exact score found, so a
	// potential tie (which the min-ID rule would resolve) is never
	// pruned: the pick is bit-identical to the reference scan. Visited
	// nodes are re-scored with the exact mapScore.
	classes  []*sdrmClass
	classIdx map[time.Duration]*sdrmClass
	free     FreeList[sdrmState]
}

// sdrmClass is one isolation class of the scalable pick: the tasks of
// one model (one profiled AvgTotal), heap-ordered by (Arrival+ExecTime,
// ID) ascending — fairness descending.
type sdrmClass struct {
	iso float64 // ms(AvgTotal), the fairness denominator
	h   *IndexedHeap
}

// sdrmState is the per-task attachment in scalable mode: the profile
// plus the task's position in its class heap.
type sdrmState struct {
	st    *trace.Stats
	class *sdrmClass
	idx   int
}

// sdrmGuard over-covers the float rounding between the real-arithmetic
// class ordering and the rounded mapScore: the true deviation is a few
// ulps of the fairness magnitude (~1e-16 relative), while real score
// gaps between tasks are set by inter-arrival spacing over iso
// (~1e-1). 1e-6 sits safely between the two for any simulation length
// this codebase reaches (fairness stays far below 1e10).
const sdrmGuard = 1e-6

// NewSDRM3 returns the SDRM3 baseline with the tuned default alpha.
func NewSDRM3(est *Estimator) *SDRM3 { return &SDRM3{est: est, Alpha: 0.5} }

// Name implements Scheduler.
func (*SDRM3) Name() string { return "SDRM3" }

// EnableScalable implements ScalableScheduler: switch to class-heap
// maintained picks. Must precede the first arrival (the engine calls it
// at construction).
func (s *SDRM3) EnableScalable() {
	s.classIdx = map[time.Duration]*sdrmClass{}
}

// classFor returns (creating on first use) the isolation class of a
// profile. Classes live in a slice in creation order — deterministic,
// since arrivals are — so the pick never ranges over a map.
func (s *SDRM3) classFor(st *trace.Stats) *sdrmClass {
	if c, ok := s.classIdx[st.AvgTotal]; ok {
		return c
	}
	c := &sdrmClass{iso: ms(st.AvgTotal)}
	c.h = NewIndexedHeap(
		func(a, b *Task) bool {
			ka, kb := a.Arrival+a.ExecTime, b.Arrival+b.ExecTime
			return ka < kb || (ka == kb && a.ID < b.ID)
		},
		func(t *Task, i int) {
			if st, ok := t.Attachment.(*sdrmState); ok {
				st.idx = i
			}
		},
	)
	s.classIdx[st.AvgTotal] = c
	s.classes = append(s.classes, c)
	return c
}

// OnArrival implements Scheduler: the pattern-blind profile is attached
// once, so per-decision scoring needs no model lookup. In scalable mode
// the task also enters its isolation class's heap.
func (s *SDRM3) OnArrival(t *Task, _ time.Duration) {
	st := s.est.stats(t)
	if s.classIdx == nil {
		t.Attachment = st
		return
	}
	c := s.classFor(st)
	a := s.free.Get()
	*a = sdrmState{st: st, class: c, idx: -1}
	t.Attachment = a
	c.h.Push(t)
}

// OnLayerComplete implements Scheduler: in scalable mode the executed
// task's ExecTime grew, so its class-heap key moved.
func (s *SDRM3) OnLayerComplete(t *Task, _ int, _ float64, _ time.Duration) {
	if t.Done {
		s.release(t)
		return
	}
	if st, ok := t.Attachment.(*sdrmState); ok && st.idx >= 0 {
		st.class.h.FixAt(st.idx)
	}
}

// OnExtract implements TaskExtractor: only the attachment holds state.
func (s *SDRM3) OnExtract(t *Task, _ time.Duration) { s.release(t) }

// release detaches a departing task: its class-heap slot goes first
// (the index store writes through the attachment), then a scalable-mode
// state returns to the free list.
func (s *SDRM3) release(t *Task) {
	if st, ok := t.Attachment.(*sdrmState); ok {
		if st.idx >= 0 {
			st.class.h.RemoveAt(st.idx)
		}
		s.free.Put(st)
	}
	t.Attachment = nil
}

// PickNext implements Scheduler: maximum MapScore (the reference scan).
func (s *SDRM3) PickNext(ready []*Task, now time.Duration) *Task {
	best := ready[0]
	bestScore := s.mapScore(best, now)
	for _, t := range ready[1:] {
		if sc := s.mapScore(t, now); sc > bestScore || (sc == bestScore && t.ID < best.ID) {
			best, bestScore = t, sc
		}
	}
	return best
}

// PickNextScalable implements ScalableScheduler: the exact reference
// argmax via bound-pruned DFS over each class heap (see the field doc
// on classes for the bound derivation).
func (s *SDRM3) PickNextScalable(_ *ReadyQueue, now time.Duration) *Task {
	var best *Task
	bestScore := 0.0
	for _, c := range s.classes {
		h := c.h
		if h.Len() == 0 {
			continue
		}
		var walk func(i int)
		walk = func(i int) {
			if i >= h.Len() {
				return
			}
			t := h.At(i)
			if best != nil {
				ub := s.Alpha + sdrmGuard
				if c.iso > 0 {
					ub += ms(now-(t.Arrival+t.ExecTime)) / c.iso
				}
				if ub < bestScore {
					return
				}
			}
			sc := s.mapScore(t, now)
			if best == nil || sc > bestScore || (sc == bestScore && t.ID < best.ID) {
				best, bestScore = t, sc
			}
			walk(2*i + 1)
			walk(2*i + 2)
		}
		walk(0)
	}
	return best
}

// taskStats reads the profile behind either attachment form.
func (s *SDRM3) taskStats(t *Task) *trace.Stats {
	switch a := t.Attachment.(type) {
	case *trace.Stats:
		return a
	case *sdrmState:
		return a.st
	}
	return s.est.stats(t)
}

// mapScore = Alpha*Urgency + Fairness (Pref = 1 folded in).
func (s *SDRM3) mapScore(t *Task, now time.Duration) float64 {
	st := s.taskStats(t)
	remain := ms(st.AvgRemaining(t.NextLayer))
	slack := ms(t.Deadline() - now)
	urgency := 0.0
	if slack > 0 {
		urgency = remain / slack
	} else {
		// Past-deadline tasks are maximally urgent.
		urgency = 1
	}
	if urgency > 1 {
		urgency = 1
	}

	iso := ms(st.AvgTotal)
	fairness := 0.0
	if iso > 0 {
		// Service deficit: how far the task lags uniform progress.
		expected := ms(now - t.Arrival)
		received := ms(t.ExecTime)
		fairness = (expected - received) / iso
	}
	return s.Alpha*urgency + fairness
}

var (
	_ ScalableScheduler = (*SDRM3)(nil)
	_ TaskExtractor     = (*SDRM3)(nil)
)
