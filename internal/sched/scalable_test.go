package sched

import (
	"testing"
	"time"
)

// TestIndexedHeapOrdering drives an IndexedHeap through pushes, key
// changes and removals, checking the minimum against a linear scan and
// the setIdx positions against the backing slice. Two heaps share the
// same tasks to exercise the external-index contract TaskHeap cannot
// provide.
func TestIndexedHeapOrdering(t *testing.T) {
	type slots struct{ a, b int }
	idx := map[int]*slots{}
	lessArr := func(x, y *Task) bool {
		return x.Arrival < y.Arrival || (x.Arrival == y.Arrival && x.ID < y.ID)
	}
	lessExec := func(x, y *Task) bool {
		return x.ExecTime < y.ExecTime || (x.ExecTime == y.ExecTime && x.ID < y.ID)
	}
	ha := NewIndexedHeap(lessArr, func(task *Task, i int) { idx[task.ID].a = i })
	hb := NewIndexedHeap(lessExec, func(task *Task, i int) { idx[task.ID].b = i })
	if ha.Min() != nil || ha.PopMin() != nil {
		t.Fatal("empty heap yielded a task")
	}
	arrivals := []time.Duration{9, 3, 7, 3, 11, 1, 5, 2}
	var tasks []*Task
	for i, a := range arrivals {
		task := &Task{ID: i, Arrival: a, ExecTime: time.Duration(len(arrivals) - i)}
		idx[i] = &slots{-1, -1}
		tasks = append(tasks, task)
		ha.Push(task)
		hb.Push(task)
	}
	check := func(live []*Task) {
		t.Helper()
		for _, h := range []struct {
			h    *IndexedHeap
			less func(a, b *Task) bool
			get  func(id int) int
		}{
			{ha, lessArr, func(id int) int { return idx[id].a }},
			{hb, lessExec, func(id int) int { return idx[id].b }},
		} {
			if h.h.Len() != len(live) {
				t.Fatalf("Len = %d, want %d", h.h.Len(), len(live))
			}
			for i := 0; i < h.h.Len(); i++ {
				if got := h.get(h.h.At(i).ID); got != i {
					t.Fatalf("task %d carries index %d, sits at %d", h.h.At(i).ID, got, i)
				}
			}
			if len(live) == 0 {
				continue
			}
			want := live[0]
			for _, x := range live[1:] {
				if h.less(x, want) {
					want = x
				}
			}
			if got := h.h.Min(); got != want {
				t.Fatalf("Min = task %d, want %d", got.ID, want.ID)
			}
		}
	}
	check(tasks)
	// Key change in one heap must not disturb the other.
	tasks[0].Arrival = 0
	ha.FixAt(idx[0].a)
	check(tasks)
	// Remove from the middle of each heap, then drain.
	live := append([]*Task(nil), tasks...)
	for len(live) > 0 {
		victim := live[len(live)/2]
		ha.RemoveAt(idx[victim.ID].a)
		hb.RemoveAt(idx[victim.ID].b)
		if idx[victim.ID].a != -1 || idx[victim.ID].b != -1 {
			t.Fatalf("removed task %d keeps indices %+v", victim.ID, idx[victim.ID])
		}
		live = append(live[:len(live)/2], live[len(live)/2+1:]...)
		check(live)
	}
}

// TestScalableMatchesReference proves the ScalablePick path produces
// bit-identical schedules to the reference PickNext for SDRM3 (Dysta's
// equivalence test lives in internal/core). The reference run hides the
// fast-path methods behind a plain Scheduler.
func TestScalableMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		reqs, est := randomStream(seed)
		scalable := Options{RecordTimeline: true, RecordTasks: true, ScalablePick: true}
		fast, err := Run(NewSDRM3(est), reqs, scalable)
		if err != nil {
			t.Fatalf("SDRM3 scalable (seed %d): %v", seed, err)
		}
		ref, err := Run(struct{ Scheduler }{NewSDRM3(est)}, reqs, scalable)
		if err != nil {
			t.Fatalf("SDRM3 reference (seed %d): %v", seed, err)
		}
		sameResults(t, "SDRM3", fast, ref)
	}
}

// TestScalableFallsBackWithoutImplementation checks that ScalablePick on
// a scheduler without the interface silently uses the next-best path and
// changes nothing.
func TestScalableFallsBackWithoutImplementation(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		reqs, _ := randomStream(seed)
		opts := Options{RecordTimeline: true, RecordTasks: true}
		withFlag := opts
		withFlag.ScalablePick = true
		plain, err := Run(NewFCFS(), reqs, opts)
		if err != nil {
			t.Fatalf("FCFS (seed %d): %v", seed, err)
		}
		flagged, err := Run(NewFCFS(), reqs, withFlag)
		if err != nil {
			t.Fatalf("FCFS with ScalablePick (seed %d): %v", seed, err)
		}
		sameResults(t, "FCFS", plain, flagged)
	}
}
