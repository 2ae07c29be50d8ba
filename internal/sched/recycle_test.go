package sched

import (
	"testing"
	"time"
)

// TestRecycledStatesEqualFresh: PREMA and SDRM3 (scalable path) return a
// departing task's state to their free lists, at completion and on
// OnExtract, and the next arrival on the same scheduler reuses it. The
// reused state must equal the one a fresh scheduler builds for the same
// arrival. The first task runs a layer before it leaves, so the
// released state is dirty (moved accrual clock, shifted heap slots).
func TestRecycledStatesEqualFresh(t *testing.T) {
	a := synthReq(0, "a", 0, 2*time.Millisecond, 4, 10)
	b := synthReq(1, "b", 3*time.Millisecond, 5*time.Millisecond, 3, 10)
	est := synthEstimator(a, b)
	for _, tc := range []struct {
		name string
		mk   func() Scheduler
		same func(x, y any) bool
	}{
		{"PREMA", func() Scheduler { return NewPREMA(est) }, func(x, y any) bool {
			return *x.(*premaState) == *y.(*premaState)
		}},
		{"SDRM3", func() Scheduler { return NewSDRM3(est) }, func(x, y any) bool {
			sx, sy := x.(*sdrmState), y.(*sdrmState)
			return sx.st == sy.st && sx.idx == sy.idx && sx.class.iso == sy.class.iso
		}},
	} {
		for _, via := range []string{"completion", "extract"} {
			s := enableScalable(tc.mk())
			first := newTask(a)
			s.OnArrival(first, 0)
			used := first.Attachment
			first.NextLayer, first.ExecTime = 1, 2*time.Millisecond
			s.OnLayerComplete(first, 0, 0.5, 2*time.Millisecond)
			if via == "completion" {
				first.NextLayer, first.Done = first.NumLayers(), true
				s.OnLayerComplete(first, first.NumLayers()-1, 0.5, 3*time.Millisecond)
			} else {
				s.(TaskExtractor).OnExtract(first, 3*time.Millisecond)
			}
			if first.Attachment != nil {
				t.Fatalf("%s/%s: attachment survives release", tc.name, via)
			}

			fresh := enableScalable(tc.mk())
			rec, ref := newTask(b), newTask(b)
			s.OnArrival(rec, 3*time.Millisecond)
			fresh.OnArrival(ref, 3*time.Millisecond)
			if rec.Attachment != used {
				t.Fatalf("%s/%s: arrival allocated a new state instead of reusing the released one", tc.name, via)
			}
			if !tc.same(rec.Attachment, ref.Attachment) {
				t.Errorf("%s/%s: recycled state %+v != fresh %+v", tc.name, via, rec.Attachment, ref.Attachment)
			}
		}
	}
}

// enableScalable switches s into heap-maintained mode where it has one,
// as the engine does under Options.ScalablePick.
func enableScalable(s Scheduler) Scheduler {
	if sc, ok := s.(ScalableScheduler); ok {
		sc.EnableScalable()
	}
	return s
}
