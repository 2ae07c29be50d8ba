package sched

import "time"

// ScalableScheduler is the opt-in sublinear pick interface behind
// Options.ScalablePick: a scheduler that maintains heap-ordered score
// structures across the arrival/completion/extract hooks so a pick no
// longer scans the whole ready queue. The contract mirrors
// IncrementalScheduler's: PickNextScalable must return exactly the task
// the reference PickNext would (same lexicographic tie-breaks), without
// exception. Implementations achieve exactness by treating their heaps
// as candidate filters — heap keys are provable score bounds, and every
// surviving candidate is re-scored with the reference formula.
type ScalableScheduler interface {
	Scheduler
	// EnableScalable switches the scheduler into heap-maintained mode.
	// It must be called before any task arrives; the engine calls it at
	// construction when Options.ScalablePick is set.
	EnableScalable()
	// PickNextScalable picks the next task to run at virtual time now.
	// The returned task must be in the ready queue.
	PickNextScalable(q *ReadyQueue, now time.Duration) *Task
}

// IndexedHeap is a binary min-heap of tasks whose heap indices live
// outside the Task struct: the owner supplies a setIdx callback that
// stores each task's position (or -1 on removal) wherever it keeps
// per-task state, so one task can sit in several heaps at once —
// Task.heapIndex, the single built-in slot TaskHeap uses, cannot.
// Ordering is the owner's less function; like TaskHeap, owners must
// use keys that are time-invariant between explicit updates and break
// ties on task ID so heap shape never depends on arrival interleaving.
//
// The DFS pruning the scalable pick paths run on top (child keys are
// always >= the parent's) relies on nothing beyond the standard heap
// property, which every mutation below preserves.
type IndexedHeap struct {
	tasks  []*Task
	less   func(a, b *Task) bool
	setIdx func(t *Task, i int)
}

// NewIndexedHeap returns an empty heap with the given order and index
// store.
func NewIndexedHeap(less func(a, b *Task) bool, setIdx func(t *Task, i int)) *IndexedHeap {
	return &IndexedHeap{less: less, setIdx: setIdx}
}

// Len returns the number of tasks in the heap.
func (h *IndexedHeap) Len() int { return len(h.tasks) }

// At returns the task at heap position i (0 is the minimum; children of
// i are 2i+1 and 2i+2 — the traversal surface of the pruned DFS).
func (h *IndexedHeap) At(i int) *Task { return h.tasks[i] }

// Push inserts a task.
func (h *IndexedHeap) Push(t *Task) {
	h.tasks = append(h.tasks, t)
	i := len(h.tasks) - 1
	h.setIdx(t, i)
	h.up(i)
}

// RemoveAt deletes the task at heap position i, stamping its index -1.
func (h *IndexedHeap) RemoveAt(i int) {
	t := h.tasks[i]
	last := len(h.tasks) - 1
	h.tasks[i] = h.tasks[last]
	h.tasks[last] = nil
	h.tasks = h.tasks[:last]
	h.setIdx(t, -1)
	if i < last {
		h.setIdx(h.tasks[i], i)
		h.FixAt(i)
	}
}

// FixAt restores heap order after the task at position i changed key.
func (h *IndexedHeap) FixAt(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

// PopMin removes and returns the minimum task, or nil when empty.
func (h *IndexedHeap) PopMin() *Task {
	if len(h.tasks) == 0 {
		return nil
	}
	t := h.tasks[0]
	h.RemoveAt(0)
	return t
}

// Min returns the minimum task without removing it, or nil when empty.
func (h *IndexedHeap) Min() *Task {
	if len(h.tasks) == 0 {
		return nil
	}
	return h.tasks[0]
}

func (h *IndexedHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.tasks[i], h.tasks[parent]) {
			return
		}
		h.tasks[i], h.tasks[parent] = h.tasks[parent], h.tasks[i]
		h.setIdx(h.tasks[i], i)
		h.setIdx(h.tasks[parent], parent)
		i = parent
	}
}

func (h *IndexedHeap) down(i int) bool {
	moved := false
	for {
		child := 2*i + 1
		if child >= len(h.tasks) {
			return moved
		}
		if r := child + 1; r < len(h.tasks) && h.less(h.tasks[r], h.tasks[child]) {
			child = r
		}
		if !h.less(h.tasks[child], h.tasks[i]) {
			return moved
		}
		h.tasks[i], h.tasks[child] = h.tasks[child], h.tasks[i]
		h.setIdx(h.tasks[i], i)
		h.setIdx(h.tasks[child], child)
		i = child
		moved = true
	}
}
