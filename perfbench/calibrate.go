package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The calibration kernel is a fixed piece of simulator-like work that
// does not change with the simulator: a binary heap of jobs keyed by
// their remaining time, each step popping the head, walking a chain of
// dependent loads through an 8 MiB table (the trace and estimator
// lookups), doing float arithmetic on the job and sifting it back.
//
// On a shared host the CPU time of the same work drifts by more than 2x
// over minutes (other tenants' load on the cores, caches and memory),
// and the kernel slows with it while a change to the simulator leaves it
// alone. The benchmark therefore runs the kernel before and after every
// Phase 1 + simulation and reports host times in calibrated seconds:
// each run's CPU seconds × calReference ÷ the mean of the two kernel
// times around it, then the median over runs.
const (
	calTableLen = 1 << 20 // uint64 words: 8 MiB
	calJobs     = 1 << 14
	calSteps    = 5_000_000
	calChain    = 4 // dependent table loads per step
)

// calReference fixes the calibrated second: the kernel takes
// calReference on the host whose seconds the host metrics read in. It is
// about what the kernel takes on a 2-vCPU Intel Xeon VM of a shared host
// in its usual state, so calibrated seconds there are close to CPU
// seconds.
const calReference = 90 * time.Millisecond

// calibrate runs the kernel and returns its CPU time. Its memory is
// mapped outside the Go heap and unmapped afterwards, so the kernel
// neither runs nor is slowed by the collector and leaves no resident
// memory behind.
func calibrate() (time.Duration, error) {
	size := calTableLen*8 + calJobs*8 + calJobs*4
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return 0, fmt.Errorf("calibration: %w", err)
	}
	table := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), calTableLen)
	remain := unsafe.Slice((*float64)(unsafe.Pointer(&mem[calTableLen*8])), calJobs)
	heap := unsafe.Slice((*int32)(unsafe.Pointer(&mem[calTableLen*8+calJobs*8])), calJobs)
	t0 := cpuTime()
	sink := calKernel(table, remain, heap)
	d := cpuTime() - t0
	if err := syscall.Munmap(mem); err != nil {
		return 0, fmt.Errorf("calibration: %w", err)
	}
	if sink == 0 {
		return 0, fmt.Errorf("calibration: kernel produced no result")
	}
	return d, nil
}

// calKernel fills the table from a fixed splitmix64 stream, builds the
// job heap and runs calSteps steps; it returns a checksum so the work
// cannot be elided.
func calKernel(table []uint64, remain []float64, heap []int32) uint64 {
	s := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	for i := range table {
		table[i] = next()
	}
	less := func(a, b int32) bool {
		return remain[a] < remain[b] || remain[a] == remain[b] && a < b
	}
	for i := range heap {
		remain[i] = float64(table[i]%1000) + 1
		heap[i] = int32(i)
		for c := i; c > 0; {
			p := (c - 1) / 2
			if !less(heap[c], heap[p]) {
				break
			}
			heap[c], heap[p] = heap[p], heap[c]
			c = p
		}
	}
	const mask = calTableLen - 1
	var sum uint64
	for step := 0; step < calSteps; step++ {
		j := heap[0]
		idx := uint64(j) * 0x9e3779b97f4a7c15
		for k := 0; k < calChain; k++ {
			idx = table[idx&mask]
		}
		sum += idx
		remain[j] -= float64(idx&1023)*0.01 + 0.5
		if remain[j] <= 0 {
			remain[j] += float64(idx>>10&1023) + 1
		}
		for p := 0; ; {
			c := 2*p + 1
			if c >= len(heap) {
				break
			}
			if c+1 < len(heap) && less(heap[c+1], heap[c]) {
				c++
			}
			if !less(heap[c], heap[p]) {
				break
			}
			heap[c], heap[p] = heap[p], heap[c]
			p = c
		}
	}
	return sum
}
