// Command perfbench is the end-to-end and per-layer benchmark of the
// Sparse-DySta simulator. One process runs one workload with one seed for
// a fixed host-time budget and prints, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they
// are the per-layer ones from a separate traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	// One P: the simulation runs on one goroutine anyway (Workers = 1), and
	// with a second P the garbage collector's timing against the mutator
	// moved the peak RSS of one seed by ~7% between processes (~1.5% with
	// one).
	runtime.GOMAXPROCS(1)
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-table5, datacenter-stream or control-plane")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "host seconds to measure")
	traced := fs.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	b, err := newBench(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	m, err := measure(b, time.Duration(*seconds*float64(time.Second)), *traced == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	metrics := m.endToEnd()
	if *traced == 1 {
		if metrics, err = m.perLayer(*name); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	for _, f := range m.failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	fmt.Fprintf(stdout, "%s seed %d: %d runs, %d offered requests per run, %d completed (latency samples)\n",
		*name, *seed, len(m.sim), m.first.offered, m.first.completed())
	out, err := json.Marshal(result{
		Correct:   len(m.failures) == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if len(m.failures) > 0 {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// minRuns is the fewest simulations a measurement makes, whatever the
// budget: the second one is the same-seed rerun the determinism check
// compares against the first.
const minRuns = 2

// measurement holds every sample one process took.
type measurement struct {
	first     run
	setup     []float64 // Phase 1 host CPU seconds, one per run
	sim       []float64 // simulation host CPU seconds, one per untraced run
	calib     []float64 // calibration kernel CPU seconds, before and after each run
	scale     []float64 // calibrated seconds per CPU second, one per run
	allocs    []float64 // heap allocations per offered request
	bytes     []float64 // heap bytes allocated per offered request
	gcCycles  []float64
	gcPauseMS []float64
	peakRSS   []float64 // VmHWM over Phase 1 + simulation, MiB

	// Traced runs only.
	tr     *tracer
	traced []float64 // traced simulation host CPU seconds
	stores []float64 // BuildStores ms per Phase 1
	stats  []float64 // NewStatsSet + NewEstimator ms per Phase 1
	traces int       // traces one Phase 1 builds

	failures []string
	// attempted and failed count offered requests over every run; a run
	// failing any check counts all of its requests as failed.
	attempted, failed int
}

// measure alternates Phase 1 and simulation until the budget is spent
// (and at least minRuns times), checking every run. With traced set each
// untraced simulation is followed by a traced one over the same Phase 1.
func measure(b bench, budget time.Duration, traced bool, log io.Writer) (*measurement, error) {
	m := &measurement{}
	if traced {
		m.tr = newTracer()
	}
	var ref string
	start := time.Now()
	for i := 0; i < minRuns || time.Since(start) < budget; i++ {
		// The calibration kernel runs before and after every Phase 1 +
		// simulation, so each run is scaled by the host's speed around
		// it; it unmaps its memory before the peak RSS is reset.
		if err := m.calibrate(); err != nil {
			return nil, err
		}
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		t0 := cpuTime()
		if err := b.setup(); err != nil {
			return nil, fmt.Errorf("phase 1: %w", err)
		}
		setup := cpuTime() - t0

		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t1, w1 := cpuTime(), time.Now()
		r, err := b.simulate(nil)
		el, wall := (cpuTime() - t1).Seconds(), time.Since(w1).Seconds()
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, fmt.Errorf("simulation: %w", err)
		}
		peak, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		m.peakRSS = append(m.peakRSS, peak)
		if err := m.calibrate(); err != nil {
			return nil, err
		}
		m.scale = append(m.scale, calReference.Seconds()/((m.calib[2*i]+m.calib[2*i+1])/2))
		n := float64(r.offered)
		m.setup = append(m.setup, setup.Seconds())
		m.sim = append(m.sim, el)
		m.allocs = append(m.allocs, float64(after.Mallocs-before.Mallocs)/n)
		m.bytes = append(m.bytes, float64(after.TotalAlloc-before.TotalAlloc)/n)
		m.gcCycles = append(m.gcCycles, float64(after.NumGC-before.NumGC))
		m.gcPauseMS = append(m.gcPauseMS, float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)

		fp := r.fingerprint()
		problems := check(r)
		if i == 0 {
			m.first, ref = r, fp
		} else if fp != ref {
			problems = append(problems, "a rerun with the same seed changed the simulated results")
		}
		if traced {
			tp, err := m.tracedRun(b, fp)
			if err != nil {
				return nil, err
			}
			problems = append(problems, tp...)
		}
		m.attempted += r.offered
		if len(problems) > 0 {
			m.failed += r.offered
			for _, p := range problems {
				m.failures = append(m.failures, fmt.Sprintf("run %d: %s", i, p))
			}
		}
		fmt.Fprintf(log, "run %d: setup %.4fs, simulation %.3fs (%.3fs wall, %.0f req/s), calibration %.1f and %.1f ms, peak RSS %.1f MiB\n",
			i, m.setup[i], el, wall, n/el, 1000*m.calib[2*i], 1000*m.calib[2*i+1], peak)
	}
	return m, nil
}

func (m *measurement) calibrate() error {
	d, err := calibrate()
	m.calib = append(m.calib, d.Seconds())
	return err
}

// calibrated returns the median over runs of a per-run CPU time in
// calibrated seconds, each run scaled by the kernel times around it.
func (m *measurement) calibrated(cpu []float64) float64 {
	xs := make([]float64, len(cpu))
	for i, c := range cpu {
		xs[i] = c * m.scale[i]
	}
	return median(xs)
}

// tracedRun times Phase 1 stage by stage, then simulates through the
// wrappers and checks the traced run against the untraced fingerprint.
func (m *measurement) tracedRun(b bench, fp string) ([]string, error) {
	stores, stats, traces, err := phase1Stages(b)
	if err != nil {
		return nil, fmt.Errorf("phase 1 stages: %w", err)
	}
	m.stores = append(m.stores, ms(stores))
	m.stats = append(m.stats, ms(stats))
	m.traces = traces

	runtime.GC()
	t := cpuTime()
	r, err := b.simulate(m.tr)
	m.traced = append(m.traced, (cpuTime() - t).Seconds())
	if err != nil {
		return nil, fmt.Errorf("traced simulation: %w", err)
	}
	if r.fingerprint() != fp {
		return []string{"the traced run's simulated results differ from the untraced run's"}, nil
	}
	return nil, nil
}

// cpuTime returns the CPU time the process has used so far, user and
// system, over every thread (the garbage collector's included). Host
// times are CPU times rather than wall-clock spans: on a shared host the
// wall clock also counts the time the process waits for a core, which
// depends on what else runs there, not on the simulator.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle sample (mean of the middle two).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// resetPeakRSS returns the free heap to the OS and resets the kernel's
// high-water mark to the current resident set (Linux 4.0+), so the next
// VmHWM read covers what runs after it. A process-wide VmHWM is the
// maximum over every simulation, and one outlier garbage-collection
// timing moved it by ~12% between processes of control-plane.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
