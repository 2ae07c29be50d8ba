package main

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"sparsedysta/internal/exp"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/stats"
)

// check verifies one simulation's outputs: outcome conservation in every
// pooled result (offered = met + violations + rejected + lost + dropped,
// with nothing dropped), the pooled offered count, and, for a streamed
// run, that every streamed request reached a terminal outcome.
func check(r run) []string {
	var problems []string
	offered := 0
	for i, row := range r.rows {
		if err := sched.CheckOutcomeConservation(row); err != nil {
			problems = append(problems, fmt.Sprintf("result %d: %v", i, err))
		}
		if row.Offered == 0 || row.Requests == 0 {
			problems = append(problems, fmt.Sprintf("result %d: no requests offered or completed", i))
		}
		if row.Dropped != 0 {
			problems = append(problems, fmt.Sprintf("result %d: %d requests dropped", i, row.Dropped))
		}
		offered += row.Offered * r.cells
	}
	if offered != r.offered {
		problems = append(problems, fmt.Sprintf("results account for %d requests, the run offered %d", offered, r.offered))
	}
	if len(r.turnarounds) > 0 {
		problems = append(problems, checkHistogram(r)...)
	}
	if r.streamed > 0 {
		res := r.clusterRes.Result
		if res.Offered != r.streamed || res.Requests+res.Rejected+res.LostWork != r.streamed {
			problems = append(problems, fmt.Sprintf("streamed %d requests, %d offered, %d completed, %d rejected, %d lost",
				r.streamed, res.Offered, res.Requests, res.Rejected, res.LostWork))
		}
	}
	return problems
}

// checkHistogram checks the bounded-capture percentiles of a single
// result against the exact ones: nearest-rank, high by at most one
// histogram bucket.
func checkHistogram(r run) []string {
	res := r.rows[0]
	if len(r.turnarounds) != res.Requests {
		return []string{fmt.Sprintf("observed %d completions, the result counts %d", len(r.turnarounds), res.Requests)}
	}
	var problems []string
	var hist stats.DurationHist
	for _, q := range []struct {
		p    float64
		got  time.Duration
		name string
	}{{50, res.P50Latency, "p50"}, {99, res.P99Latency, "p99"}} {
		exact := nearestRank(r.turnarounds, q.p)
		if q.got < exact || q.got > exact+hist.WidthAt(exact) {
			problems = append(problems, fmt.Sprintf("histogram %s %v is not within one bucket above the exact %v", q.name, q.got, exact))
		}
	}
	return problems
}

// nearestRank returns the ceil(p/100 * n)-th smallest of xs, sorting xs
// in place.
func nearestRank(xs []time.Duration, p float64) time.Duration {
	slices.Sort(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	return xs[max(rank, 1)-1]
}

// completed is the number of completed requests behind the latency
// percentiles.
func (r run) completed() int {
	n := 0
	for _, row := range r.rows {
		n += row.Requests * r.cells
	}
	return n
}

// simulated pools the simulated metrics over the run's results. A
// cluster run has one result; a grid pools its seed-averaged
// (scheduler, point) rows, whose cells all complete the same number of
// requests, so a mean over rows is a mean over every cell:
//
//   - antt: mean normalized turnaround over every completed request;
//   - slo_miss_rate: (violations + rejected + lost + dropped) / offered,
//     the mean of the per-row rates;
//   - p50/p99_latency_ms: the mean over rows of each row's own median and
//     p99 (a pooled percentile would fall between the AttNN and CNN
//     latency modes); for a bounded-capture run the exact nearest-rank
//     percentiles of the observed turnarounds, not the histogram's;
//   - goodput_rps: SLO-met completions over the summed makespans, as if
//     the cells ran back to back;
//   - engine_s: engine-seconds billed, summed over every cell.
func (r run) simulated() map[string]metric {
	var antt, miss, p50, p99, met, makespan, engineS float64
	for _, row := range r.rows {
		antt += row.ANTT
		lost := float64(row.Rejected + row.LostWork + row.Dropped)
		miss += (row.ViolationRate*float64(row.Requests) + lost) / float64(row.Offered)
		p50 += ms(row.P50Latency)
		p99 += ms(row.P99Latency)
		met += float64(row.Requests) * (1 - row.ViolationRate)
		makespan += row.Makespan.Seconds()
		engineS += row.EngineSeconds
	}
	n := float64(len(r.rows))
	if len(r.turnarounds) > 0 {
		p50 = ms(nearestRank(r.turnarounds, 50))
		p99 = ms(nearestRank(r.turnarounds, 99))
	}
	return map[string]metric{
		"antt":           {antt / n, "ratio"},
		"slo_miss_rate":  {miss / n, "fraction"},
		"p50_latency_ms": {p50 / n, "ms"},
		"p99_latency_ms": {p99 / n, "ms"},
		"goodput_rps":    {met / makespan, "req/s"},
		"engine_s":       {engineS * float64(r.cells), "s"},
	}
}

// endToEnd reports the end-to-end metrics: medians of the host samples,
// host times in calibrated seconds (see calibrate.go), and the simulated
// metrics of the (checked, repeated) run.
func (m *measurement) endToEnd() map[string]metric {
	out := m.first.simulated()
	out["setup_s"] = metric{m.calibrated(m.setup), "s"}
	out["sim_requests_per_s"] = metric{float64(m.first.offered) / m.calibrated(m.sim), "req/s"}
	out["peak_rss_mib"] = metric{median(m.peakRSS), "MiB"}
	out["allocs_per_req"] = metric{median(m.allocs), "count"}
	return out
}

// perLayer reports the per-layer metrics of the traced runs. Counts are
// per simulation; host times are means per call over every traced run,
// in calibrated units like the end-to-end ones. A layer the workload
// never enters reports 0.
func (m *measurement) perLayer(workload string) (map[string]metric, error) {
	tr := m.tr
	runs := float64(len(m.traced))
	perRun := func(n int64) float64 { return float64(n) / runs }
	steps := float64(tr.update.calls)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	host := median(m.scale)
	putHost := func(name string, v float64, unit string) { put(name, v*host, unit) }

	storesMS := median(m.stores)
	putHost("workload.build_stores_ms", storesMS, "ms")
	putHost("trace.stats_set_ms", median(m.stats), "ms")
	put("workload.traces_built", float64(m.traces), "count")
	putHost("workload.build_us_per_trace", ratio(storesMS*1000, float64(m.traces)), "us")
	putHost("workload.next_ns", tr.next.nsPerCall(), "ns")
	putHost("workload.generate_ms", ms(tr.generate.total)/runs, "ms")

	put("sched.pick_calls", perRun(tr.pick.calls), "count")
	putHost("sched.pick_ns", tr.pick.nsPerCall(), "ns")
	put("sched.picks_per_layer_step", ratio(float64(tr.pick.calls), steps), "ratio")
	for _, spec := range exp.StandardScheds() {
		ns := 0.0
		if s, ok := tr.picks[spec.Name]; ok {
			ns = s.nsPerCall()
		}
		putHost("sched."+spec.Name+".pick_ns", ns, "ns")
	}
	put("sched.layer_steps", perRun(tr.update.calls), "count")
	putHost("sched.layer_update_ns", tr.update.nsPerCall(), "ns")
	putHost("sched.arrival_ns", tr.arrival.nsPerCall(), "ns")
	meanLayer := ratio(float64(tr.simLayerTime), float64(tr.layers))
	putHost("core.decision_cost_ratio", ratio(ratio(float64(tr.schedCalls()), steps), meanLayer), "ratio")
	preemptions := 0
	for _, row := range m.first.rows {
		preemptions += row.Preemptions * m.first.cells
	}
	put("sched.preemptions", float64(preemptions), "count")
	put("sched.extract_calls", perRun(tr.extract.calls), "count")

	put("cluster.dispatch_calls", perRun(tr.dispatch.calls), "count")
	putHost("cluster.dispatch_ns", tr.dispatch.nsPerCall(), "ns")
	put("cluster.load_calls", perRun(tr.load.calls), "count")
	put("cluster.curve_calls", perRun(tr.curve.calls), "count")
	putHost("cluster.admit_ns", tr.admit.nsPerCall(), "ns")
	put("cluster.admitted_ratio", ratio(float64(tr.admitted), float64(tr.admit.calls)), "ratio")
	put("cluster.rebalance_rounds", perRun(tr.plan.calls), "count")
	putHost("cluster.plan_ns", tr.plan.nsPerCall(), "ns")
	put("cluster.moves_planned", perRun(tr.movesPlanned), "count")
	var c struct {
		redirects, migrations, wins, churn, failovers, retries, lost, ups, downs int
		util, imbalance                                                          float64
	}
	if cr := m.first.clusterRes; cr != nil {
		c.redirects, c.migrations, c.wins = cr.Redirects, cr.Migrations, cr.MigrationWins
		c.churn, c.failovers, c.retries, c.lost = cr.ChurnEvents, cr.Failovers, cr.Retries, cr.LostWork
		c.ups, c.downs, c.util, c.imbalance = cr.ScaleUps, cr.ScaleDowns, cr.Utilization, cr.Imbalance
	}
	put("cluster.redirects", float64(c.redirects), "count")
	put("cluster.migrations", float64(c.migrations), "count")
	put("cluster.migration_win_ratio", ratio(float64(c.wins), float64(c.migrations)), "ratio")
	put("cluster.churn_events", float64(c.churn), "count")
	put("cluster.failovers", float64(c.failovers), "count")
	put("cluster.retries", float64(c.retries), "count")
	put("cluster.lost_work", float64(c.lost), "count")
	put("cluster.scale_ups", float64(c.ups), "count")
	put("cluster.scale_downs", float64(c.downs), "count")
	put("cluster.utilization", c.util, "fraction")
	put("cluster.imbalance", c.imbalance, "ratio")

	rootSelf := ratio(float64(tr.root.self), steps)
	clusterSelf, expSelf := rootSelf, 0.0
	if m.first.clusterRes == nil {
		clusterSelf, expSelf = 0, rootSelf
	}
	putHost("cluster.self_ns_per_layer_step", clusterSelf, "ns")
	putHost("exp.self_ns_per_layer_step", expSelf, "ns")

	put("runtime.gc_cycles", median(m.gcCycles), "count")
	putHost("runtime.gc_pause_ms", median(m.gcPauseMS), "ms")
	put("runtime.bytes_per_req", median(m.bytes), "B")

	agreement := 0.0
	if workload == "paper-table5" {
		var err error
		if agreement, err = rankAgreement(m.first); err != nil {
			return nil, err
		}
	}
	put("exp.table5_rank_agreement", agreement, "fraction")
	put("benchmark.trace_overhead_ratio", ratio(median(m.traced), median(m.sim)), "ratio")
	return out, nil
}

// rankAgreement is the share of scheduler pairs whose order under this
// run's ANTT and violation rate at the Table 5 operating points (30
// req/s multi-attnn, 3 req/s multi-cnn: the first point of each
// scenario's grid) matches the order of the paper's values, as the
// table5 artifact carries them. Pairs the paper ties are skipped.
func rankAgreement(r run) (float64, error) {
	// Only the artifact's paper columns are read, and they do not depend
	// on the options, so the smallest protocol serves.
	arts, err := exp.Table5(exp.Options{Seeds: 1, Requests: 10, ProfileSamples: 4, EvalSamples: 4, Workers: 1})
	if err != nil {
		return 0, fmt.Errorf("table5 artifact: %w", err)
	}
	tbl, ok := arts[0].(*exp.Table)
	if !ok {
		return 0, fmt.Errorf("table5 artifact is a %T, not a table", arts[0])
	}
	var paperCols []int
	for j, c := range tbl.Columns {
		if c == "paper" {
			paperCols = append(paperCols, j)
		}
	}
	specs := exp.StandardScheds()
	pointsPerScenario := len(r.rows) / (2 * len(specs))
	if len(paperCols) != 4 || len(tbl.Rows) != len(specs) || pointsPerScenario < 1 {
		return 0, fmt.Errorf("table5 artifact has an unexpected shape")
	}
	agree, total := 0, 0
	for col := 0; col < 4; col++ {
		scenario, viol := col/2, col%2 == 1
		paper := make([]float64, len(specs))
		measured := make([]float64, len(specs))
		for i := range specs {
			if tbl.Rows[i][0] != specs[i].Name {
				return 0, fmt.Errorf("table5 row %d is %s, want %s", i, tbl.Rows[i][0], specs[i].Name)
			}
			if paper[i], err = strconv.ParseFloat(tbl.Rows[i][paperCols[col]], 64); err != nil {
				return 0, fmt.Errorf("table5 paper value: %w", err)
			}
			row := r.rows[scenario*pointsPerScenario*len(specs)+i]
			measured[i] = row.ANTT
			if viol {
				measured[i] = row.ViolationRate
			}
		}
		for a := range specs {
			for b := a + 1; b < len(specs); b++ {
				p := paper[a] - paper[b]
				if p == 0 {
					continue
				}
				total++
				if d := measured[a] - measured[b]; (d > 0) == (p > 0) && d != 0 {
					agree++
				}
			}
		}
	}
	return float64(agree) / float64(total), nil
}
