package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
)

// stats are what a phase reports from its samples, computed before the
// sample buffers are dropped. The end-to-end latencies and CPU cost are
// medians over the window's one-second slices; throughput, the tails and the
// means pool the whole window.
type stats struct {
	tps, cpuPerTxn          float64 // 1/s, ms
	txnP50, txnP90, txnP99  float64 // ms
	reqP50, reqP90, reqMean float64 // µs
	lateP99                 float64 // µs
	pingP50, statsP50       float64 // µs
	snapP50, snapMax        float64 // µs
}

func (p *phase) summarise() {
	s := p.s
	var cpu, t50, t90, r50, r90, allTxn, allReq []float64
	for k, sl := range s.slices {
		cpu = append(cpu, ratio(ms(s.cpu[k+1]-s.cpu[k]), float64(sl.commits)))
		t50 = append(t50, quantile(sl.txnMS, 0.5))
		t90 = append(t90, quantile(sl.txnMS, 0.9))
		r50 = append(r50, quantile(sl.reqUS, 0.5))
		r90 = append(r90, quantile(sl.reqUS, 0.9))
		allTxn = append(allTxn, sl.txnMS...)
		allReq = append(allReq, sl.reqUS...)
		s.slices[k].txnMS, s.slices[k].reqUS = nil, nil
	}
	p.stats = stats{
		tps:       p.committed() / (time.Duration(len(s.slices)) * sliceWidth).Seconds(),
		cpuPerTxn: quantile(cpu, 0.5),
		txnP50:    quantile(t50, 0.5), txnP90: quantile(t90, 0.5), txnP99: quantile(allTxn, 0.99),
		reqP50: quantile(r50, 0.5), reqP90: quantile(r90, 0.5), reqMean: mean(allReq),
		lateP99: quantile(s.lateUS, 0.99),
		pingP50: quantile(p.pingUS, 0.5), statsP50: quantile(p.statsUS, 0.5),
		snapP50: quantile(p.snapUS, 0.5), snapMax: quantile(p.snapUS, 1),
	}
	s.lateUS, p.pingUS, p.statsUS, p.snapUS = nil, nil, nil, nil
}

// quantile interpolates linearly between the order statistics of v (sorted
// in place); 0 when v is empty.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(v) {
		slices.Sort(v)
	}
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowMean is the mean of a histogram's observations between two
// snapshots of it, in µs.
func windowMean(a, b metrics.HistogramSnapshot) float64 {
	n := b.Count - a.Count
	if n <= 0 {
		return 0
	}
	return float64(b.Mean*b.Count-a.Mean*a.Count) / float64(n) / 1e3
}

func (p *phase) committed() float64 { return float64(p.s.total().commits) }

func endToEnd(p *phase) map[string]metric {
	return map[string]metric{
		"setup_s":        {quantile(durations(p.setups), 0.5), "s"},
		"commit_tps":     {p.stats.tps, "1/s"},
		"txn_p50_ms":     {p.stats.txnP50, "ms"},
		"txn_p90_ms":     {p.stats.txnP90, "ms"},
		"req_p50_us":     {p.stats.reqP50, "us"},
		"req_p90_us":     {p.stats.reqP90, "us"},
		"commit_frac":    {ratio(p.committed(), float64(p.attempted)), "ratio"},
		"cpu_ms_per_txn": {p.stats.cpuPerTxn, "ms"},
		"heap_mb":        {p.heapMB, "MiB"},
	}
}

// strategies are every evaluation path the Datalog and SQL protocols report.
var strategies = []string{"cold", "monotone", "dred", "recompute", "sql-cold", "sql-ivm", "sql-ivm-bulk", "sql-warm", "sql-ivm-build"}

func perLayer(t, base *phase) map[string]metric {
	txns := t.committed()
	b, e := t.begin, t.end
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	put("netproto.ping_p50_us", t.stats.pingP50, "us")
	put("netproto.req_overhead_us", t.stats.reqMean-windowMean(b.snap.Latency, e.snap.Latency), "us")
	tot := t.s.total()
	put("netproto.busy_frac", ratio(float64(tot.busy), float64(tot.requests)), "ratio")

	rounds := float64(e.snap.Summary.Rounds - b.snap.Summary.Rounds)
	var pend, qual, hist, victims, cross float64
	var totals, quals []float64
	for _, r := range t.rounds {
		pend += float64(r.Pending)
		qual += float64(r.Qualified)
		hist += float64(r.History)
		victims += float64(r.Victims)
		cross += float64(r.Cross)
		totals = append(totals, us(r.Total))
		if r.Pending > 0 {
			quals = append(quals, us(r.Duration))
		}
	}
	n := float64(len(t.rounds))
	put("scheduler.rounds_per_txn", ratio(rounds, txns), "count")
	put("scheduler.reqs_per_round", ratio(float64(e.snap.Summary.Executed-b.snap.Summary.Executed), rounds), "count")
	put("scheduler.pending_mean", ratio(pend, n), "count")
	put("scheduler.round_mean_us", mean(totals), "us")
	put("scheduler.round_p90_us", quantile(totals, 0.9), "us")
	put("scheduler.mw_req_mean_us", windowMean(b.snap.Latency, e.snap.Latency), "us")
	put("scheduler.victims_per_ktxn", 1000*ratio(victims, float64(t.attempted)), "count")
	put("scheduler.cross_frac", ratio(cross, txns), "ratio")
	put("scheduler.shard_imbalance", shardImbalance(t.shardRounds), "ratio")

	put("protocol.qualify_mean_us", mean(quals), "us")
	put("protocol.qualify_p90_us", quantile(quals, 0.9), "us")
	put("protocol.qualify_ms_per_txn", ratio(1e-3*mean(quals)*float64(len(quals)), txns), "ms")
	put("protocol.qualified_per_pending", ratio(qual, pend), "ratio")
	// Strategy shares come from the rounds that evaluated a protocol: the
	// shard records under the partitioned loop, the rounds otherwise.
	strat := t.rounds
	if len(t.shardRounds) > 0 {
		strat = slices.Concat(t.shardRounds...)
	}
	counts := map[string]float64{}
	var reported float64
	for _, r := range strat {
		if r.Strategy != "" {
			counts[r.Strategy]++
			reported++
		}
	}
	for _, s := range strategies {
		put("protocol.strategy."+s, ratio(counts[s], reported), "ratio")
	}

	put("store.history_mean", ratio(hist, n), "count")

	put("storage.exec_batch_mean_us", windowMean(b.snap.Exec, e.snap.Exec), "us")
	put("storage.syncs_per_txn", ratio(float64(e.syncs-b.syncs), txns), "count")
	put("storage.journal_bytes_per_txn", ratio(float64(e.jbytes-b.jbytes), txns), "B")
	put("storage.checkpoints", float64(e.checkpoints-b.checkpoints), "count")
	put("storage.recover_ms", 1e3*quantile(durations(t.opens), 0.5), "ms")
	put("storage.replayed_records", float64(t.replayed), "count")

	put("metrics.snapshot_p50_us", t.stats.snapP50, "us")
	put("metrics.snapshot_max_us", t.stats.snapMax, "us")
	put("metrics.stats_p50_us", t.stats.statsP50, "us")
	put("metrics.rounds_retained", float64(t.roundsRetained), "count")

	put("runtime.alloc_kb_per_txn", ratio(float64(e.mem.TotalAlloc-b.mem.TotalAlloc)/1024, txns), "KiB")
	put("runtime.gc_per_ktxn", 1000*ratio(float64(e.mem.NumGC-b.mem.NumGC), txns), "count")

	put("bench.gen_late_p99_us", t.stats.lateP99, "us")
	put("bench.txn_p99_ms", t.stats.txnP99, "ms")
	put("bench.trace_overhead_frac", ratio(t.stats.cpuPerTxn, base.stats.cpuPerTxn)-1, "ratio")
	return m
}

// shardImbalance is the max/mean ratio of the shards' qualified totals over
// the window (0 on a single loop).
func shardImbalance(shards [][]metrics.RoundStats) float64 {
	if len(shards) < 2 {
		return 0
	}
	var total, max float64
	for _, rs := range shards {
		var q float64
		for _, r := range rs {
			q += float64(r.Qualified)
		}
		total += q
		max = math.Max(max, q)
	}
	return ratio(max, total/float64(len(shards)))
}

func printEndToEnd(m map[string]metric) {
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(os.Stderr, "  %-16s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// printPerLayer prints the per-layer table, one block per layer.
func printPerLayer(m map[string]metric) {
	layer := ""
	for _, k := range sortedKeys(m) {
		if l, _, _ := strings.Cut(k, "."); l != layer {
			layer = l
			fmt.Fprintf(os.Stderr, "%s\n", layer)
		}
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
