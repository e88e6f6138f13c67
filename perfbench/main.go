// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against an in-process storage → scheduler.Middleware → netproto
// stack over loopback, audits the final table state, and prints one JSON
// result line as the last line of standard output.
//
//	bash perfbench/run.sh --workload web-open --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of one untraced
// run. With --trace 1 it runs the workload twice, untraced and then with the
// harness's spans on, writes the spans to the work directory and reports the
// per-layer metrics of the traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Server settings: schedserver's defaults.
const (
	rows           = 100000
	fillLevel      = 16
	fillEvery      = time.Millisecond
	maxQueued      = 4096
	resubmitWindow = 65536
)

// Harness settings.
const (
	conns          = 2 // mux connections: nproc on the 2-core rig the bounds were set on
	maxProcs       = 2
	setupRuns      = 21 // fresh constructions per run; setup_s is their median
	preloadTxns    = 20000
	statsEvery     = 100 * time.Millisecond // operator STATS scrape period
	pingEvery      = 10 * time.Millisecond  // traced run only
	snapshotEvery  = 100 * time.Millisecond // traced run only
	requestTimeout = 10 * time.Second
	maxWarmup      = 2 * time.Second
)

// spec fixes the shape of one workload.
type spec struct {
	name          string
	closed        bool    // closed loop of clients, else an open loop at rate
	rate          float64 // offered transactions per second (open loop)
	clients       int     // concurrent clients (closed loop)
	reads, writes int
	sql           bool // SS2PL as Listing 1 SQL (minisql), else Datalog
	partitions    int
	durable       bool
}

// The three workloads stress different layers: web-open the trigger and the
// wire (tiny uncontended rounds), paper-closed the Datalog qualify cost (a
// saturated round loop with deadlock victims), sql-shard-durable the SQL
// strategies, the partitioned super-round, the journal and recovery.
var specs = []spec{
	{name: "web-open", rate: 1000, reads: 4, writes: 1, partitions: 1},
	{name: "paper-closed", closed: true, clients: 64, reads: 20, writes: 20, partitions: 1},
	{name: "sql-shard-durable", rate: 1000, reads: 1, writes: 3, sql: true, partitions: 2, durable: true},
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

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: web-open, paper-closed or sql-shard-durable")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = add a traced run and report per-layer metrics")
	workDir := flag.String("workdir", ".bench_build", "directory for journals and trace files")
	flag.Parse()

	var sp *spec
	for i := range specs {
		if specs[i].name == *name {
			sp = &specs[i]
		}
	}
	if sp == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d NumCPU=%d %s flush=fsync-per-commit-batch\n",
		sp.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	b, err := newBench(*sp, *seed, *workDir)
	if err != nil {
		return fail(err)
	}
	defer b.cleanup()
	// A traced invocation splits its time between the untraced run the
	// tracing overhead is measured against and the traced run.
	window := time.Duration(*seconds) * time.Second / time.Duration(1+*trace)
	base, err := b.run(window, nil)
	if err != nil {
		return fail(err)
	}
	res := result{Correct: base.auditErr == nil, Attempted: base.attempted, Failed: base.errored}
	if *trace == 0 {
		res.Metrics = endToEnd(base)
		printEndToEnd(res.Metrics)
	} else {
		rec := newRecorder(base.attempted * (sp.reads + sp.writes + 2) * 6 / 5)
		traced, err := b.run(window, rec)
		if err != nil {
			return fail(err)
		}
		path, err := writeTrace(b, rec, traced)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(rec.spans), path)
		res.Correct = res.Correct && traced.auditErr == nil
		res.Attempted += traced.attempted
		res.Failed += traced.errored
		res.Metrics = perLayer(traced, base)
		printPerLayer(res.Metrics)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}
