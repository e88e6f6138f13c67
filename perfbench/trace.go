package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// span is one timed call into a layer, Dapper style: spans of one
// transaction share its number as trace, and parent names the enclosing span
// (0 for none). Times are nanoseconds since the recorder started.
type span struct {
	id, parent, trace int64
	name              string
	start, end        int64
}

// recorder keeps the harness's spans in memory until the run ends. A nil
// recorder records nothing, which is how the untraced run calls the same
// code.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// newID reserves a span id, for a span whose children end before it does.
func (r *recorder) newID() int64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

func (r *recorder) span(name string, parent, trace int64, start, end time.Time) {
	r.spanID(r.newID(), name, parent, trace, start, end)
}

func (r *recorder) spanID(id int64, name string, parent, trace int64, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{id: id, parent: parent, trace: trace, name: name,
		start: start.Sub(r.epoch).Nanoseconds(), end: end.Sub(r.epoch).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// traceFile is the traced run's record: the spans, the window's per-round
// records and the counter deltas they are read against.
// The spans follow as "spans": [[id, parent, trace, name, start_ns,
// end_ns], ...], streamed rather than marshalled.
type traceFile struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Rounds      []metrics.RoundStats   `json:"rounds"`
	ShardRounds [][]metrics.RoundStats `json:"shard_rounds,omitempty"`
	Durability  map[string]int64       `json:"durability,omitempty"`
	MemStats    map[string]uint64      `json:"memstats_delta"`
}

func writeTrace(b *bench, rec *recorder, t *phase) (string, error) {
	dir := filepath.Join(filepath.Dir(b.dir), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.sp.name, b.seed))
	tf := traceFile{
		Workload: b.sp.name, Seed: b.seed,
		Rounds: t.rounds, ShardRounds: t.shardRounds,
		MemStats: map[string]uint64{
			"TotalAlloc":   t.end.mem.TotalAlloc - t.begin.mem.TotalAlloc,
			"Mallocs":      t.end.mem.Mallocs - t.begin.mem.Mallocs,
			"NumGC":        uint64(t.end.mem.NumGC - t.begin.mem.NumGC),
			"PauseTotalNs": t.end.mem.PauseTotalNs - t.begin.mem.PauseTotalNs,
		},
	}
	if b.sp.durable {
		tf.Durability = map[string]int64{
			"Syncs": t.end.syncs - t.begin.syncs, "BytesJournaled": t.end.jbytes - t.begin.jbytes,
			"Checkpoints": t.end.checkpoints - t.begin.checkpoints, "ReplayedRecords": t.replayed,
		}
	}
	head, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	w.Write(head[:len(head)-1])
	w.WriteString(`,"spans":[`)
	for i, s := range rec.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n[%d,%d,%d,%q,%d,%d]", s.id, s.parent, s.trace, s.name, s.start, s.end)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
