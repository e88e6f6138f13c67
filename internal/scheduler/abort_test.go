package scheduler

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/protocol"
	"repro/internal/request"
	"repro/internal/storage"
)

// TestClientAbortUndoesExecutedWrites: a client Abort issued after some of
// its transaction's writes executed rolls those writes back, so the live
// table returns to its value before the transaction — and, on a durable
// server, equals what winners-only recovery rebuilds from the journal. At 2
// shards the writes land on both shards, so the non-home shard's replica
// copy of the Abort must compensate its own writes without a server call.
func TestClientAbortUndoesExecutedWrites(t *testing.T) {
	const rows = 16
	for _, parts := range []int{1, 2} {
		for _, durable := range []bool{false, true} {
			t.Run(fmt.Sprintf("parts=%d/durable=%v", parts, durable), func(t *testing.T) {
				dir := t.TempDir()
				srv, err := storage.Open(storage.Config{Rows: rows, Durable: durable, Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				base := Config{Protocol: protocol.SS2PLDatalog(), Server: srv}
				var enqueue func(...request.Request)
				var round func() (RoundResult, error)
				objs := []int64{1, 2, 3, 4}
				if parts == 1 {
					e, err := NewEngine(base)
					if err != nil {
						t.Fatal(err)
					}
					enqueue, round = e.Enqueue, e.Round
				} else {
					pe, err := NewPartitionedEngine(PartitionedConfig{
						Base:       base,
						Partitions: parts,
						Factory:    func() protocol.Protocol { return protocol.SS2PLDatalog() },
					})
					if err != nil {
						t.Fatal(err)
					}
					enqueue, round = pe.Enqueue, pe.Round
					// One object per shard at least, so the abort is a
					// cross-partition termination with a replica copy.
					objs = objs[:0]
					for want := 0; want < parts; want++ {
						for obj := int64(0); obj < rows; obj++ {
							if pe.part.ForObject(obj) == want {
								objs = append(objs, obj, (obj+rows/2)%rows)
								break
							}
						}
					}
				}
				run := func(r request.Request) RoundResult {
					t.Helper()
					enqueue(r)
					res, err := round()
					if err != nil {
						t.Fatal(err)
					}
					return res
				}

				// A committed transaction first, so the table holds state
				// the abort must leave alone.
				for i, obj := range objs[:2] {
					run(request.Request{TA: 1, IntraTA: int64(i), Op: request.Write, Object: obj})
				}
				run(request.Request{TA: 1, IntraTA: 2, Op: request.Commit, Object: request.NoObject})
				before := srv.Snapshot()

				// ta2 writes every object (one closed-loop request per
				// round), then the client aborts.
				for i, obj := range objs {
					res := run(request.Request{TA: 2, IntraTA: int64(i), Op: request.Write, Object: obj})
					if len(res.Executed) != 1 || res.Executed[0].Err != nil {
						t.Fatalf("write %d on row %d: %+v", i, obj, res.Executed)
					}
				}
				if slices.Equal(srv.Snapshot(), before) {
					t.Fatal("ta2's writes did not reach the table")
				}
				res := run(request.Request{TA: 2, IntraTA: int64(len(objs)), Op: request.Abort, Object: request.NoObject})
				if len(res.Executed) != 1 || res.Executed[0].Request.Op != request.Abort {
					t.Fatalf("abort round executed %+v, want the one abort", res.Executed)
				}
				live := srv.Snapshot()
				if !slices.Equal(live, before) {
					t.Fatalf("live table after client abort\n got %v\nwant %v", live, before)
				}
				if !durable {
					return
				}
				if err := srv.Close(); err != nil {
					t.Fatal(err)
				}
				rec, err := storage.Recover(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer rec.Close()
				if got := rec.Snapshot(); !slices.Equal(got, live) {
					t.Fatalf("recovered table differs from live\n got %v\nlive %v", got, live)
				}
			})
		}
	}
}

// TestClientAbortAfterFailedWrite: a write to an object outside the table
// fails at the server and changes nothing, so the client's Abort has nothing
// to compensate for it — the round must not fail on a rollback of it.
func TestClientAbortAfterFailedWrite(t *testing.T) {
	srv := storage.NewServer(storage.Config{Rows: 8})
	e, err := NewEngine(Config{Protocol: protocol.SS2PLDatalog(), Server: srv})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range []request.Request{
		{TA: 1, IntraTA: 0, Op: request.Write, Object: 2},
		{TA: 1, IntraTA: 1, Op: request.Write, Object: 99},
		{TA: 1, IntraTA: 2, Op: request.Abort, Object: request.NoObject},
	} {
		e.Enqueue(r)
		res, err := e.Round()
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if wantErr := r.Object == 99; len(res.Executed) != 1 || (res.Executed[0].Err != nil) != wantErr {
			t.Fatalf("round %d executed %+v", i, res.Executed)
		}
	}
	if got := srv.Get(2); got != 0 {
		t.Fatalf("row 2 = %d after the abort, want 0", got)
	}
}
