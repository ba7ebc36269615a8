package main

import (
	"testing"
	"time"

	"faultmem/internal/exp"
	"faultmem/internal/fault"
	"faultmem/internal/mem"
)

// TestTracedArmsKeepEveryFastPath pins the fidelity guard: each traced
// memory implements exactly the optional interfaces of the memory it
// wraps.
func TestTracedArmsKeepEveryFastPath(t *testing.T) {
	if err := checkFidelity(exp.AllProtections()); err != nil {
		t.Fatal(err)
	}
}

// TestTracedMemCountsCorruption writes zeros through an unprotected
// memory with one stuck-flip cell and checks the twin comparison finds
// exactly that word, on both the batch and the scalar read path.
func TestTracedMemCountsCorruption(t *testing.T) {
	rec := newMemRecorder(1)
	arm := tracedArms([]exp.Protection{exp.ProtNone}, rec)[0]
	fm := fault.Map{{Row: 5, Col: 31, Kind: fault.Flip}}
	m, err := arm.Build(16, fm)
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]uint32, 16)
	m.(mem.BatchMemory).WriteBatch(0, zeros)
	got := make([]uint32, 16)
	m.(mem.BatchMemory).ReadBatch(0, got)
	_ = m.Read(5)
	rec.endDie()
	st := rec.arms[0]
	if st.corruptedWords != 2 || st.corruptedRows != 1 {
		t.Errorf("corrupted words %d rows %d, want 2 reads of 1 row", st.corruptedWords, st.corruptedRows)
	}
	if st.writes != 1 || st.reads != 2 || st.installs != 1 || st.dies != 1 {
		t.Errorf("counters %+v", st)
	}
	if err := m.(mem.Resetter).Reset(nil); err != nil {
		t.Fatal(err)
	}
	m.(mem.BatchMemory).WriteBatch(0, zeros)
	m.(mem.BatchMemory).ReadBatch(0, got)
	rec.endDie()
	if st := rec.arms[0]; st.corruptedWords != 2 || st.dies != 2 {
		t.Errorf("a fault-free die added corruption: %+v", st)
	}
}

func TestSummarizeEngine(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	runs := []shardRun{
		{tag: "w/a", queued: at(0), start: at(0), end: at(100)},
		{tag: "w/a", queued: at(0), start: at(10), end: at(60)},
		{tag: "w/b", queued: at(100), start: at(120), end: at(200)},
	}
	es := summarizeEngine(runs, 2)
	if es.shards != 3 || len(es.stageOrder) != 2 || es.stageOrder[0] != "w/a" {
		t.Fatalf("summary %+v", es)
	}
	if !near(es.stageWall["w/a"], 0.1) || !near(es.stageWall["w/b"], 0.1) {
		t.Errorf("stage walls %v", es.stageWall)
	}
	// Busy 0.1+0.05+0.08 over 2 slots x 0.2 s of stage wall.
	if !near(es.busyFrac, 0.23/0.4) {
		t.Errorf("busy fraction %g", es.busyFrac)
	}
	if !near(es.shardMax, 0.1) || !near(es.waitP50, 0.01) {
		t.Errorf("shard max %g wait p50 %g", es.shardMax, es.waitP50)
	}
}
