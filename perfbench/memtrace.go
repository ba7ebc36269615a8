package main

import (
	"fmt"
	"time"

	"faultmem/internal/exp"
	"faultmem/internal/fault"
	"faultmem/internal/mem"
	"faultmem/internal/sram"
	"faultmem/internal/workload"
)

// Memory-layer tracing. A tracedArm wraps one protection arm; the
// memory it builds forwards every call to the real memory, records a
// span around it, and compares each read-back word with a fault-free
// twin of the same arm that receives the same writes — the corrupted-
// word count of the die. Twin work is recorded as trace overhead, never
// as memory time.

// memStats accumulates one arm's memory-layer counters.
type memStats struct {
	installs, writes, reads, checkedReads, rereads int
	installS, writeS, readS, overheadS             float64
	dies                                           int
	corruptedWords, corruptedRows, dueWords        int
}

func (s *memStats) add(o memStats) {
	s.installs += o.installs
	s.writes += o.writes
	s.reads += o.reads
	s.checkedReads += o.checkedReads
	s.rereads += o.rereads
	s.installS += o.installS
	s.writeS += o.writeS
	s.readS += o.readS
	s.overheadS += o.overheadS
	s.dies += o.dies
	s.corruptedWords += o.corruptedWords
	s.corruptedRows += o.corruptedRows
	s.dueWords += o.dueWords
}

// memS is the memory time of the counters (install, write, read).
func (s *memStats) memS() float64 { return s.installS + s.writeS + s.readS }

// memRecorder is the per-shard sink of the traced memories: one
// memStats per arm plus the rows corrupted on the current die.
type memRecorder struct {
	arms []memStats
	rows []map[int]bool // per arm: distinct rows read back corrupted on this die
}

func newMemRecorder(arms int) *memRecorder {
	r := &memRecorder{arms: make([]memStats, arms), rows: make([]map[int]bool, arms)}
	for i := range r.rows {
		r.rows[i] = map[int]bool{}
	}
	return r
}

// endDie closes the current die on every arm that was installed on it.
func (r *memRecorder) endDie() {
	for i := range r.arms {
		r.arms[i].corruptedRows += len(r.rows[i])
		clear(r.rows[i])
	}
}

// tracedArm is a workload.Arm whose memories are traced.
type tracedArm struct {
	arm exp.Protection
	idx int
	rec *memRecorder
}

// tracedArms wraps every arm, all reporting to rec.
func tracedArms(arms []exp.Protection, rec *memRecorder) []workload.Arm {
	out := make([]workload.Arm, len(arms))
	for i, a := range arms {
		out[i] = tracedArm{arm: a, idx: i, rec: rec}
	}
	return out
}

func (a tracedArm) String() string { return a.arm.String() }

// Build builds the real memory (timed as an install) and its
// fault-free twin (overhead).
func (a tracedArm) Build(rows int, fm fault.Map) (mem.Word32, error) {
	st := &a.rec.arms[a.idx]
	t0 := time.Now()
	m, err := a.arm.Build(rows, fm)
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	twin, err := a.arm.Build(rows, nil)
	if err != nil {
		return nil, fmt.Errorf("fault-free twin of %v: %w", a.arm, err)
	}
	st.installs++
	st.dies++
	st.installS += t1.Sub(t0).Seconds()
	st.overheadS += time.Since(t1).Seconds()
	return &tracedMem{inner: m, twin: twin, st: st, rows: a.rec.rows[a.idx]}, nil
}

// tracedMem forwards to the real memory. It implements every optional
// memory interface the protection arms implement; checkFidelity pins
// that each arm's real memory implements exactly the same set, so no
// call silently falls back to a slower path under tracing.
type tracedMem struct {
	inner, twin mem.Word32
	st          *memStats
	rows        map[int]bool
	buf         []uint32
}

var (
	_ mem.Resetter    = (*tracedMem)(nil)
	_ mem.BatchMemory = (*tracedMem)(nil)
	_ mem.ImageWriter = (*tracedMem)(nil)
	_ mem.Detector    = (*tracedMem)(nil)
)

// optionalFacets lists which optional interfaces a memory implements.
func optionalFacets(m mem.Word32) [5]bool {
	_, r := m.(mem.Resetter)
	_, b := m.(mem.BatchMemory)
	_, i := m.(mem.ImageWriter)
	_, d := m.(mem.Detector)
	_, a := m.(interface{ Array() *sram.Array })
	return [5]bool{r, b, i, d, a}
}

// checkFidelity builds every arm plain and traced on a small fault map
// and fails if the two differ in any optional interface.
func checkFidelity(arms []exp.Protection) error {
	rec := newMemRecorder(len(arms))
	traced := tracedArms(arms, rec)
	fm := fault.Map{{Row: 1, Col: 3, Kind: fault.Flip}}
	for i, a := range arms {
		m, err := a.Build(64, fm)
		if err != nil {
			return err
		}
		tm, err := traced[i].Build(64, fm)
		if err != nil {
			return err
		}
		if got, want := optionalFacets(tm), optionalFacets(m); got != want {
			return fmt.Errorf("traced %v implements %v, the real memory %v (Resetter, BatchMemory, ImageWriter, Detector, Array)", a, got, want)
		}
	}
	return nil
}

func (m *tracedMem) Words() int { return m.inner.Words() }

func (m *tracedMem) Array() *sram.Array {
	return m.inner.(interface{ Array() *sram.Array }).Array()
}

// Reset installs the next die's fault map: timed as an install, and
// opens the die's corrupted-row count.
func (m *tracedMem) Reset(fm fault.Map) error {
	t0 := time.Now()
	err := m.inner.(mem.Resetter).Reset(fm)
	m.st.installS += time.Since(t0).Seconds()
	m.st.installs++
	m.st.dies++
	return err
}

func (m *tracedMem) Write(addr int, v uint32) {
	t0 := time.Now()
	m.inner.Write(addr, v)
	t1 := time.Now()
	m.twin.Write(addr, v)
	m.st.writes++
	m.st.writeS += t1.Sub(t0).Seconds()
	m.st.overheadS += time.Since(t1).Seconds()
}

func (m *tracedMem) WriteBatch(addr int, src []uint32) {
	t0 := time.Now()
	m.inner.(mem.BatchMemory).WriteBatch(addr, src)
	t1 := time.Now()
	m.twin.(mem.BatchMemory).WriteBatch(addr, src)
	m.st.writes++
	m.st.writeS += t1.Sub(t0).Seconds()
	m.st.overheadS += time.Since(t1).Seconds()
}

func (m *tracedMem) ImageKey() string { return m.inner.(mem.ImageWriter).ImageKey() }

func (m *tracedMem) EncodeImage(img []uint64, src []uint32) {
	m.inner.(mem.ImageWriter).EncodeImage(img, src)
}

func (m *tracedMem) WriteImage(addr int, img []uint64) {
	t0 := time.Now()
	m.inner.(mem.ImageWriter).WriteImage(addr, img)
	t1 := time.Now()
	m.twin.(mem.ImageWriter).WriteImage(addr, img)
	m.st.writes++
	m.st.writeS += t1.Sub(t0).Seconds()
	m.st.overheadS += time.Since(t1).Seconds()
}

func (m *tracedMem) Read(addr int) uint32 {
	t0 := time.Now()
	v := m.inner.Read(addr)
	t1 := time.Now()
	m.st.reads++
	m.st.readS += t1.Sub(t0).Seconds()
	m.compareWord(addr, v)
	m.st.overheadS += time.Since(t1).Seconds()
	return v
}

func (m *tracedMem) ReadBatch(addr int, dst []uint32) {
	t0 := time.Now()
	m.inner.(mem.BatchMemory).ReadBatch(addr, dst)
	t1 := time.Now()
	m.st.reads++
	m.st.readS += t1.Sub(t0).Seconds()
	m.compareBatch(addr, dst)
	m.st.overheadS += time.Since(t1).Seconds()
}

// ReadChecked is the scalar checked read — the re-read of the retry
// policy; it is counted apart from the page reads.
func (m *tracedMem) ReadChecked(addr int) (uint32, bool) {
	t0 := time.Now()
	v, due := m.inner.(mem.Detector).ReadChecked(addr)
	t1 := time.Now()
	m.st.rereads++
	m.st.readS += t1.Sub(t0).Seconds()
	m.st.overheadS += time.Since(t1).Seconds()
	return v, due
}

func (m *tracedMem) ReadBatchChecked(addr int, dst []uint32, due *mem.DUESet, base int) {
	t0 := time.Now()
	m.inner.(mem.Detector).ReadBatchChecked(addr, dst, due, base)
	t1 := time.Now()
	m.st.reads++
	m.st.checkedReads++
	m.st.readS += t1.Sub(t0).Seconds()
	for i := due.NextSet(base); i >= 0 && i < base+len(dst); i = due.NextSet(i + 1) {
		m.st.dueWords++
	}
	m.compareBatch(addr, dst)
	m.st.overheadS += time.Since(t1).Seconds()
}

// compareBatch counts the read-back words that differ from the twin's.
func (m *tracedMem) compareBatch(addr int, dst []uint32) {
	if cap(m.buf) < len(dst) {
		m.buf = make([]uint32, len(dst))
	}
	want := m.buf[:len(dst)]
	m.twin.(mem.BatchMemory).ReadBatch(addr, want)
	for i, v := range dst {
		if v != want[i] {
			m.st.corruptedWords++
			m.rows[addr+i] = true
		}
	}
}

func (m *tracedMem) compareWord(addr int, v uint32) {
	if v != m.twin.Read(addr) {
		m.st.corruptedWords++
		m.rows[addr] = true
	}
}
