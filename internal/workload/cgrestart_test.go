package workload

import (
	"testing"

	"faultmem/internal/fault"
	"faultmem/internal/mem"
	"faultmem/internal/memstore"
)

// eccWithDoubleFault builds a SECDED memory with an uncorrectable
// double fault (two data-geometry flips) in each listed row.
func eccWithDoubleFault(t *testing.T, rows int, faultRows ...int) mem.Word32 {
	t.Helper()
	var fm fault.Map
	for _, r := range faultRows {
		fm = append(fm, fault.Fault{Row: r, Col: 3, Kind: fault.Flip})
		fm = append(fm, fault.Fault{Row: r, Col: 9, Kind: fault.Flip})
	}
	m, err := mem.NewECC(rows, fm, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func prepareCGRestart(t *testing.T, p Params) Instance {
	t.Helper()
	wl, err := CGRestart.Workload()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := wl.Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestCGRestartPrepareValidation pins the parameter contract.
func TestCGRestartPrepareValidation(t *testing.T) {
	wl, err := CGRestart.Workload()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Params{
		{Seed: 7, Dim: 1},
		{Seed: 7, Dim: 16, Iters: -1},
		{Seed: 7, Dim: 16, Checkpoint: -1},
	} {
		if _, err := wl.Prepare(p); err == nil {
			t.Errorf("Prepare(%+v) accepted invalid params", p)
		}
	}
	inst := prepareCGRestart(t, Params{Seed: 7, Dim: 16})
	if c := inst.Clean(); !(c < 1) {
		t.Errorf("fault-free reference residual %v, want < 1", c)
	}
	if inst.Metric() == "" {
		t.Error("no metric")
	}
}

// TestCGRestartNoFaultDetectorTrialPerfect runs the guarded solver
// against a fault-free SECDED memory: the checksums and DUE flags stay
// quiet, the iterates land on the same fixed-point grid as the
// reference, and the trial scores exactly 1.
func TestCGRestartNoFaultDetectorTrialPerfect(t *testing.T) {
	inst := prepareCGRestart(t, Params{Seed: 7, Dim: 16})
	ws := testWorkspace()
	inst.StoreOn(&ws)
	ws.Mem = eccWithDoubleFault(t, 512) // no fault rows: clean SECDED
	q, err := inst.RunTrial(&ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q != 1 {
		t.Errorf("no-fault guarded trial quality %v, want exactly 1", q)
	}
}

// TestCGRestartRollbackBeatsDegradation is the workload's reason to
// exist: on a die whose iterate window holds an uncorrectable double
// fault, the rollback-and-relocate policy must end closer to the
// fault-free answer than the same solver with its restart budget
// disabled (which trips once, switches the guards off, and absorbs the
// corruption every remaining iteration).
func TestCGRestartRollbackBeatsDegradation(t *testing.T) {
	const rows = 512
	// Row 10 sits inside the first 3-vector window (dim 16 -> rows 0-47),
	// so every store/load cycle of x trips until the window relocates.
	guarded := prepareCGRestart(t, Params{Seed: 7, Dim: 16})
	degraded := prepareCGRestart(t, Params{Seed: 7, Dim: 16, Restarts: -1})

	run := func(inst Instance) float64 {
		ws := testWorkspace()
		inst.StoreOn(&ws)
		ws.Mem = eccWithDoubleFault(t, rows, 10)
		q, err := inst.RunTrial(&ws, nil)
		if err != nil {
			t.Fatal(err)
		}
		if q < 0 || q > 1 {
			t.Fatalf("quality %v outside [0, 1]", q)
		}
		return q
	}
	qG, qD := run(guarded), run(degraded)
	if qG <= qD {
		t.Errorf("rollback quality %v not better than degraded %v", qG, qD)
	}
}

// TestNextWindowWalk pins the relocation arithmetic: windows advance in
// 3*dim strides and wrap to the macro base instead of overflowing.
func TestNextWindowWalk(t *testing.T) {
	const d = 16
	if got := nextWindow(0, 96, d); got != 48 {
		t.Errorf("nextWindow(0, 96) = %d, want 48", got)
	}
	if got := nextWindow(48, 96, d); got != 0 {
		t.Errorf("nextWindow(48, 96) = %d, want wrap to 0", got)
	}
	off := 0
	for i := 0; i < 64; i++ {
		off = nextWindow(off, 512, d)
		if off < 0 || off+3*d > 512 {
			t.Fatalf("window %d overflows: off %d", i, off)
		}
	}
}

// TestCheckedTripPoliciesKeepNoFaultPerfect pins the acceptance
// criterion on the workspace dispatch: with an active recovery policy
// (checked round trips) and a fault-free detecting memory, every
// deterministic workload still scores exactly 1.0.
func TestCheckedTripPoliciesKeepNoFaultPerfect(t *testing.T) {
	for _, kind := range []PolicyKind{PolicyRetry, PolicySafeRestore} {
		for _, id := range []ID{RSort, CGSolve, CGRestart} {
			wl, err := id.Workload()
			if err != nil {
				t.Fatal(err)
			}
			inst, err := wl.Prepare(Params{Seed: 7, Keys: 512, Dim: 24})
			if err != nil {
				t.Fatalf("%v: prepare: %v", id, err)
			}
			ws := testWorkspace()
			inst.StoreOn(&ws)
			ws.Mem = eccWithDoubleFault(t, 256)
			rec := RecoveryPolicy{Kind: kind}.recovery()
			rec.ResetTrial()
			ws.Recovery = &rec
			q, err := inst.RunTrial(&ws, nil)
			if err != nil {
				t.Fatalf("%v/%v: trial: %v", kind, id, err)
			}
			if q != 1 {
				t.Errorf("%v/%v: no-fault checked trial quality %v, want exactly 1", kind, id, q)
			}
			if rec.Stats.Flagged != 0 {
				t.Errorf("%v/%v: fault-free memory flagged %d words", kind, id, rec.Stats.Flagged)
			}
		}
	}
}

// TestRetryPolicyRecoversTransientTrialExactly drives the full
// TrialRunner path: under soft errors on a clean SECDED die, the retry
// policy recovers flagged words and the per-arm counters surface
// through RecoveryStats. Trials run until one flags a word (at most
// maxTrials), so the precondition does not hinge on one RNG stream.
func TestRetryPolicyRecoversTransientTrialExactly(t *testing.T) {
	const maxTrials = 64
	inst := prepareCGRestart(t, Params{Seed: 7, Dim: 16})
	runner := NewTrialRunner(inst, Config{
		Name:          "cgrestart",
		Rows:          512,
		Pcell:         1e-6, // tiny persistent load; transient dominates
		Arms:          []Arm{eccArm{}},
		Policy:        RecoveryPolicy{Kind: PolicyRetry, Retries: 8},
		TransientRate: 2e-3,
	})
	var qs []float64
	var st []memstore.RecoveryStats
	for trial := 0; trial < maxTrials; trial++ {
		var err error
		if qs, err = runner.RunTrial(7, trial, qs); err != nil {
			t.Fatal(err)
		}
		st = runner.RecoveryStats()
		if len(st) != 1 {
			t.Fatalf("RecoveryStats length %d", len(st))
		}
		if st[0].Flagged != 0 {
			break
		}
	}
	if st[0].Flagged == 0 {
		t.Fatalf("soft errors at 2e-3 flagged nothing in %d trials — the test exercises no recovery", maxTrials)
	}
	if st[0].Recovered == 0 {
		t.Error("retry policy recovered nothing")
	}
	if st[0].Retries < st[0].Recovered {
		t.Errorf("counters inconsistent: %+v", st[0])
	}
}

// eccArm adapts mem.NewECC to the Arm interface without importing the
// exp package (which would cycle).
type eccArm struct{}

func (eccArm) String() string { return "ECC" }
func (eccArm) Build(rows int, fm fault.Map) (mem.Word32, error) {
	return mem.NewECC(rows, fm, nil)
}
