package memstore

import "faultmem/internal/mem"

// RecoveryStats counts what a Recovery saw and did across checked
// trips. All fields are monotone counters so shard-level values merge
// by addition (worker-count determinism: the per-trial increments are
// fixed by the trial's RNG stream, and addition is order-free).
type RecoveryStats struct {
	// Flagged counts words read back with a detected-uncorrectable flag.
	Flagged uint64
	// Retries counts re-read attempts issued by the retry mechanism.
	Retries uint64
	// Recovered counts flagged words whose re-read came back clean
	// (transient read corruption that did not recur).
	Recovered uint64
	// Restored counts flagged words replaced from the safe golden copy.
	Restored uint64
	// BudgetDenied counts flagged words the safe-word budget could not
	// cover ("budget exhausted" events).
	BudgetDenied uint64
}

// Merge adds o's counters into s.
func (s *RecoveryStats) Merge(o RecoveryStats) {
	s.Flagged += o.Flagged
	s.Retries += o.Retries
	s.Recovered += o.Recovered
	s.Restored += o.Restored
	s.BudgetDenied += o.BudgetDenied
}

// Recovery is the detect-and-recover state of a checked Trip: the
// mechanism configuration (bounded re-reads, safe-memory restore with a
// per-trial word budget), the DUE flag set of the last trip, and the
// accumulated counters. One Recovery serves many trips; call
// ResetTrial at each trial boundary to re-arm the budget.
//
// Recovery works per page, while the flagged rows still hold the
// flagged words: the paged round trip reuses the same physical rows for
// every page, so a flagged word must be retried or restored before the
// next page's write overwrites its row.
type Recovery struct {
	// Retries is the bounded re-read count per flagged word (0 disables
	// retrying). A re-read recovers transient read corruption; persistent
	// faults flag again and stay flagged.
	Retries int
	// Restore enables replacing still-flagged words from the workspace's
	// clean word cache — the safe-memory golden copy.
	Restore bool
	// Budget caps restored words per trial (De Stefani & Silvestri's
	// safe-memory budget): 0 means unlimited, > 0 is the cap. Words
	// denied for lack of budget count as BudgetDenied and keep their
	// corrupted read-back.
	Budget int
	// DUE holds the flag set of the last checked trip, indexed by flat
	// word position. Bits recovered or restored during the trip are
	// cleared, so after the trip it flags exactly the words whose
	// returned values are still known-corrupt.
	DUE mem.DUESet
	// Stats accumulates counters across trips until the caller resets it.
	Stats RecoveryStats

	budgetUsed int
}

// ResetTrial re-arms the per-trial safe-word budget.
func (r *Recovery) ResetTrial() { r.budgetUsed = 0 }

// recoverPage runs the recovery mechanisms over the page's flagged
// words while the page still occupies the memory: bounded re-reads
// first (each flagged word gets up to Retries fresh reads; a clean one
// replaces the value and clears the flag), then the safe-memory restore
// for words still flagged, charged against the per-trial budget.
func (rec *Recovery) recoverPage(ws *Workspace, det mem.Detector, flat []float64, start, end int, scale float64) {
	for i := rec.DUE.NextSet(start); i >= 0 && i < end; i = rec.DUE.NextSet(i + 1) {
		rec.Stats.Flagged++
		recovered := false
		for a := 0; a < rec.Retries; a++ {
			rec.Stats.Retries++
			v, due := det.ReadChecked(i - start)
			if !due {
				flat[i] = float64(int32(v)) / scale
				rec.DUE.Clear(i)
				rec.Stats.Recovered++
				recovered = true
				break
			}
		}
		if recovered || !rec.Restore {
			continue
		}
		if rec.Budget > 0 && rec.budgetUsed >= rec.Budget {
			rec.Stats.BudgetDenied++
			continue
		}
		rec.budgetUsed++
		rec.Stats.Restored++
		flat[i] = float64(int32(ws.words[i])) / scale
		rec.DUE.Clear(i)
	}
}
