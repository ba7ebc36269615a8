// Command recovery walks through the detect-and-recover layer: list the
// trial-level recovery policies, run the "recovery" campaign (one
// workload through all eight protection arms, once per policy, on
// paired random numbers), and read the quality grids and per-policy
// recovery counters. The campaign's point: SECDED detection is already
// paid for — acting on the detected-uncorrectable (DUE) flags with
// bounded re-reads or a small safe-memory restore budget buys back most
// of the quality the dies lose, while the codeless arms (which cannot
// detect) are untouched by every policy.
//
//	go run ./examples/recovery
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"time"

	"faultmem"
)

func main() {
	// 1. The policy vocabulary, in escalation order. "none" is the plain
	// round trip (the historical engine, bit-identical to the campaigns
	// that predate recovery); "retry" re-reads flagged words a bounded
	// number of times (recovers transient corruption); "saferestore"
	// additionally restores still-flagged words from the safe-memory
	// golden copy, charged against a per-trial budget.
	fmt.Println("recovery policies:", faultmem.RecoveryPolicyNames())

	// 2. Run the campaign: the CG solve at a reduced geometry, all three
	// policies, with soft errors enabled so the retry policy has
	// transient corruption to recover. Every policy sees the identical
	// dies, and the identical soft errors up to its first re-read (a
	// re-read draws from the same trial stream), so the codeless arms'
	// columns match exactly and the SECDED columns differ by recovery.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	runner := &faultmem.Runner{
		Params: json.RawMessage(`{
			"Workload": "cgsolve",
			"Trials": 60, "Rows": 1024, "Dim": 32,
			"TransientRate": 1e-4, "Retries": 2, "SafeWords": 256
		}`),
		Progress: func(p faultmem.ExperimentProgress) {
			fmt.Fprintf(os.Stderr, "\r%s %d/%d", p.Experiment, p.Done, p.Total)
			if p.Done == p.Total {
				fmt.Fprintln(os.Stderr)
			}
		},
	}
	res, err := faultmem.RunExperiment(ctx, "recovery", runner)
	if err != nil {
		log.Fatal(err)
	}

	// 3. The first two tables are the headline grids: mean quality and
	// quality-at-90%-yield per arm (rows) and policy (columns). The
	// remaining tables are per-policy recovery counters — flagged words,
	// retries spent, words recovered by re-read, words restored from the
	// safe copy, and restores denied by the budget.
	fmt.Println()
	if err := res.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// 4. Only the detecting arms (H(39,32) ECC, H(22,16) P-ECC) can flag
	// a DUE, so only their columns move; the nFM and unprotected arms
	// carry identical qualities under every policy — the campaign is a
	// controlled experiment, not a re-roll of the dice.
	fmt.Println("\ncompare the ECC row across the none/retry/saferestore columns above;")
	fmt.Println("the counter tables show what each policy actually did per arm.")
}
