package sram

import (
	"fmt"
	"math"
	"math/rand"
)

// maxTransientGap caps a drawn soft-error gap before its integer
// conversion. At rates so low that the gap overflows, a countdown of
// 2^62 cell-reads is indistinguishable from "never".
const maxTransientGap = 1 << 62

// SetTransient enables per-read transient bit flips (soft errors):
// independently of the persistent fault map, every cell of a word being
// read flips with probability rate. A rate of 0 (the default) disables
// the mechanism.
//
// The flips are sampled sparsely: the array keeps a countdown of clean
// cell-reads left before the next soft error, consumed cell by cell
// (bit 0 first) and read by read in access order. Each gap is drawn as
// floor(E/λ) with E ~ Exp(1) and λ = −ln(1−rate), which is exactly
// Geometric(rate) — the same law as one Bernoulli(rate) draw per cell per
// read, at one RNG draw per flip instead of one per cell. SetTransient
// restarts the countdown from rng.
//
// Transient faults are *not* part of the paper's model — its BIST-driven
// FM-LUT can only target persistent fault locations — but the extension
// lets the ablation benches show where the scheme's protection ends:
// ECC corrects a single soft error per word, bit-shuffling does not
// reduce its magnitude (the flip lands on a random logical bit either
// way).
func (a *Array) SetTransient(rate float64, rng *rand.Rand) {
	if !(rate >= 0 && rate < 1) {
		panic(fmt.Sprintf("sram: transient rate %g outside [0,1)", rate))
	}
	if rate > 0 && rng == nil {
		panic("sram: transient faults need an RNG")
	}
	a.transientLambda = -math.Log1p(-rate)
	a.transientRNG = rng
	if rate > 0 {
		a.transientGap = a.transientDraw()
	}
}

// transientDraw returns the number of clean cell-reads before the next
// soft error: Geometric(rate) via the floor of an exponential variate.
func (a *Array) transientDraw() int64 {
	g := a.transientRNG.ExpFloat64() / a.transientLambda
	if g >= maxTransientGap {
		return maxTransientGap
	}
	return int64(g)
}

// softErrors applies the pending soft errors to words, the values of
// consecutive reads in access order, consuming the countdown across
// them. Callers check transientLambda > 0 first.
func (a *Array) softErrors(words []uint64) {
	w := int64(a.width)
	total := w * int64(len(words))
	pos := a.transientGap
	for pos < total {
		words[pos/w] ^= uint64(1) << uint(pos%w)
		pos += 1 + a.transientDraw()
	}
	a.transientGap = pos - total
}
