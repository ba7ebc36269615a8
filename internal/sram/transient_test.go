package sram

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"faultmem/internal/stats"
)

func TestTransientDisabledByDefault(t *testing.T) {
	a := NewArray(4, 32)
	a.Write(0, 0xDEADBEEF)
	for i := 0; i < 100; i++ {
		if a.Read(0) != 0xDEADBEEF {
			t.Fatal("transient flips with rate 0")
		}
	}
}

func TestTransientRateStatistics(t *testing.T) {
	a := NewArray(1, 32)
	a.SetTransient(0.25, stats.NewRand(3))
	a.Write(0, 0)
	flips := 0
	const reads = 2000
	for i := 0; i < reads; i++ {
		v := a.Read(0)
		for ; v != 0; v &= v - 1 {
			flips++
		}
	}
	got := float64(flips) / float64(reads*32)
	if math.Abs(got-0.25) > 0.02 {
		t.Errorf("observed flip rate %.4f, want ~0.25", got)
	}
}

func TestTransientDoesNotCorruptStorage(t *testing.T) {
	// Soft errors are read disturbances in this model: the stored value
	// must stay intact underneath.
	a := NewArray(1, 32)
	a.SetTransient(0.5, stats.NewRand(4))
	a.Write(0, 0xA5A5A5A5)
	for i := 0; i < 50; i++ {
		_ = a.Read(0)
	}
	if a.Peek(0) != 0xA5A5A5A5 {
		t.Error("transient reads corrupted storage")
	}
	// Disabling restores clean reads.
	a.SetTransient(0, nil)
	if a.Read(0) != 0xA5A5A5A5 {
		t.Error("disable did not restore clean reads")
	}
}

func TestTransientValidation(t *testing.T) {
	a := NewArray(1, 8)
	for _, bad := range []float64{-0.1, 1.0, 2, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rate %g accepted", bad)
				}
			}()
			a.SetTransient(bad, stats.NewRand(1))
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil RNG accepted with positive rate")
			}
		}()
		a.SetTransient(0.1, nil)
	}()
}

func TestTransientComposesWithPersistentFaults(t *testing.T) {
	// A persistent flip fault and transients combine by XOR: over many
	// reads of zero data, the persistently faulty bit must read 1 far
	// more often than any clean bit.
	a := NewArray(1, 32)
	if err := a.SetFaults(faultAt(0, 7)); err != nil {
		t.Fatal(err)
	}
	a.SetTransient(0.05, stats.NewRand(9))
	a.Write(0, 0)
	countFaulty, countClean := 0, 0
	const reads = 1000
	for i := 0; i < reads; i++ {
		v := a.Read(0)
		if v&(1<<7) != 0 {
			countFaulty++
		}
		if v&(1<<8) != 0 {
			countClean++
		}
	}
	if countFaulty < reads*8/10 {
		t.Errorf("persistent bit read 1 only %d/%d times", countFaulty, reads)
	}
	if countClean > reads/5 {
		t.Errorf("clean bit read 1 %d/%d times at rate 0.05", countClean, reads)
	}
}

// transientHistogram reads a zeroed rows x width array passes times
// through ReadBatch with soft errors at rate, per seed, and returns the
// per-word flip-count histogram, the per-bit flip counts, and the
// number of words read.
func transientHistogram(rows, width, passes int, rate float64, seeds []int64) (hist, perBit []int, words int) {
	hist = make([]int, width+1)
	perBit = make([]int, width)
	out := make([]uint64, rows)
	for _, seed := range seeds {
		a := NewArray(rows, width)
		a.SetTransient(rate, stats.NewRand(seed))
		for p := 0; p < passes; p++ {
			a.ReadBatch(0, out)
			for _, v := range out {
				n := 0
				for ; v != 0; v &= v - 1 {
					perBit[bits.TrailingZeros64(v)]++
					n++
				}
				hist[n]++
			}
			words += rows
		}
	}
	return hist, perBit, words
}

// TestTransientFlipCountIsBinomial pins the gap sampler's law: the
// number of soft errors per word read must follow Binomial(W, rate),
// exactly as independent per-cell Bernoulli draws would. Counts with
// an expected total under 10 are pooled into one tail bin; every bin
// must sit within 5σ of its expectation.
func TestTransientFlipCountIsBinomial(t *testing.T) {
	const width, rate = 39, 2e-3
	hist, _, words := transientHistogram(4096, width, 1200, rate, []int64{1, 2, 3, 4, 5, 6, 7, 8})
	t.Logf("%d words read, %d with two flips, %.0f expected", words, hist[2], float64(words)*stats.BinomialPMF(width, rate, 2))
	tail, tailP := 0, 0.0
	for k := 0; k <= width; k++ {
		p := stats.BinomialPMF(width, rate, k)
		if tail == 0 && tailP == 0 && float64(words)*p >= 10 {
			checkBin(t, fmt.Sprintf("%d flips", k), hist[k], words, p)
			continue
		}
		tail += hist[k]
		tailP += p
	}
	checkBin(t, "tail", tail, words, tailP)
}

// TestTransientFlipsUniformAcrossBits pins that the countdown, which
// walks the cells bit 0 first, favours no bit position.
func TestTransientFlipsUniformAcrossBits(t *testing.T) {
	const width, rate = 39, 2e-3
	_, perBit, words := transientHistogram(4096, width, 600, rate, []int64{11, 12, 13, 14})
	for b, n := range perBit {
		checkBin(t, fmt.Sprintf("bit %d", b), n, words, rate)
	}
}

// checkBin fails unless got is within 5σ of Binomial(n, p)'s mean.
func checkBin(t *testing.T, name string, got, n int, p float64) {
	t.Helper()
	mean := float64(n) * p
	sigma := math.Sqrt(mean * (1 - p))
	if math.Abs(float64(got)-mean) > 5*sigma {
		t.Errorf("%s: %d observed, %.1f ± %.1f expected", name, got, mean, sigma)
	}
}

// TestTransientExtremeRates drives the sampler at the ends of its range:
// vanishing rates whose gaps overflow an int64 before the clamp must
// return promptly with no flips, and rate 0.5 must flip half the cells.
func TestTransientExtremeRates(t *testing.T) {
	for _, rate := range []float64{1e-300, math.SmallestNonzeroFloat64} {
		hist, _, words := transientHistogram(1024, 64, 64, rate, []int64{1, 2})
		if hist[0] != words {
			t.Errorf("rate %g: %d of %d words flipped", rate, words-hist[0], words)
		}
	}
	const width, reads = 64, 4000
	_, perBit, words := transientHistogram(reads, width, 1, 0.5, []int64{3})
	flips := 0
	for _, n := range perBit {
		flips += n
	}
	checkBin(t, "rate 0.5 flips", flips, words*width, 0.5)
}

// TestTransientScalarBatchAgree pins that Read and ReadBatch consume
// one countdown in access order: any mix of scalar reads and batches
// of any length returns bit-identical words from identical seeds.
func TestTransientScalarBatchAgree(t *testing.T) {
	const rows, width = 97, 39
	for _, rate := range []float64{1e-3, 0.05, 0.4} {
		scalar, batch := NewArray(rows, width), NewArray(rows, width)
		for r := 0; r < rows; r++ {
			v := uint64(r) * 0x9E3779B97F4A7C15
			scalar.Write(r, v)
			batch.Write(r, v)
		}
		scalar.SetTransient(rate, stats.NewRand(21))
		batch.SetTransient(rate, stats.NewRand(21))
		out := make([]uint64, rows)
		for pass := 0; pass < 200; pass++ {
			for r := 0; r < rows; {
				n := 1 + (pass*7+r)%13
				if n > rows-r {
					n = rows - r
				}
				batch.ReadBatch(r, out[:n])
				for i := 0; i < n; i++ {
					if got := scalar.Read(r + i); got != out[i] {
						t.Fatalf("rate %g pass %d row %d: scalar %#x, batch %#x", rate, pass, r+i, got, out[i])
					}
				}
				r += n
			}
		}
	}
}
