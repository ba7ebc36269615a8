package memstore

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"faultmem/internal/fault"
	"faultmem/internal/mat"
	"faultmem/internal/mem"
	"faultmem/internal/stats"
)

func TestCodecRoundTripExactness(t *testing.T) {
	c := DefaultCodec()
	f := func(raw int32) bool {
		// Any representable fixed-point value round-trips exactly.
		v := float64(raw) / 65536.0
		return c.Decode(c.Encode(v)) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecQuantizationError(t *testing.T) {
	c := DefaultCodec()
	rng := stats.NewRand(3)
	for i := 0; i < 1000; i++ {
		v := rng.NormFloat64() * 100
		got := c.Decode(c.Encode(v))
		if math.Abs(got-v) > 1.0/65536.0 {
			t.Fatalf("quantization error %g for %g", got-v, v)
		}
	}
}

func TestCodecSaturation(t *testing.T) {
	c := DefaultCodec()
	if got := c.Decode(c.Encode(1e9)); got != c.Max() {
		t.Errorf("positive saturation -> %g, want %g", got, c.Max())
	}
	if got := c.Decode(c.Encode(-1e9)); got != c.Min() {
		t.Errorf("negative saturation -> %g, want %g", got, c.Min())
	}
	if got := c.Encode(math.NaN()); got != 0 {
		t.Errorf("NaN encodes to %#x", got)
	}
}

func TestCodecSignHandling(t *testing.T) {
	c := DefaultCodec()
	if c.Decode(c.Encode(-1.5)) != -1.5 {
		t.Error("negative value mangled")
	}
	// MSB flip of a small positive number produces a hugely negative one:
	// the error-magnitude mechanism of the paper.
	w := c.Encode(1.0)
	flipped := w ^ (1 << 31)
	if c.Decode(flipped) >= 0 {
		t.Error("MSB flip should produce a negative value")
	}
	if math.Abs(c.Decode(flipped)-c.Decode(w)) < 30000 {
		t.Error("MSB flip error magnitude implausibly small")
	}
}

// tripValues is the allocating values round trip: encode into a fresh
// workspace, then one plain Trip.
func tripValues(c Codec, m mem.Word32, vals []float64) []float64 {
	var ws Workspace
	c.EncodeValuesInto(&ws, vals)
	return c.Trip(&ws, m, nil)
}

// tripDataset is the allocating dataset round trip (see tripValues).
func tripDataset(c Codec, m mem.Word32, x *mat.Dense, y []float64) (*mat.Dense, []float64) {
	var ws Workspace
	c.EncodeDatasetInto(&ws, x, y)
	return ws.Dataset(c.Trip(&ws, m, nil))
}

// scalarOnly hides the batch and image interfaces of the memory it
// wraps, so Trip takes its word-at-a-time loop: the oracle the fast
// paths must match bit for bit. Checked reads still reach the wrapped
// memory's detector, one word at a time.
type scalarOnly struct{ mem.Word32 }

func (s scalarOnly) ReadChecked(addr int) (uint32, bool) {
	return s.Word32.(mem.Detector).ReadChecked(addr)
}

func (s scalarOnly) ReadBatchChecked(int, []uint32, *mem.DUESet, int) {
	panic("scalarOnly: batch read on the scalar oracle")
}

func TestRoundTripValuesPerfectMemory(t *testing.T) {
	c := DefaultCodec()
	m := mem.NewPerfect(8)
	vals := []float64{0, 1.25, -3.5, 100.0625, -0.0000152587890625}
	got := tripValues(c, m, vals)
	for i, v := range vals {
		if got[i] != v {
			t.Errorf("val %d: %g != %g", i, got[i], v)
		}
	}
}

func TestRoundTripPagesThroughSmallMemory(t *testing.T) {
	// 3-word memory, 10 values: pages reuse the same words and the same
	// fault map. A flip fault at word 1, bit 31 corrupts values at flat
	// indexes 1, 4, 7 (every page's second word).
	c := DefaultCodec()
	fm := fault.Map{{Row: 1, Col: 31, Kind: fault.Flip}}
	raw, err := mem.NewRaw(3, fm)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 10)
	got := tripValues(c, raw, vals)
	for i, v := range got {
		if i%3 == 1 {
			if v == 0 {
				t.Errorf("index %d should be corrupted", i)
			}
		} else if v != 0 {
			t.Errorf("index %d corrupted unexpectedly: %g", i, v)
		}
	}
}

func TestRoundTripDatasetCorruption(t *testing.T) {
	// An MSB fault must visibly corrupt some entries but leave the
	// fraction bounded by the fault geometry.
	c := DefaultCodec()
	fm := fault.Map{{Row: 0, Col: 31, Kind: fault.Flip}}
	raw, err := mem.NewRaw(64, fm)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.NewDense(32, 4)
	y := make([]float64, 32)
	xc, yc := tripDataset(c, raw, x, y)
	corrupted := 0
	for i := 0; i < 32; i++ {
		for j := 0; j < 4; j++ {
			if xc.At(i, j) != 0 {
				corrupted++
			}
		}
		if yc[i] != 0 {
			corrupted++
		}
	}
	// 160 words through a 64-word memory = 3 pages -> 3 corrupted words.
	if corrupted != 3 {
		t.Errorf("%d corrupted entries, want 3", corrupted)
	}
}

// TestTripWarmWorkspaceMatchesFresh pins workspace reuse: a workspace
// that has held other data must reproduce a fresh workspace's corrupted
// dataset, and a warm plain Trip plus Dataset on a real memory must not
// allocate.
func TestTripWarmWorkspaceMatchesFresh(t *testing.T) {
	c := DefaultCodec()
	fm := fault.Map{{Row: 0, Col: 31, Kind: fault.Flip}, {Row: 5, Col: 12, Kind: fault.Flip}}
	raw, err := mem.NewRaw(64, fm)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(9)
	x := mat.NewDense(32, 4)
	y := make([]float64, 32)
	for i := 0; i < 32; i++ {
		for j := 0; j < 4; j++ {
			x.Set(i, j, rng.NormFloat64()*10)
		}
		y[i] = rng.NormFloat64()
	}

	xa, ya := tripDataset(c, raw, x, y)
	var ws Workspace
	c.EncodeValuesInto(&ws, make([]float64, 300)) // stale, larger data first
	c.Trip(&ws, raw, nil)
	c.EncodeDatasetInto(&ws, x, y)
	xb, yb := ws.Dataset(c.Trip(&ws, raw, nil))
	for i := 0; i < 32; i++ {
		for j := 0; j < 4; j++ {
			if xa.At(i, j) != xb.At(i, j) {
				t.Fatalf("(%d,%d): %g != %g", i, j, xb.At(i, j), xa.At(i, j))
			}
		}
		if ya[i] != yb[i] {
			t.Fatalf("y[%d]: %g != %g", i, yb[i], ya[i])
		}
	}

	avg := testing.AllocsPerRun(50, func() {
		ws.Dataset(c.Trip(&ws, raw, nil))
	})
	if avg != 0 {
		t.Errorf("warm workspace round trip allocates %.1f times", avg)
	}
}

func TestWordsNeeded(t *testing.T) {
	if WordsNeeded(100, 11) != 1200 {
		t.Errorf("WordsNeeded = %d", WordsNeeded(100, 11))
	}
}

func TestRoundTripThroughECCIsClean(t *testing.T) {
	// Single fault per word + full ECC: dataset must round-trip intact.
	c := DefaultCodec()
	rng := stats.NewRand(5)
	var fm fault.Map
	for r := 0; r < 16; r++ {
		fm = append(fm, fault.Fault{Row: r, Col: rng.Intn(32), Kind: fault.Flip})
	}
	eccm, err := mem.NewECC(16, fm, nil)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 50)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 10
	}
	got := tripValues(c, eccm, vals)
	for i := range vals {
		want := c.Decode(c.Encode(vals[i]))
		if got[i] != want {
			t.Errorf("val %d corrupted through ECC: %g vs %g", i, got[i], want)
		}
	}
}

// TestRoundTripCachedMatchesDirect pins the fast paths of Trip against
// its word-at-a-time oracle: the image path on a real memory must
// reproduce the scalar loop on the same memory bit for bit — across
// multiple trips of one cache and datasets larger than the memory
// (paged).
func TestRoundTripCachedMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := DefaultCodec()
	rows, cols := 113, 7
	x := mat.NewDense(rows, cols)
	y := make([]float64, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			x.Set(i, j, rng.NormFloat64()*100)
		}
		y[i] = float64(rng.Intn(10))
	}
	memRows := 16 // far smaller than the dataset: exercises paging
	fm := fault.GeneratePcell(rand.New(rand.NewSource(3)), memRows, 32, 0.01, fault.Flip)
	mDirect, err := mem.NewRaw(memRows, fm)
	if err != nil {
		t.Fatal(err)
	}
	mCached, err := mem.NewRaw(memRows, fm)
	if err != nil {
		t.Fatal(err)
	}
	var wsDirect, wsCached Workspace
	c.EncodeDatasetInto(&wsDirect, x, y)
	c.EncodeDatasetInto(&wsCached, x, y)
	for trip := 0; trip < 3; trip++ {
		wantX, wantY := wsDirect.Dataset(c.Trip(&wsDirect, scalarOnly{mDirect}, nil))
		gotX, gotY := wsCached.Dataset(c.Trip(&wsCached, mCached, nil))

		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if math.Float64bits(gotX.At(i, j)) != math.Float64bits(wantX.At(i, j)) {
					t.Fatalf("trip %d: X(%d,%d) %g != %g", trip, i, j, gotX.At(i, j), wantX.At(i, j))
				}
			}
			if math.Float64bits(gotY[i]) != math.Float64bits(wantY[i]) {
				t.Fatalf("trip %d: Y[%d] %g != %g", trip, i, gotY[i], wantY[i])
			}
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("Trip without cached words did not panic")
		}
	}()
	var empty Workspace
	c.Trip(&empty, mCached, nil)
}
