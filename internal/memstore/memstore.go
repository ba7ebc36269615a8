// Package memstore bridges the data-mining benchmarks and the protected
// memories: it quantizes floating-point training data to 32-bit
// fixed-point words, streams them through a mem.Word32 (where bit-cell
// faults corrupt them), and decodes the result. This realizes §5.2's
// "functional model of a 16KB memory is used to inject bit-flips" for
// datasets of any size: the data is paged through the memory, so every
// page experiences the same persistent fault map — the behaviour of
// storing a working set in one physical macro.
//
// There is one round-trip path. EncodeDatasetInto or EncodeValuesInto
// quantizes the clean data once into a Workspace; Codec.Trip then streams
// those words through a memory per trial and returns the decoded values,
// optionally through the detect-and-recover layer (Recovery); and
// Workspace.Dataset reshapes them into a feature matrix and labels.
package memstore

import (
	"fmt"
	"math"

	"faultmem/internal/mat"
	"faultmem/internal/mem"
)

// Codec converts between float64 and Q(31-Frac).Frac signed fixed-point
// words. The paper's benchmarks store 2's-complement integers (§3); the
// default Q16.16 format covers every feature range in the Table 1
// datasets with 2^-16 resolution.
type Codec struct {
	// Frac is the number of fractional bits (0..31).
	Frac int
}

// DefaultCodec returns the Q16.16 codec.
func DefaultCodec() Codec { return Codec{Frac: 16} }

// scale returns 2^Frac.
func (c Codec) scale() float64 {
	return math.Ldexp(1, c.Frac)
}

// Max returns the largest representable value.
func (c Codec) Max() float64 { return float64(math.MaxInt32) / c.scale() }

// Min returns the smallest (most negative) representable value.
func (c Codec) Min() float64 { return float64(math.MinInt32) / c.scale() }

// Encode quantizes f to a fixed-point word, saturating at the format
// limits (NaN encodes as 0).
func (c Codec) Encode(f float64) uint32 {
	if c.Frac < 0 || c.Frac > 31 {
		panic(fmt.Sprintf("memstore: fractional bits %d outside [0,31]", c.Frac))
	}
	return encodeScaled(f, c.scale())
}

// Decode converts a fixed-point word back to float64.
func (c Codec) Decode(w uint32) float64 {
	return float64(int32(w)) / c.scale()
}

// encodeScaled is Encode with the 2^Frac scale precomputed; identical
// result word for word.
func encodeScaled(f, scale float64) uint32 {
	if math.IsNaN(f) {
		return 0
	}
	v := math.Round(f * scale)
	if v > math.MaxInt32 {
		v = math.MaxInt32
	}
	if v < math.MinInt32 {
		v = math.MinInt32
	}
	return uint32(int32(v))
}

// Workspace holds the clean-word cache and the scratch buffers of Trip
// and Dataset so a Monte-Carlo worker can reuse them across trials
// instead of allocating a dataset-sized matrix and flat copies per
// (trial, arm). The zero value is ready to use; it grows to the largest
// dataset it has seen and then performs no further allocations.
type Workspace struct {
	flat []float64
	x    *mat.Dense
	y    []float64

	// Cached quantized data (EncodeDatasetInto / EncodeValuesInto): the
	// clean words and the dataset shape they encode (0x0 for values).
	words      []uint32
	cachedRows int
	cachedCols int

	// Codeword-image cache: for each encode transform (mem.ImageWriter
	// key) the physical image of the cached words, computed lazily once
	// and shared by every memory with that key. The clean ECC encode is
	// fault-independent, so images stay valid across Reset/Reprogram of
	// the memories and are invalidated only when the cached data changes.
	images map[string][]uint64
	// readBuf stages one page of batch reads.
	readBuf []uint32
}

// EncodeDatasetInto quantizes (x, y) once into the workspace's word
// cache. A Monte-Carlo loop that round-trips the same clean dataset
// through many fault maps (the Fig. 7 engine: every arm of every
// trial) pays the float-to-fixed-point conversion and the row
// flattening once per shard instead of once per round trip; the
// per-trial work left in Trip is exactly the fault-dependent part
// (memory writes, reads, decode).
func (c Codec) EncodeDatasetInto(ws *Workspace, x *mat.Dense, y []float64) {
	rows, cols := x.Dims()
	if rows != len(y) {
		panic("memstore: X/Y length mismatch")
	}
	if c.Frac < 0 || c.Frac > 31 {
		panic(fmt.Sprintf("memstore: fractional bits %d outside [0,31]", c.Frac))
	}
	n := rows*cols + len(y)
	if cap(ws.words) < n {
		ws.words = make([]uint32, n)
	}
	words := ws.words[:n]
	scale := c.scale()
	for i := 0; i < rows; i++ {
		row := x.RawRow(i)
		for j, v := range row {
			words[i*cols+j] = encodeScaled(v, scale)
		}
	}
	for i, v := range y {
		words[rows*cols+i] = encodeScaled(v, scale)
	}
	ws.words = words
	ws.cachedRows, ws.cachedCols = rows, cols
	clear(ws.images) // cached images encode the previous dataset
}

// EncodeValuesInto quantizes a flat value slice once into the
// workspace's word cache — the shapeless sibling of EncodeDatasetInto
// for workloads whose memory-resident data is not a feature matrix
// (sorting keys, solver coefficients). Read the corrupted values back
// per trial with Trip.
func (c Codec) EncodeValuesInto(ws *Workspace, vals []float64) {
	if len(vals) == 0 {
		panic("memstore: EncodeValuesInto of empty slice")
	}
	if c.Frac < 0 || c.Frac > 31 {
		panic(fmt.Sprintf("memstore: fractional bits %d outside [0,31]", c.Frac))
	}
	if cap(ws.words) < len(vals) {
		ws.words = make([]uint32, len(vals))
	}
	words := ws.words[:len(vals)]
	scale := c.scale()
	for i, v := range vals {
		words[i] = encodeScaled(v, scale)
	}
	ws.words = words
	ws.cachedRows, ws.cachedCols = 0, 0 // no dataset shape cached
	clear(ws.images)                    // cached images encode the previous data
}

// imageFor returns the physical image of the cached words under the
// memory's encode transform, computing and caching it on first use.
func (ws *Workspace) imageFor(iw mem.ImageWriter, key string) []uint64 {
	if img, ok := ws.images[key]; ok {
		return img
	}
	if ws.images == nil {
		ws.images = make(map[string][]uint64)
	}
	img := make([]uint64, len(ws.words))
	iw.EncodeImage(img, ws.words)
	ws.images[key] = img
	return img
}

// Trip streams the cached words (EncodeDatasetInto or EncodeValuesInto)
// through the memory page by page and returns the decoded flat values.
// Every page reuses the same physical words, and therefore the same
// fault map. The returned slice is workspace scratch, valid until the
// next trip on ws; Dataset reshapes it. Trip panics if nothing is cached.
//
// Memories implementing mem.BatchMemory take the bulk write/read paths
// (one call per page instead of one per word); memories additionally
// implementing mem.ImageWriter with a non-empty key skip the clean-word
// encode entirely, writing a cached physical image per page, so a warm
// trip's write is a masked copy and its read a batch decode. Both fast
// paths are bit-identical to the word-at-a-time loop, which remains the
// fallback for plain mem.Word32 implementations and the tests' oracle.
//
// With rec == nil the reads are plain. With rec != nil, a mem.Detector
// memory reads checked: rec.DUE flags the flat positions of detected-
// uncorrectable words, and rec's retry and restore mechanisms run on
// each page while it still occupies the memory. Non-detecting memories
// never flag, so rec then only resets its DUE set.
func (c Codec) Trip(ws *Workspace, m mem.Word32, rec *Recovery) []float64 {
	n := len(ws.words)
	if n == 0 {
		panic("memstore: Trip before EncodeDatasetInto or EncodeValuesInto")
	}
	pageWords := m.Words()
	if pageWords == 0 {
		panic("memstore: empty memory")
	}
	if cap(ws.flat) < n {
		ws.flat = make([]float64, n)
	}
	flat := ws.flat[:n]
	ws.flat = flat
	scale := c.scale()
	var det mem.Detector
	if rec != nil {
		rec.DUE.Reset(n)
		det, _ = m.(mem.Detector)
	}
	bm, batched := m.(mem.BatchMemory)
	var (
		img []uint64
		iw  mem.ImageWriter
	)
	if w, ok := m.(mem.ImageWriter); ok && batched {
		if key := w.ImageKey(); key != "" {
			iw, img = w, ws.imageFor(w, key)
		}
	}
	if pageN := min(pageWords, n); batched && cap(ws.readBuf) < pageN {
		ws.readBuf = make([]uint32, pageN)
	}
	for start := 0; start < n; start += pageWords {
		end := min(start+pageWords, n)
		switch {
		case img != nil:
			iw.WriteImage(0, img[start:end])
		case batched:
			bm.WriteBatch(0, ws.words[start:end])
		default:
			for i := start; i < end; i++ {
				m.Write(i-start, ws.words[i])
			}
		}
		if batched {
			buf := ws.readBuf[:end-start]
			if det != nil {
				det.ReadBatchChecked(0, buf, &rec.DUE, start)
			} else {
				bm.ReadBatch(0, buf)
			}
			for i, w := range buf {
				flat[start+i] = float64(int32(w)) / scale
			}
		} else {
			for i := start; i < end; i++ {
				var w uint32
				if det != nil {
					var due bool
					if w, due = det.ReadChecked(i - start); due {
						rec.DUE.Set(i)
					}
				} else {
					w = m.Read(i - start)
				}
				flat[i] = float64(int32(w)) / scale
			}
		}
		if det != nil {
			rec.recoverPage(ws, det, flat, start, end, scale)
		}
	}
	return flat
}

// Dataset reshapes a trip's flat values into the cached dataset's
// feature matrix and label slice (row-major features, then labels).
// Both alias ws and stay valid only until the next Dataset call on it:
// consumers that retain the data past one fit/score cycle must copy it.
// It panics if no dataset shape is cached.
func (ws *Workspace) Dataset(flat []float64) (*mat.Dense, []float64) {
	rows, cols := ws.cachedRows, ws.cachedCols
	if rows == 0 {
		panic("memstore: Dataset before EncodeDatasetInto")
	}
	if ws.x == nil {
		ws.x = mat.NewDense(rows, cols)
	} else if r, cc := ws.x.Dims(); r != rows || cc != cols {
		ws.x = mat.NewDense(rows, cols)
	}
	for i := 0; i < rows; i++ {
		ws.x.SetRow(i, flat[i*cols:(i+1)*cols])
	}
	if cap(ws.y) < rows {
		ws.y = make([]float64, rows)
	}
	ws.y = ws.y[:rows]
	copy(ws.y, flat[rows*cols:])
	return ws.x, ws.y
}

// WordsNeeded returns the number of 32-bit words a dataset of the given
// shape occupies (features + labels).
func WordsNeeded(rows, cols int) int { return rows*cols + rows }
