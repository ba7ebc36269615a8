package faultmem

import (
	"faultmem/internal/dataset"
	"faultmem/internal/mat"
	"faultmem/internal/memstore"
	"faultmem/internal/ml"
)

// Matrix is the dense row-major float64 matrix used by the data-mining
// benchmarks.
type Matrix = mat.Dense

// Dataset is a feature matrix with a target vector.
type Dataset = dataset.Dataset

// WineDataset generates the wine-quality-like regression set of Table 1
// (1599 samples x 11 features, integer quality target in [3,8]).
func WineDataset(seed int64) *Dataset { return dataset.Wine(seed) }

// MadelonDataset generates the Madelon-like feature-selection set of
// Table 1 (2000 samples x 100 features by default; see
// internal/dataset.PaperMadelon for the original 500-feature geometry).
func MadelonDataset(seed int64) *Dataset { return dataset.Madelon(seed, dataset.DefaultMadelon()) }

// HARDataset generates the accelerometer activity-recognition set of
// Table 1 (1500 windows x 15 features, 5 activity classes).
func HARDataset(seed int64) *Dataset { return dataset.HAR(seed, dataset.DefaultHAR()) }

// ActivityName returns the class name of a HAR label.
func ActivityName(label int) string { return dataset.ActivityName(label) }

// MLWorkspace is a reusable scratch bundle for the workspace-backed
// model-fitting paths (FitIn / ScoreIn / PredictIn /
// ExplainedVarianceOnIn on the three Table 1 models): it carries every
// training buffer — standardized copies, elastic-net residuals,
// coefficients and Gram matrix, PCA covariance and eigensolver scratch
// (Jacobi + top-k subspace blocks), KNN neighbor buffers — so
// Monte-Carlo loops that retrain a model per
// trial reuse one allocation set per goroutine. The zero value is ready
// to use; results are bit-identical to the plain Fit/Score paths. A
// fitted model borrows the workspace and stays valid only until the
// next FitIn on it; it is not safe for concurrent use.
type MLWorkspace = ml.Workspace

// ElasticNet is the coordinate-descent elastic-net regressor (Table 1,
// metric R²).
type ElasticNet = ml.ElasticNet

// NewElasticNet returns an elastic net with the default hyperparameters.
func NewElasticNet() *ElasticNet { return ml.NewElasticNet() }

// PCA is principal component analysis (Table 1, metric explained
// variance).
type PCA = ml.PCA

// NewPCA returns a PCA model retaining k components.
func NewPCA(k int) *PCA { return ml.NewPCA(k) }

// KNN is the k-nearest-neighbors classifier (Table 1, metric score).
type KNN = ml.KNN

// NewKNN returns a KNN classifier with k neighbors.
func NewKNN(k int) *KNN { return ml.NewKNN(k) }

// R2 returns the coefficient of determination.
func R2(yTrue, yPred []float64) float64 { return ml.R2(yTrue, yPred) }

// Accuracy returns the fraction of exact label matches.
func Accuracy(yTrue, yPred []float64) float64 { return ml.Accuracy(yTrue, yPred) }

// FixedPointCodec converts between float64 and Q(31-Frac).Frac words for
// storage in a 32-bit memory.
type FixedPointCodec = memstore.Codec

// DefaultCodec returns the Q16.16 fixed-point codec.
func DefaultCodec() FixedPointCodec { return memstore.DefaultCodec() }

// RoundTripDataset stores a dataset's features and targets in the memory
// (paging through it; faults corrupt the data) and returns the decoded
// read-back — the §5.2 experiment step.
func RoundTripDataset(m Memory, x *Matrix, y []float64) (*Matrix, []float64) {
	var ws memstore.Workspace
	c := memstore.DefaultCodec()
	c.EncodeDatasetInto(&ws, x, y)
	return ws.Dataset(c.Trip(&ws, m, nil))
}

// RoundTripValues stores a float64 slice through the memory and returns
// the decoded read-back.
func RoundTripValues(m Memory, vals []float64) []float64 {
	if len(vals) == 0 {
		return []float64{}
	}
	var ws memstore.Workspace
	c := memstore.DefaultCodec()
	c.EncodeValuesInto(&ws, vals)
	return c.Trip(&ws, m, nil)
}
