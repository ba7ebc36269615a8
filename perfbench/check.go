package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"faultmem/internal/exp"
)

// Output checks for the local workloads. A campaign's rendered result is
// reduced to a few headline statistics — the nFM=1 reduction factor at
// 90% yield, per-arm quality-aware yields, per-arm mean qualities — and
// each is compared with a recorded reference within a stated tolerance.
// Tolerances cover the Monte-Carlo spread across seeds (the benchmark
// draws its seed per run), so a later change that re-pins result bits
// without changing the science passes, while a broken result fails.

//go:embed reference.json
var referenceJSON []byte

// bound is one reference value and its allowed absolute deviation.
type bound struct {
	Ref float64 `json:"ref"`
	Tol float64 `json:"tol"`
}

// references maps workload name -> headline key -> bound.
func references() (map[string]map[string]bound, error) {
	var refs map[string]map[string]bound
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// checkHeadlines compares every reference key of the workload with the
// result's headline; a missing headline or a deviation beyond the
// tolerance is an error naming the first offending key.
func checkHeadlines(got map[string]float64, want map[string]bound) error {
	if len(want) == 0 {
		return fmt.Errorf("no reference headlines")
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b := want[k]
		v, ok := got[k]
		if !ok {
			return fmt.Errorf("headline %q missing from result", k)
		}
		if math.IsNaN(v) || math.Abs(v-b.Ref) > b.Tol {
			return fmt.Errorf("headline %q = %.6g, want %.6g ± %.3g", k, v, b.Ref, b.Tol)
		}
	}
	return nil
}

// headlines reduces a fig5, workloads or recovery result to its
// headline statistics, read from the rendered tables exactly as a user
// of `faultmem run` sees them.
func headlines(res *exp.Result) (map[string]float64, error) {
	out := map[string]float64{}
	switch res.Experiment {
	case "fig5":
		t := findTable(res, "Fig. 5 derived")
		if t == nil {
			return nil, fmt.Errorf("fig5 result has no yield table")
		}
		at90 := column(t, "MSE@yield 0.9")
		atMSE := column(t, "yield@MSE<1e+06")
		if at90 < 0 || atMSE < 0 {
			return nil, fmt.Errorf("fig5 yield table lacks the 0.9-yield or MSE<1e6 column")
		}
		mse := map[string]float64{}
		for _, row := range t.Rows {
			v, err := cell(row, at90)
			if err != nil {
				return nil, err
			}
			mse[row[0]] = v
			y, err := cell(row, atMSE)
			if err != nil {
				return nil, err
			}
			out["yield_at_mse_1e6/"+row[0]] = y
		}
		none, ok1 := mse["No Correction"]
		nfm1, ok2 := mse["nFM=1-Bit"]
		if !ok1 || !ok2 || nfm1 <= 0 {
			return nil, fmt.Errorf("fig5 yield table lacks the none or nFM=1 row")
		}
		out["log10_reduction_nfm1_at_0.9"] = math.Log10(none / nfm1)
	case "workloads":
		for _, t := range res.Tables {
			name, ok := strings.CutPrefix(t.Title, "Workload summary - ")
			if !ok {
				continue
			}
			name, _, _ = strings.Cut(name, " (")
			if err := meanColumn(out, t, "mean quality", "mean_quality/"+name+"/"); err != nil {
				return nil, err
			}
		}
	case "recovery":
		t := findTable(res, "mean quality by arm and policy")
		if t == nil {
			return nil, fmt.Errorf("recovery result has no mean-quality table")
		}
		for _, policy := range t.Header[1:] {
			if err := meanColumn(out, t, policy, "mean_quality/"+policy+"/"); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("no headline rule for experiment %q", res.Experiment)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s result yielded no headlines", res.Experiment)
	}
	return out, nil
}

// meanColumn records one quality column of a per-arm table under
// prefix+scheme, rejecting qualities outside [0, 1].
func meanColumn(out map[string]float64, t *exp.Table, header, prefix string) error {
	c := column(t, header)
	if c < 0 {
		return fmt.Errorf("table %q lacks column %q", t.Title, header)
	}
	for _, row := range t.Rows {
		v, err := cell(row, c)
		if err != nil {
			return err
		}
		if v < 0 || v > 1 {
			return fmt.Errorf("table %q: quality %g outside [0, 1]", t.Title, v)
		}
		out[prefix+row[0]] = v
	}
	return nil
}

// findTable returns the first table whose title contains s.
func findTable(res *exp.Result, s string) *exp.Table {
	for _, t := range res.Tables {
		if strings.Contains(t.Title, s) {
			return t
		}
	}
	return nil
}

// column returns the index of the named header cell, or -1.
func column(t *exp.Table, name string) int {
	for i, h := range t.Header {
		if h == name {
			return i
		}
	}
	return -1
}

// cell parses one numeric cell of a row.
func cell(row []string, i int) (float64, error) {
	if i >= len(row) {
		return 0, fmt.Errorf("row %v has no column %d", row, i)
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(row[i], "x"), 64)
	if err != nil {
		return 0, fmt.Errorf("row %q: %w", row[0], err)
	}
	return v, nil
}
