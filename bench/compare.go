package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// verdict of one (metric, workload) pair between a baseline and a
// candidate result file.
type verdict string

const (
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// judge applies a metric's bound to a baseline a and a candidate b. The
// tolerance is Bound as a share of each side's own value (or absolute);
// a side whose window slices spread (IQR) wider than its tolerance cannot
// resolve a move of that size, whichever way the medians fell.
func judge(d metricDef, a, b value) verdict {
	tol := func(v value) float64 {
		t := d.Bound
		if !d.Abs {
			t *= math.Abs(v.Value)
		}
		return max(t, d.Floor)
	}
	if iqr(a.Slices) > tol(a) || iqr(b.Slices) > tol(b) {
		return unresolved
	}
	worse := b.Value - a.Value
	if d.Better == "higher" {
		worse = -worse
	}
	if d.TwoSided {
		worse = math.Abs(worse)
	}
	if worse > tol(a) {
		return regressed
	}
	return unchanged
}

func readResults(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// compareFiles prints one row per (end-to-end metric, workload) of the
// untraced runs both files hold, and fails when any regressed.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "baseline %s (seed %d, %d s)  candidate %s (seed %d, %d s)\n",
		pathA, a.Seed, a.Seconds, pathB, b.Seed, b.Seconds)
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %9s %8s  %s\n", "workload", "metric", "baseline", "candidate", "change", "bound", "verdict")
	counts := map[verdict]int{}
	for _, ra := range a.Runs {
		if ra.Trace != 0 {
			continue
		}
		for _, rb := range b.Runs {
			if rb.Trace != 0 || rb.Workload != ra.Workload {
				continue
			}
			for _, d := range metricDefs {
				va, okA := ra.Metrics[d.Name]
				vb, okB := rb.Metrics[d.Name]
				if !okA || !okB || d.Bound == 0 || !d.appliesTo(ra.Workload) {
					continue
				}
				v := judge(d, va, vb)
				counts[v]++
				bound := fmt.Sprintf("%.0f%%", d.Bound*100)
				if d.Abs {
					bound = fmt.Sprintf("%g", d.Bound)
				}
				change := "-"
				if va.Value != 0 {
					change = fmt.Sprintf("%+.1f%%", (vb.Value/va.Value-1)*100)
				}
				fmt.Fprintf(w, "%-16s %-20s %14.4f %14.4f %9s %8s  %s\n", ra.Workload, d.Name, va.Value, vb.Value, change, bound, v)
			}
		}
	}
	fmt.Fprintf(w, "%d unchanged, %d regressed, %d unresolved\n", counts[unchanged], counts[regressed], counts[unresolved])
	if counts[regressed] > 0 {
		return fmt.Errorf("%d (metric, workload) pairs regressed", counts[regressed])
	}
	return nil
}
