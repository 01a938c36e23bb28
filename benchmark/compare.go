package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict applies the choosing-metrics §6 rule to one end-to-end cell:
// b's median may be worse than a's by at most the bound; where the
// run-to-run spread is wider than the bound the cell is unresolved, not
// unchanged, unless every run of b reads better (or worse) than every
// run of a.
func verdict(a, b summary, better string, bound float64) string {
	if a.Median == 0 {
		return "unresolved"
	}
	sign := 1.0 // worse = larger
	if better == "higher" {
		sign = -1
	}
	worse := sign * (b.Median - a.Median) / a.Median
	if a.Spread > bound || b.Spread > bound {
		switch {
		case separated(b.Values, a.Values, sign):
			return "improved"
		case separated(a.Values, b.Values, sign):
			return "regressed"
		}
		return "unresolved"
	}
	switch {
	case worse > bound:
		return "regressed"
	case worse < -bound:
		return "improved"
	}
	return "unchanged"
}

// separated reports whether every value of x reads better than every
// value of y.
func separated(x, y []float64, sign float64) bool {
	for _, xv := range x {
		for _, yv := range y {
			if sign*(xv-yv) >= 0 {
				return false
			}
		}
	}
	return len(x) > 0 && len(y) > 0
}

// compareFiles prints, for every workload and end-to-end metric, both
// medians, their difference and the verdict, then every exact count that
// differs between or within the files. A regressed cell or a moved
// exact count is an error.
func compareFiles(root, pathA, pathB string, w io.Writer) error {
	c, err := loadContract(root)
	if err != nil {
		return err
	}
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s (%d runs, commit %s, seed %d)\nb: %s (%d runs, commit %s, seed %d)\n",
		pathA, len(a.Runs), a.Env.Commit, a.Env.Seed, pathB, len(b.Runs), b.Env.Commit, b.Env.Seed)
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %9s %9s %9s %6s  %s\n",
		"workload", "metric", "a median", "b median", "b vs a %", "a sprd %", "b sprd %", "bound", "verdict")
	counts := map[string]int{}
	for _, wl := range workloads {
		for _, d := range endToEnd {
			sa, okA := a.Summary[wl.name][d.Name]
			sb, okB := b.Summary[wl.name][d.Name]
			if !okA || !okB {
				continue
			}
			bound := c.bound(d.Name)
			v := verdict(sa, sb, d.Better, bound)
			counts[v]++
			delta := 0.0
			if sa.Median != 0 {
				delta = 100 * (sb.Median - sa.Median) / sa.Median
			}
			fmt.Fprintf(w, "%-14s %-18s %14s %14s %+9.2f %9.2f %9.2f %6.2f  %s\n", wl.name, d.Name,
				strconv.FormatFloat(sa.Median, 'g', 7, 64), strconv.FormatFloat(sb.Median, 'g', 7, 64),
				delta, 100*sa.Spread, 100*sb.Spread, bound, v)
		}
	}
	moved := 0
	for _, wl := range workloads {
		for _, d := range perLayer {
			if !d.Exact {
				continue
			}
			sa, okA := a.Summary[wl.name][d.Name]
			sb, okB := b.Summary[wl.name][d.Name]
			if !okA || !okB {
				continue
			}
			if !constant(sa.Values) || !constant(sb.Values) || sa.Median != sb.Median {
				moved++
				fmt.Fprintf(w, "%-14s exact count %s moved: a %v, b %v\n", wl.name, d.Name, sa.Values, sb.Values)
			}
		}
	}
	fmt.Fprintf(w, "cells: %d unchanged, %d improved, %d regressed, %d unresolved; %d exact counts moved\n",
		counts["unchanged"], counts["improved"], counts["regressed"], counts["unresolved"], moved)
	if counts["regressed"] > 0 || moved > 0 {
		return fmt.Errorf("%d cells regressed, %d exact counts moved", counts["regressed"], moved)
	}
	return nil
}

func constant(v []float64) bool {
	for _, x := range v {
		if x != v[0] {
			return false
		}
	}
	return true
}
