package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// failedShareSlack is the absolute amount failed_share may grow.
const failedShareSlack = 0.001

func readResult(path string) (Result, error) {
	var r Result
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// verdict judges one metric of one workload. A metric whose own spread in
// the base run exceeds its bound cannot be told apart from noise.
func verdict(m metric, base, next Sample) string {
	if m.Name == "failed_share" {
		switch {
		case next.Median > base.Median+failedShareSlack:
			return "worse"
		case next.Median < base.Median-failedShareSlack:
			return "better"
		}
		return "unchanged"
	}
	if base.spread() > m.Bound {
		return "unresolved"
	}
	worsening := (next.Median - base.Median) / base.Median
	if m.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case worsening > m.Bound:
		return "worse"
	case worsening < -m.Bound:
		return "better"
	}
	return "unchanged"
}

// compareFiles prints one row per workload and end-to-end metric that both
// result files hold, and reports whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	next := map[string]Report{}
	for _, rep := range b.Reports {
		next[rep.Workload] = rep
	}
	fmt.Fprintf(w, "%-15s %-22s %14s %14s %18s %7s  %s\n", "workload", "metric", "base", "new", "ratio (new/base)", "bound", "verdict")
	anyWorse := false
	judged := append(append([]metric(nil), endToEnd...), workloadMetrics...)
	for _, base := range a.Reports {
		other, ok := next[base.Workload]
		if !ok {
			continue
		}
		for _, m := range judged {
			sa, okA := base.Metrics[m.Name]
			sb, okB := other.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(m, sa, sb)
			anyWorse = anyWorse || v == "worse"
			ratio := "-"
			if sa.Median != 0 {
				ratio = fmt.Sprintf("%.4f of %.4g", sb.Median/sa.Median, sa.Median)
			}
			fmt.Fprintf(w, "%-15s %-22s %14.4f %14.4f %18s %7.3f  %s\n", base.Workload, m.Name, sa.Median, sb.Median, ratio, m.Bound, v)
		}
	}
	return anyWorse, nil
}
