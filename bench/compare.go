//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// loadResult reads a result.json.
func loadResult(path string) (resultFile, error) {
	var doc resultFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != resultSchema {
		return doc, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, resultSchema)
	}
	return doc, nil
}

// worsening is how much worse b is than a as a share of a, signed so
// that positive is worse whichever direction the metric improves in.
func worsening(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compare prints, per workload and end-to-end metric, how much worse
// b is than a against the metric's bound, and returns 1 when any row
// is beyond its bound or either file failed its correctness gate.
func compare(aPath, bPath string) int {
	a, err := loadResult(aPath)
	if err == nil {
		var b resultFile
		if b, err = loadResult(bPath); err == nil {
			return compareDocs(os.Stdout, a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 2
}

// compareDocs writes one row per workload and end-to-end metric to w.
func compareDocs(w io.Writer, a, b resultFile) int {
	byName := map[string]workloadResult{}
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	status := 0
	fmt.Fprintf(w, "%-15s %-20s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse", "bound")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(w, "%-15s missing from the second file\n", wa.Name)
			status = 1
			continue
		}
		if !wa.Correct || !wb.Correct {
			fmt.Fprintf(w, "%-15s correctness gate failed (a %t, b %t)\n", wa.Name, wa.Correct, wb.Correct)
			status = 1
		}
		for _, def := range endToEndMetrics {
			va, vb := wa.EndToEnd[def.Name].Value, wb.EndToEnd[def.Name].Value
			worse := worsening(def, va, vb)
			verdict := "ok"
			if worse > def.Bound {
				verdict = "REGRESSED"
				status = 1
			}
			fmt.Fprintf(w, "%-15s %-20s %14.4f %14.4f %+8.1f%% %6.0f%% %s\n",
				wa.Name, def.Name, va, vb, 100*worse, 100*def.Bound, verdict)
		}
	}
	return status
}
