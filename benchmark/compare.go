package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles applies the end-to-end bounds (the ones BENCHMARK.json
// records) to two result documents of a run over every workload: a is the
// baseline, b the candidate.  It names every metric/workload pair that is
// worse beyond its bound and every workload whose failed share rose, and
// returns 1 if there is any, 0 otherwise.
func compareFiles(a, b string, stdout, stderr io.Writer) int {
	var docs [2]*document
	for i, path := range []string{a, b} {
		d, err := readDocument(path)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		docs[i] = d
	}
	return compareDocuments(docs[0], docs[1], stdout)
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads in the document", path)
	}
	return &d, nil
}

func compareDocuments(base, cand *document, w io.Writer) int {
	bad := 0
	for _, wl := range workloadDefs {
		a, b := base.Workloads[wl.name], cand.Workloads[wl.name]
		if a == nil || b == nil {
			if a != b {
				fmt.Fprintf(w, "%s: present in only one document\n", wl.name)
				bad++
			}
			continue
		}
		if fa, fb := ratio(float64(a.Failed), float64(a.Attempted)), ratio(float64(b.Failed), float64(b.Attempted)); fb > fa {
			fmt.Fprintf(w, "%s: failed share rose from %d/%d to %d/%d\n", wl.name, a.Failed, a.Attempted, b.Failed, b.Attempted)
			bad++
		}
		for _, d := range endToEnd {
			va, oka := a.Metrics[d.name]
			vb, okb := b.Metrics[d.name]
			if !oka || !okb || va.Value == 0 {
				continue // a traced document, or nothing to take a share of
			}
			worse := (vb.Value - va.Value) / va.Value
			if d.better == "higher" {
				worse = -worse
			}
			if worse > d.bound {
				fmt.Fprintf(w, "%s %s: %.6g -> %.6g %s, worse by %.1f%% (bound %.0f%%)\n",
					wl.name, d.name, va.Value, vb.Value, d.unit, 100*worse, 100*d.bound)
				bad++
			}
		}
	}
	if bad > 0 {
		return 1
	}
	fmt.Fprintln(w, "no metric worse beyond its bound")
	return 0
}
