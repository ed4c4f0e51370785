package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func loadResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict classifies how metric sp moved from a to b. A side whose own
// rounds are spread wider than the bound cannot resolve a change of that
// size, so the pair is unresolved, not unchanged.
func verdict(sp metricSpec, a, b metric) (worse float64, status string) {
	if sp.better == "lower" {
		worse = b.Value - a.Value
	} else {
		worse = a.Value - b.Value
	}
	if sp.bound == 0 { // an absolute bound: any worsening counts
		if worse > 0 {
			return worse, "regressed"
		}
		return worse, "ok"
	}
	worse = ratio(worse, a.Value)
	switch {
	case !sp.fixedList && (a.spread() > sp.bound || b.spread() > sp.bound):
		return worse, "unresolved"
	case worse > sp.bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the change, the bound and a verdict; it returns non-zero when anything
// regressed or when either side holds a run marked invalid.
func compareFiles(pathA, pathB string) int {
	a, err := loadResult(pathA)
	if err == nil {
		var b *resultFile
		if b, err = loadResult(pathB); err == nil {
			return compareResults(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareResults(a, b *resultFile) int {
	if pa, pb := a.Provenance, b.Provenance; pa.Seed != pb.Seed || pa.Seconds != pb.Seconds || pa.Rounds != pb.Rounds {
		fmt.Printf("note: the runs differ in seed, seconds or rounds (%d/%g/%d vs %d/%g/%d)\n",
			pa.Seed, pa.Seconds, pa.Rounds, pb.Seed, pb.Seconds, pb.Rounds)
	}
	code := 0
	fmt.Printf("%-13s %-24s %12s %12s %8s %7s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "verdict")
	for _, w := range workloads {
		ra, rb := a.Workloads[w.name], b.Workloads[w.name]
		if ra == nil || rb == nil {
			continue
		}
		for i, r := range []*workloadResult{ra, rb} {
			if !r.Valid {
				fmt.Printf("%-13s %c is not a valid run and proves nothing: %v\n", w.name, 'A'+i, r.Notes)
				code = 1
			}
		}
		for _, sp := range e2eSpecs {
			ma, okA := ra.EndToEnd[sp.name]
			mb, okB := rb.EndToEnd[sp.name]
			if !okA || !okB {
				continue
			}
			worse, status := verdict(sp, ma, mb)
			if status == "regressed" {
				code = 1
			}
			if sp.bound == 0 {
				fmt.Printf("%-13s %-24s %12.4f %12.4f %+8.4f %7s  %s\n", w.name, sp.name, ma.Value, mb.Value, worse, "0", status)
			} else {
				fmt.Printf("%-13s %-24s %12.4f %12.4f %+7.1f%% %6.0f%%  %s\n", w.name, sp.name, ma.Value, mb.Value, worse*100, sp.bound*100, status)
			}
		}
	}
	return code
}
