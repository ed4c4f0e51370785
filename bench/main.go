// Command bench is the repository's one pinned benchmark: four workloads
// replayed through a real xserve subprocess for the end-to-end metrics,
// and through the layers' public functions in-process, one span per call,
// for the per-layer metrics. README.md in this directory documents every
// metric and workload; BENCHMARK.json at the repository root is the
// contract the driver runs it by.
//
//	go run -C bench .                              every workload, both modes
//	go run -C bench . -workload refine_mix -trace 0
//	go run -C bench . -compare out/A.json out/B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// provenance is what two result files must agree on to be comparable.
type provenance struct {
	Seed       int64   `json:"seed"`
	CorpusSeed int64   `json:"corpus_seed"`
	Seconds    float64 `json:"seconds"`
	Rounds     int     `json:"rounds"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
}

type corpusInfo struct {
	Nodes      int `json:"nodes"`
	Vocabulary int `json:"vocabulary"`
	XMLBytes   int `json:"xml_bytes"`
}

// resultFile is the JSON a run writes and -compare reads.
type resultFile struct {
	Provenance provenance                 `json:"provenance"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

func main() { os.Exit(run()) }

func run() int {
	cfg := defaultConfig()
	var (
		name    = flag.String("workload", "", "workload to run (default: all): refine_mix, repeat_zipf, sharded_http, live_update")
		trace   = flag.Int("trace", -1, "0: end-to-end run against xserve, tracing off; 1: traced in-process run; -1: both")
		outDir  = flag.String("out", "out", "directory for the result JSON and trace_<workload>.jsonl")
		compare = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of the requests and update batches (the corpus seed is fixed)")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "timed seconds per workload, split over the rounds")
	flag.IntVar(&cfg.rounds, "rounds", cfg.rounds, "rounds per workload; each sets up a fresh store and server")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || cfg.rounds < 1 || cfg.seconds <= 0 || *trace < -1 || *trace > 1 {
		flag.Usage()
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	modes := []int{0, 1}
	if *trace >= 0 {
		modes = []int{*trace}
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*outDir, "tmp-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cleanup := func() {
		killAll()
		os.RemoveAll(tmp)
	}
	defer cleanup() // also runs when this goroutine panics

	// A hung server fails the run; it does not hang whoever runs us. One
	// workload in one mode gets twice its timed seconds (a slow machine
	// stretches a round until its fixed-count reads are done) plus two
	// minutes for building, set-up and the traced run's fixed work.
	limit := time.Duration(len(selected)*len(modes)) * (time.Duration(2*cfg.seconds*float64(time.Second)) + 2*time.Minute)
	abort := func(why string) {
		fmt.Fprintln(os.Stderr, "bench:", why)
		cleanup()
		os.Exit(1)
	}
	timer := time.AfterFunc(limit, func() { abort(fmt.Sprintf("deadline of %v exceeded", limit)) })
	defer timer.Stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		abort(fmt.Sprintf("received %v", s))
	}()

	bin, err := buildXserve(tmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	b := &bench{cfg: cfg, bin: bin, tmp: tmp}
	out := resultFile{Provenance: b.provenance(), Workloads: map[string]*workloadResult{}}

	code := 0
	var last *workloadResult
	for _, w := range selected {
		merged := &workloadResult{Valid: true}
		out.Workloads[w.name] = merged
		for _, mode := range modes {
			var res *workloadResult
			if mode == 0 {
				res, err = b.runE2E(w)
			} else {
				res, err = b.runTrace(w, *outDir)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			printResult(w, mode, res)
			if res.Failed > 0 || !res.Valid {
				code = 1
			}
			last = res
			merge(merged, res)
		}
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(*outDir, "BENCH.json"), append(raw, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if len(selected) == 1 && len(modes) == 1 {
		printDriverLine(modes[0], last)
	}
	return code
}

// merge folds one mode's result into the workload's entry of the result
// file.
func merge(dst, src *workloadResult) {
	if src.EndToEnd != nil {
		dst.EndToEnd = src.EndToEnd
	}
	if src.PerLayer != nil {
		dst.PerLayer, dst.Scoped = src.PerLayer, src.Scoped
	}
	dst.Attempted += src.Attempted
	dst.Failed += src.Failed
	dst.Valid = dst.Valid && src.Valid
	dst.Notes = append(dst.Notes, src.Notes...)
	if src.Requests > dst.Requests {
		dst.Requests, dst.CountReads = src.Requests, src.CountReads
	}
	dst.Corpus = src.Corpus
}

func (b *bench) provenance() provenance {
	p := provenance{
		Seed: b.cfg.seed, CorpusSeed: corpusSeed, Seconds: b.cfg.seconds, Rounds: b.cfg.rounds,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitCommit: "unknown",
	}
	// The checkout a driver runs in is not a git repository; that is fine.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.GitCommit = strings.TrimSpace(string(out))
	}
	return p
}

// printResult prints every metric of one mode by name, with its unit and,
// where it has them, its per-round values or sample count.
func printResult(w workload, mode int, res *workloadResult) {
	title, set := "end to end, tracing off", res.EndToEnd
	if mode == 1 {
		title, set = "per layer, traced run", metricSet{}
		for _, part := range []metricSet{res.PerLayer, res.Scoped} {
			for n, m := range part {
				set[n] = m
			}
		}
	}
	fmt.Printf("== %s: %s (%d attempted, %d failed, valid=%v)\n", w.name, title, res.Attempted, res.Failed, res.Valid)
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := set[n]
		line := fmt.Sprintf("  %-36s %14.4f %-10s", n, m.Value, m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf(" n=%d", m.Samples)
		}
		if len(m.Rounds) > 1 {
			line += fmt.Sprintf(" rounds=%.4g spread=%.1f%%", m.Rounds, m.spread()*100)
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	for _, note := range res.Notes {
		fmt.Println("  note:", note)
	}
}

// printDriverLine prints the one JSON object a driver reads from the last
// line: with tracing off the end-to-end metrics BENCHMARK.json lists, in
// the traced run the per-layer metrics every workload reports. A run the
// load generator limited is not a correct one.
func printDriverLine(mode int, res *workloadResult) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if mode == 0 {
		for _, sp := range e2eSpecs {
			if m, ok := res.EndToEnd[sp.name]; ok && sp.driver {
				metrics[sp.name] = value{m.Value, m.Unit}
			}
		}
	} else {
		for n, m := range res.PerLayer {
			metrics[n] = value{m.Value, m.Unit}
		}
	}
	attempted := res.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, _ := json.Marshal(map[string]any{ // plain numbers, strings and bools always marshal
		"correct":   res.Failed == 0 && res.Valid,
		"attempted": attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	fmt.Println(string(line))
}
