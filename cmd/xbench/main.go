// Command xbench regenerates every table and figure of the paper's
// evaluation (Section VIII) on the synthetic substrate. Each subcommand
// corresponds to one experiment; `xbench all` runs everything. DESIGN.md
// carries the experiment index; EXPERIMENTS.md records paper-vs-measured.
// How the system itself performs — serving surfaces, shards, storage,
// updates — is measured by the benchmark in bench/, not here.
//
// Usage:
//
//	xbench [-scale 1.0] [-reps 3] [-queries 50] <experiment>
//	paper experiments: tables3-6 fig4 fig5 fig6 table7 table8 table9 table10
//	extensions:        ablation-decay ablation-searchfor ablation-beam elca
//	or: all
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"xrefine/internal/datagen"
	"xrefine/internal/experiments"
)

var (
	scale   = flag.Float64("scale", 1.0, "DBLP corpus scale in (0,1]")
	reps    = flag.Int("reps", 3, "timed repetitions per measurement")
	queries = flag.Int("queries", 50, "effectiveness pool size")
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: xbench [flags] tables3-6|fig4|fig5|fig6|table7|table8|table9|table10|ablation-decay|ablation-searchfor|ablation-beam|elca|all")
		os.Exit(2)
	}
	runners := map[string]func() error{
		"fig4":               fig4,
		"fig5":               fig5,
		"fig6":               fig6,
		"tables3-6":          tables3to6,
		"table7":             table7,
		"table8":             table8,
		"table9":             table9,
		"table10":            table10,
		"ablation-decay":     ablationDecay,
		"ablation-searchfor": ablationSearchFor,
		"ablation-beam":      ablationBeam,
		"elca":               elcaCompare,
	}
	name := flag.Arg(0)
	if name == "all" {
		for _, n := range []string{
			"tables3-6", "fig4", "fig5", "fig6", "table7", "table8",
			"table9", "table10", "ablation-decay", "ablation-searchfor",
			"ablation-beam", "elca",
		} {
			if err := runners[n](); err != nil {
				fatal(err)
			}
		}
		return
	}
	run, ok := runners[name]
	if !ok {
		fatal(fmt.Errorf("unknown experiment %q", name))
	}
	if err := run(); err != nil {
		fatal(err)
	}
}

func corpus() (*experiments.Corpus, error) { return experiments.DBLPCorpus(*scale) }

func header(title string) *tabwriter.Writer {
	fmt.Printf("\n=== %s ===\n", title)
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func ms(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000) }

func fig4() error {
	c, err := corpus()
	if err != nil {
		return err
	}
	rows, err := experiments.Fig4(c, *reps)
	if err != nil {
		return err
	}
	w := header("Figure 4: Top-1 refinement time per sample query (ms, hot cache)")
	fmt.Fprintln(w, "query\top\tstack-refine\tSLE\tPartition\tstack-slca\tscan-slca\t|RQ results|\tverified")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%d\t%v\n",
			r.ID, r.Op, ms(r.StackRefine), ms(r.SLE), ms(r.Partition),
			ms(r.StackSLCA), ms(r.ScanSLCA), r.RQResultSize, r.Verified)
	}
	return w.Flush()
}

func fig5() error {
	ks := []int{1, 2, 3, 4, 5, 6}
	c, err := corpus()
	if err != nil {
		return err
	}
	batch, err := c.Workload(datagen.WorkloadConfig{Seed: 555, Queries: 40})
	if err != nil {
		return err
	}
	rows, err := experiments.Fig5(c, batch, ks, *reps)
	if err != nil {
		return err
	}
	w := header("Figure 5(a): effect of K on Top-K refinement, DBLP (batch avg, ms)")
	fmt.Fprintln(w, "K\tPartition\tSLE")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%s\t%s\n", r.K, ms(r.Partition), ms(r.SLE))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	bb, err := experiments.BaseballCorpus()
	if err != nil {
		return err
	}
	bbBatch, err := bb.Workload(datagen.WorkloadConfig{Seed: 556, Queries: 20})
	if err != nil {
		return err
	}
	bbRows, err := experiments.Fig5(bb, bbBatch, ks, *reps)
	if err != nil {
		return err
	}
	w = header("Figure 5(b): effect of K on Top-K refinement, Baseball (batch avg, ms)")
	fmt.Fprintln(w, "K\tPartition\tSLE")
	for _, r := range bbRows {
		fmt.Fprintf(w, "%d\t%s\t%s\n", r.K, ms(r.Partition), ms(r.SLE))
	}
	return w.Flush()
}

func fig6() error {
	scales := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	for i := range scales {
		scales[i] *= *scale
	}
	rows, err := experiments.Fig6(scales, 40, *reps)
	if err != nil {
		return err
	}
	w := header("Figure 6: effect of data size on Top-3 refinement (batch avg, ms)")
	fmt.Fprintln(w, "scale\tnodes\tPartition\tSLE")
	for _, r := range rows {
		fmt.Fprintf(w, "%d%%\t%d\t%s\t%s\n", r.ScalePct, r.Nodes, ms(r.Partition), ms(r.SLE))
	}
	return w.Flush()
}

func tables3to6() error {
	c, err := corpus()
	if err != nil {
		return err
	}
	tables, err := experiments.Tables3to6(c, 4)
	if err != nil {
		return err
	}
	order := []struct{ op, title string }{
		{"deletion", "Table III: sample query set for term deletion"},
		{"merging", "Table IV: sample query set for term merging"},
		{"split", "Table V: sample query set for term split"},
		{"substitution", "Table VI: sample query set for term substitution"},
	}
	for _, o := range order {
		w := header(o.title)
		fmt.Fprintln(w, "ID\toriginal query\tsuggested refinement\tdSim\tresult size")
		for _, r := range tables[o.op] {
			fmt.Fprintf(w, "%s\t%s\t%s\t%.1f\t%d\n",
				r.ID, experiments.JoinTerms(r.Original), experiments.JoinTerms(r.Suggested), r.DSim, r.ResultSize)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func table7() error {
	c, err := corpus()
	if err != nil {
		return err
	}
	rows, err := experiments.Table7(c)
	if err != nil {
		return err
	}
	w := header("Table VII: Top-4 refined queries with result counts (full ranking model)")
	fmt.Fprintln(w, "ID\toriginal query\tRQ1\tRQ2\tRQ3\tRQ4\trank-1 agreement")
	for _, r := range rows {
		cells := make([]string, 4)
		for i := range cells {
			if i < len(r.RQs) {
				cells[i] = fmt.Sprintf("%s,%d", experiments.JoinTerms(r.RQs[i].Keywords), r.RQs[i].Results)
			}
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%.2f\n",
			r.ID, experiments.JoinTerms(r.Query), cells[0], cells[1], cells[2], cells[3], r.Agreement)
	}
	return w.Flush()
}

func table8() error {
	c, err := corpus()
	if err != nil {
		return err
	}
	t8, _, err := experiments.BuildTable8(c, *queries*2)
	if err != nil {
		return err
	}
	w := header("Table VIII: query pool statistics")
	fmt.Fprintf(w, "pool size\t%d\n", t8.PoolSize)
	fmt.Fprintf(w, "avg keywords\t%.2f\n", t8.AvgLen)
	fmt.Fprintf(w, "need refinement\t%d\n", t8.NeedRefine)
	fmt.Fprintf(w, "refinable\t%d\n", t8.Refinable)
	for op, n := range t8.ByCorruption {
		fmt.Fprintf(w, "corruption %s\t%d\n", op, n)
	}
	return w.Flush()
}

func table9() error {
	c, err := corpus()
	if err != nil {
		return err
	}
	rows, err := experiments.Table9(c, *queries)
	if err != nil {
		return err
	}
	return printCG("Table IX: CG@1..4 by ranking model (RS0 full, RSi drops Guideline i)", rows)
}

func table10() error {
	c, err := corpus()
	if err != nil {
		return err
	}
	rows, err := experiments.Table10(c, *queries)
	if err != nil {
		return err
	}
	return printCG("Table X: CG@1..4 by (alpha, beta) weighting", rows)
}

func ablationDecay() error {
	c, err := corpus()
	if err != nil {
		return err
	}
	rows, err := experiments.AblationDecay(c, *queries)
	if err != nil {
		return err
	}
	return printCG("Ablation: Guideline-4 decay constant (paper asserts p=0.8)", rows)
}

func ablationSearchFor() error {
	c, err := corpus()
	if err != nil {
		return err
	}
	rows, err := experiments.AblationSearchFor(c, *queries)
	if err != nil {
		return err
	}
	w := header("Ablation: search-for candidate threshold θ (Guideline 3)")
	fmt.Fprintln(w, "theta\tavg candidates\tCG@1\tCG@2\tCG@3\tCG@4")
	for _, r := range rows {
		fmt.Fprintf(w, "%.2f\t%.2f\t%.3f\t%.3f\t%.3f\t%.3f\n",
			r.Theta, r.AvgCandidates, r.CG[0], r.CG[1], r.CG[2], r.CG[3])
	}
	return w.Flush()
}

func ablationBeam() error {
	rows, err := experiments.AblationBeam(200, 6, 2026)
	if err != nil {
		return err
	}
	w := header("Ablation: k-best DP beam width vs candidate recall (exhaustive ground truth)")
	fmt.Fprintln(w, "beam factor\trecall@6\toptimum always found")
	for _, r := range rows {
		fmt.Fprintf(w, "%dx\t%.3f\t%v\n", r.BeamFactor, r.Recall, r.OptimalAlways)
	}
	return w.Flush()
}

func elcaCompare() error {
	c, err := corpus()
	if err != nil {
		return err
	}
	rows, err := experiments.CompareELCA(c, 15)
	if err != nil {
		return err
	}
	w := header("Extension: SLCA vs ELCA result counts (ELCA admits independently-witnessed ancestors)")
	fmt.Fprintln(w, "query\t|SLCA|\t|ELCA|")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\n", experiments.JoinTerms(r.Query), r.SLCA, r.ELCA)
	}
	return w.Flush()
}

func printCG(title string, rows []experiments.CGRow) error {
	w := header(title)
	fmt.Fprintln(w, "model\tCG@1\tCG@2\tCG@3\tCG@4")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\t%.3f\n", r.Model, r.CG[0], r.CG[1], r.CG[2], r.CG[3])
	}
	return w.Flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xbench:", err)
	os.Exit(1)
}
