// Command omsrepro regenerates every table and figure of the paper's
// evaluation on the simulated MLC RRAM chip and synthetic workloads:
//
//	omsrepro [-scale S] [-seed N] [-only table1,fig7,...]
//
// Output is the text form of Table 1, Figures 7-13, the §5.2.2
// throughput comparison and the storage-density table. A scale of 1
// generates paper-sized datasets (1M-3M reference spectra); the
// default keeps runtime in minutes on a laptop.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
)

func main() {
	scale := flag.Float64("scale", 0.004, "dataset scale relative to Table 1 sizes")
	seed := flag.Int64("seed", 1, "random seed")
	only := flag.String("only", "", "comma-separated subset: table1,fig7,fig8,fig9,fig10,fig11,fig12,fig13,throughput,storage,ablations,characterize")
	quick := flag.Bool("quick", false, "reduce Monte-Carlo sample counts")
	csvDir := flag.String("csv", "", "run every experiment and write CSVs to this directory instead of printing text")
	flag.Parse()

	opts := experiments.Options{Scale: *scale, Seed: *seed, Quick: *quick}
	if *csvDir != "" {
		rr, err := report.Collect(opts)
		exitOn(err)
		written, err := rr.WriteDir(*csvDir)
		exitOn(err)
		for _, name := range written {
			fmt.Println(name)
		}
		fmt.Fprintf(os.Stderr, "omsrepro: wrote %d CSVs to %s in %v\n",
			len(written), *csvDir, rr.Finished.Sub(rr.Started).Round(time.Millisecond))
		return
	}
	want := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
	}
	run := func(name string) bool { return len(want) == 0 || want[name] }
	start := time.Now()

	if run("table1") {
		rows, err := experiments.Table1(opts)
		exitOn(err)
		fmt.Println(experiments.RenderTable1(rows))
	}
	if run("fig7") {
		rows, err := experiments.Figure7(opts)
		exitOn(err)
		fmt.Println(experiments.RenderFigure7(rows))
	}
	if run("fig8") {
		data, err := experiments.Figure8(opts)
		exitOn(err)
		fmt.Println(experiments.RenderFigure8(data))
	}
	if run("fig9") {
		enc, err := experiments.Figure9Encoding(opts)
		exitOn(err)
		fmt.Println(experiments.RenderFigure9(enc, "a: Errors from Encoding (%)", true))
		sea, err := experiments.Figure9Search(opts)
		exitOn(err)
		fmt.Println(experiments.RenderFigure9(sea, "b: Errors from Search (RMSE)", false))
	}
	if run("fig10") {
		results, err := experiments.Figure10(opts)
		exitOn(err)
		fmt.Println(experiments.RenderFigure10(results))
	}
	if run("fig11") {
		for _, ds := range []string{"iPRG2012", "HEK293"} {
			rows, err := experiments.Figure11(opts, ds)
			exitOn(err)
			fmt.Println(experiments.RenderFigure11(rows, ds))
		}
	}
	if run("fig12") {
		fmt.Println(experiments.RenderFigure12(experiments.Figure12()))
	}
	if run("fig13") {
		rows, err := experiments.Figure13(opts)
		exitOn(err)
		fmt.Println(experiments.RenderFigure13(rows))
	}
	if run("throughput") {
		fmt.Println(experiments.RenderThroughput(experiments.Throughput()))
	}
	if run("storage") {
		fmt.Println(experiments.RenderStorage(experiments.Storage()))
	}
	if run("ablations") {
		ls, err := experiments.AblationLevelSets(opts)
		exitOn(err)
		fmt.Println(experiments.RenderLevelSetAblation(ls))
		gr, err := experiments.AblationGrayCoding(opts)
		exitOn(err)
		fmt.Println(experiments.RenderGrayAblation(gr))
		ov, err := experiments.AblationOpenVsStandard(opts)
		exitOn(err)
		fmt.Println(experiments.RenderOpenVsStandard(ov))
		ch, err := experiments.AblationChimeric(opts)
		exitOn(err)
		fmt.Println(experiments.RenderChimeric(ch))
	}
	if run("characterize") {
		model, err := experiments.Characterized(opts)
		exitOn(err)
		fmt.Printf("Chip characterization: %v\n\n", model)
	}
	fmt.Fprintf(os.Stderr, "omsrepro: done in %v\n", time.Since(start).Round(time.Millisecond))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "omsrepro: %v\n", err)
		os.Exit(1)
	}
}
