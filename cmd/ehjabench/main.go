// Command ehjabench regenerates the tables behind every figure of the
// paper's evaluation section.
//
// Examples:
//
//	ehjabench -fig all                 # every figure at paper scale
//	ehjabench -fig fig10 -scale 0.1    # the skew study at 1/10 scale
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ehjoin/internal/expt"
)

func main() {
	var (
		fig      = flag.String("fig", "all", `figure to reproduce ("fig2".."fig13", "all", or "none")`)
		ablation = flag.String("ablation", "", `ablation study to run ("blocking-migration", "ooc-policy", or "all")`)
		scale    = flag.Float64("scale", 1.0, "workload scale factor (tuples and memory budget)")
		verbose  = flag.Bool("v", false, "print per-run progress")
		csv      = flag.Bool("csv", false, "emit comma-separated values instead of aligned text")
	)
	flag.Parse()

	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}
	s := expt.NewSession(expt.Options{Scale: *scale, Progress: progress})

	start := time.Now()
	var tables []*expt.Table
	var err error
	switch *fig {
	case "all":
		tables, err = s.RunAll()
	case "none":
	default:
		var t *expt.Table
		t, err = s.Run(strings.ToLower(*fig))
		tables = append(tables, t)
	}
	if err == nil && *ablation != "" {
		names := []string{*ablation}
		if *ablation == "all" {
			names = expt.Ablations()
		}
		for _, n := range names {
			var t *expt.Table
			t, err = s.RunAblation(n)
			if err != nil {
				break
			}
			tables = append(tables, t)
		}
	}
	for _, t := range tables {
		if t == nil {
			continue
		}
		if *csv {
			fmt.Printf("# %s: %s (%s)\n%s\n", t.Figure, t.Title, t.Unit, t.CSV())
		} else {
			fmt.Println(t.Format())
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ehjabench:", err)
		os.Exit(1)
	}
	fmt.Printf("reproduced %d figure(s) at scale %g in %.1fs wall time\n",
		len(tables), *scale, time.Since(start).Seconds())
}
