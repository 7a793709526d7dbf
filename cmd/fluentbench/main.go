// Command fluentbench regenerates the paper's tables and figures.
//
// Usage:
//
//	fluentbench -list
//	fluentbench -exp fig6
//	fluentbench -exp all -quick
//	fluentbench -exp tab4 -csv
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/fluentps/fluentps/internal/experiments"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available experiments and exit")
		exp     = flag.String("exp", "", "experiment id to run, or 'all'")
		quick   = flag.Bool("quick", false, "reduced iteration counts (~1s per experiment)")
		csv     = flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
		out     = flag.String("out", "", "also write each experiment's tables as CSV files into this directory")
		seed    = flag.Int64("seed", 1, "experiment seed")
		hotpath = flag.Bool("hotpath", false, "benchmark the push/pull hot path (ns, bytes, allocs per step) and exit")
		adapt   = flag.Bool("adaptive", false, "run the adaptive-vs-fixed regret sweep over heterogeneous traces, emit JSON on stdout, and exit")
		scen    = flag.Bool("scenarios", false, "run the scenario matrix (policy × topology × fault), emit the JSON scorecard on stdout, and exit")
		fanout  = flag.Bool("fanout", false, "run the read-tier fan-out sweep (RO snapshots vs locked pulls at 1..64 readers), emit JSON on stdout, and exit")
	)
	flag.Parse()

	if *hotpath {
		if err := runHotpath(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "fluentbench: hotpath: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *adapt {
		// Stdout carries only the JSON document so the Makefile can redirect
		// it into BENCH_adaptive.json; the human-readable digest goes to
		// stderr.
		results := experiments.AdaptiveSweep(experiments.Options{Quick: *quick, Seed: *seed})
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "fluentbench: adaptive: %v\n", err)
			os.Exit(1)
		}
		for _, r := range results {
			fmt.Fprintf(os.Stderr, "%-12s adaptive %.4f vs best fixed %s %.4f (ratio %.3f)\n",
				r.Trace, r.AdaptiveRegret, r.BestFixed, r.BestFixedRegret, r.Ratio)
		}
		return
	}
	if *scen {
		// Stdout carries only the JSON scorecard (BENCH_scenarios.json);
		// the per-group digest goes to stderr.
		res, err := experiments.ScenarioSweep(experiments.Options{Quick: *quick, Seed: *seed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "fluentbench: scenarios: %v\n", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "fluentbench: scenarios: %v\n", err)
			os.Exit(1)
		}
		for _, g := range res.Groups {
			fmt.Fprintf(os.Stderr, "%-8s %-13s adaptive %.4f vs best fixed %-11s %.4f (ratio %.3f, win=%v)\n",
				g.Topology, g.Fault, g.AdaptiveRegret, g.BestFixed, g.BestFixedRegret, g.Ratio, g.Win)
		}
		fmt.Fprintf(os.Stderr, "adaptive dominance: %d/%d hazard groups (%.0f%%)\n",
			res.HazardWins, res.HazardGroups, 100*res.DominanceRate)
		return
	}

	if *fanout {
		// Stdout carries only the JSON document (BENCH_fanout.json); the
		// per-cell digest and gate verdicts go to stderr.
		res, err := experiments.FanoutSweep(context.Background(), experiments.Options{Quick: *quick, Seed: *seed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "fluentbench: fanout: %v\n", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "fluentbench: fanout: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprint(os.Stderr, res.Digest())
		if !res.ScaleGate || !res.P99Gate {
			fmt.Fprintln(os.Stderr, "fluentbench: fanout: acceptance gates FAILED")
			os.Exit(1)
		}
		return
	}

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-10s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun one with: fluentbench -exp <id>")
		}
		return
	}

	var toRun []*experiments.Experiment
	if *exp == "all" {
		toRun = experiments.All()
	} else {
		e, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "fluentbench: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		toRun = []*experiments.Experiment{e}
	}

	opts := experiments.Options{Quick: *quick, Seed: *seed}
	for _, e := range toRun {
		fmt.Printf("== %s: %s\n", e.ID, e.Title)
		fmt.Printf("   paper: %s\n\n", e.Paper)
		start := time.Now()
		rep, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fluentbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if *csv {
			for _, t := range rep.Tables {
				fmt.Println(t.CSV())
			}
			for _, n := range rep.Notes {
				fmt.Println("#", n)
			}
		} else {
			fmt.Print(rep.String())
		}
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "fluentbench: %v\n", err)
				os.Exit(1)
			}
			for i, t := range rep.Tables {
				name := fmt.Sprintf("%s_%d.csv", e.ID, i)
				if err := os.WriteFile(filepath.Join(*out, name), []byte(t.CSV()), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "fluentbench: %v\n", err)
					os.Exit(1)
				}
			}
		}
		fmt.Printf("\n   (%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
}
