// Command bench is the repository's performance benchmark: a real
// loopback-TCP FluentPS cluster in one process, four workloads, named
// end-to-end and per-layer metrics, output checks. See README.md.
//
//	bash bench/run.sh --seed 1                     every workload, each run in its own process
//	bash bench/run.sh --workload small-asp --seed 1 --seconds 24 --trace 0
//	bash bench/run.sh --compare bench/out/results.seed-1.json bench/out/results.seed-2.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the untraced window,
// and the whole measuring budget of a traced invocation.
const defaultSeconds = 24

// setupReps is how many times the untraced run sets the cluster up (the
// last one goes on into the window); setup_s is their median.
const setupReps = 5

// A traced invocation splits its seconds between the traced window, an
// untraced reference window of the same cluster, the solo baseline and
// the layer probes.
const (
	tracedShare = 0.40
	refShare    = 0.20
	soloShare   = 0.15
	probeShare  = 0.25
)

// outcome is the last line of a single run's standard output.
type outcome struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

// reported is a metric as the last line carries it; the sample counts and
// per-slice values stay in the raw result file.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// rawResult is what a single run leaves in the out directory for the
// all-workloads parent and for -compare.
type rawResult struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Seconds  int              `json:"seconds"`
	Trace    int              `json:"trace"`
	Correct  bool             `json:"correct"`
	Problems []string         `json:"problems,omitempty"`
	Metrics  map[string]value `json:"metrics"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload in this process (otherwise: all four, each in a child process)")
		seed         = flag.Int64("seed", 1, "seed of every generated input: deltas, sleep draws, dataset, ServerConfig.Seed")
		secs         = flag.Int("seconds", defaultSeconds, "measuring time of one run")
		trace        = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run and layer probes, per-layer metrics")
		outDir       = flag.String("out", filepath.Join("bench", "out"), "directory for raw results and traces")
		compare      = flag.Bool("compare", false, "compare two result files given as arguments")
	)
	flag.Parse()
	if err := run(*workloadName, *seed, *secs, *trace, *outDir, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workloadName string, seed int64, secs, trace int, outDir string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	if secs < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if workloadName == "" {
		return runAll(seed, secs, outDir)
	}
	wl, err := findWorkload(workloadName)
	if err != nil {
		return err
	}
	printHeader(os.Stdout, wl, seed, secs, trace)
	raw, out, err := runOne(os.Stdout, wl, seed, secs, trace, outDir)
	if err != nil {
		return err
	}
	if err := writeJSON(rawPath(outDir, wl.Name, trace), raw); err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return fmt.Errorf("%s: output checks failed", wl.Name)
	}
	return nil
}

func printHeader(w io.Writer, wl workload, seed int64, secs, trace int) {
	applyWorkers, applyStripes := resolvedApply()
	fmt.Fprintf(w, "fluentps bench: workload=%s seed=%d seconds=%d trace=%d\n", wl.Name, seed, secs, trace)
	fmt.Fprintf(w, "  %s\n", wl.Why)
	fmt.Fprintf(w, "  nproc=%d GOMAXPROCS=%d %s resolved ApplyWorkers=%d ApplyStripes=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), applyWorkers, applyStripes)
	fmt.Fprintf(w, "  cluster: %d servers x %d workers + %d RO streams, closed loop, one process; loopback, not a real link\n",
		wl.Servers, wl.Workers, wl.Readers)
}

// runOne measures one workload in this process.
func runOne(w io.Writer, wl workload, seed int64, secs, trace int, outDir string) (*rawResult, *outcome, error) {
	raw := &rawResult{Workload: wl.Name, Seed: seed, Seconds: secs, Trace: trace}
	out := &outcome{Metrics: map[string]reported{}}
	total := time.Duration(secs) * time.Second
	var runs []*runResult
	var err error
	if trace == 0 {
		raw.Metrics, runs, err = measureEndToEnd(w, wl, seed, total)
	} else {
		raw.Metrics, runs, err = measureLayers(w, wl, seed, total, outDir)
	}
	if err != nil {
		return nil, nil, err
	}
	for _, res := range runs {
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		raw.Problems = append(raw.Problems, res.Problems...)
	}
	for name, v := range raw.Metrics {
		if d, _ := findMetric(name); d.E2E == (trace == 0) {
			out.Metrics[name] = reported{v.Value, v.Unit}
		}
	}
	raw.Correct = len(raw.Problems) == 0 && out.Failed == 0
	out.Correct = raw.Correct
	for _, p := range raw.Problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	fmt.Fprintf(w, "  output checks: correct=%v attempted=%d failed=%d\n", out.Correct, out.Attempted, out.Failed)
	printMetrics(w, wl, raw.Metrics)
	return raw, out, nil
}

// measureEndToEnd is the untraced run: setupReps set-ups, the last of
// which goes on into the timed window. It returns every end-to-end metric
// of the workload, the contract's and the workload's own.
func measureEndToEnd(w io.Writer, wl workload, seed int64, window time.Duration) (map[string]value, []*runResult, error) {
	var runs []*runResult
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		opts := runOpts{}
		if rep == setupReps-1 {
			opts.window = window
		}
		res, err := runWorkload(wl, seed, opts)
		if err != nil {
			return nil, nil, err
		}
		runs = append(runs, res)
		setups = append(setups, res.Setup.Seconds())
	}
	res := runs[setupReps-1]
	fmt.Fprintf(w, "  step samples: n=%d in the window, highest resolved percentile p%g; n=%d per slice, p%g\n",
		res.Step.n, 100*highestPercentile(res.Step.n), res.Step.n/numSlices, 100*highestPercentile(res.Step.n/numSlices))
	metrics := windowMetrics(wl, res)
	metrics["setup_s"] = value{Value: median(setups), Unit: "s", N: setupReps, Slices: setups}
	for name := range metrics {
		if d, _ := findMetric(name); !d.E2E && !d.Untraced {
			delete(metrics, name)
		}
	}
	return metrics, runs, nil
}

// measureLayers is the traced invocation: a traced window, an untraced
// reference window, the solo baseline and the layer probes share the
// seconds; the traced window's spans go to the out directory.
func measureLayers(w io.Writer, wl workload, seed int64, total time.Duration, outDir string) (map[string]value, []*runResult, error) {
	share := func(f float64) time.Duration { return time.Duration(f * float64(total)) }
	var lr layerRuns
	var err error
	if lr.traced, err = runWorkload(wl, seed, runOpts{window: share(tracedShare), traced: true}); err != nil {
		return nil, nil, err
	}
	if lr.ref, err = runWorkload(wl, seed, runOpts{window: share(refShare)}); err != nil {
		return nil, nil, err
	}
	if lr.solo, err = runWorkload(wl, seed, runOpts{window: share(soloShare), solo: true}); err != nil {
		return nil, nil, err
	}
	in, err := makeInputs(wl, seed)
	if err != nil {
		return nil, nil, err
	}
	if lr.probes, err = runProbes(in, share(probeShare)); err != nil {
		return nil, nil, fmt.Errorf("layer probes: %w", err)
	}
	tracePath := filepath.Join(outDir, wl.Name+".trace.json")
	if err := writeTrace(tracePath, lr.traced.Rings); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(w, "  spans of the traced window: %s\n", tracePath)
	metrics, refP50 := layerMetrics(wl, lr)
	printSelfTimes(w, wl, metrics, refP50)
	return metrics, []*runResult{lr.traced, lr.ref, lr.solo}, nil
}

func rawPath(outDir, workload string, trace int) string {
	return filepath.Join(outDir, fmt.Sprintf("%s.trace%d.json", workload, trace))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultSet is the all-workloads result file -compare reads.
type resultSet struct {
	Seed    int64       `json:"seed"`
	Seconds int         `json:"seconds"`
	Runs    []rawResult `json:"runs"`
}

// runAll runs every workload, untraced then traced, each in its own child
// process so that no run inherits another's heap, pools or sockets.
func runAll(seed int64, secs int, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Seed: seed, Seconds: secs}
	failed := false
	for _, wl := range workloads {
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(self, "--workload", wl.Name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(secs), "--trace", fmt.Sprint(trace), "--out", outDir)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s trace=%d: %v\n", wl.Name, trace, err)
				failed = true
				continue
			}
			var raw rawResult
			data, err := os.ReadFile(rawPath(outDir, wl.Name, trace))
			if err == nil {
				err = json.Unmarshal(data, &raw)
			}
			if err != nil {
				return fmt.Errorf("read result of %s trace=%d: %w", wl.Name, trace, err)
			}
			set.Runs = append(set.Runs, raw)
			fmt.Println()
		}
	}
	path := filepath.Join(outDir, fmt.Sprintf("results.seed-%d.json", seed))
	if err := writeJSON(path, set); err != nil {
		return err
	}
	fmt.Printf("results: %s\n", path)
	if failed {
		return fmt.Errorf("at least one run failed")
	}
	return nil
}
