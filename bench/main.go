// Command bench is the regression ledger of the SocialScope reproduction:
// five workloads driven over loopback HTTP through the real layers, five
// end-to-end metrics measured with tracing off, and a separate traced run
// that prices every layer from outside. BENCHMARK.json (one directory up)
// is its catalogue; README.md explains every workload and metric.
//
//	bash bench/run.sh                         # whole suite, both passes, human-readable
//	bash bench/run.sh --workload tagged_cold --seed 7 --seconds 15 --trace 0
//	bash bench/run.sh -compare a.json b.json  # verdict per (workload, metric)
//	bash bench/run.sh -aa                     # suite twice + compare, refreshes baseline/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

const outRoot = "out" // bench/out: build cache, durable directories, traces, results

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadFlag := fs.String("workload", "", "run one workload and end with the one-line JSON result (default: the whole suite)")
	seed := fs.Int64("seed", 42, "traffic seed: who asks what in which order, and what the writes write")
	seconds := fs.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", -1, "0: end-to-end run, tracing off; 1: traced per-layer run; -1: both (suite only)")
	short := fs.Bool("short", false, "smoke run: 1 s per run, percentile sample floors waived")
	outFile := fs.String("out", filepath.Join(outRoot, "result.json"), "suite result file")
	compare := fs.Bool("compare", false, "compare two suite result files: -compare a.json b.json")
	aa := fs.Bool("aa", false, "run the suite twice on this build, compare the two, and refresh baseline/")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *short {
		*seconds = 1
	}

	// Everything a run leaves on disk while it works lives in one
	// directory that goes away however the run ends.
	if err := os.MkdirAll(outRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	work, err := os.MkdirTemp(outRoot, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	sig, done := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	defer close(done)
	go func() {
		select {
		case <-sig:
			os.RemoveAll(work)
			os.Exit(130)
		case <-done:
		}
	}()

	base := runConfig{seed: *seed, seconds: *seconds, short: *short, outDir: work, spec: spec}
	switch {
	case *aa:
		return runAA(base, stdout, stderr)
	case *workloadFlag != "":
		wl := findWorkload(*workloadFlag)
		if wl == nil || (*trace != 0 && *trace != 1) {
			fmt.Fprintf(stderr, "bench: need a known --workload (%s) and --trace 0 or 1\n", workloadNames())
			return 2
		}
		base.wl = wl
		return runDriver(base, *trace == 1, stdout, stderr)
	default:
		res, code := runSuite(base, *trace, stdout, stderr)
		if err := writeJSON(*outFile, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nresult written to %s\n", *outFile)
		return code
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func runOne(cfg runConfig, traced bool) (runResult, error) {
	if traced {
		return runTraced(cfg)
	}
	return runEndToEnd(cfg)
}

// runDriver is the regression driver's entry: one workload, one trace
// mode, and as the last line of standard output one JSON object with
// exactly the keys correct, attempted, failed and metrics.
func runDriver(cfg runConfig, traced bool, stdout, stderr io.Writer) int {
	res, err := runOne(cfg, traced)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.wl.name, err)
		return 1
	}
	printRun(stdout, cfg, traced, res)
	type wireMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]wireMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]wireMetric)}
	for name, m := range res.Metrics {
		line.Metrics[name] = wireMetric{m.Value, m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !res.Correct {
		return 1
	}
	return 0
}

// machineFacts pin a result file to where and how it was measured.
type machineFacts struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
}

func facts(cfg runConfig) machineFacts {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return machineFacts{
		Commit: commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: cfg.seed, Seconds: cfg.seconds, Clients: loadClients,
	}
}

// workloadResult is one workload's two runs.
type workloadResult struct {
	EndToEnd *runResult `json:"end_to_end,omitempty"`
	PerLayer *runResult `json:"per_layer,omitempty"`
}

// suiteResult is the result file -compare reads. Maps marshal with
// sorted keys, so two files differ only where values do.
type suiteResult struct {
	Machine   machineFacts              `json:"machine"`
	Workloads map[string]workloadResult `json:"workloads"`
}

// runSuite runs every workload in the requested trace modes, printing
// each metric by name. The exit code is non-zero if any run errored,
// failed a correctness check, or had a failed op.
func runSuite(cfg runConfig, trace int, stdout, stderr io.Writer) (suiteResult, int) {
	res := suiteResult{Machine: facts(cfg), Workloads: make(map[string]workloadResult)}
	fmt.Fprintf(stdout, "bench: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %g s per run, closed loop of %d clients\n",
		res.Machine.Commit, res.Machine.GoVersion, res.Machine.NProc, res.Machine.GOMAXPROCS,
		cfg.seed, cfg.seconds, loadClients)
	code := 0
	for _, wl := range workloads {
		cfg.wl = wl
		var wr workloadResult
		for _, traced := range []bool{false, true} {
			if (trace == 0 && traced) || (trace == 1 && !traced) {
				continue
			}
			r, err := runOne(cfg, traced)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", wl.name, err)
				code = 1
				continue
			}
			printRun(stdout, cfg, traced, r)
			if !r.Correct || r.Failed > 0 {
				code = 1
			}
			if traced {
				wr.PerLayer = &r
			} else {
				wr.EndToEnd = &r
			}
		}
		res.Workloads[wl.name] = wr
	}
	return res, code
}

// printRun prints every metric of a run by name, with unit and spread.
func printRun(w io.Writer, cfg runConfig, traced bool, r runResult) {
	pass := "end-to-end (tracing off)"
	if traced {
		pass = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "\n== %s · %s · seed %d · %g s ==\n", cfg.wl.name, pass, cfg.seed, cfg.seconds)
	for _, m := range cfg.spec.metricsFor(traced) {
		got := r.Metrics[m.Name]
		line := fmt.Sprintf("  %-34s %16.4f %-6s", m.Name, got.Value, got.Unit)
		if got.Spread > 0 {
			line += fmt.Sprintf("  spread %.1f%%", 100*got.Spread)
		}
		if got.Raw > 0 {
			line += fmt.Sprintf("  (on the clock: %.4f)", got.Raw)
		}
		fmt.Fprintln(w, line)
	}
	if r.MachineSpeed > 0 {
		fmt.Fprintf(w, "  timings are scaled to yardstick speed 1; the machine ran at %.2f\n", r.MachineSpeed)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	if r.CheckErr != "" {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", r.CheckErr)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	errs := append([]string(nil), r.OpErrs...)
	sort.Strings(errs)
	for _, e := range errs {
		fmt.Fprintf(w, "  failed op: %s\n", e)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
