// Command benchmark is the repository's one end-to-end and per-layer
// benchmark for the whilepar facade and the whilepard service.
//
//	bash benchmark/run.sh                       every workload, tracing off, one child process each
//	bash benchmark/run.sh -trace 1              the traced run: per-layer metrics and a span file per workload
//	bash benchmark/run.sh -workload spec-light  one workload, in this process
//	bash benchmark/run.sh -list                 every metric with unit, direction, bound and workloads
//	bash benchmark/run.sh -compare a.json b.json
//
// It is a module of its own (go.mod in this directory), built by run.sh
// from the root of a checkout.
//
// With -workload the last line of standard output is the result object
// the builder's contract prescribes; without it, one JSON document that
// holds every workload's result.  See README.md in this directory.
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
	"strconv"
	"text/tabwriter"
)

// runSeconds is the timed window per workload; BENCHMARK.json repeats it.
const runSeconds = 15

// document is the output of a run over every workload.
type document struct {
	HostCPUs  int                `json:"host_cpus"`
	Procs     int                `json:"procs"`
	GoVersion string             `json:"go_version"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Workloads map[string]*result `json:"workloads"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload in this process (default: all, one child process each)")
		seed     = fs.Int64("seed", 1, "seed for every generated input")
		seconds  = fs.Float64("seconds", runSeconds, "timed window per workload")
		trace    = fs.Int("trace", 0, "1: traced run (per-layer metrics, span file); 0: end-to-end metrics")
		list     = fs.Bool("list", false, "print every metric and exit")
		compare  = fs.Bool("compare", false, "compare two result documents: -compare a.json b.json")
		outDir   = fs.String("out", filepath.Join("benchmark", "results"), "directory for result and span files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *list:
		writeList(stdout)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0, procs: benchProcs(),
		setups: 5, scale: 1, outDir: *outDir}

	if *workload != "" {
		r, err := runWorkload(*workload, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		writeTable(stderr, *workload, cfg, r)
		line, _ := json.Marshal(r)
		fmt.Fprintln(stdout, string(line))
		if !r.Correct {
			return 1
		}
		return 0
	}

	doc := document{HostCPUs: runtime.NumCPU(), Procs: cfg.procs, GoVersion: runtime.Version(),
		Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Workloads: map[string]*result{}}
	code := 0
	for _, w := range workloadDefs {
		r, err := runChild(w.name, cfg, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		doc.Workloads[w.name] = r
		if !r.Correct {
			code = 1
		}
	}
	out, _ := json.MarshalIndent(doc, "", "  ")
	fmt.Fprintln(stdout, string(out))
	name := "e2e.json"
	if cfg.trace {
		name = "layers.json"
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err == nil {
		err = os.WriteFile(filepath.Join(cfg.outDir, name), append(out, '\n'), 0o644)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark: saving the result:", err)
			return 1
		}
	}
	return code
}

// runChild re-executes this binary for one workload, so peak RSS,
// allocation totals and GC state do not leak between workloads.
func runChild(workload string, cfg config, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace, "-out", cfg.outDir)
	cmd.Stderr = stderr // each child prints its own table as it finishes
	out, err := cmd.Output()
	var r result
	if jerr := json.Unmarshal(lastLine(out), &r); jerr != nil {
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("child printed no result: %w", jerr)
	}
	return &r, nil
}

func lastLine(out []byte) []byte {
	for len(out) > 0 && out[len(out)-1] == '\n' {
		out = out[:len(out)-1]
	}
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] == '\n' {
			return out[i+1:]
		}
	}
	return out
}

// writeTable is the human-readable view of one workload's result: every
// metric of the mode, then attempted, failed and the sample counts.
func writeTable(w io.Writer, workload string, cfg config, r *result) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "%s: host_cpus=%d procs=%d %s seed=%d seconds=%g trace=%v\n",
		workload, runtime.NumCPU(), cfg.procs, runtime.Version(), cfg.seed, cfg.seconds, cfg.trace)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, d := range defs {
		if reaches(d, workload) {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.name, r.Metrics[d.name].Value, d.unit)
		} else {
			fmt.Fprintf(tw, "  %s\t-\t%s (layer bypassed)\n", d.name, d.unit)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "  attempted %d, failed %d; timings behind each figure: %v\n", r.Attempted, r.Failed, r.Samples)
	if r.FirstFailure != "" {
		fmt.Fprintf(w, "  first failure: %s\n", r.FirstFailure)
	}
}
