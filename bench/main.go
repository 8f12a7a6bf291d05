// Command bench is the repository's end-to-end benchmark. It runs four
// paper-scale workloads through the product's own entry points — the
// experiments drivers and the on-disk result cache — checks their outputs
// against oracles, and prints every metric by name with its unit. A traced
// run (-trace 1) reports per-layer metrics instead. See README.md.
//
//	go run . -workload fig8-paper -seed 1            # one end-to-end run
//	go run . -workload fig8-paper -seed 1 -trace 1   # one traced run
//	go run . -seed 1 -repeat 10 -o set.json          # every workload, seeds 1..10
//	go run . -compare a.json b.json                  # compare two sets
//
// The last line a single run prints is its result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// buildDir holds everything a run writes, relative to the working directory.
const buildDir = ".bench_build"

// defaultSeconds is the timed seconds of one run, as BENCHMARK.json's
// run_seconds.
const defaultSeconds = 20

func main() {
	if task := os.Getenv(childEnv); task != "" {
		os.Exit(childMain(task))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: every workload in turn)")
	seed := fs.Uint64("seed", 1, "seed of every row's random stream")
	seconds := fs.Float64("seconds", defaultSeconds, "timed seconds of repetitions per run")
	traced := fs.Int("trace", 0, "1: a traced run, reporting per-layer metrics")
	spans := fs.String("spans", filepath.Join(buildDir, "spans"), "directory traced runs write <workload>.spans.json to")
	repeat := fs.Int("repeat", 1, "runs per workload; run i uses seed+i")
	setOut := fs.String("o", "", "also write every run to this set file, for -compare")
	compare := fs.Bool("compare", false, "compare the two set files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two set files")
			return 2
		}
		return compareSets(fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() != 0 || (*traced != 0 && *traced != 1) || *repeat < 1 || !(*seconds > 0) {
		fs.Usage()
		return 2
	}
	selected := workloads
	if *name != "" {
		w, err := lookupWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		selected = []*workload{w}
	}

	set := setFile{
		Seed:       *seed,
		Trace:      *traced,
		Seconds:    *seconds,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	for i := 0; i < *repeat; i++ {
		for _, w := range selected {
			s := *seed + uint64(i)
			r, err := runOnce(w, w.paper, s, *seconds, *traced == 1, *spans, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", w.name, s, err)
				return 1
			}
			if err := printReport(stdout, &set, w.name, s, r); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			set.Runs = append(set.Runs, setRun{Workload: w.name, Seed: s, Result: r.res})
		}
	}
	if *setOut != "" {
		data, err := json.MarshalIndent(set, "", "  ")
		if err == nil {
			err = os.WriteFile(*setOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return 0
}

// runOnce runs one workload once in a private work directory under buildDir,
// removed afterwards.
func runOnce(w *workload, sz size, seed uint64, seconds float64, traced bool, spans string, stderr io.Writer) (*report, error) {
	work, err := filepath.Abs(filepath.Join(buildDir, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	if traced {
		return runTraced(w, sz, seed, work, spans)
	}
	return runEndToEnd(w, sz, seed, seconds, work, stderr)
}

// printReport prints a run's metrics, one per line with its unit and what it
// was computed from, then any failed checks, then the result as JSON on the
// last line.
func printReport(out io.Writer, set *setFile, workload string, seed uint64, r *report) error {
	fmt.Fprintf(out, "# %s seed %d: nproc %d, GOMAXPROCS %d, %s\n",
		workload, seed, set.Nproc, set.GOMAXPROCS, set.GoVersion)
	for _, d := range r.details {
		fmt.Fprintf(out, "%-30s %14.6g %-7s %s\n", d.name, d.value, unitOf(d.name), d.note)
	}
	for _, n := range r.notes {
		fmt.Fprintln(out, "#", n)
	}
	for _, f := range r.failures {
		fmt.Fprintln(out, "FAILED CHECK:", f)
	}
	data, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}
