package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// setFile is a set of runs, written by -o and read by -compare.
type setFile struct {
	Seed       uint64   `json:"seed"` // run i of a workload used seed+i
	Trace      int      `json:"trace"`
	Seconds    float64  `json:"seconds"`
	Nproc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Runs       []setRun `json:"runs"`
}

type setRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Result   result `json:"result"`
}

func readSet(path string) (*setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values returns one metric's value from every run of a workload.
func (s *setFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// incorrect counts the runs that failed a check or a repetition.
func (s *setFile) incorrect() int {
	n := 0
	for _, r := range s.Runs {
		if !r.Result.Correct || r.Result.Failed > 0 {
			n++
		}
	}
	return n
}

// judge classifies one metric's values in two sets against its bound, a
// share of A's median: "differs" when the medians are further apart than the
// bound, "unresolved" when either set's quartile spread is wider than it.
func judge(a, b []float64, bound float64) []string {
	var verdict []string
	ma, mb := median(a), median(b)
	if d := mb - ma; d > bound*ma || -d > bound*ma {
		verdict = append(verdict, "differs")
	}
	if spread(a) > bound || spread(b) > bound {
		verdict = append(verdict, "unresolved")
	}
	return verdict
}

// compareSets prints, for each workload and end-to-end metric, both sets'
// medians and quartiles with a verdict. It returns 1 when any pair differs or
// is unresolved or any run was incorrect, 0 otherwise.
func compareSets(pathA, pathB string, stdout io.Writer) int {
	a, err := readSet(pathA)
	if err != nil {
		fmt.Fprintln(stdout, "bench:", err)
		return 2
	}
	b, err := readSet(pathB)
	if err != nil {
		fmt.Fprintln(stdout, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "A: %s (seed %d, nproc %d, GOMAXPROCS %d, %s)\n", pathA, a.Seed, a.Nproc, a.GOMAXPROCS, a.GoVersion)
	fmt.Fprintf(stdout, "B: %s (seed %d, nproc %d, GOMAXPROCS %d, %s)\n", pathB, b.Seed, b.Nproc, b.GOMAXPROCS, b.GoVersion)
	fmt.Fprintf(stdout, "%-20s %-12s %-6s %-32s %-32s %s\n", "workload", "metric", "bound", "A median [q1 q3] n", "B median [q1 q3] n", "verdict")
	flagged := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			va, vb := a.values(w.name, m.Name), b.values(w.name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict := judge(va, vb, m.Bound)
			if len(verdict) > 0 {
				flagged++
			} else {
				verdict = []string{"same"}
			}
			fmt.Fprintf(stdout, "%-20s %-12s %-6.2f %-32s %-32s %s\n", w.name, m.Name, m.Bound,
				summary(va), summary(vb), strings.Join(verdict, ", "))
		}
	}
	bad := a.incorrect() + b.incorrect()
	if bad > 0 {
		fmt.Fprintf(stdout, "%d runs failed a check or a repetition\n", bad)
	}
	if flagged > 0 || bad > 0 {
		return 1
	}
	return 0
}

func summary(xs []float64) string {
	q1, m, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g] %d", m, q1, q3, len(xs))
}
