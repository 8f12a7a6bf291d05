package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// Every repetition runs in a child process that re-executes the benchmark
// binary, one process at a time, as a fresh CLI invocation would: peak RSS
// and GC state belong to that repetition alone. childEnv carries a child's
// task, JSON-encoded; a binary started with it set runs the task instead of
// its command line.
const childEnv = "PERFBENCH_CHILD"

// Child modes.
const (
	modeFixture    = "fixture"    // journal the fixture sweep and its reference, untimed
	modeSetup      = "setup"      // set up, report ready, exit
	modeRepetition = "repetition" // set up, report ready, run one timed repetition, report it
)

// readyLine is the line a child prints once set up; the parent's set-up time
// runs from spawning the child until it reads this line.
const readyLine = "ready"

// extraSetups is how many set-up-only children follow each repetition's
// child. Set-up takes milliseconds, so samples taken back to back all catch
// the machine at one speed; spreading them over the run, like the
// repetitions, lets the median average over its changes of speed.
const extraSetups = 2

type childTask struct {
	Mode     string `json:"mode"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Size     size   `json:"size"`
	Work     string `json:"work"` // the run's work directory
}

// repReport is a repetition child's report.
type repReport struct {
	Seconds    float64  `json:"seconds"`     // wall time of the repetition
	AllocBytes uint64   `json:"alloc_bytes"` // heap allocated during it
	Rows       int      `json:"rows"`        // rows delivered, zero if the driver failed
	Err        string   `json:"err"`         // the driver's error, if any
	Failures   []string `json:"failures"`    // output checks that failed
}

func childMain(raw string) int {
	var task childTask
	if err := json.Unmarshal([]byte(raw), &task); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: bad task:", err)
		return 2
	}
	if err := runChild(task, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "bench child %s %s: %v\n", task.Mode, task.Workload, err)
		return 1
	}
	return 0
}

func runChild(task childTask, stdout io.Writer) error {
	w, err := lookupWorkload(task.Workload)
	if err != nil {
		return err
	}
	if task.Mode == modeFixture {
		return writeFixture(w, task.Size, task.Seed, task.Work)
	}
	cfgs, err := setUp(w, task.Size)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, readyLine)
	if task.Mode == modeSetup {
		return nil
	}

	// One repetition: the same seed into a fresh cache, so every
	// repetition of a run does identical work.
	dir := filepath.Join(task.Work, "rep")
	if err := freshCache(task.Size, task.Work, dir); err != nil {
		return err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc := ms.TotalAlloc
	start := time.Now()
	out, err := repetition(w, dir, options(task.Size, task.Seed))
	took := time.Since(start)
	runtime.ReadMemStats(&ms)
	rep := repReport{Seconds: took.Seconds(), AllocBytes: ms.TotalAlloc - alloc}
	if err != nil {
		rep.Err = err.Error()
	} else {
		if err := checkReference(task.Size, task.Work, &out); err != nil {
			return err
		}
		rep.Rows = len(cfgs) * task.Size.Runs
		rep.Failures = out.failures
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(rep)
}

// spawn runs one child task to completion. It returns the child's set-up
// time (zero if it never reported ready), the lines it printed after the
// ready line, and its peak resident set in bytes.
func spawn(task childTask, stderr io.Writer) (setup time.Duration, lines []string, peakRSS int64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, nil, 0, err
	}
	raw, err := json.Marshal(task)
	if err != nil {
		return 0, nil, 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, 0, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		if sc.Text() == readyLine && setup == 0 {
			setup = time.Since(start)
			continue
		}
		lines = append(lines, sc.Text())
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return 0, nil, 0, fmt.Errorf("%s child: %w", task.Mode, err)
	}
	if scanErr != nil {
		return 0, nil, 0, fmt.Errorf("%s child output: %w", task.Mode, scanErr)
	}
	if setup == 0 && task.Mode != modeFixture {
		return 0, nil, 0, fmt.Errorf("%s child never reported ready", task.Mode)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		peakRSS = ru.Maxrss * 1024 // Linux reports kilobytes
	}
	return setup, lines, peakRSS, nil
}

// runEndToEnd measures one workload: the fixture child (if any), then
// repetitions back to back, each in its own child and starting when the
// previous one returned, each followed by extraSetups set-up-only children.
// It starts another repetition only while the mean repetition so far would
// still end within seconds of timed wall time, so a run measures about that
// long and never less than one repetition.
func runEndToEnd(w *workload, sz size, seed uint64, seconds float64, work string, stderr io.Writer) (*report, error) {
	task := childTask{Workload: w.name, Seed: seed, Size: sz, Work: work}
	if sz.FixtureRuns > 0 {
		task.Mode = modeFixture
		if _, _, _, err := spawn(task, stderr); err != nil {
			return nil, err
		}
	}
	r := newReport()
	var reps, setups, peaks []float64
	var elapsed float64
	var alloc uint64
	rows := 0
	for i := 0; i == 0 || elapsed+elapsed/float64(i) <= seconds; i++ {
		task.Mode = modeRepetition
		setup, lines, peak, err := spawn(task, stderr)
		if err != nil {
			return nil, err
		}
		if len(lines) != 1 {
			return nil, fmt.Errorf("repetition child printed %d report lines, want 1", len(lines))
		}
		var rep repReport
		if err := json.Unmarshal([]byte(lines[0]), &rep); err != nil {
			return nil, fmt.Errorf("repetition child report: %w", err)
		}
		if rep.Err != "" {
			r.res.Failed++
			fmt.Fprintf(stderr, "bench: %s repetition %d: %s\n", w.name, i, rep.Err)
		}
		r.failures = append(r.failures, rep.Failures...)
		reps = append(reps, rep.Seconds)
		setups = append(setups, setup.Seconds())
		peaks = append(peaks, float64(peak))
		elapsed += rep.Seconds
		alloc += rep.AllocBytes
		rows += rep.Rows

		task.Mode = modeSetup
		for k := 0; k < extraSetups; k++ {
			setup, _, _, err := spawn(task, stderr)
			if err != nil {
				return nil, err
			}
			setups = append(setups, setup.Seconds())
		}
	}

	q1, med, q3 := quartiles(reps)
	r.set("sweep_s", med, fmt.Sprintf("q1 %.4f q3 %.4f n=%d", q1, q3, len(reps)))
	r.set("rows_per_s", float64(rows)/elapsed, fmt.Sprintf("%d rows in %.3f s", rows, elapsed))
	q1, med, q3 = quartiles(setups)
	r.set("setup_s", med, fmt.Sprintf("q1 %.4f q3 %.4f n=%d", q1, q3, len(setups)))
	q1, med, q3 = quartiles(peaks)
	r.set("peak_rss_mb", med/1e6, fmt.Sprintf("q1 %.2f q3 %.2f n=%d", q1/1e6, q3/1e6, len(peaks)))
	r.set("alloc_mb", float64(alloc)/1e6/float64(len(reps)), fmt.Sprintf("n=%d", len(reps)))
	r.res.Attempted = len(reps)
	r.res.Correct = r.res.Failed == 0 && len(r.failures) == 0
	return r, nil
}
