package experiments

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/ethselfish/ethselfish/internal/sim"
)

// precisionTestConfig keeps the study small enough for the test suite while
// still exercising the adaptive loop: a target the cells can actually reach
// at QuickBlocks within MaxRuns.
func precisionTestConfig() (Options, PrecisionConfig) {
	opts := Options{Blocks: QuickBlocks, Seed: 505}
	pc := PrecisionConfig{
		Alphas:       []float64{0.3},
		TargetRadius: 0.0015,
		MaxRuns:      64,
	}
	return opts, pc
}

// TestPrecisionStudy runs the full three-estimator study at one alpha and
// checks its core claims: every estimate brackets the analytic truth, the
// variance-reduced estimators report VRF > 1 and a projected run count no
// worse than plain, and the estimator ordering holds (the whole point of
// the study).
func TestPrecisionStudy(t *testing.T) {
	opts, pc := precisionTestConfig()
	res, err := Precision(opts, pc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (one per estimator)", len(res.Rows))
	}
	byEst := make(map[Estimator]PrecisionRow)
	for _, row := range res.Rows {
		byEst[row.Estimator] = row

		// The adaptive loop either met the target or exhausted MaxRuns.
		if row.Radius > pc.TargetRadius && row.Runs < pc.MaxRuns {
			t.Errorf("%v: stopped at %d runs with radius %v above target %v",
				row.Estimator, row.Runs, row.Radius, pc.TargetRadius)
		}
		// The estimate must sit near the closed-form truth; 5x the radius
		// leaves room for the finite-blocks bias at QuickBlocks.
		if math.Abs(row.Estimate-row.Analytic) > 5*row.Radius+0.01 {
			t.Errorf("%v: estimate %v far from analytic %v (radius %v)",
				row.Estimator, row.Estimate, row.Analytic, row.Radius)
		}
		if row.Runs < 2 || row.Runs > pc.MaxRuns {
			t.Errorf("%v: implausible run count %d", row.Estimator, row.Runs)
		}
	}

	plain := byEst[EstimatorPlain]
	if plain.VRF != 1 {
		t.Errorf("plain VRF = %v, want exactly 1", plain.VRF)
	}
	if plain.RunsToTarget != plain.PlainRunsToTarget {
		t.Errorf("plain projections disagree: %d vs %d", plain.RunsToTarget, plain.PlainRunsToTarget)
	}
	for _, est := range []Estimator{EstimatorControlVariate, EstimatorAntithetic} {
		row := byEst[est]
		if row.VRF <= 1 {
			t.Errorf("%v: VRF = %v, want > 1 on the Fig. 8 setting", est, row.VRF)
		}
		if row.RunsToTarget > row.PlainRunsToTarget {
			t.Errorf("%v: projects %d runs, worse than plain's %d",
				est, row.RunsToTarget, row.PlainRunsToTarget)
		}
	}
	// The control variate is the headline reducer here: the event share
	// absorbs the mining-race noise, so it must beat plain's realized cost.
	if cv := byEst[EstimatorControlVariate]; cv.Runs > plain.Runs {
		t.Errorf("control variate consumed %d runs, plain %d", cv.Runs, plain.Runs)
	}
}

// TestPrecisionDeterminism: the study is a pure function of its options.
func TestPrecisionDeterminism(t *testing.T) {
	opts, pc := precisionTestConfig()
	pc.MaxRuns = 16
	pc.TargetRadius = 1e-9 // force every cell to MaxRuns
	a, err := Precision(opts, pc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Precision(opts, pc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("identical precision studies differ")
	}
	par := opts
	par.Parallelism = 4
	c, err := Precision(par, pc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, c) {
		t.Error("precision study differs across parallelism")
	}
}

// TestPrecisionHonoursContext: a cancelled or expired Options.Ctx stops the
// study with the context's error instead of running it to completion.
func TestPrecisionHonoursContext(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	for _, tc := range []struct {
		ctx  context.Context
		want error
	}{{cancelled, context.Canceled}, {expired, context.DeadlineExceeded}} {
		for _, workers := range []int{1, 2} {
			opts, pc := precisionTestConfig()
			opts.Ctx, opts.Parallelism = tc.ctx, workers
			if _, err := Precision(opts, pc); !errors.Is(err, tc.want) {
				t.Errorf("%d workers: err = %v, want %v", workers, err, tc.want)
			}
		}
	}
}

// TestPrecisionJobError: a failing row reports its sweep coordinates like
// every sweep's, here the first run of the first alpha's plain job.
func TestPrecisionJobError(t *testing.T) {
	opts, pc := precisionTestConfig()
	opts.Parallelism = 1
	opts.Audit = sim.AuditConfig{Enabled: true, SampleEvery: -1} // invalid
	_, err := Precision(opts, pc)
	var je *JobError
	if !errors.As(err, &je) || !errors.Is(err, sim.ErrBadConfig) {
		t.Fatalf("err = %v (%T), want a *JobError wrapping sim.ErrBadConfig", err, err)
	}
	if je.Point != 0 || je.Run != 0 || je.Alpha != pc.Alphas[0] {
		t.Errorf("JobError = point %d alpha %g run %d, want point 0 alpha %g run 0",
			je.Point, je.Alpha, je.Run, pc.Alphas[0])
	}
}

// TestPrecisionValidation pins option errors and estimator names.
func TestPrecisionValidation(t *testing.T) {
	opts, pc := precisionTestConfig()
	bad := pc
	bad.Alphas = []float64{0.6}
	if _, err := Precision(opts, bad); !errors.Is(err, ErrBadOptions) {
		t.Errorf("alpha 0.6: err = %v, want ErrBadOptions", err)
	}
	bad = pc
	bad.MaxRuns = 2
	if _, err := Precision(opts, bad); !errors.Is(err, ErrBadOptions) {
		t.Errorf("MaxRuns 2: err = %v, want ErrBadOptions", err)
	}
	bad = pc
	bad.TargetRadius = -0.01
	if _, err := Precision(opts, bad); !errors.Is(err, ErrBadOptions) {
		t.Errorf("negative target radius: err = %v, want ErrBadOptions", err)
	}

	for est, name := range map[Estimator]string{
		EstimatorPlain: "plain", EstimatorControlVariate: "control-variate",
		EstimatorAntithetic: "antithetic", Estimator(7): "estimator(7)",
	} {
		if got := est.String(); got != name {
			t.Errorf("Estimator(%d).String() = %q, want %q", int(est), got, name)
		}
	}
}

// TestPrecisionTable: the renderer names every estimator and the target.
func TestPrecisionTable(t *testing.T) {
	opts, pc := precisionTestConfig()
	pc.MaxRuns = 8
	pc.TargetRadius = 0.05 // one batch suffices
	res, err := Precision(opts, pc)
	if err != nil {
		t.Fatal(err)
	}
	rendered := res.Table().String()
	for _, want := range []string{"plain", "control-variate", "antithetic", "runs-to-target"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("table missing %q:\n%s", want, rendered)
		}
	}
}
