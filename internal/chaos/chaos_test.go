package chaos

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/parallel"
	"github.com/ethselfish/ethselfish/internal/sim"
)

func population(t *testing.T) *mining.Population {
	t.Helper()
	pop, err := mining.TwoAgent(0.35)
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func cleanConfig(t *testing.T) sim.Config {
	return sim.Config{Population: population(t), Gamma: 0.5, Blocks: 2000, Seed: 7}
}

// faultConfig saturates every decision point with the given fault so it is
// guaranteed to fire within the run.
func faultConfig(t *testing.T, f Fault) sim.Config {
	cfg := cleanConfig(t)
	cfg.Strategies = []sim.Strategy{Strategy{Fault: f, Rate: 1, Seed: 99}}
	return cfg
}

// TestReactionFaultsFailClosed: every malformed-reaction fault must surface
// as sim.ErrBadReaction — the engine rejects the reaction instead of
// corrupting the race state — and the failed Runner must produce a
// bit-identical clean run afterwards.
func TestReactionFaultsFailClosed(t *testing.T) {
	clean := cleanConfig(t)
	want, err := sim.Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	for _, fault := range []Fault{FaultUnpublish, FaultOverPublish, FaultFalseCommit, FaultConflict} {
		t.Run(fault.String(), func(t *testing.T) {
			rn := sim.NewRunner()
			if _, err := rn.Run(faultConfig(t, fault)); !errors.Is(err, sim.ErrBadReaction) {
				t.Fatalf("err = %v, want sim.ErrBadReaction", err)
			}
			// The Runner that just failed mid-run must be clean for reuse.
			got, err := rn.Run(clean)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("Runner reused after a failed run diverged from a fresh run")
			}
		})
	}
}

// TestSparseFaultsFailClosed: faults injected at a low per-frame rate are
// still caught with a typed error. Injection hashes the race frame (the
// only input a shared Strategy instance may depend on), so a given seed
// fires only on some frames; the test scans seeds until each fault lands on
// a frame the run actually visits.
func TestSparseFaultsFailClosed(t *testing.T) {
	for _, fault := range []Fault{FaultUnpublish, FaultOverPublish, FaultFalseCommit, FaultConflict} {
		fired := false
		for seed := uint64(1); seed <= 20 && !fired; seed++ {
			cfg := cleanConfig(t)
			cfg.Blocks = 10000
			cfg.Strategies = []sim.Strategy{Strategy{Fault: fault, Rate: 0.05, Seed: seed}}
			_, err := sim.Run(cfg)
			if err == nil {
				continue
			}
			if !errors.Is(err, sim.ErrBadReaction) {
				t.Errorf("%s seed %d: err = %v, want sim.ErrBadReaction", fault, seed, err)
			}
			fired = true
		}
		if !fired {
			t.Errorf("%s: never fired across 20 seeds at rate 0.05", fault)
		}
	}
}

// TestFaultDeterminism: the same seed breaks the same run with the same
// error — injection is a pure function of (seed, frame), not of scheduling.
func TestFaultDeterminism(t *testing.T) {
	cfg := cleanConfig(t)
	for seed := uint64(1); seed <= 20; seed++ {
		cfg.Strategies = []sim.Strategy{Strategy{Fault: FaultConflict, Rate: 0.05, Seed: seed}}
		_, errA := sim.Run(cfg)
		if errA == nil {
			continue
		}
		_, errB := sim.Run(cfg)
		if errB == nil || errA.Error() != errB.Error() {
			t.Errorf("seed %d: same seed, different failures: %v vs %v", seed, errA, errB)
		}
		return
	}
	t.Error("no seed fired at rate 0.05; cannot exercise determinism")
}

// TestInjectedPanicSurfacesIndexed: a strategy panic inside a RunMany batch
// is recovered into an indexed *parallel.PanicError instead of crashing the
// process, with the injected cause visible through the chain. Every run
// panics at rate 1, so the error names run 0, the first failure a
// sequential batch meets, however the workers interleave.
func TestInjectedPanicSurfacesIndexed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := faultConfig(t, FaultPanic)
	_, err := sim.RunMany(cfg, 8)
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *parallel.PanicError", err, err)
	}
	if pe.Index != 0 {
		t.Errorf("panic reported at index %d, want the lowest (0)", pe.Index)
	}
	if !errors.Is(err, parallel.ErrPanic) || !errors.Is(err, ErrInjectedPanic) {
		t.Errorf("error chain %v lacks ErrPanic or ErrInjectedPanic", err)
	}
}

// TestInjectorWrap: the worker-pool injector fires deterministically, keeps
// the lowest-index-wins contract, and its panics are recovered by parallel.
func TestInjectorWrap(t *testing.T) {
	in := Injector{Rate: 0.3, Seed: 5}
	lowest := -1
	for i := 0; i < 50; i++ {
		if in.Hit(i) {
			lowest = i
			break
		}
	}
	if lowest < 0 {
		t.Fatal("injector at rate 0.3 never fired in 50 items")
	}
	_, err := parallel.Map(4, 50, Wrap(in, func(i int) (int, error) { return i, nil }))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}

	in.Panic = true
	_, err = parallel.Map(4, 50, Wrap(in, func(i int) (int, error) { return i, nil }))
	var pe *parallel.PanicError
	if !errors.As(err, &pe) || pe.Index != lowest {
		t.Errorf("err = %v, want *parallel.PanicError at index %d", err, lowest)
	}
	if !errors.Is(err, ErrInjectedPanic) {
		t.Errorf("error chain %v lacks ErrInjectedPanic", err)
	}
}
