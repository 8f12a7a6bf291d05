package experiments

import (
	"fmt"

	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/sim"
	"github.com/ethselfish/ethselfish/internal/table"
)

// Tournament is the N-pool counterpart of the strategy comparison: instead
// of measuring each strategy alone against the honest crowd, it plays every
// pair of specs as two competing pools on the same chain — the regime
// Grunspan & Pérez-Marco show makes Ethereum's strategy space
// combinatorially richer than Bitcoin's — and reports a per-pool
// relative-revenue matrix over an alpha grid.

// tournamentAlphas is the per-pool hash power of each match; both pools
// receive the same alpha so the matrix is power-symmetric and cells are
// comparable across opponents.
var tournamentAlphas = []float64{0.15, 0.25, 0.33}

// defaultTournamentSpecs is the field entered when the caller names no
// specs.
func defaultTournamentSpecs() []sim.StrategySpec {
	return []sim.StrategySpec{
		sim.MustStrategySpec("honest"),
		sim.MustStrategySpec("algorithm1"),
		sim.MustStrategySpec("stubborn:lead=1"),
		sim.MustStrategySpec("stubborn:trail=1"),
	}
}

// TournamentMatch is one played pairing at one alpha point.
type TournamentMatch struct {
	Alpha          float64
	SpecA, SpecB   string
	ShareA, ShareB float64 // mean relative revenue share across runs
	StaleFraction  float64 // blocks lost to the rivalry
}

// TournamentResult is the round-robin outcome: every match, plus the
// alpha-averaged relative-revenue matrix.
type TournamentResult struct {
	// Names lists the entrant specs in matrix order.
	Names []string

	// Alphas is the per-pool hash-power grid the matches were played at.
	Alphas []float64

	// Matches holds every played (pair × alpha) cell.
	Matches []TournamentMatch

	// Share[i][j] is the mean relative revenue share entrant i earned
	// racing entrant j as two pools of equal power, averaged over the
	// alpha grid. The diagonal is self-play (mirror matches).
	Share [][]float64
}

// Tournament plays a round-robin (including self-play) among the given
// strategy specs: each pair races as two competing pools of equal hash
// power at every alpha of the grid, at gamma = 0.5, with the full
// (match × run) grid scheduled on the experiment engine. With no specs it
// plays the default field (honest, algorithm1, stubborn:lead=1,
// stubborn:trail=1).
func Tournament(opts Options, specs ...sim.StrategySpec) (TournamentResult, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return TournamentResult{}, err
	}
	if len(specs) == 0 {
		specs = defaultTournamentSpecs()
	}
	if len(specs) < 2 {
		return TournamentResult{}, fmt.Errorf("%w: a tournament needs at least 2 strategy specs", ErrBadOptions)
	}

	out := TournamentResult{Alphas: tournamentAlphas}
	for _, spec := range specs {
		out.Names = append(out.Names, spec.String())
	}

	// One match per unordered pair (self-play included) per alpha.
	type pairing struct{ a, b int }
	var pairs []pairing
	for i := range specs {
		for j := i; j < len(specs); j++ {
			pairs = append(pairs, pairing{i, j})
		}
	}
	jobs := make([]simJob, 0, len(pairs)*len(tournamentAlphas))
	for _, pair := range pairs {
		for _, alpha := range tournamentAlphas {
			pop, err := mining.MultiAgent(alpha, alpha)
			if err != nil {
				return TournamentResult{}, err
			}
			jobs = append(jobs, simJob{
				alpha: alpha,
				pop:   pop,
				specs: []sim.StrategySpec{specs[pair.a], specs[pair.b]},
				cfg:   sim.Config{Gamma: fig8Gamma},
			})
		}
	}
	series, err := runSimGrid(opts, jobs)
	if err != nil {
		return TournamentResult{}, err
	}

	share := make([][]float64, len(specs))
	for i := range share {
		share[i] = make([]float64, len(specs))
	}
	for pi, pair := range pairs {
		for ai, alpha := range tournamentAlphas {
			s := series[pi*len(tournamentAlphas)+ai]
			shareA := s.Mean(func(r *sim.Result) float64 { return r.ShareOf(1) }).Mean()
			shareB := s.Mean(func(r *sim.Result) float64 { return r.ShareOf(2) }).Mean()
			var stale, total float64
			for ri := range s.Runs {
				r := &s.Runs[ri]
				stale += float64(r.StaleCount)
				total += float64(r.RegularCount + r.UncleCount + r.StaleCount)
			}
			match := TournamentMatch{
				Alpha:  alpha,
				SpecA:  out.Names[pair.a],
				SpecB:  out.Names[pair.b],
				ShareA: shareA,
				ShareB: shareB,
			}
			if total > 0 {
				match.StaleFraction = stale / total
			}
			out.Matches = append(out.Matches, match)
			if pair.a == pair.b {
				// Self-play: both seats run the same spec, so average
				// the mirror seats into the diagonal.
				share[pair.a][pair.a] += (shareA + shareB) / 2
			} else {
				share[pair.a][pair.b] += shareA
				share[pair.b][pair.a] += shareB
			}
		}
	}
	for i := range share {
		for j := range share[i] {
			share[i][j] /= float64(len(tournamentAlphas))
		}
	}
	out.Share = share
	return out, nil
}

// Score returns entrant i's round-robin score: its mean relative revenue
// share across all opponents (self-play included).
func (r TournamentResult) Score(i int) float64 {
	var total float64
	for _, s := range r.Share[i] {
		total += s
	}
	return total / float64(len(r.Share[i]))
}

// Winner returns the name of the entrant with the highest score.
func (r TournamentResult) Winner() string {
	best := 0
	for i := range r.Names {
		if r.Score(i) > r.Score(best) {
			best = i
		}
	}
	return r.Names[best]
}

// Table renders the alpha-averaged relative-revenue matrix with round-robin
// scores.
func (r TournamentResult) Table() *table.Table {
	headers := append([]string{"strategy \\ vs"}, r.Names...)
	headers = append(headers, "score")
	t := table.New(
		fmt.Sprintf("Tournament — relative revenue vs each rival (two equal pools, gamma=%.1f, alphas %v)",
			fig8Gamma, r.Alphas),
		headers...,
	)
	for i, name := range r.Names {
		values := append(append([]float64(nil), r.Share[i]...), r.Score(i))
		_ = t.AddNumericRow(name, 4, values...)
	}
	return t
}

// MatchTable renders every played match.
func (r TournamentResult) MatchTable() *table.Table {
	t := table.New(
		"Tournament matches — per-pool relative revenue share",
		"alpha (pair)", "share A", "share B", "stale frac",
	)
	for _, m := range r.Matches {
		label := fmt.Sprintf("%.2f (%s vs %s)", m.Alpha, m.SpecA, m.SpecB)
		_ = t.AddNumericRow(label, 4, m.ShareA, m.ShareB, m.StaleFraction)
	}
	return t
}
