package experiments

import (
	"fmt"
	"strconv"

	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/parallel"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/table"
)

// fig9Schedules are the uncle-reward variants of Fig. 9: fixed values
// 2/8, 4/8, 7/8 (regardless of distance) and Ethereum's distance-dependent
// Ku function.
func fig9Schedules() ([]rewards.Schedule, []string, error) {
	var (
		schedules []rewards.Schedule
		names     []string
	)
	for _, ku := range []float64{2.0 / 8, 4.0 / 8, 7.0 / 8} {
		s, err := rewards.Constant(ku, rewards.NoDepthLimit)
		if err != nil {
			return nil, nil, err
		}
		schedules = append(schedules, s)
		names = append(names, fmt.Sprintf("Ku=%d/8", int(ku*8)))
	}
	schedules = append(schedules, rewards.Ethereum())
	names = append(names, "Ku(.)")
	return schedules, names, nil
}

// Fig9Row is one alpha point of Fig. 9: selfish, honest, and total absolute
// revenue for each uncle-reward variant (scenario 1, gamma = 0.5).
type Fig9Row struct {
	Alpha float64

	// Pool, Honest and Total are indexed like Fig9Result.Schedules.
	Pool   []float64
	Honest []float64
	Total  []float64
}

// Fig9Result reproduces Fig. 9.
type Fig9Result struct {
	// Schedules names the uncle-reward variants, in column order.
	Schedules []string
	Rows      []Fig9Row
}

// Fig9 computes the revenue curves of Fig. 9 for all four uncle-reward
// variants from the closed-form model, solving the alpha × schedule grid on
// the experiment engine. The driver is analytic: only opts.Parallelism is
// used (simulation effort does not apply).
func Fig9(opts Options) (Fig9Result, error) {
	if err := opts.validate(); err != nil {
		return Fig9Result{}, err
	}
	schedules, names, err := fig9Schedules()
	if err != nil {
		return Fig9Result{}, err
	}
	alphas := sweep(fig8AlphaStart, fig8AlphaMax, fig8AlphaStep)
	rows, err := parallel.Map(opts.Parallelism, len(alphas), func(i int) (Fig9Row, error) {
		alpha := alphas[i]
		row := Fig9Row{Alpha: alpha}
		for _, schedule := range schedules {
			m, err := core.New(core.Params{Alpha: alpha, Gamma: fig8Gamma, Schedule: schedule})
			if err != nil {
				return Fig9Row{}, err
			}
			rev := m.Revenue()
			row.Pool = append(row.Pool, rev.PoolAbsolute(core.Scenario1))
			row.Honest = append(row.Honest, rev.HonestAbsolute(core.Scenario1))
			row.Total = append(row.Total, rev.TotalAbsolute(core.Scenario1))
		}
		return row, nil
	})
	if err != nil {
		return Fig9Result{}, err
	}
	return Fig9Result{Schedules: names, Rows: rows}, nil
}

// MaxTotal returns the largest total revenue across the sweep — the "soars
// to 135%" observation of Sec. V-B.
func (r Fig9Result) MaxTotal() float64 {
	var max float64
	for _, row := range r.Rows {
		for _, total := range row.Total {
			if total > max {
				max = total
			}
		}
	}
	return max
}

// Table renders all twelve series.
func (r Fig9Result) Table() *table.Table {
	headers := []string{"alpha"}
	for _, name := range r.Schedules {
		headers = append(headers, name+" pool")
	}
	for _, name := range r.Schedules {
		headers = append(headers, name+" honest")
	}
	for _, name := range r.Schedules {
		headers = append(headers, name+" total")
	}
	t := table.New(
		"Fig. 9 — Revenue under different uncle rewards (gamma=0.5, scenario 1)",
		headers...,
	)
	for _, row := range r.Rows {
		var values []float64
		values = append(values, row.Pool...)
		values = append(values, row.Honest...)
		values = append(values, row.Total...)
		_ = t.AddNumericRow(formatAlpha(row.Alpha), 4, values...)
	}
	return t
}

func formatAlpha(alpha float64) string {
	return strconv.FormatFloat(alpha, 'f', 3, 64)
}
