package experiments

import (
	"fmt"
	"sort"
	"strconv"

	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/table"
)

// Table1 reproduces Table I: the reward types of Ethereum and Bitcoin.
// The content is definitional; it is included so every paper artifact has a
// regenerating command.
func Table1() *table.Table {
	t := table.New(
		"Table I — Mining rewards in Ethereum and Bitcoin",
		"reward", "ethereum", "bitcoin", "purpose",
	)
	rows := [][4]string{
		{"Static Reward", "yes", "yes", "Compensate for miners' mining cost"},
		{"Uncle Reward", "yes", "no", "Reduce centralization trend of mining"},
		{"Nephew Reward", "yes", "no", "Encourage miners to reference uncle blocks"},
		{"Transaction Fee (Gas Cost)", "yes", "yes", "Transaction execution; resist network attack"},
	}
	for _, row := range rows {
		_ = t.AddRow(row[0], row[1], row[2], row[3])
	}
	return t
}

// Fig6 reproduces Fig. 6: the 2018 pool hash-power snapshot.
func Fig6() *table.Table {
	t := table.New(
		"Fig. 6 — Top mining pools' hash power in Ethereum (2018-09)",
		"pool", "share",
	)
	for _, pool := range mining.Ethereum2018Pools() {
		_ = t.AddRow(pool.Name, strconv.FormatFloat(pool.Share*100, 'f', 2, 64)+"%")
	}
	return t
}

// Fig7 dumps the structure of the selfish-mining Markov chain (the diagram
// of Fig. 7) up to the given lead: every state with its outgoing transition
// probabilities at the supplied alpha and gamma, with pi from the closed
// forms.
func Fig7(alpha, gamma float64, maxLead int) (*table.Table, error) {
	if maxLead < 4 || maxLead > 64 {
		return nil, fmt.Errorf("%w: maxLead %d out of [4, 64]", ErrBadOptions, maxLead)
	}
	m, err := core.New(core.Params{Alpha: alpha, Gamma: gamma})
	if err != nil {
		return nil, err
	}
	chain := core.BuildChain(alpha, gamma, maxLead)
	states := chain.States()
	sort.Slice(states, func(i, j int) bool {
		if states[i].S != states[j].S {
			return states[i].S < states[j].S
		}
		return states[i].H < states[j].H
	})
	t := table.New(
		fmt.Sprintf("Fig. 7 — Markov process structure (alpha=%.2f, gamma=%.2f, truncated at lead %d)",
			alpha, gamma, maxLead),
		"state", "pi (closed form)", "transitions",
	)
	for _, s := range states {
		var desc string
		for _, succ := range chain.Successors(s) {
			if desc != "" {
				desc += "  "
			}
			desc += fmt.Sprintf("%v:%.3f", succ, chain.Prob(s, succ))
		}
		if err := t.AddRow(s.String(), strconv.FormatFloat(m.Pi(s), 'f', 6, 64), desc); err != nil {
			return nil, err
		}
	}
	return t, nil
}
