// Package chain implements the Ethereum-style block-tree substrate used by
// the simulator: blocks linked by parent hashes, fork choice, uncle
// (ommer) reference validation, and reward settlement over a finished tree.
//
// The package is deliberately protocol-faithful where the paper depends on
// protocol behavior (uncle eligibility, reference distances, one reference
// per uncle) and configurable where the paper abstracts it away (maximum
// uncle depth, uncles per block).
package chain

import (
	"errors"
	"fmt"
)

// MinerID identifies the miner that produced a block. The simulator assigns
// IDs; the tree only records them. IDs must be non-negative: they index the
// dense per-miner reward tallies computed by settlement (genesis is
// conventionally the reserved ID 0, populations use 1..n).
type MinerID int

// BlockID is a dense handle for a block within one Tree.
type BlockID int

// NoBlock is the null block handle (parent of the genesis block).
const NoBlock BlockID = -1

// Classification of a block relative to a chosen main chain.
type Classification int

// Block classifications (Sec. III-B of the paper).
const (
	// Regular blocks are on the main chain.
	Regular Classification = iota + 1

	// Uncle blocks are stale blocks referenced by a main-chain block.
	Uncle

	// Stale blocks are off-chain and unreferenced.
	Stale
)

// String implements fmt.Stringer.
func (c Classification) String() string {
	switch c {
	case Regular:
		return "regular"
	case Uncle:
		return "uncle"
	case Stale:
		return "stale"
	default:
		return fmt.Sprintf("classification(%d)", int(c))
	}
}

// Validation errors returned by Tree.ExtendAt.
var (
	// ErrUnknownBlock is returned when a referenced block does not exist.
	ErrUnknownBlock = errors.New("chain: unknown block")

	// ErrUncleIsAncestor is returned when a block tries to reference one
	// of its own ancestors as an uncle.
	ErrUncleIsAncestor = errors.New("chain: uncle is an ancestor of the referencing block")

	// ErrUncleNotAttached is returned when an uncle's parent is not an
	// ancestor of the referencing block.
	ErrUncleNotAttached = errors.New("chain: uncle's parent is not an ancestor of the referencing block")

	// ErrUncleTooDeep is returned when the uncle is older than the
	// tree's maximum reference depth.
	ErrUncleTooDeep = errors.New("chain: uncle exceeds the maximum reference depth")

	// ErrUncleAlreadyReferenced is returned when an ancestor of the new
	// block already references the same uncle.
	ErrUncleAlreadyReferenced = errors.New("chain: uncle already referenced on this chain")

	// ErrTooManyUncles is returned when a block references more uncles
	// than the tree allows.
	ErrTooManyUncles = errors.New("chain: too many uncles in one block")

	// ErrDuplicateUncle is returned when the same uncle appears twice in
	// one block.
	ErrDuplicateUncle = errors.New("chain: duplicate uncle reference in one block")

	// ErrBadMinerID is returned when a block's miner ID is negative.
	ErrBadMinerID = errors.New("chain: miner ID must be non-negative")
)
