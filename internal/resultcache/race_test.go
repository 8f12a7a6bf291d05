//go:build race

package resultcache

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// allocation counts are not pinned under it.
const raceEnabled = true
