//go:build !race

package resultcache

const raceEnabled = false
