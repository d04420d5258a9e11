//go:build race

package serve

// The race detector changes what allocates (sync.Pool drops entries at
// random under it), so allocation pins skip under -race.
func init() { raceEnabled = true }
