//go:build race

package napel

// The race detector changes what allocates (sync.Pool drops entries at
// random under it), so the parallel load's allocation pins skip under
// -race.
func init() { raceEnabled = true }
